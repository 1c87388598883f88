"""Smoke-size tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import catalog, harness, legs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(workload, tmp_path, seed=1, trace=False, tamper=None, passes=1):
    return harness.run_workload(
        workload, seed, seconds=0.0, trace=trace, scale=legs.SMOKE,
        tamper=tamper, min_passes=passes, out_dir=str(tmp_path),
    )


@pytest.fixture(scope="module")
def traced_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {w: _run(w, out, trace=True) for w in catalog.WORKLOADS}


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == [(m.name, m.unit, m.better) for m in catalog.END_TO_END]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in catalog.TRACED]
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == catalog.WORKLOAD_WHY[w["name"]]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_every_metric_printed_with_unit(workload, traced_results):
    result = traced_results[workload]
    assert result.correct, result.failures
    text = harness.report(result)
    for m in catalog.END_TO_END + catalog.TRACED:
        line = next(
            ln for ln in text.splitlines() if ln.split()[:1] == [m.name]
        )
        assert line.split()[2] == m.unit
    line = json.loads(result.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in catalog.TRACED]
    for m in catalog.TRACED:
        assert line["metrics"][m.name]["unit"] == m.unit


def test_untraced_line_carries_end_to_end_metrics(tmp_path):
    result = _run("tenant-churn", tmp_path)
    line = json.loads(result.result_line())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    assert list(line["metrics"]) == [m.name for m in catalog.END_TO_END]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def _corrupt_free_list(config, system):
    pfn = next(iter(system.buddy.iter_allocations()))[0]
    system.buddy._free_lists[0].add(pfn)


def test_tampered_free_list_counts_as_failure(tmp_path):
    result = _run("warm-translate", tmp_path, tamper=_corrupt_free_list)
    assert result.failed == result.attempted == 3
    assert not result.correct
    assert result.metrics["failed_ratio"][0] == 1.0
    assert all("InvariantViolation" in f for f in result.failures)
    assert json.loads(result.result_line())["correct"] is False


def test_state_changed_in_a_later_pass_breaks_the_digest(tmp_path):
    seen = set()

    def perturb_second_pass(config, system):
        if config in seen:
            system.obs.clock.advance(1.0)
        seen.add(config)

    result = _run("warm-translate", tmp_path, tamper=perturb_second_pass,
                  passes=2)
    assert result.attempted == 6 and result.failed == 3
    assert all("digest" in f for f in result.failures)


def test_seed_changes_digest_not_metric_names(tmp_path, traced_results):
    other = _run("frag-fault", tmp_path, seed=2, trace=True)
    base = traced_results["frag-fault"]
    assert other.correct
    assert other.digest != base.digest
    assert set(other.metrics) == set(base.metrics)


def test_traced_digest_matches_untraced(tmp_path, traced_results):
    for workload in ("warm-translate", "service-open"):
        untraced = _run(workload, tmp_path)
        assert untraced.digest == traced_results[workload].digest
        assert traced_results[workload].failed == 0


def test_traced_run_attributes_layer_time(traced_results):
    m = traced_results["frag-fault"].metrics
    assert m["core.fault_s"][0] > 0 and m["mem.buddy_s"][0] > 0
    assert m["virt.guest_touch.calls"][0] > 0 and m["virt.ept_backing_s"][0] > 0
    assert m["trace.unattributed_s"][0] >= 0
    assert traced_results["service-open"].metrics["obs.scrape_s"][0] > 0


def test_cli_fails_without_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frag-fault",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
