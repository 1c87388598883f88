"""ObsOptions: the one source of truth for observability flags."""

from __future__ import annotations

import argparse
import os

import pytest

from repro.obs.options import (
    ObsOptions,
    add_obs_args,
    ambient,
    ambient_options,
    claim_drop_path,
    obs_options_from_args,
)


def _parse(scope: str, argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    add_obs_args(parser, scope=scope)
    return parser.parse_args(argv)


def test_run_scope_registers_full_surface():
    args = _parse(
        "run",
        [
            "--trace",
            "--trace-subsystems",
            "tlb,policy",
            "--trace-capacity",
            "128",
            "--trace-out",
            "t.jsonl",
            "--metrics-out",
            "m.json",
            "--audit",
            "--audit-every",
            "512",
            "--timeline",
            "--timeline-out",
            "tl.json",
            "--report-out",
            "r.html",
        ],
    )
    opts = obs_options_from_args(args)
    assert opts == ObsOptions(
        trace=True,
        trace_subsystems=("tlb", "policy"),
        trace_capacity=128,
        trace_out="t.jsonl",
        metrics_out="m.json",
        audit=True,
        audit_every=512,
        timeline=True,
        timeline_out="tl.json",
        report_out="r.html",
    )


@pytest.mark.parametrize("scope", ["experiment", "sweep"])
def test_ambient_scopes_register_only_toggles(scope):
    args = _parse(scope, ["--audit", "--timeline"])
    opts = obs_options_from_args(args)
    assert opts.audit and opts.timeline
    # flags the scope did not register fall back to dataclass defaults
    assert opts == ObsOptions(audit=True, timeline=True)
    with pytest.raises(SystemExit):
        _parse(scope, ["--trace"])


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        add_obs_args(argparse.ArgumentParser(), scope="nonsense")


def test_trace_out_implies_trace():
    opts = ObsOptions(trace_out="t.jsonl")
    assert not opts.trace
    assert opts.trace_enabled


def test_timeline_exports_imply_timeline():
    assert not ObsOptions().timeline_on
    assert ObsOptions(timeline=True).timeline_on
    assert ObsOptions(timeline_out="tl.json").timeline_on
    assert ObsOptions(report_out="r.html").timeline_on


def test_companion_drops_trace_and_per_run_artifacts():
    opts = ObsOptions(
        trace=True,
        trace_out="t.jsonl",
        metrics_out="m.json",
        metrics_dir="drops",
        audit=True,
        timeline=True,
        timeline_out="tl.json",
        report_out="r.html",
        telemetry_out="t.prom",
    )
    companion = opts.companion()
    # ambient toggles still apply to companion (e.g. --baseline) runs...
    assert companion.audit is True
    assert companion.timeline_on is True
    assert companion.metrics_dir == "drops"
    # ...but the trace and per-run artifacts belong to the primary run only
    assert not companion.trace_enabled
    assert companion.metrics_out is None
    assert companion.timeline_out is None
    assert companion.report_out is None
    assert companion.telemetry_out is None
    assert companion == ObsOptions(metrics_dir="drops", audit=True, timeline=True)


def test_ambient_context_installs_and_restores():
    assert ambient_options() == ObsOptions()
    inner = ObsOptions(audit=True, metrics_dir="drops")
    with ambient(inner) as installed:
        assert installed is inner
        assert ambient_options() is inner
        with ambient(ObsOptions(timeline=True)):
            assert ambient_options().timeline
        assert ambient_options() is inner
    assert ambient_options() == ObsOptions()


def test_drop_names_suffix_in_run_order():
    with ambient(ObsOptions()):
        names = [
            os.path.basename(claim_drop_path("d", stem))
            for stem in ("m_a", "m_b", "m_a", "m_a", "x/y")
        ]
    assert names == ["m_a.json", "m_b.json", "m_a-2.json", "m_a-3.json", "x_y.json"]
    with ambient(ObsOptions()):
        # a fresh ambient scope starts numbering again
        assert claim_drop_path("d", "m_a") == os.path.join("d", "m_a.json")
