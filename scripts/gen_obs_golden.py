"""Regenerate the observability-artifact golden.

Every driver (the native and virtualized runners, the service cell and
the tenant shard) ends its run by writing artifacts: ``metrics.json``,
Chrome traces, HTML reports, Prometheus scrape streams and per-run
records.  This script freezes the bytes of each of them for one
representative run per driver, plus the per-run metrics drops of a
quick ``repro experiment figure9``, as one sha256 per file:

* ``native``: a fragmented Trident run with the trace ring, audit,
  timeline, Chrome trace, HTML report, ``metrics.json`` and telemetry;
* ``virt_pv``: a Trident-pv virtualized run with audit, ``metrics.json``
  and telemetry;
* ``service_cell``: one open-loop cell replaying the burst arrival trace
  with the timeline, a Chrome trace, telemetry and the example alert
  rules;
* ``tenant_shard``: an audited shard of a 2-node tenant machine with
  telemetry;
* ``figure9_drops``: ``repro experiment figure9 --quick --metrics-out``.

``tests/obs/test_obs_golden.py`` replays the same runs through
:func:`collect` and compares against the committed JSON, so a change to
when a driver audits, samples, scrapes or exports that moves one byte
of one artifact fails.

Run from the repo root:

    PYTHONPATH=src python scripts/gen_obs_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.experiments import report  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    NativeRunner,
    RunConfig,
    VirtRunConfig,
    VirtRunner,
)
from repro.obs.options import ObsOptions  # noqa: E402
from repro.service.fleet import run_service_cell  # noqa: E402
from repro.sim.multitenant import run_shard  # noqa: E402

GOLDEN_PATH = os.path.join(REPO, "tests", "golden", "obs_artifacts.json")
ALERT_RULES = os.path.join(REPO, "examples", "alert_rules.json")
BURST_ARRIVALS = os.path.join(REPO, "examples", "burst_arrivals.txt")


def _json(path: str, record: dict) -> None:
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def run_native(out: str) -> None:
    runner = NativeRunner(
        RunConfig(
            "GUPS",
            "Trident",
            fragmented=True,
            n_accesses=3000,
            seed=7,
            machine_regions=48,
            obs=ObsOptions(
                trace=True,
                trace_capacity=4096,
                audit=True,
                audit_every=65536,
                timeline_out=os.path.join(out, "trace.json"),
                report_out=os.path.join(out, "report.html"),
                metrics_out=os.path.join(out, "metrics.json"),
                telemetry_out=os.path.join(out, "telemetry.prom"),
                telemetry_interval_ms=200.0,
            ),
        )
    )
    runner.run()
    runner.obs.tracer.export_jsonl(os.path.join(out, "events.jsonl"))


def run_virt_pv(out: str) -> None:
    VirtRunner(
        VirtRunConfig(
            "GUPS",
            "Trident",
            "Trident",
            pv=True,
            n_accesses=1500,
            seed=7,
            obs=ObsOptions(
                audit=True,
                audit_every=65536,
                metrics_out=os.path.join(out, "metrics.json"),
                telemetry_out=os.path.join(out, "telemetry.prom"),
                telemetry_interval_ms=200.0,
            ),
        )
    ).run()


def run_cell(out: str) -> None:
    record = run_service_cell(
        "GUPS",
        "Trident",
        tenant=0,
        rate_rps=20000.0,
        duration_s=0.004,
        seed=7,
        slo_ms=0.1,
        arrivals_path=BURST_ARRIVALS,
        scale_factor=2048,
        timeline=True,
        trace_out=os.path.join(out, "trace.json"),
        telemetry_out=os.path.join(out, "telemetry.prom"),
        telemetry_interval_ms=0.2,
        alerts_path=ALERT_RULES,
    )
    _json(os.path.join(out, "record.json"), record)


def run_tenant_shard(out: str) -> None:
    record = run_shard(
        shard=1,
        tenant_ids=[1, 5, 9, 13],
        policy="Trident",
        seed=7,
        rounds=3,
        accesses_per_round=1000,
        churn_prob=0.5,
        max_segments=4,
        regions_per_tenant=1.5,
        numa_nodes=2,
        numa_remote_multiplier=1.4,
        pt_replication=False,
        audit=True,
        telemetry_out=os.path.join(out, "telemetry.prom"),
        telemetry_interval_ms=0.5,
    )
    _json(os.path.join(out, "record.json"), record)


def run_figure9_drops(out: str) -> None:
    argv = ["experiment", "figure9", "--quick", "--metrics-out", out]
    saved = report.REPORT_DIR
    # the experiment's CSV is not an obs artifact: keep it beside the drops
    report.REPORT_DIR = os.path.join(os.path.dirname(out), "figure9_report")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise RuntimeError(f"repro {' '.join(argv)} failed")
    finally:
        report.REPORT_DIR = saved


CASES = {
    "native": run_native,
    "virt_pv": run_virt_pv,
    "service_cell": run_cell,
    "tenant_shard": run_tenant_shard,
    "figure9_drops": run_figure9_drops,
}


def _digests(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def collect(case: str, workdir: str) -> dict:
    """Run one case inside ``workdir``; returns ``{artifact: sha256}``."""
    out = os.path.join(workdir, case)
    os.makedirs(out, exist_ok=True)
    CASES[case](out)
    return _digests(out)


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        golden = {case: collect(case, workdir) for case in CASES}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)}")


if __name__ == "__main__":
    main()
