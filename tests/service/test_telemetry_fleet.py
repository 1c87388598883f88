"""Fleet telemetry end-to-end: frame streams, alerts, jobs parity.

Uses the burst-then-sparse arrival trace the CI telemetry-smoke job also
drives: a 60-request burst in the first 0.4ms saturates the cell (SLO
burn climbs through both alert windows), then sparse arrivals let the
queue drain so the alert demonstrably fires AND resolves in one run.
"""

import json
import os

import pytest

from repro.obs.telemetry.exposition import iter_frames, validate_exposition
from repro.service.fleet import ServiceConfig, TenantSpec, run_fleet

ALERT_RULES = {
    "rules": [
        {
            "name": "slo-burn",
            "kind": "burn_rate",
            "numerator": "service_slo_violations_total",
            "denominator": "service_requests_total",
            "objective": 0.05,
            "fast_window_ms": 0.6,
            "slow_window_ms": 2.0,
            "burn_threshold": 2.0,
            "for_frames": 2,
            "keep_frames": 3,
        }
    ]
}


def _write_burst_trace(path) -> None:
    """60 arrivals in the first 0.4ms, then one every 0.15ms to 4ms."""
    offsets = [i * 0.4e-3 / 60 for i in range(60)]
    t = 1.0e-3
    while t < 4.0e-3:
        offsets.append(t)
        t += 0.15e-3
    path.write_text("".join(f"{off:.9f}\n" for off in offsets))


def _config(
    tmp_path, jobs: int = 1, label: str = "run", tenants: tuple | None = None
) -> ServiceConfig:
    arrivals = tmp_path / "burst_arrivals.txt"
    if not arrivals.exists():
        _write_burst_trace(arrivals)
    rules = tmp_path / "alert_rules.json"
    if not rules.exists():
        rules.write_text(json.dumps(ALERT_RULES))
    out_dir = tmp_path / label
    return ServiceConfig(
        tenants=tenants or (TenantSpec("GUPS", "Trident", 20_000.0),),
        duration_s=0.004,
        slo_ms=0.1,
        seed=7,
        jobs=jobs,
        arrivals_path=str(arrivals),
        scale_factor=2048,
        settle_ticks=40,
        out_dir=str(out_dir),
        telemetry_out=str(out_dir / "telemetry"),
        telemetry_interval_ms=0.2,
        alerts_path=str(rules),
    )


def _read_streams(out_dir: str) -> dict:
    streams = {}
    telemetry = os.path.join(out_dir, "telemetry")
    for name in sorted(os.listdir(telemetry)):
        if name.endswith(".prom"):
            with open(os.path.join(telemetry, name)) as f:
                streams[name] = f.read()
    return streams


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("telemetry_fleet")
    config = _config(tmp_path, jobs=1)
    report = run_fleet(config)
    return tmp_path, config, report


class TestFleetTelemetry:
    def test_every_frame_validates(self, fleet_run):
        _, config, _ = fleet_run
        streams = _read_streams(config.out_dir)
        assert streams  # one .prom per cell
        for text in streams.values():
            frames = list(iter_frames(text))
            assert len(frames) > 10
            for seq, _, frame in frames:
                validate_exposition(frame)
            # Sequence numbers are gapless from 1.
            assert [seq for seq, _, _ in frames] == list(
                range(1, len(frames) + 1)
            )
            # The stream is exactly its frames: no partial trailing frame.
            assert "".join(frame for _, _, frame in frames) == text

    def test_streams_carry_labeled_service_series(self, fleet_run):
        _, config, _ = fleet_run
        (text,) = _read_streams(config.out_dir).values()
        assert (
            'service_requests_total{policy="Trident",workload="GUPS"}' in text
        )
        assert "# TYPE service_request_latency_ns histogram" in text
        assert "telemetry_frames_total" in text
        assert "alerts_active" in text

    def test_alert_fires_and_resolves(self, fleet_run):
        _, config, report = fleet_run
        with open(os.path.join(config.out_dir, "alerts.json")) as f:
            merged = json.load(f)
        states = [t["state"] for t in merged["transitions"]]
        assert states == ["firing", "resolved"]
        firing, resolved = merged["transitions"]
        assert firing["rule"] == "slo-burn"
        assert resolved["sim_ms"] > firing["sim_ms"]
        assert merged["firing"] == 1 and merged["resolved"] == 1
        assert report["alerts"] == {"firing": 1, "resolved": 1, "active": 0}

    def test_cell_record_counts_every_streamed_frame(self, fleet_run):
        _, config, _ = fleet_run
        (text,) = _read_streams(config.out_dir).values()
        cells = os.path.join(config.out_dir, "cells")
        (name,) = os.listdir(cells)
        with open(os.path.join(cells, name)) as f:
            record = json.load(f)
        # the closing frame is in the stream and in the record's count
        assert record["telemetry_frames"] == len(list(iter_frames(text)))

    def test_alert_transitions_visible_in_stream(self, fleet_run):
        _, config, _ = fleet_run
        (text,) = _read_streams(config.out_dir).values()
        assert 'alert_transitions_total{rule="slo-burn"} 2' in text

    def test_report_table_mentions_alerts(self, fleet_run):
        from repro.service.report import render_service_table

        _, _, report = fleet_run
        lines = render_service_table(report)
        assert any(
            "alerts: 1 fired, 1 resolved, 0 still active" in line
            for line in lines
        )


class TestJobsParity:
    def test_jobs_1_vs_4_byte_identical(self, tmp_path):
        # Two tenants so jobs=4 actually schedules cells on different
        # workers; streams, alerts and the report must not notice.
        tenants = (
            TenantSpec("GUPS", "Trident", 20_000.0),
            TenantSpec("GUPS", "4KB", 20_000.0),
        )
        report_1 = run_fleet(_config(tmp_path, jobs=1, label="j1", tenants=tenants))
        report_4 = run_fleet(_config(tmp_path, jobs=4, label="j4", tenants=tenants))
        assert json.dumps(report_1, sort_keys=True) == json.dumps(
            report_4, sort_keys=True
        )
        streams_1 = _read_streams(str(tmp_path / "j1"))
        streams_4 = _read_streams(str(tmp_path / "j4"))
        assert list(streams_1) == list(streams_4)
        for name in streams_1:
            assert streams_1[name] == streams_4[name], name
        for artifact in ("alerts.json", "service_report.json"):
            with open(tmp_path / "j1" / artifact) as f:
                first = f.read()
            with open(tmp_path / "j4" / artifact) as f:
                second = f.read()
            assert first == second, artifact
