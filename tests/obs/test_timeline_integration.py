"""End-to-end timeline tests on real runs (the PR's acceptance criteria).

The reconciliation invariant: the span layer observes the *same*
nanoseconds the policy accounts in ``PolicyStats.fault_ns``, via the
residual-advancement discipline — so the per-order fault attribution
totals must sum to :meth:`System.total_fault_ns` within 1%.
"""

import json

import pytest

from repro.experiments.runner import NativeRunner, RunConfig
from repro.obs.options import ObsOptions


@pytest.fixture(scope="module")
def timeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("timeline")
    config = RunConfig(
        "GUPS",
        "Trident",
        fragmented=True,
        n_accesses=8_000,
        seed=7,
        obs=ObsOptions(
            timeline=True,
            timeline_out=str(out / "trace.json"),
            report_out=str(out / "report.html"),
            metrics_out=str(out / "metrics.json"),
        ),
    )
    runner = NativeRunner(config)
    metrics = runner.run()
    return runner, metrics, out


class TestReconciliation:
    def test_fault_attribution_matches_policy_accounting(self, timeline_run):
        runner, _, _ = timeline_run
        span_total = runner.obs.spans.total_ns("fault")
        policy_total = runner.system.total_fault_ns()
        assert policy_total > 0
        assert span_total == pytest.approx(policy_total, rel=0.01)

    def test_clock_advanced_past_fault_time(self, timeline_run):
        runner, _, _ = timeline_run
        # the axis folds in faults + daemon work + walk charges
        assert runner.obs.clock.now_ns >= runner.system.total_fault_ns()

    def test_per_order_rows_present(self, timeline_run):
        runner, _, _ = timeline_run
        orders = {
            r["order"]
            for r in runner.obs.spans.attribution()
            if r["kind"] == "fault"
        }
        assert orders  # at least one page-size order was faulted


class TestSeries:
    def test_configured_gauges_sampled(self, timeline_run):
        runner, _, _ = timeline_run
        series = runner.obs.timeline.export()["series"]
        for name in ("fmfi", "free_large_regions", "zerofill_pool"):
            assert series[name]["points"], f"{name} never sampled"

    def test_mapped_bytes_tracked_per_page_size(self, timeline_run):
        runner, _, _ = timeline_run
        series = runner.obs.timeline.export()["series"]
        assert "mapped_bytes_1GB" in series
        final_1g = series["mapped_bytes_1GB"]["points"][-1][1]
        assert final_1g > 0  # Trident mapped 1GB pages


class TestArtifacts:
    def test_chrome_trace_written_and_valid(self, timeline_run):
        from tests.obs.test_export import assert_valid_trace

        _, _, out = timeline_run
        with open(out / "trace.json") as f:
            trace = json.load(f)
        assert trace["traceEvents"]
        assert_valid_trace(trace)

    def test_report_written_with_sparklines(self, timeline_run):
        _, _, out = timeline_run
        page = (out / "report.html").read_text()
        assert "<svg" in page
        assert "fmfi" in page
        assert "zerofill_pool" in page
        assert "GUPS / Trident" in page

    def test_metrics_json_carries_timeline_section(self, timeline_run):
        _, _, out = timeline_run
        with open(out / "metrics.json") as f:
            data = json.load(f)
        timeline = data["timeline"]
        assert timeline["spans"]["spans_closed"] > 0
        assert timeline["sampler"]["samples"] > 0
        assert data["gauges"]["sim_clock_ns"] > 0
