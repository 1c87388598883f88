"""End-to-end: the emitted metrics.json agrees with RunMetrics.

The acceptance contract for the observability layer: counters exported by
the registry and the figures computed from :class:`RunMetrics` must be two
views of the same numbers.
"""

import json

from repro.cli import main
from repro.experiments.runner import NativeRunner, RunConfig
from repro.obs.options import ObsOptions, ambient, ambient_options


class TestMetricsJsonMatchesRunMetrics:
    def test_zerofill_and_promotion_counters_agree(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        runner = NativeRunner(
            RunConfig(
                "GUPS",
                "Trident",
                n_accesses=3000,
                fragmented=True,
                obs=ObsOptions(metrics_out=path),
            )
        )
        metrics = runner.run()
        data = json.loads(open(path).read())
        counters = data["counters"]
        assert counters["zerofill_take_hit_total"] == metrics.zerofill_pool_hits
        assert (
            counters["zerofill_take_miss_total"] == metrics.zerofill_pool_misses
        )
        assert counters["zerofill_fill_total"] == metrics.zerofill_blocks_zeroed
        assert (
            counters["policy_promo_large_failures_total"]
            == metrics.promo_large_failures
        )
        assert (
            counters["policy_promo_large_attempts_total"]
            == metrics.promo_large_attempts
        )
        assert (
            counters["policy_fault_large_attempts_total"]
            == metrics.fault_large_attempts
        )
        assert (
            counters["policy_fault_large_failures_total"]
            == metrics.fault_large_failures
        )
        # The embedded run section mirrors the same RunMetrics fields.
        assert data["run"]["zerofill_pool_hits"] == metrics.zerofill_pool_hits
        assert (
            data["run"]["promo_large_failures"] == metrics.promo_large_failures
        )

    def test_tlb_totals_agree_with_translation_stats(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        runner = NativeRunner(
            RunConfig(
                "GUPS", "Trident", n_accesses=3000,
                obs=ObsOptions(metrics_out=path),
            )
        )
        metrics = runner.run()
        counters = json.loads(open(path).read())["counters"]
        # The runner resets TLB stats before the steady-state stream, so the
        # mirrored totals equal the sampled-phase counts in RunMetrics.
        assert counters["tlb_accesses_total"] == metrics.accesses
        walks = sum(
            v for k, v in counters.items() if k.startswith("tlb_walks_total{")
        )
        assert walks == metrics.walks


class TestObservabilityCLI:
    def test_policy_flag_is_case_insensitive(self, capsys, tmp_path):
        path = str(tmp_path / "m.json")
        code = main(
            [
                "run", "GUPS", "--policy", "trident",
                "--accesses", "2000", "--metrics-out", path,
            ]
        )
        assert code == 0
        data = json.loads(open(path).read())
        assert data["run"]["policy"] == "Trident"
        assert "metrics written" in capsys.readouterr().out

    def test_missing_policy_errors(self, capsys):
        assert main(["run", "GUPS"]) == 2
        assert "no policy" in capsys.readouterr().out

    def test_trace_flag_prints_summary_and_writes_jsonl(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        code = main(
            [
                "run", "GUPS", "Trident", "--accesses", "2000",
                "--trace", "--trace-out", trace_path,
                "--trace-subsystems", "buddy,zerofill",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        records = [
            json.loads(line) for line in open(trace_path) if line.strip()
        ]
        assert records
        assert {r["subsystem"] for r in records} <= {"buddy", "zerofill"}

    def test_metrics_command_lists_catalog(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "buddy_free_blocks" in out
        assert "tlb_walk_cycles" in out
        assert main(["metrics", "--kind", "gauge"]) == 0
        out = capsys.readouterr().out
        assert "zerofill_pool_size" in out
        assert "buddy_alloc_total" not in out

    def test_metrics_dir_drop(self, tmp_path):
        """``repro experiment --metrics-out DIR`` routes every runner's
        metrics.json into DIR via the ambient options."""
        import os

        out_dir = str(tmp_path / "metrics")
        os.makedirs(out_dir)
        with ambient(ObsOptions(metrics_dir=out_dir)):
            NativeRunner(RunConfig("GUPS", "Trident", n_accesses=2000)).run()
        written = os.listdir(out_dir)
        assert written == ["metrics_GUPS_Trident.json"]
        sample = json.loads(open(os.path.join(out_dir, written[0])).read())
        assert "counters" in sample and "run" in sample

    def test_repeated_pairs_get_run_order_suffixes(self, tmp_path):
        """Runs repeating a (workload, policy) pair keep every drop."""
        import os

        out_dir = str(tmp_path / "metrics")
        with ambient(ObsOptions(metrics_dir=out_dir)):
            for accesses in (1000, 2000, 3000):
                NativeRunner(
                    RunConfig("GUPS", "Trident", n_accesses=accesses)
                ).run()
        assert sorted(os.listdir(out_dir)) == [
            "metrics_GUPS_Trident-2.json",
            "metrics_GUPS_Trident-3.json",
            "metrics_GUPS_Trident.json",
        ]
        accesses = [
            json.load(open(os.path.join(out_dir, name)))["run"]["accesses"]
            for name in (
                "metrics_GUPS_Trident.json",
                "metrics_GUPS_Trident-2.json",
                "metrics_GUPS_Trident-3.json",
            )
        ]
        assert accesses == [1000, 2000, 3000]

    def test_extension_5level_quick_keeps_all_four_drops(
        self, capsys, tmp_path, monkeypatch
    ):
        """Two walk depths x two policies: four runs, four files."""
        import os

        monkeypatch.chdir(tmp_path)  # the experiment's CSV lands in report/

        out_dir = str(tmp_path / "drop")
        args = ["experiment", "extension_5level", "--quick"]
        assert main(args + ["--metrics-out", out_dir]) == 0
        assert len(os.listdir(out_dir)) == 4
        # a second invocation into the same directory reuses the names
        assert main(args + ["--metrics-out", out_dir]) == 0
        assert len(os.listdir(out_dir)) == 4

    def test_experiment_flag_resets_metrics_dir(self, capsys, tmp_path):
        out_dir = str(tmp_path / "drop")
        # Even when the experiment itself fails, the ambient is restored.
        assert main(["experiment", "nope", "--metrics-out", out_dir]) == 2
        assert ambient_options() == ObsOptions()
