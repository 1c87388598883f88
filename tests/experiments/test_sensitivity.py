"""Tests for the sensitivity sweeps (reduced sizes)."""

from repro.experiments.sensitivity import (
    run_fragmentation_sweep,
    run_tlb_capacity_sweep,
)


class TestTLBCapacitySweep:
    def test_more_1gb_entries_never_hurt(self):
        rows = run_tlb_capacity_sweep(
            workload="GUPS", l2_large_entries=(4, 64), n_accesses=15_000
        )
        by = {r["l2_1gb_entries"]: r for r in rows}
        assert (
            by[64]["walk_cycles_per_access"] < by[4]["walk_cycles_per_access"]
        )
        assert by[64]["trident_vs_thp"] >= by[4]["trident_vs_thp"] - 0.02

    def test_enough_entries_eliminate_walks(self):
        rows = run_tlb_capacity_sweep(
            workload="GUPS", l2_large_entries=(64,), n_accesses=15_000
        )
        # 64 entries cover GUPS's 32 large pages entirely.
        assert rows[0]["walk_cycles_per_access"] < 1.0


class TestFragmentationSweep:
    def test_trident_beats_thp_at_every_severity(self):
        rows = run_fragmentation_sweep(
            workload="GUPS", residuals=(0.0, 0.3), n_accesses=15_000
        )
        for row in rows:
            assert row["trident_vs_thp"] > 1.1

    def test_fault_failures_appear_with_fragmentation(self):
        rows = run_fragmentation_sweep(
            workload="GUPS", residuals=(0.0, 0.3), n_accesses=15_000
        )
        by = {r["residual_cache_fraction"]: r for r in rows}
        assert by[0.0]["fault_large_fail_pct"] == 0.0
        assert by[0.3]["fault_large_fail_pct"] > 30.0
