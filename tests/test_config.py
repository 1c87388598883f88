"""Tests for the configuration layer."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.config import (
    SCALE_FACTOR,
    SCALED_GEOMETRY,
    X86_GEOMETRY,
    CostModel,
    MachineConfig,
    TLBConfig,
    WalkConfig,
    default_machine,
    x86_ladder,
)
from repro.tlb.walker import PageWalker

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)


class TestPageGeometry:
    def test_x86_sizes(self):
        assert X86_GEOMETRY.base_size == 4096
        assert X86_GEOMETRY.mid_size == 2 << 20
        assert X86_GEOMETRY.large_size == 1 << 30
        assert X86_GEOMETRY.mids_per_large == 512

    def test_scale_factor(self):
        assert SCALE_FACTOR == X86_GEOMETRY.large_size // SCALED_GEOMETRY.large_size

    def test_validation(self):
        with pytest.raises(ValueError):
            x86_ladder(9, 9)  # mid == large
        with pytest.raises(ValueError):
            x86_ladder(0, 5)
        with pytest.raises(ValueError):
            x86_ladder(4, 8, base_shift=0)

    @given(
        st.integers(10, 14),
        st.integers(1, 8),
        st.integers(9, 20),
    )
    def test_alignment_laws(self, base_shift, mid_order, large_order):
        if mid_order >= large_order:
            return
        g = x86_ladder(mid_order, large_order, base_shift)
        for size in (BASE, MID, LARGE):
            nbytes = g.bytes_for(size)
            for addr in (0, nbytes - 1, nbytes, 3 * nbytes + 17):
                down = g.align_down(addr, size)
                up = g.align_up(addr, size)
                assert down <= addr <= up
                assert down % nbytes == 0 and up % nbytes == 0
                assert up - down in (0, nbytes)
                assert g.is_aligned(down, size)

    def test_frames_for_consistency(self):
        g = SCALED_GEOMETRY
        assert g.frames_for(BASE) == 1
        assert g.frames_for(MID) * g.mids_per_large == g.frames_for(
            LARGE
        )


class TestWalkConfig:
    def test_five_level_counts(self):
        w = PageWalker(WalkConfig(levels_base=5), SCALED_GEOMETRY)
        assert w.levels_for(BASE) == 5
        assert w.nested_walk_accesses(BASE, BASE) == 35

    def test_leaf_cached_prob_per_size(self):
        levels = SCALED_GEOMETRY.levels
        assert levels[BASE].leaf_cached_prob == 0.0
        assert levels[MID].leaf_cached_prob < levels[LARGE].leaf_cached_prob

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="levels_base"):
            WalkConfig(levels_base=0)
        with pytest.raises(ValueError, match="pwc_hit_rate"):
            WalkConfig(pwc_hit_rate=1.5)


class TestMachineConfig:
    def test_rejects_partial_regions(self):
        with pytest.raises(ValueError):
            MachineConfig(
                geometry=SCALED_GEOMETRY,
                total_frames=SCALED_GEOMETRY.frames_per_large + 1,
            )

    def test_default_machine_sizes(self):
        m = default_machine(8)
        assert m.n_large_regions == 8
        assert m.total_bytes == 8 * SCALED_GEOMETRY.large_size

    def test_default_machine_uses_scaled_tlb_and_cost(self):
        m = default_machine(8)
        assert "mid" in dict(m.geometry.l2_groups)  # the scaled shapes
        # Scaled cost model: zeroing a scaled large page costs real-1GB time.
        assert m.cost.zero_ns(m.geometry.large_size) == pytest.approx(
            CostModel().zero_ns(X86_GEOMETRY.large_size)
        )

    def test_x86_machine_keeps_real_shapes(self):
        m = default_machine(4, X86_GEOMETRY)
        assert dict(m.geometry.l2_groups) == {
            "shared": TLBConfig(1536, 12),
            "large": TLBConfig(16, 4),
        }
        assert m.geometry.levels[0].tlb.l1 == TLBConfig(64, 4)
        assert m.cost.zero_bandwidth_bytes_per_ns == pytest.approx(2.6)

    def test_rejects_walk_deeper_than_the_table(self):
        with pytest.raises(ValueError, match=r"levels\[2\].*levels_skipped"):
            MachineConfig(walk=WalkConfig(levels_base=2))

    def test_scaled_copy(self):
        m = default_machine(8)
        m2 = m.scaled(16 * SCALED_GEOMETRY.frames_per_large)
        assert m2.n_large_regions == 16
        assert m2.geometry == m.geometry
