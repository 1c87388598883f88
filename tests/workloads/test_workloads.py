"""Tests for the workload models and access-pattern generators."""

import numpy as np
import pytest

from repro.config import SCALE_FACTOR, default_machine
from repro.core.trident import TridentPolicy
from repro.sim.system import System
from repro.workloads import access
from repro.workloads.registry import (
    ALL_WORKLOADS,
    REGISTRY,
    SHADED_EIGHT,
    get_workload,
)

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)

G = default_machine(8).geometry


class _FakeAPI:
    """Minimal WorkloadAPI double backed by a plain AddressSpace."""

    def __init__(self, seed=0):
        from repro.vm.addrspace import AddressSpace

        self.aspace = AddressSpace(G)
        self.rng = np.random.default_rng(seed)
        self.touched = 0
        self.phases = []
        self.freed = []

    def mmap(self, nbytes, kind="heap"):
        return self.aspace.mmap(nbytes, name=kind).start

    def munmap(self, addr):
        self.freed.append(addr)
        self.aspace.munmap(addr)

    def touch(self, addresses):
        self.touched += len(addresses)

    def phase(self, label):
        self.phases.append(label)


class TestAccessPatterns:
    def test_uniform_in_bounds(self):
        rng = np.random.default_rng(0)
        vas = access.uniform(rng, 1000, 5000, 200)
        assert len(vas) == 200
        assert (vas >= 1000).all() and (vas < 6000).all()

    def test_uniform_rejects_bad_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            access.uniform(rng, 0, 0, 10)

    def test_zipf_is_skewed(self):
        rng = np.random.default_rng(0)
        vas = access.zipf(rng, 0, 1 << 22, 20_000, alpha=1.3)
        pages, counts = np.unique(vas >> 12, return_counts=True)
        counts = np.sort(counts)[::-1]
        # Hot pages take a disproportionate share.
        assert counts[:10].sum() > 0.2 * counts.sum()

    def test_zipf_rejects_alpha_below_one(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            access.zipf(rng, 0, 4096, 10, alpha=1.0)

    def test_sequential_wraps(self):
        vas = access.sequential(0, 1024, 100, stride=64)
        assert vas.max() < 1024
        assert vas[0] == 0 and vas[1] == 64

    def test_sequential_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            access.sequential(0, 1024, 10, stride=0)

    def test_strided_multiples(self):
        rng = np.random.default_rng(0)
        vas = access.strided(rng, 0, 1 << 16, 100, stride=512)
        assert (vas % 512 == 0).all()

    def test_pointer_chase_in_bounds(self):
        rng = np.random.default_rng(0)
        vas = access.pointer_chase(rng, 4096, 1 << 16, 100, node=128)
        assert (vas >= 4096).all()
        assert (vas < 4096 + (1 << 16)).all()

    def test_mixture_respects_weights(self):
        rng = np.random.default_rng(0)
        a = np.zeros(100, dtype=np.int64)
        b = np.ones(100, dtype=np.int64)
        out = access.mixture(rng, [(0.9, a), (0.1, b)], 5000)
        assert 0.85 < (out == 0).mean() < 0.95

    def test_mixture_rejects_bad_weights(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            access.mixture(rng, [(0.0, np.zeros(1, dtype=np.int64))], 10)

    @staticmethod
    def _mixture_loop(rng, parts, n):
        """The per-access reference: draw a source, take its next element."""
        weights = np.array([w for w, _ in parts], dtype=np.float64)
        choice = rng.choice(len(parts), size=n, p=weights / weights.sum())
        out = np.empty(n, dtype=np.int64)
        cursors = [0] * len(parts)
        for i, c in enumerate(choice):
            pool = parts[c][1]
            out[i] = pool[cursors[c] % len(pool)]
            cursors[c] += 1
        return out

    @pytest.mark.parametrize("chunk", [7, access._MIXTURE_CHUNK])
    def test_mixture_matches_per_access_reference(self, chunk, monkeypatch):
        monkeypatch.setattr(access, "_MIXTURE_CHUNK", chunk)
        cases = np.random.default_rng(99)
        for _ in range(30):
            k = int(cases.integers(1, 5))
            weights = cases.random(k)
            weights[cases.random(k) < 0.25] = 0.0  # some sources never drawn
            if weights.sum() == 0:
                weights[0] = 1.0
            parts = [
                (float(w), cases.integers(0, 1 << 40, int(cases.integers(1, 60))))
                for w in weights
            ]
            parts[0] = (parts[0][0], list(parts[0][1][:1]))  # 1-element list
            seed, n = int(cases.integers(0, 1 << 30)), int(cases.integers(0, 3000))
            got = access.mixture(np.random.default_rng(seed), parts, n)
            want = self._mixture_loop(np.random.default_rng(seed), parts, n)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


class TestRegistry:
    def test_all_twelve_workloads_present(self):
        assert len(ALL_WORKLOADS) == 12
        for name in (
            "XSBench",
            "SVM",
            "Graph500",
            "CC",
            "BC",
            "PR",
            "CG",
            "Btree",
            "GUPS",
            "Redis",
            "Memcached",
            "Canneal",
        ):
            assert name in REGISTRY

    def test_shaded_eight(self):
        assert set(SHADED_EIGHT) == {
            "XSBench",
            "SVM",
            "Graph500",
            "Btree",
            "GUPS",
            "Redis",
            "Memcached",
            "Canneal",
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_footprints_scale(self):
        w = get_workload("GUPS")
        assert w.footprint_bytes == int(32.0 * (1 << 30)) // SCALE_FACTOR

    def test_specs_have_sane_calibration(self):
        for name in ALL_WORKLOADS:
            spec = REGISTRY[name].spec
            assert spec.cpi_base > 0
            assert 0 < spec.walk_exposure <= 1
            assert spec.touches_per_page > 0
            assert spec.paper_footprint_gb > 1


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestEveryWorkload:
    def test_setup_allocates_footprint(self, name):
        w = get_workload(name)
        api = _FakeAPI()
        w.setup(api)
        mapped = api.aspace.mapped_bytes
        # Graph500 frees its edge list after building the CSR, so its final
        # footprint is well below the Table 2 peak; everyone else ends near
        # the declared (scaled) footprint.
        low = 0.5 if name == "Graph500" else 0.75
        assert low * w.footprint_bytes <= mapped <= 1.35 * w.footprint_bytes

    def test_access_stream_targets_mapped_memory(self, name):
        w = get_workload(name)
        api = _FakeAPI()
        w.setup(api)
        stream = w.access_stream(api, 2000)
        assert len(stream) == 2000
        misses = sum(1 for va in stream[:200] if api.aspace.find_vma(int(va)) is None)
        assert misses == 0

    def test_stream_is_deterministic_per_seed(self, name):
        def run(seed):
            w = get_workload(name)
            api = _FakeAPI(seed)
            w.setup(api)
            return w.access_stream(api, 500)

        assert (run(3) == run(3)).all()


class TestAllocationCharacter:
    """Table 3's driver: pre-allocators vs incremental allocators."""

    def test_preallocators_are_large_mappable_up_front(self):
        from repro.vm.mappability import mappable_bytes

        for name in ("GUPS", "XSBench"):
            w = get_workload(name)
            api = _FakeAPI()
            w.setup(api)
            large = mappable_bytes(api.aspace, LARGE)
            assert large > 0.85 * w.footprint_bytes, name

    def test_incremental_allocators_fault_no_large_pages(self):
        system = System(default_machine(96), TridentPolicy, seed=4)
        p = system.create_process("redis")
        w = get_workload("Redis")

        class API(_FakeAPI):
            def __init__(self):
                self.rng = np.random.default_rng(0)
                self.phases = []

            def mmap(self, nbytes, kind="heap"):
                return system.sys_mmap(p, nbytes, kind)

            def munmap(self, addr):
                system.sys_munmap(p, addr)

            def touch(self, addresses):
                system.touch_batch(p, addresses)

            def phase(self, label):
                self.phases.append(label)

        w.setup(API())
        # Redis inserts incrementally: the fault handler maps (almost) no
        # large pages (Table 3: 0GB page-fault-only).  The couple it does
        # map cover the stack segment, which Trident (unlike hugetlbfs)
        # CAN back with large pages - the paper's Section 7 point.

        large_mapped = system.policy.stats.fault_mapped[LARGE]
        assert large_mapped * G.large_size < 0.1 * w.footprint_bytes


class TestIterBatches:
    """iter_batches is the single streaming protocol the runner consumes."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_batches_reassemble_the_stream(self, name):
        def stream_of(seed):
            w = get_workload(name)
            api = _FakeAPI(seed)
            w.setup(api)
            return w, api

        w1, api1 = stream_of(3)
        w2, api2 = stream_of(3)
        whole = np.asarray(w1.access_stream(api1, 700), dtype=np.int64)
        batches = list(w2.iter_batches(api2, 700, batch=256))
        assert [len(b) for b in batches] == [256, 256, 188]
        np.testing.assert_array_equal(np.concatenate(batches), whole)

    def test_batches_are_contiguous_int64(self):
        w = get_workload(ALL_WORKLOADS[0])
        api = _FakeAPI(1)
        w.setup(api)
        for chunk in w.iter_batches(api, 1000, batch=300):
            assert chunk.dtype == np.int64
            assert chunk.flags["C_CONTIGUOUS"]

    def test_default_batch_covers_short_streams_whole(self):
        w = get_workload(ALL_WORKLOADS[0])
        api = _FakeAPI(1)
        w.setup(api)
        batches = list(w.iter_batches(api, 500))
        assert len(batches) == 1 and len(batches[0]) == 500
