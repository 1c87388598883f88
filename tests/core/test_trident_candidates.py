"""khugepaged candidate order (Figure 5 scan): the per-process slot builder."""

from repro.config import default_machine
from repro.core.trident import TridentPolicy
from repro.sim.system import System
from repro.vm.mappability import mappable_ranges

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)


def make(regions=16, **policy_kwargs):
    system = System(
        default_machine(regions),
        lambda kernel: TridentPolicy(kernel, **policy_kwargs),
        seed=3,
    )
    process = system.create_process("t")
    return system, process


def naive_candidates(policy):
    """The pre-bisect reference: linear overlap scan per mid slot."""
    geometry = policy.kernel.geometry
    out = []
    for process in list(policy.kernel.processes):
        for vma in process.aspace.iter_extents():
            covered = []
            for start, end in mappable_ranges(vma, LARGE, geometry):
                covered.append((start, end))
                out.append((process.pid, start, LARGE))
            if not policy.use_mid:
                continue
            for start, _ in mappable_ranges(vma, MID, geometry):
                if not any(s <= start < e for s, e in covered):
                    out.append((process.pid, start, MID))
    return out


def stream_of(policy):
    """One pass's sequential order: each process's cached slot list."""
    return [
        (p.pid, start, size)
        for p in policy.kernel.processes
        for start, size in policy._process_slots(p).slots
    ]


class TestCandidateStreamOrder:
    def test_matches_naive_reference_on_mixed_vmas(self):
        system, p = make()
        G = system.geometry
        # A VMA with large-mappable interior plus mid-only edges, a
        # mid-only VMA, and a sub-mid VMA that yields nothing.
        system.sys_mmap(p, 2 * G.large_size + 3 * G.mid_size)
        system.sys_mmap(p, 5 * G.mid_size)
        system.sys_mmap(p, G.base_size)
        candidates = stream_of(system.policy)
        assert candidates == naive_candidates(system.policy)
        sizes = {size for _, _, size in candidates}
        assert sizes == {LARGE, MID}

    def test_mid_slots_inside_large_slots_are_skipped(self):
        system, p = make()
        G = system.geometry
        system.sys_mmap(p, G.large_size)
        candidates = stream_of(system.policy)
        large_spans = [
            (start, start + G.large_size)
            for _, start, size in candidates
            if size == LARGE
        ]
        for _, start, size in candidates:
            if size == MID:
                assert not any(s <= start < e for s, e in large_spans)

    def test_matches_naive_across_processes(self):
        system, p1 = make()
        p2 = system.create_process("t2")
        G = system.geometry
        system.sys_mmap(p1, G.large_size + G.mid_size)
        system.sys_mmap(p2, 3 * G.mid_size)
        assert stream_of(system.policy) == naive_candidates(system.policy)

    def test_use_mid_false_yields_only_large(self):
        system, p = make(use_mid=False)
        G = system.geometry
        system.sys_mmap(p, 2 * G.large_size + 2 * G.mid_size)
        candidates = stream_of(system.policy)
        assert candidates == naive_candidates(system.policy)
        assert all(size == LARGE for _, _, size in candidates)
