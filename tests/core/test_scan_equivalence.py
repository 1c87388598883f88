"""khugepaged scan equivalence: the cursor scanner against the generator it
replaced.

The reference below is the per-pass generator scanner kept verbatim: it
rebuilds the scan order from the VMAs on every pass and probes every slot.
Each policy is run twice on identical machines, once with its own scanner
and once with the reference mixed in, through the same script of faults,
munmaps, demotions, process creation and small daemon ticks (so a pass
spans many ticks).  Every tick must agree on the ns used, the carried
CPU-cap debt, the promotion and demotion counts, the simulated clock and
the heat-ranked policies' heat and demoted-slot sets.
"""

from bisect import bisect_right

import pytest

from repro.config import default_machine
from repro.core.hawkeye import HawkEyePolicy
from repro.core.ingens import IngensPolicy
from repro.core.madvise import MADV_HUGEPAGE, MadvisePolicy
from repro.core.thp import THPPolicy
from repro.core.trident import TridentPolicy
from repro.core.trident_heat import TridentHeatPolicy
from repro.sim.system import System
from repro.virt.hypercall import PVExchangeInterface
from repro.virt.machine import VirtualMachine
from repro.virt.tridentpv import TridentPVPolicy
from repro.vm.mappability import mappable_ranges

G = default_machine(16).geometry
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
#: tick budgets, cycled: the small ones split a pass of bare scanning over
#: many ticks, the large ones fit a 1GB-class promotion (hundreds of ms on
#: the scaled cost model) and repay the CPU-cap debt it leaves
TICK_BUDGETS = (20_000.0, 400_000.0, 5e6, 6e7)


# -- the reference: the generator scanner, one stream per pass -------------------
def _thp_stream(policy):
    thp = policy.kernel.geometry.thp_level
    for process in list(policy.kernel.processes):
        for vma in process.aspace.iter_extents():
            for start, _ in mappable_ranges(vma, thp, policy.kernel.geometry):
                yield process, start, thp


def _trident_stream(policy):
    geometry = policy.kernel.geometry
    top = geometry.top_level
    for process in list(policy.kernel.processes):
        for vma in process.aspace.iter_extents():
            for start, _ in mappable_ranges(vma, top, geometry):
                yield process, start, top
            if not policy.use_mid:
                continue
            for level in range(top - 1, 0, -1):
                covered = list(mappable_ranges(vma, level + 1, geometry))
                starts = [s for s, _ in covered]
                for start, _ in mappable_ranges(vma, level, geometry):
                    i = bisect_right(starts, start) - 1
                    inside = i >= 0 and start < covered[i][1]
                    if not inside:
                        yield process, start, level


def _hawkeye_stream(policy):
    geometry = policy.kernel.geometry
    thp = geometry.thp_level
    by_pid = {p.pid: p for p in policy.kernel.processes}
    ranked = sorted(policy._heat.items(), key=lambda kv: -kv[1])
    seen = set()
    for (pid, va), _ in ranked:
        process = by_pid.get(pid)
        if process is not None:
            seen.add((pid, va))
            policy._demoted_slots.discard((pid, va))
            yield process, va, thp
    policy._heat = {k: v // 2 for k, v in policy._heat.items() if v > 1}
    for process in list(policy.kernel.processes):
        for vma in process.aspace.iter_extents():
            for start, _ in mappable_ranges(vma, thp, geometry):
                key = (process.pid, start)
                if key not in seen and key not in policy._demoted_slots:
                    yield process, start, thp


def _heat_stream(policy):
    top = policy.kernel.geometry.top_level
    by_pid = {p.pid: p for p in policy.kernel.processes}
    ranked = sorted(policy._heat.items(), key=lambda kv: -kv[1])
    seen = set()
    for (pid, va), _ in ranked:
        process = by_pid.get(pid)
        if process is not None:
            seen.add((pid, va))
            yield process, va, top
    policy._heat = {k: v // 2 for k, v in policy._heat.items() if v > 1}
    for candidate in _trident_stream(policy):
        process, va, size = candidate
        if size == top and (process.pid, va) in seen:
            continue
        yield candidate


def _reference_stream(policy):
    if isinstance(policy, TridentHeatPolicy):
        return _heat_stream(policy)
    if isinstance(policy, HawkEyePolicy):
        return _hawkeye_stream(policy)
    if isinstance(policy, TridentPolicy):
        return _trident_stream(policy)
    return _thp_stream(policy)


class ReferenceScan:
    """Mixin: scan with the generator instead of the cursor."""

    _ref_stream = None

    def _scan(self, budget_ns: float) -> float:
        used = 0.0
        while used < budget_ns:
            if self._ref_stream is None:
                self._ref_stream = _reference_stream(self)
            candidate = next(self._ref_stream, None)
            if candidate is None:
                self._ref_stream = None  # full pass complete
                break
            used += self.scan_slot_ns
            process, va, size = candidate
            used += self._try_promote(process, va, size, budget_ns - used)
        return used


def reference(cls):
    return type(f"Reference{cls.__name__}", (ReferenceScan, cls), {})


# -- the script ----------------------------------------------------------------------
def _touch_every(system, process, addr, nbytes, stride):
    for off in range(0, nbytes, stride):
        system.touch(process, addr + off)


def _drive(system, advise=None):
    """Run the script; returns the per-tick trace and, per scripted event,
    whether it landed while a pass was in progress."""
    policy = system.policy
    trace = []
    mid_pass = {}

    def ticks(n):
        for _ in range(n):
            used = system.run_daemons(TICK_BUDGETS[len(trace) % 4])
            stats = policy.stats
            trace.append((
                used, policy._debt_ns,
                sorted(stats.promoted.items()), sorted(stats.demoted.items()),
                system.clock.now_ns,
                # the heat-ranked policies' scan state
                sorted(getattr(policy, "_heat", {}).items()),
                sorted(getattr(policy, "_demoted_slots", ())),
            ))

    def event(name):
        mid_pass[name] = getattr(policy, "_pass", None) is not None

    system.fragment(fill_fraction=0.3)
    a = system.create_process("a")
    # Pre-allocated and densely touched: faults map the largest pages the
    # policy allows, so most of its slots are covered from the start.
    dense = system.sys_mmap(a, 4 * LARGE)
    _touch_every(system, a, dense, 4 * LARGE, MID)
    # A heap grown a page at a time: each fault maps a base page (the VMA
    # is too small for more), while the merged extent becomes mid- and
    # large-mappable for khugepaged.
    heap = []
    for i in range(2 * LARGE // BASE + 40):
        heap.append(system.sys_mmap(a, BASE))
        if i % 6 == 0:
            system.touch(a, heap[-1])
    big = system.sys_mmap(a, LARGE + 3 * MID)
    if advise is not None:
        advise(a, heap[0], LARGE)
        advise(a, big, LARGE + 3 * MID)
    _touch_every(system, a, big, LARGE + 3 * MID, 6 * BASE)
    ticks(61)
    event("munmap")
    system.sys_munmap(a, heap[700])  # the VMA set changes
    for addr in heap[1::6]:
        system.touch(a, addr)
    ticks(41)
    event("create")
    b = system.create_process("b")
    late = [system.sys_mmap(b, BASE) for _ in range(LARGE // BASE + 20)]
    for addr in late[::5] + late[:256]:  # the first 16 mids fully present
        system.touch(b, addr)
    ticks(40)
    event("pressure")
    # Pressure demotion: split mostly-untouched huge leaves in place.
    policy._shed_bloat(G.frames_per_large)
    for addr in heap[2::6]:
        system.touch(a, addr)
    ticks(60)
    system.sys_munmap(a, big)
    ticks(40)
    return trace, mid_pass


def _native(factory, advise=False):
    system = System(default_machine(16), factory, seed=4)
    hook = None
    if advise:
        def hook(process, addr, length):
            system.policy.sys_madvise(process, addr, length, MADV_HUGEPAGE)
    return system, hook


def _guest(policy_cls):
    def factory(kernel):
        iface = PVExchangeInterface(kernel.hypervisor, kernel.cost)
        return policy_cls(kernel, iface)

    vm = VirtualMachine(
        default_machine(16), default_machine(24), factory, TridentPolicy,
        seed=6,
    )
    return vm.guest, None


def _with(cls, **kwargs):
    return lambda kernel: cls(kernel, **kwargs)


class FractionalSlotTHP(THPPolicy):
    """A slot cost that is no binary fraction: any regrouping of the
    per-slot float adds (say, one multiply per skipped run) shows."""

    scan_slot_ns = 400.3


NATIVE = {
    "THP": (THPPolicy, {}),
    "THP-fractional-slot": (FractionalSlotTHP, {}),
    "Trident": (TridentPolicy, {}),
    "Trident-1Gonly": (TridentPolicy, {"use_mid": False}),
    "Trident-NC": (TridentPolicy, {"smart_compaction": False}),
    "Trident-PFonly": (TridentPolicy, {"promote": False}),
    "HawkEye": (HawkEyePolicy, {}),
    "Ingens": (IngensPolicy, {}),
    "Trident-heat": (TridentHeatPolicy, {}),
}


def _assert_same(build_new, build_ref):
    system, advise = build_new()
    ref_system, ref_advise = build_ref()
    trace, mid_pass = _drive(system, advise)
    ref_trace, _ = _drive(ref_system, ref_advise)
    assert len(trace) == len(ref_trace)
    for tick, (got, want) in enumerate(zip(trace, ref_trace)):
        assert got == want, f"tick {tick}: {got} != {want}"
    assert system.policy.stats.daemon_ns == ref_system.policy.stats.daemon_ns
    for p, q in zip(system.processes, ref_system.processes):
        mine = sorted((m.va, m.page_size) for m in p.pagetable.iter_mappings())
        theirs = sorted((m.va, m.page_size) for m in q.pagetable.iter_mappings())
        assert mine == theirs
    return system, mid_pass


class TestScanEquivalence:
    @pytest.mark.parametrize("name", sorted(NATIVE))
    def test_native_policy(self, name):
        cls, kwargs = NATIVE[name]
        system, mid_pass = _assert_same(
            lambda: _native(_with(cls, **kwargs)),
            lambda: _native(_with(reference(cls), **kwargs)),
        )
        if name != "Trident-PFonly":
            assert sum(system.policy.stats.promoted.values()) > 0
            assert mid_pass["munmap"]

    def test_madvise(self):
        system, _ = _assert_same(
            lambda: _native(MadvisePolicy, advise=True),
            lambda: _native(reference(MadvisePolicy), advise=True),
        )
        assert sum(system.policy.stats.promoted.values()) > 0

    def test_tridentpv_guest(self):
        system, mid_pass = _assert_same(
            lambda: _guest(TridentPVPolicy),
            lambda: _guest(reference(TridentPVPolicy)),
        )
        assert system.policy.stats.promoted[G.top_level] > 0
        assert mid_pass["create"]

    def test_script_lands_events_mid_pass(self):
        system, _ = _native(TridentPolicy)
        _, mid_pass = _drive(system)
        assert mid_pass == {"munmap": True, "create": True, "pressure": True}
        stats = system.policy.stats
        assert stats.promoted[G.top_level] > 0
        assert stats.demoted[G.top_level] > 0
        hawkeye, _ = _native(HawkEyePolicy)
        _drive(hawkeye)
        # bloat recovery demoted promoted-but-cold mids
        assert hawkeye.policy.stats.demoted[G.thp_level] > 0
        assert hawkeye.policy.stats.bloat_bytes_recovered > 0


class TestCoveredFlags:
    def _settled(self):
        system = System(default_machine(16), TridentPolicy, seed=4)
        system.fragment()
        p = system.create_process("p")
        addr = system.sys_mmap(p, 2 * LARGE + 3 * MID)
        _touch_every(system, p, addr, 2 * LARGE + 3 * MID, 5 * BASE)
        system.settle_until_quiet(budget_ns=1e9)
        return system, p, addr

    def test_settled_slots_are_known_covered(self):
        system, p, _ = self._settled()
        entry = system.policy._process_slots(p)
        assert any(entry.covered)
        for (va, size), flag in zip(entry.slots, entry.covered):
            if flag:
                assert p.pagetable.translate(va).page_size >= size

    def test_nonbase_unmap_forgets_covered_verdicts(self):
        system, p, addr = self._settled()
        entry = system.policy._process_slots(p)
        assert any(entry.covered)
        leaf = next(
            m for m in p.pagetable.iter_mappings() if m.page_size > 0
        )
        system.policy._demote_in_place(p, leaf)
        assert system.policy._process_slots(p) is entry
        assert not any(entry.covered)

    def test_vma_change_rebuilds_the_list(self):
        system, p, _ = self._settled()
        entry = system.policy._process_slots(p)
        assert system.policy._process_slots(p) is entry
        system.sys_mmap(p, LARGE)
        rebuilt = system.policy._process_slots(p)
        assert rebuilt is not entry
        assert len(rebuilt.slots) > len(entry.slots)
        assert not any(rebuilt.covered)

    def test_demotion_ahead_of_the_cursor_is_reprobed(self):
        """A leaf split between ticks, ahead of the cursor in the current
        process, is probed (and promoted again) in the same pass."""
        promoted = []
        for cls in (THPPolicy, reference(THPPolicy)):
            system = System(default_machine(16), cls, seed=4)
            p = system.create_process("p")
            addr = system.sys_mmap(p, 4 * LARGE)
            _touch_every(system, p, addr, 4 * LARGE, MID)
            system.run_daemons(1e9)  # one full pass: every slot covered
            system.run_daemons(50 * THPPolicy.scan_slot_ns)  # stop mid-pass
            ahead = p.pagetable.translate(addr + 3 * LARGE)
            assert ahead.page_size == G.thp_level
            system.policy._demote_in_place(p, ahead)
            system.run_daemons(1e9)
            promoted.append(system.policy.stats.promoted[G.thp_level])
        assert promoted[0] == promoted[1] == 1


class TestLazyExclusion:
    def test_bloat_demotion_ahead_of_the_cursor_is_excluded(self):
        """HawkEye's demoted-slot exclusion is read as the cursor reaches
        each slot: slots demoted mid-pass, ahead of it, are passed over."""
        runs = []
        for cls in (HawkEyePolicy, reference(HawkEyePolicy)):
            system = System(default_machine(16), cls, seed=4)
            a = system.create_process("a")
            b = system.create_process("b")
            addr = system.sys_mmap(a, 4 * LARGE)
            _touch_every(system, a, addr, 4 * LARGE, 4 * BASE)  # not bloated
            system.run_daemons(1e9)  # one full pass
            system.run_daemons(2e4)  # the next pass stops inside a
            if cls is HawkEyePolicy:
                assert system.policy._pass.process is a
            late = system.sys_mmap(b, 2 * LARGE)
            _touch_every(system, b, late, 2 * LARGE, MID)  # bloated mids
            trace = []
            for _ in range(120):  # recovery demotes them; the scan resumes
                system.run_daemons(1e6)
                stats = system.policy.stats
                trace.append((
                    stats.demoted[G.thp_level], stats.promoted[G.thp_level],
                    system.clock.now_ns, len(system.policy._demoted_slots),
                ))
            runs.append(trace)
        demoted, promoted, _, _ = runs[0][-1]
        assert demoted == 128 and promoted == 0
        assert runs[0] == runs[1]
