"""``touch_batch`` is counter-for-counter identical to the scalar loop.

The batch-first API contract: running a stream through the vectorized
engine must leave the simulation in *exactly* the state the per-access
scalar loop produces — every counter, every TLB set's LRU ordering,
every walk-latency histogram bucket, the simulated clock, and the
page-table accessed bits.  :func:`repro.sim.bench.state_fingerprint`
captures all of it; these tests compare fingerprints across policies,
daemon cadences, and fault-heavy streams.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.sim.batch as batch_module
from repro.config import default_machine
from repro.core import Baseline4KPolicy, HawkEyePolicy, THPPolicy, TridentPolicy
from repro.geometries import GEOMETRY_PRESETS
from repro.mem.numa import NumaTopology
from repro.obs.telemetry.exposition import TelemetryScraper
from repro.sim.batch import BatchResult, TouchResult
from repro.sim.bench import state_fingerprint
from repro.sim.system import System
from repro.workloads.access import zipf

BASE, MID, LARGE = 0, 1, 2  # three-tier level indices (x86-shaped test geometry)

FOOTPRINT = 16 * 1024 * 1024


def _run(policy, period: int, batched: bool, n: int = 60_000):
    system = System(default_machine(16), policy, seed=5)
    system.daemon_period_accesses = period
    system.batch_hot_path = batched
    process = system.create_process()
    base = system.sys_mmap(process, FOOTPRINT)
    rng = np.random.default_rng(42)
    stream = zipf(rng, base, FOOTPRINT, n)
    result = system.touch_batch(process, stream)
    return state_fingerprint(system, process), result


def assert_fingerprints_equal(batch_fp, scalar_fp) -> None:
    assert batch_fp.keys() == scalar_fp.keys()
    mismatched = [k for k in batch_fp if batch_fp[k] != scalar_fp[k]]
    assert not mismatched, f"batched path diverged on: {mismatched}"


@pytest.mark.parametrize(
    "policy", [TridentPolicy, THPPolicy, Baseline4KPolicy, HawkEyePolicy]
)
def test_cold_stream_equivalence(policy):
    """Cold start: faults, promotions and shootdowns all happen mid-batch."""
    batch_fp, batch_res = _run(policy, period=20_000, batched=True)
    scalar_fp, scalar_res = _run(policy, period=20_000, batched=False)
    assert_fingerprints_equal(batch_fp, scalar_fp)
    assert batch_res == scalar_res


@pytest.mark.parametrize("policy", [TridentPolicy, THPPolicy])
def test_aggressive_daemon_cadence_equivalence(policy):
    """A 333-access daemon period forces many daemon runs inside one batch,
    so promotions (and their TLB shootdowns) repeatedly truncate segments."""
    batch_fp, _ = _run(policy, period=333, batched=True)
    scalar_fp, _ = _run(policy, period=333, batched=False)
    assert_fingerprints_equal(batch_fp, scalar_fp)


def test_batch_result_matches_stats_delta():
    """BatchResult is the delta of the stats the run accumulated."""
    system = System(default_machine(16), TridentPolicy, seed=5)
    process = system.create_process()
    base = system.sys_mmap(process, FOOTPRINT)
    rng = np.random.default_rng(42)
    stream = zipf(rng, base, FOOTPRINT, 20_000)
    first = system.touch_batch(process, stream[:10_000])
    second = system.touch_batch(process, stream[10_000:])
    stats = process.tlb.stats
    assert first.accesses == second.accesses == 10_000
    assert first.accesses + second.accesses == stats.accesses
    assert first.translation_cycles + second.translation_cycles == pytest.approx(
        stats.translation_cycles
    )
    assert first.l1_hits + second.l1_hits == stats.l1_hits
    assert first.walks + second.walks == stats.walks
    assert first.faults + second.faults == process.faults
    for size in (BASE, MID, LARGE):
        assert (
            first.walks_by_size[size] + second.walks_by_size[size]
            == stats.walks_by_size[size]
        )
    assert first.cycles == first.translation_cycles  # TouchResult-style alias


def test_scalar_touch_returns_typed_result():
    """touch() is now a one-access view of the same contract."""
    system = System(default_machine(4), Baseline4KPolicy, seed=1)
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 20)
    first = system.touch(process, base)
    again = system.touch(process, base)
    assert isinstance(first, TouchResult)
    assert first.faulted and not again.faulted
    assert first.page_size == BASE
    # deprecation shim: the result still behaves as the bare cycle count
    # (warning under test in TestTouchResultDeprecationShim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert float(first) == first.cycles
        assert first + 0.0 == first.cycles
    assert isinstance(system.touch_batch(process, [base]), BatchResult)


class TestTouchResultDeprecationShim:
    """Raw-float consumption warns exactly once per call site (TRD005)."""

    def setup_method(self):
        TouchResult.reset_warned_sites()

    def teardown_method(self):
        TouchResult.reset_warned_sites()

    def test_warns_once_per_call_site_not_per_access(self):
        res = TouchResult(5.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(100):
                _ = res + 0.0  # one call site, exercised 100 times
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert "TouchResult" in str(caught[0].message)
        assert ".cycles" in str(caught[0].message)

    def test_distinct_call_sites_each_warn(self):
        res = TouchResult(5.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _ = float(res)  # site 1
            _ = res * 2.0  # site 2
        assert len(caught) == 2

    def test_warning_attributed_to_caller(self):
        """stacklevel=2 points the warning at the consuming line, not at
        the shim's own frame inside sim/batch.py."""
        res = TouchResult(5.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _ = res - 1.0
        assert caught[0].filename == __file__

    def test_typed_reads_never_warn(self):
        res = TouchResult(7.0, faulted=True, page_size=LARGE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert res.cycles == 7.0
            assert res.faulted and res.page_size == LARGE
            repr(res)
            assert res == 7.0  # comparisons stay silent by design
            _ = {res: "hashable"}
        assert caught == []

    def test_reset_allows_site_to_warn_again(self):
        res = TouchResult(5.0)

        def consume():
            return res + 1.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            consume()
            consume()
            TouchResult.reset_warned_sites()
            consume()
        assert len(caught) == 2


def test_bare_batch_result_carries_no_levels():
    """The default is empty, not a hard-coded three-level dict: only
    ``touch_batch`` knows the machine's geometry."""
    assert BatchResult().walks_by_size == {}


def test_batch_result_covers_every_geometry_level():
    preset = GEOMETRY_PRESETS["sv-napot"]
    system = System(preset.machine(16), TridentPolicy, seed=5)
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 22)
    res = system.touch_batch(process, [base])
    assert sorted(res.walks_by_size) == [0, 1, 2, 3]
    assert sum(res.walks_by_size.values()) == res.walks


def test_touch_batch_accepts_plain_lists_and_empty():
    system = System(default_machine(4), Baseline4KPolicy, seed=1)
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 20)
    res = system.touch_batch(process, [base, base + 4096, base])
    assert res.accesses == 3
    empty = system.touch_batch(process, np.empty(0, dtype=np.int64))
    assert empty.accesses == 0 and empty.cycles == 0.0


def test_opt_out_subclass_uses_scalar_loop():
    """batch_hot_path=False (e.g. GuestSystem's EPT backing) must still
    produce the identical BatchResult through the per-access fallback."""
    system = System(default_machine(16), TridentPolicy, seed=5)
    system.batch_hot_path = False
    process = system.create_process()
    base = system.sys_mmap(process, 1 << 22)
    rng = np.random.default_rng(7)
    stream = zipf(rng, base, 1 << 22, 5_000)
    res = system.touch_batch(process, stream)
    assert res.accesses == 5_000
    assert res.accesses == process.tlb.stats.accesses


# -- the per-access step dispatch ---------------------------------------------
#
# Short and fault-dense stretches run through ``System._touch_one`` instead
# of a vectorized segment.  Feeding a cold stream as random chunk sizes
# 1-300 mixes every dispatch case in one run: whole calls below the cutoff,
# fault storms that shrink the window to 1, fault-free stretches that grow
# it back, and segments cut by the daemon cadence.


class _FrameSink:
    """In-memory telemetry sink: the frames a scraper rendered, in order."""

    def __init__(self) -> None:
        self.frames: list[str] = []

    def emit(self, frame_text: str) -> None:
        self.frames.append(frame_text)

    def close(self) -> None:
        pass


def _plain(system, process):
    return None


def _cadence_333(system, process):
    system.daemon_period_accesses = 333
    return None


def _telemetry(system, process):
    sink = _FrameSink()
    TelemetryScraper(
        system.obs.clock, system.obs.metrics, sink, interval_ms=0.05,
        catalog=(),
    )
    return lambda: sink.frames


def _tracer(system, process):
    system.obs.tracer.enable_all()
    return lambda: list(system.obs.tracer.events())


SCENARIOS = {
    "cadence-333": (lambda: default_machine(16), {}, _cadence_333),
    "telemetry": (lambda: default_machine(16), {}, _telemetry),
    "tracer": (lambda: default_machine(16), {}, _tracer),
    # home node 1 with page tables on node 0: every walk pays the
    # remote penalty, charged once per touch_batch call
    "numa-2node": (
        lambda: default_machine(16),
        {"numa": NumaTopology(nodes=2), "home_node": 1},
        _plain,
    ),
    "sv-napot": (lambda: GEOMETRY_PRESETS["sv-napot"].machine(16), {}, _plain),
}


def _chunks(n: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    bounds, i = [], 0
    while i < n:
        end = min(n, i + int(rng.integers(1, 301)))
        bounds.append((i, end))
        i = end
    return bounds


def _drive(
    scenario: str, policy, batched: bool, chunked: bool, n: int = 20_000
):
    """Run one scenario; returns (fingerprint, per-call results, observed)."""
    machine, options, hook = SCENARIOS[scenario]
    options = dict(options)
    home_node = options.pop("home_node", 0)
    system = System(machine(), policy, seed=5, **options)
    system.batch_hot_path = batched
    process = system.create_process(home_node=home_node)
    observe = hook(system, process)
    base = system.sys_mmap(process, FOOTPRINT)
    stream = zipf(np.random.default_rng(42), base, FOOTPRINT, n)
    bounds = _chunks(n, seed=3) if chunked else [(0, n)]
    results = [system.touch_batch(process, stream[a:b]) for a, b in bounds]
    observed = observe() if observe is not None else None
    return state_fingerprint(system, process), results, observed


def _summed(results: list[BatchResult]) -> BatchResult:
    total = BatchResult()
    for r in results:
        total.accesses += r.accesses
        total.translation_cycles += r.translation_cycles
        total.l1_hits += r.l1_hits
        total.l2_hits += r.l2_hits
        total.walks += r.walks
        total.faults += r.faults
        total.fault_ns += r.fault_ns
        for size, walks in r.walks_by_size.items():
            total.walks_by_size[size] = total.walks_by_size.get(size, 0) + walks
    return total


#: THP faults 2MB pages on a cold stream, so faults, fault-free
#: stretches and khugepaged promotions all land inside the run; Trident
#: faults rarely but maps and promotes across every level
STEP_POLICIES = [THPPolicy, TridentPolicy]


@pytest.mark.parametrize("policy", STEP_POLICIES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_random_chunks_match_scalar_loop(scenario, policy):
    """Chunked through the engine == the same chunks through the scalar
    loop, call for call: per-call results, full state, and what the
    scraper or tracer observed along the way."""
    fp, results, observed = _drive(scenario, policy, batched=True, chunked=True)
    scalar_fp, scalar_results, scalar_observed = _drive(
        scenario, policy, batched=False, chunked=True
    )
    assert_fingerprints_equal(fp, scalar_fp)
    assert results == scalar_results  # per call, hence summed too
    assert observed == scalar_observed
    assert fp["faults"] > 0  # the cold stream really did fault


@pytest.mark.parametrize("policy", STEP_POLICIES)
@pytest.mark.parametrize(
    "scenario", sorted(s for s in SCENARIOS if s != "numa-2node")
)
def test_random_chunks_match_one_call(scenario, policy):
    """Chunked == one ``touch_batch`` over the whole stream.

    The NUMA scenario is left out: its penalties are charged once per call
    from that call's aggregate counters, so chunking changes the charge by
    design (the scalar comparison above covers it call for call).
    """
    fp, results, observed = _drive(scenario, policy, batched=True, chunked=True)
    one_fp, (one,), one_observed = _drive(
        scenario, policy, batched=True, chunked=False
    )
    assert_fingerprints_equal(fp, one_fp)
    total = _summed(results)
    assert total.accesses == one.accesses
    assert total.l1_hits == one.l1_hits
    assert total.l2_hits == one.l2_hits
    assert total.walks == one.walks
    assert total.faults == one.faults
    assert total.walks_by_size == one.walks_by_size
    # per-call float deltas sum in a different order than one delta
    assert total.translation_cycles == pytest.approx(one.translation_cycles)
    assert total.fault_ns == pytest.approx(one.fault_ns)
    assert observed == one_observed


def test_fault_free_stream_after_storm_returns_to_vectorized(monkeypatch):
    """A fault storm shrinks the window to 1; a following fault-free
    stream of n accesses doubles it back, so it takes the step for at most
    ~2x the cutoff accesses and reaches the vectorized kernel within
    O(log n) stretches."""
    system = System(default_machine(16), Baseline4KPolicy, seed=5)
    process = system.create_process()
    base = system.sys_mmap(process, FOOTPRINT)
    pages = np.arange(base, base + FOOTPRINT, 4096, dtype=np.int64)
    storm = system.touch_batch(process, pages)
    assert storm.faults == len(pages)  # every access faulted

    kernel_calls = 0
    steps = 0
    real_kernel = batch_module.hierarchy_touch_batch
    real_step = System._touch_one

    def counting_kernel(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return real_kernel(*args)

    def counting_step(self, *args):
        nonlocal steps
        steps += 1
        return real_step(self, *args)

    monkeypatch.setattr(batch_module, "hierarchy_touch_batch", counting_kernel)
    monkeypatch.setattr(System, "_touch_one", counting_step)
    n = 65_536
    stream = zipf(np.random.default_rng(9), base, FOOTPRINT, n)
    warm = system.touch_batch(process, stream)
    assert warm.faults == 0 and warm.accesses == n
    log_n = int(np.log2(n))
    assert steps <= 2 * batch_module._SCALAR_CUTOFF
    # doubling windows plus one extra cut per daemon quantum
    assert kernel_calls <= log_n + n // system.daemon_period_accesses + 1
    assert kernel_calls > 0
