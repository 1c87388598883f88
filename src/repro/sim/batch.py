"""Batch-first hot path: typed touch results and the vectorized engine.

``System.touch_batch`` is the primary API every workload drives accesses
through; this module implements the engine behind it.  A numpy address
stream is cut into *segments* inside which the simulation is closed-form:

* a segment never crosses a **fault** — the first unmapped address ends
  it, the faulting access runs through the exact per-access step (policy,
  spans, audit), and translation restarts because the handler may have
  mapped neighbours;
* a segment never crosses the **daemon cadence** — after exactly
  ``daemon_period_accesses`` touches the background daemons run, and they
  may promote/demote pages and shoot down TLB entries, both of which
  invalidate cached translations.

Within a segment the page table is static, so mappings are resolved
per-*extent* rather than per-access: each page-table level is probed once
per distinct VPN (``np.unique``) instead of once per access, and the TLB
hierarchy is simulated by the vectorized reuse-distance kernel in
:mod:`repro.tlb.batch`.

A segment's numpy work has a fixed cost that a short stretch never earns
back, so short and fault-dense stretches skip it: the translation window
halves on every stretch that faults and doubles on every fault-free one,
and any stretch of at most ``_SCALAR_CUTOFF`` accesses — a short call, a
fault storm, the last few accesses before a daemon quantum — runs through
``System._touch_one``, the body of ``System.touch``.  The step *is* the
scalar reference path, so the engine is counter-for-counter identical to a
scalar ``touch`` loop — including float accumulation order in
``TranslationStats`` and ``SimClock`` — which the equivalence suite in
``tests/sim/test_batch_equivalence.py`` locks down.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.tlb.batch import hierarchy_touch_batch

_RAW_FLOAT_MSG = (
    "TouchResult consumed as a raw float; read .cycles / .faulted / "
    ".page_size instead (deprecation shim, lint rule TRD005)"
)


class TouchResult(float):
    """Typed result of one ``System.touch``.

    Subclasses ``float`` (the translation cycles) as the deprecation shim:
    legacy callers that treat the return value as a bare cycle count keep
    working, while new code reads the typed fields.  The project linter
    (TRD005) flags raw-float usage so call sites migrate to ``.cycles``;
    at runtime the shim emits one :class:`DeprecationWarning` per call
    site (never per access — a million-touch loop warns once), attributed
    to the caller via ``stacklevel=2``.
    """

    __slots__ = ("faulted", "page_size")

    faulted: bool
    page_size: int

    #: call sites (filename, lineno) that already warned — per-site dedup
    #: independent of the interpreter's warning filters, so hot loops pay
    #: one set lookup, not a ``warnings.warn`` call per access
    _warned_sites: set[tuple[str, int]] = set()

    def __new__(
        cls, cycles: float, faulted: bool = False, page_size: int = 0
    ) -> "TouchResult":
        self = super().__new__(cls, cycles)
        self.faulted = faulted
        self.page_size = page_size
        return self

    @classmethod
    def reset_warned_sites(cls) -> None:
        """Forget which call sites warned (test isolation hook)."""
        cls._warned_sites.clear()

    def _first_use_at_site(self) -> bool:
        """True when the raw-float caller two frames up has not warned yet."""
        frame = sys._getframe(2)
        site = (frame.f_code.co_filename, frame.f_lineno)
        if site in TouchResult._warned_sites:
            return False
        TouchResult._warned_sites.add(site)
        return True

    @property
    def cycles(self) -> float:
        """Translation cycles beyond an L1 TLB hit."""
        return float.__float__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TouchResult(cycles={float.__float__(self)!r}, "
            f"faulted={self.faulted}, "
            f"page_size={self.page_size})"
        )


def _raw_float_shim(opname: str):
    """A float operator that warns once per call site before delegating."""
    float_op = getattr(float, opname)

    def shim(self, *args):
        if self._first_use_at_site():
            warnings.warn(_RAW_FLOAT_MSG, DeprecationWarning, stacklevel=2)
        return float_op(self, *args)

    shim.__name__ = opname
    shim.__qualname__ = f"TouchResult.{opname}"
    shim.__doc__ = float_op.__doc__
    return shim


#: the raw-float surface covered by the shim: numeric coercion and
#: arithmetic.  Comparisons and hashing stay silent — they are how dicts
#: and test assertions handle any value and would drown the signal.
for _opname in (
    "__float__", "__int__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
    "__abs__",
):
    setattr(TouchResult, _opname, _raw_float_shim(_opname))
del _opname


@dataclass
class BatchResult:
    """Aggregate outcome of one ``touch_batch`` call.

    The scalar ``touch`` returns the one-element view of the same contract
    (:class:`TouchResult`); ``touch_batch`` aggregates because per-access
    results of a million-access stream would defeat the point of batching.
    """

    accesses: int = 0
    translation_cycles: float = 0.0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0
    faults: int = 0
    fault_ns: float = 0.0
    #: per geometry level; ``touch_batch`` fills every level of the
    #: machine's geometry, so a bare result carries no levels at all
    walks_by_size: dict[int, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        """Alias matching :class:`TouchResult` — total translation cycles."""
        return self.translation_cycles


#: longest stretch the engine runs through the exact per-access step
#: (``System._touch_one``) rather than as a vectorized segment.  A segment
#: pays a fixed numpy cost (page-table probe, two or three LRU kernel
#: calls, cumsum folds) of ~0.4-0.7 ms on a 2-vCPU x86 host; the step pays
#: ~2 us per access on a warm Trident GUPS process and ~6 us under 4KB
#: pages.  ``scripts/measure_scalar_cutoff.py`` (lengths 8-512) puts the
#: crossover past 512 accesses for Trident (~1024 extended), above 512 for
#: 2MB-THP and at ~256 for 4KB; one constant serves every policy, so it
#: sits at half the lowest crossover, where the step costs at most ~0.6x a
#: segment under all three.
_SCALAR_CUTOFF = 128
#: the vectorized translation window never grows past this many accesses
_MAX_WINDOW = 65536


class BatchEngine:
    """Vectorized executor behind ``System.touch_batch``.

    One dispatch rule, driven only by the input stream: the translation
    window halves (toward 1) on every stretch that faults and doubles
    (toward ``_MAX_WINDOW``) on every fault-free one, and any stretch of
    at most ``_SCALAR_CUTOFF`` accesses runs through the exact per-access
    step instead of numpy.  Short calls and fault storms therefore cost
    what the scalar loop costs, while long fault-free streams stay on the
    vectorized kernel.
    """

    def __init__(self, system) -> None:
        self.system = system
        self._window = 4096

    def run(self, process, vas: np.ndarray) -> None:
        system = self.system
        n = len(vas)
        i = 0
        while i < n:
            # The daemon cadence bounds the segment: daemons may remap
            # pages and shoot down TLB entries, so no batch crosses one.
            room = max(
                1,
                system.daemon_period_accesses - system._accesses_since_daemon,
            )
            end = min(n, i + min(room, self._window))
            if end - i <= _SCALAR_CUTOFF:
                faulted = self._step(process, vas[i:end])
                i = end
            else:
                faulted, used = self._segment(process, vas[i:end])
                i += used
            if faulted:
                self._window = max(1, self._window // 2)
            else:
                self._window = min(_MAX_WINDOW, self._window * 2)

    def _segment(self, process, seg: np.ndarray):
        """Translate ``seg`` in bulk and run it up to its first fault.

        Returns ``(faulted, accesses consumed)``.  The access that faults —
        with the mapped prefix before it, when that is no longer than the
        cutoff — goes through the per-access step.
        """
        system = self.system
        sizes, fault_at, mapped_vpns = translate_segment(
            process.pagetable, seg
        )
        if fault_at is None:
            self._touch_mapped(process, seg, sizes, mapped_vpns)
            system._accesses_since_daemon += len(seg)
            if system._accesses_since_daemon >= system.daemon_period_accesses:
                system.run_daemons()
            return False, len(seg)
        step_from = 0
        if fault_at > _SCALAR_CUTOFF:
            # The per-size VPN extents cover the untruncated probe window;
            # the survivors' extents are recomputed instead.
            self._touch_mapped(process, seg[:fault_at], sizes[:fault_at])
            system._accesses_since_daemon += fault_at
            step_from = fault_at
        # The prefix stops short of the cadence, so no daemon check here:
        # the step runs the daemons itself when the faulting access is due.
        self._step(process, seg[step_from : fault_at + 1])
        return True, fault_at + 1

    # trd: scalar-fallback[short or fault-dense stretch, bounded by _SCALAR_CUTOFF]
    def _step(self, process, stretch: np.ndarray) -> bool:
        """Run ``stretch`` through the exact per-access step.

        ``System._touch_one`` is the body of ``System.touch``: it faults,
        records the touch, runs the TLB and the daemons at the cadence, so
        the engine adds no bookkeeping of its own.  Returns whether any
        access faulted.
        """
        touch_one = self.system._touch_one
        faults = process.faults
        for va in stretch.tolist():
            touch_one(process, va)
        return process.faults != faults

    def _touch_mapped(
        self, process, seg: np.ndarray, sizes: np.ndarray, mapped_vpns=None
    ) -> None:
        """One fully-mapped, daemon-free segment: the vectorized fast path."""
        pagetable = process.pagetable
        # Touched-page bookkeeping and access bits, once per distinct page
        # instead of once per access (both are idempotent set/flag writes).
        base_vpns = np.unique(seg >> pagetable._shifts[0])
        process.touched_pages.update(base_vpns.tolist())
        for size in range(pagetable.n_levels):
            level = pagetable._levels[size]
            if mapped_vpns is not None:
                vpns = mapped_vpns.get(size)
                if vpns is None:
                    continue
                vpn_list = vpns.tolist()
            else:
                idx = np.flatnonzero(sizes == size)
                if len(idx) == 0:
                    continue
                vpn_list = np.unique(
                    seg[idx] >> pagetable._shifts[size]
                ).tolist()
            for vpn in vpn_list:  # trd: ignore[TRD008] accessed-bit writes on distinct pages only; bounded by segment footprint, not access count
                level[vpn].accessed = True
        hierarchy_touch_batch(process.tlb, sizes, seg)


def translate_segment(pagetable, seg: np.ndarray):
    """Vectorized page-table walk over ``seg``.

    Returns ``(sizes, fault_at, mapped_vpns)``: per-access mapping page
    sizes, the index of the first unmapped address (``None`` if fully
    mapped), and the distinct mapped VPNs probed per size (reused by the
    caller for accessed-bit marking).  Each page-table level is probed
    once per distinct VPN, honouring the radix tree's leaf precedence
    (large shadows mid shadows base) exactly like the scalar
    ``PageTable.translate``.
    """
    n = len(seg)
    sizes = np.empty(n, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    mapped_vpns: dict[int, np.ndarray] = {}
    for size in pagetable.levels_desc:
        level = pagetable._levels[size]
        if not level:
            continue
        idx = np.flatnonzero(remaining)
        if len(idx) == 0:
            break
        vpns = seg[idx] >> pagetable._shifts[size]
        uniq, inverse = np.unique(vpns, return_inverse=True)
        present = np.fromiter(
            (u in level for u in uniq.tolist()),
            dtype=bool,
            count=len(uniq),
        )
        hit = present[inverse]
        if hit.any():
            sizes[idx[hit]] = size
            remaining[idx[hit]] = False
            mapped_vpns[size] = uniq[present]
    unmapped = np.flatnonzero(remaining)
    if len(unmapped) == 0:
        return sizes, None, mapped_vpns
    return sizes, int(unmapped[0]), mapped_vpns
