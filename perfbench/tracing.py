"""In-memory span recording around the simulator's public entry points.

The traced run wraps each layer's entry points at runtime — nothing under
``src/`` knows it is being traced.  Every call records one span: a name,
host start and end (``time.perf_counter``), the enclosing span and the
configuration it ran under.  Spans live in flat ``array`` columns so a
million of them cost tens of megabytes, and are written out once, when
the run ends.

Self time is a span's duration minus the time its direct children cover
(calls nest strictly on one thread, so children never overlap).  A layer
metric sums the *outermost* spans of its group, so a method that calls
itself through ``super()`` or a sibling entry point of the same layer is
counted once.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class SpanRecorder:
    """Flat, append-only span store with a live call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.config = array("i")
        #: addresses passed to touch_batch, 0 for every other span
        self.size = array("q")
        self.current_config = -1
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, size: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.config.append(self.current_config)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- analysis ---------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "config": np.frombuffer(self.config, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Persist every span (names table + columns) as one ``.npz``."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), **self.columns()
        )


class SpanStats:
    """Vectorised queries over a finished recording."""

    def __init__(self, recorder: SpanRecorder) -> None:
        cols = recorder.columns()
        self.names = recorder.names
        self.name_id = cols["name_id"]
        self.parent = cols["parent"]
        self.size = cols["size"]
        self.duration = cols["end"] - cols["start"]
        n = len(self.duration)
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def _mask(self, names) -> np.ndarray:
        ids = [i for i, name in enumerate(self.names) if name in names]
        return np.isin(self.name_id, ids)

    def outermost(self, names) -> np.ndarray:
        """Mask of spans in ``names`` with no ancestor in ``names``."""
        member = self._mask(names)
        covered = np.zeros_like(member)
        ancestor = self.parent.copy()
        while True:
            live = ancestor >= 0
            if not live.any():
                break
            covered[live] |= member[ancestor[live]]
            ancestor[live] = self.parent[ancestor[live]]
        return member & ~covered

    def total_s(self, names) -> float:
        return float(self.duration[self.outermost(names)].sum())

    def self_s(self, names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def calls(self, names) -> int:
        return int(self.outermost(names).sum())

    def durations(self, names) -> np.ndarray:
        return self.duration[self.outermost(names)]

    def sizes(self, names) -> int:
        return int(self.size[self.outermost(names)].sum())


def _wrap_callable(recorder: SpanRecorder, name: str, fn, sized: bool):
    if sized:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = recorder.open(name, len(args[2]))
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(idx)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(idx)
    return wrapper


def _wrap_generator_method(recorder: SpanRecorder, name: str, fn):
    """Time each ``next()`` of the generator a method returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)

        def timed():
            while True:
                idx = recorder.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    recorder.close(idx)
                yield item

        return timed()

    return wrapper


def _family(cls: type):
    yield cls
    for sub in cls.__subclasses__():
        yield from _family(sub)


class Instrumentation:
    """Installs span wrappers on the entry points and restores them.

    Each target is ``(owner, attribute, span name)``; a class owner wraps
    the attribute on the class and every loaded subclass that overrides
    it, a module owner wraps the module global (the name callers resolve
    at call time).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _install(self, owner, attr: str, name: str, kind: str) -> None:
        original = owner.__dict__[attr]
        if kind == "generator":
            wrapped = _wrap_generator_method(self.recorder, name, original)
        else:
            wrapped = _wrap_callable(
                self.recorder, name, original, sized=kind == "sized"
            )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def wrap(self, owner, attr: str, name: str, kind: str = "plain") -> None:
        if isinstance(owner, type):
            for cls in _family(owner):
                if attr in cls.__dict__:
                    self._install(cls, attr, name, kind)
        else:
            self._install(owner, attr, name, kind)

    def __enter__(self) -> "Instrumentation":
        install_layer_spans(self)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


#: span name groups that make up each per-layer host-time metric
LAYER_SPANS = {
    "workloads.gen_s": ("workloads.iter_batches", "workloads.access_stream"),
    "workloads.setup_s": ("workloads.setup",),
    "sim.touch_batch": ("sim.touch_batch",),
    "sim.run_daemons": ("sim.run_daemons",),
    "sim.munmap": ("sim.munmap",),
    "tlb.kernel_s": ("tlb.kernel",),
    "vm.pagetable_s": ("vm.pagetable",),
    "core.fault": ("core.handle_fault",),
    "core.daemon_s": ("core.background_tick",),
    "core.compaction": ("core.compact",),
    "core.unmap_s": ("core.unmap_range",),
    "mem.buddy_s": ("mem.buddy",),
    "mem.fragment_s": ("mem.fragment",),
    "virt.guest_touch": ("virt.guest_touch",),
    "virt.nested_s": ("virt.nested",),
    "virt.ept_backing_s": ("virt.ept_backing",),
    "virt.exchange_s": ("virt.exchange",),
    "obs.scrape_s": ("obs.scrape",),
}


def install_layer_spans(inst: Instrumentation) -> None:
    """Wrap every entry point named in the benchmark's per-layer table."""
    import repro.experiments.configs  # noqa: F401 (loads every policy class)
    import repro.sim.batch
    from repro.core.compaction import _CompactorBase
    from repro.core.policy import MemoryPolicy
    from repro.mem.buddy import BuddyAllocator
    from repro.obs.telemetry.exposition import TelemetryScraper
    from repro.sim.system import System
    from repro.tlb.nested import NestedTranslationUnit
    from repro.virt.hypercall import PVExchangeInterface
    from repro.virt.hypervisor import Hypervisor
    from repro.virt.machine import GuestSystem
    from repro.virt.tridentpv import TridentPVPolicy  # noqa: F401 (subclass)
    from repro.vm.pagetable import PageTable
    from repro.workloads.base import Workload
    from repro.workloads.registry import REGISTRY  # noqa: F401 (subclasses)

    inst.wrap(Workload, "iter_batches", "workloads.iter_batches", "generator")
    inst.wrap(Workload, "access_stream", "workloads.access_stream")
    inst.wrap(Workload, "setup", "workloads.setup")
    inst.wrap(System, "touch_batch", "sim.touch_batch", "sized")
    inst.wrap(System, "run_daemons", "sim.run_daemons")
    inst.wrap(System, "sys_munmap", "sim.munmap")
    inst.wrap(System, "fragment", "mem.fragment")
    # sim/batch.py imports repro.tlb.batch.hierarchy_touch_batch by name;
    # wrap the name it calls
    inst.wrap(repro.sim.batch, "hierarchy_touch_batch", "tlb.kernel")
    for attr in ("map_page", "unmap", "unmap_range", "translate"):
        inst.wrap(PageTable, attr, "vm.pagetable")
    inst.wrap(MemoryPolicy, "handle_fault", "core.handle_fault")
    inst.wrap(MemoryPolicy, "background_tick", "core.background_tick")
    inst.wrap(MemoryPolicy, "unmap_range", "core.unmap_range")
    inst.wrap(_CompactorBase, "compact", "core.compact")
    for attr in ("alloc", "try_alloc", "alloc_at", "free"):
        inst.wrap(BuddyAllocator, attr, "mem.buddy")
    inst.wrap(GuestSystem, "touch", "virt.guest_touch")
    inst.wrap(NestedTranslationUnit, "access", "virt.nested")
    inst.wrap(Hypervisor, "ensure_backed", "virt.ept_backing")
    inst.wrap(PVExchangeInterface, "exchange", "virt.exchange")
    inst.wrap(TelemetryScraper, "scrape", "obs.scrape")
