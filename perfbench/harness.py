"""Pass loop, metric aggregation and reporting for one benchmark run.

A *pass* runs every configuration of the workload once: set-up, timed
region, then the correctness gate.  A run repeats passes until
``--seconds`` of passes have gone by (at least ``MIN_PASSES``), and each
host metric is the median over passes, which keeps the numbers steady on
a shared machine.  Every pass must reproduce the first pass's digest for
each configuration — the simulator is deterministic for a fixed seed.

With ``--trace 1`` the run alternates an untraced pass and a traced pass
(entry points wrapped by :mod:`perfbench.tracing`); per-layer host times
are medians over the traced passes, and the traced digests must match the
untraced ones.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.orchestrator import derive_seed
from perfbench import catalog, checks, legs
from perfbench.tracing import LAYER_SPANS, Instrumentation, SpanRecorder, SpanStats

MIN_PASSES = 3
#: where run artifacts go (arrival traces, scrape streams, span dumps),
#: relative to the directory the benchmark runs from
OUT_DIR = ".perfbench"
#: latency limit for service-open's knee (simulated)
SLO_NS = 1e6


class Phases:
    """Splits one configuration's host time into set-up and timed region."""

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        self.setup_s = 0.0
        self.wall_s = 0.0
        self._phase: str | None = None
        self._t0 = 0.0
        self._span = -1

    def setup(self) -> None:
        self._switch("bench.setup")

    def timed(self) -> None:
        self._switch("bench.timed")

    def stop(self) -> None:
        self._switch(None)

    def _switch(self, phase: str | None) -> None:
        now = time.perf_counter()
        if self._phase is not None:
            if self.recorder is not None:
                self.recorder.close(self._span)
            if self._phase == "bench.setup":
                self.setup_s += now - self._t0
            else:
                self.wall_s += now - self._t0
        self._phase = phase
        if phase is not None and self.recorder is not None:
            self._span = self.recorder.open(phase)
        self._t0 = time.perf_counter()


class Ctx:
    """What a configuration sees of the harness."""

    def __init__(self, workload: str, seed: int, phases: Phases, tamper,
                 out_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.phases = phases
        self._tamper = tamper
        self.out_dir = out_dir
        self.config = ""

    def seed_for(self, key: str) -> int:
        return derive_seed(self.seed, f"{self.workload}/{key}")

    def rng(self, key: str) -> np.random.Generator:
        return np.random.default_rng(self.seed_for(key))

    def out_path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, f"{self.workload}-{name}")

    def tamper(self, system) -> None:
        """Test hook: corrupt state after the timed region, before checks."""
        if self._tamper is not None:
            self._tamper(self.config, system)


@dataclass
class Pass:
    traced: bool
    runs: list = field(default_factory=list)  # ConfigRun (None = failed)
    spans: SpanRecorder | None = None
    #: the process's peak resident set once this pass ended
    peak_rss_mb: float = 0.0

    @property
    def ok_runs(self) -> list:
        return [r for r in self.runs if r is not None]

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.ok_runs)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    failures: list
    digest: str
    #: name -> (value, unit), for every metric this run measured
    metrics: dict
    notes: dict  # name -> human-readable base / reference
    passes: int

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        names = catalog.TRACED if self.trace else catalog.END_TO_END
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                # a workload that does not produce a metric reports 0
                m.name: {
                    "value": self.metrics.get(m.name, (0.0,))[0],
                    "unit": m.unit,
                }
                for m in names
            },
        })


def _run_pass(workload: str, seed: int, configs, traced: bool, tamper,
              digests: dict, failures: list, out_dir: str) -> Pass:
    recorder = SpanRecorder() if traced else None
    result = Pass(traced=traced, spans=recorder)
    for index, config in enumerate(configs):
        # start every configuration from a collected heap, so a cyclic
        # collection of the previous one never lands in this one's timing
        gc.collect()
        phases = Phases(recorder)
        ctx = Ctx(workload, seed, phases, tamper, out_dir)
        ctx.config = config.name
        if recorder is not None:
            recorder.current_config = index
        try:
            if traced:
                with Instrumentation(recorder):
                    run = config.run(ctx)
            else:
                run = config.run(ctx)
            run.setup_s, run.wall_s = phases.setup_s, phases.wall_s
            first = digests.setdefault(config.name, run.digest)
            if run.digest != first:
                raise AssertionError(
                    f"digest {run.digest} differs from the first pass's "
                    f"{first}{' (traced pass)' if traced else ''}"
                )
        except Exception as exc:  # every failure counts; the run goes on
            phases.stop()
            failures.append(f"{config.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            run = None
        result.runs.append(run)
    result.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: legs.Scale = legs.FULL, tamper=None,
                 min_passes: int = MIN_PASSES,
                 out_dir: str = OUT_DIR) -> Result:
    """Run one workload for ``seconds``; returns metrics and the verdict."""
    configs = legs.configs(workload, scale)
    digests: dict = {}
    failures: list = []
    passes: list[Pass] = []
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else min_passes
    while True:
        t0 = time.perf_counter()
        for traced in kinds:
            passes.append(_run_pass(
                workload, seed, configs, traced, tamper, digests, failures,
                out_dir,
            ))
        last = time.perf_counter() - t0
        rounds = len(passes) // len(kinds)
        elapsed = time.perf_counter() - start
        # a failed configuration already decides the verdict
        if rounds >= min_rounds and (failures or elapsed + last > seconds):
            break
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        for i, p in enumerate(q for q in passes if q.traced):
            p.spans.write(os.path.join(
                out_dir, f"spans-{workload}-seed{seed}-{i}.npz"
            ))
    metrics, notes = _metrics(workload, configs, passes)
    attempted = len(configs) * len(passes)
    failed = sum(r is None for p in passes for r in p.runs)
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    notes["failed_ratio"] = f"failed {failed} / attempted {attempted}"
    run_digest = checks.digest(
        [digests.get(c.name, "") for c in configs]
    )
    return Result(workload, seed, trace, attempted, failed, failures,
                  run_digest, metrics, notes, len(passes))


# -- metrics ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: np.ndarray, pct: float) -> float:
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    return float(ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)])


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _metrics(workload: str, configs, passes: list[Pass]):
    units = {m.name: m.unit for m in catalog.END_TO_END + catalog.TRACED}
    values: dict = {}
    notes: dict = {}
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    # host end-to-end: medians over untraced passes
    values["setup_s"] = statistics.median(p.total("setup_s") for p in untraced)
    values["wall_s"] = statistics.median(p.total("wall_s") for p in untraced)
    values["accesses_per_s"] = statistics.median(
        _ratio(p.total("accesses"), p.total("wall_s")) for p in untraced
    )
    # a fresh process running the workload once: later passes only add
    # allocator retention, which varies from run to run
    values["peak_rss_mb"] = untraced[0].peak_rss_mb
    notes["wall_s"] = (
        f"median of {len(untraced)} passes over {len(configs)} configs"
    )

    # simulated results and deterministic counts: from the first pass in
    # which every config succeeded (all passes agree by the digest check)
    complete = [p for p in passes if len(p.ok_runs) == len(configs)]
    if complete:
        runs = {r.name: r for r in complete[0].runs}
        counts: dict = {}
        for run in runs.values():
            legs.add_counts(counts, run.counts)
        _count_metrics(values, notes, counts)
        WORKLOAD_RESULTS[workload](values, notes, runs)

    if traced:
        overhead = _ratio(
            statistics.median(p.total("wall_s") for p in traced),
            values["wall_s"],
        ) - 1.0
        values["trace.overhead_ratio"] = overhead
        notes["trace.overhead_ratio"] = (
            f"traced wall_s / untraced wall_s - 1, {len(traced)} traced passes"
        )
        per_pass = [_span_metrics(SpanStats(p.spans)) for p in traced]
        for name in per_pass[0]:
            values[name] = statistics.median(m[name] for m in per_pass)
        notes["sim.accesses_per_call"] = (
            f"addresses / calls {values['sim.touch_batch.calls']}"
        )

    metrics = {name: (values[name], units[name]) for name in units
               if name in values}
    return metrics, notes


def _count_metrics(values: dict, notes: dict, c: dict) -> None:
    def ratio(name, num, den, base):
        values[name] = _ratio(num, den)
        notes[name] = base

    values["core.faults"] = c["faults"]
    values["core.promotions"] = c["promotions"]
    ok = c["promo_large_attempts"] - c["promo_large_failures"]
    ratio("core.promo_success_ratio", ok, c["promo_large_attempts"],
          f"succeeded {ok} / attempted {c['promo_large_attempts']}")
    values["mem.buddy.allocs"] = c["buddy_allocs"]
    values["mem.buddy.frees"] = c["buddy_frees"]
    takes = c["zerofill_hits"] + c["zerofill_misses"]
    ratio("mem.zerofill_hit_ratio", c["zerofill_hits"], takes,
          f"hits {c['zerofill_hits']} / takes {takes}")
    ok = c["fault_large_attempts"] - c["fault_large_failures"]
    ratio("mem.large_fault_success_ratio", ok, c["fault_large_attempts"],
          f"succeeded {ok} / attempted {c['fault_large_attempts']}")
    acc, l1 = c["tlb_accesses"], c["tlb_l1_hits"]
    ratio("tlb.l1_hit_ratio", l1, acc, f"l1_hits {l1} / accesses {acc}")
    ratio("tlb.l2_hit_ratio", c["tlb_l2_hits"], acc - l1,
          f"l2_hits {c['tlb_l2_hits']} / l1 misses {acc - l1}")
    ratio("tlb.walks_per_access", c["tlb_walks"], acc,
          f"walks {c['tlb_walks']} / accesses {acc}")
    values["virt.exchanges"] = c.get("exchanges", 0)
    values["service.requests"] = c.get("requests", 0)
    values["obs.scrape.frames"] = c.get("scrape_frames", 0)


def _span_metrics(s: SpanStats) -> dict:
    us = 1e6
    out = {
        "workloads.gen_s": s.total_s(LAYER_SPANS["workloads.gen_s"]),
        "workloads.setup_s": s.total_s(LAYER_SPANS["workloads.setup_s"]),
        "trace.unattributed_s": s.self_s(("bench.timed",)),
    }
    touch = LAYER_SPANS["sim.touch_batch"]
    calls = s.calls(touch)
    out["sim.touch_batch.calls"] = calls
    out["sim.accesses_per_call"] = _ratio(s.sizes(touch), calls)
    out["sim.touch_batch.self_s"] = s.self_s(touch)
    out["sim.touch_batch.us_p50"] = _pct(s.durations(touch), 50) * us
    out["sim.touch_batch.us_p99"] = _pct(s.durations(touch), 99) * us
    for group in ("sim.run_daemons", "sim.munmap", "core.compaction",
                  "virt.guest_touch"):
        out[f"{group}.calls"] = s.calls(LAYER_SPANS[group])
        out[f"{group}_s"] = s.total_s(LAYER_SPANS[group])
    fault = LAYER_SPANS["core.fault"]
    out["core.fault_s"] = s.total_s(fault)
    out["core.fault_us_p50"] = _pct(s.durations(fault), 50) * us
    out["core.fault_us_p99"] = _pct(s.durations(fault), 99) * us
    for name in ("tlb.kernel_s", "vm.pagetable_s", "core.daemon_s",
                 "core.unmap_s", "mem.buddy_s", "mem.fragment_s",
                 "virt.nested_s", "virt.ept_backing_s", "virt.exchange_s",
                 "obs.scrape_s"):
        out[name] = s.total_s(LAYER_SPANS[name])
    return out


# -- simulated results, per workload -------------------------------------------
def _paper_reference(speedup: float) -> str:
    from repro.analysis.paper_expectations import PAPER_CLAIMS

    claim = next(c for c in PAPER_CLAIMS if c.id == "fig9-gups")
    paper = 1.0 + float(claim.paper_value.strip("+%")) / 100.0
    committed = "n/a"
    path = os.path.join("report", f"{claim.source}.csv")
    if os.path.exists(path):
        with open(path) as f:
            row = next(r for r in csv.DictReader(f) if r["workload"] == "GUPS")
        committed = f"{float(row['perf:Trident']):.4f}"
    inside = "inside" if claim.lo <= speedup <= claim.hi else "OUTSIDE"
    return (
        f"{claim.id}: paper {claim.paper_value} ({paper:.2f}x), band "
        f"[{claim.lo}, {claim.hi}] ({inside}), error vs paper "
        f"{(speedup / paper - 1.0) * 100:+.1f}%, committed {path} {committed}"
    )


def _sim_warm(values: dict, notes: dict, runs: dict) -> None:
    trident, thp = runs["Trident"].sim, runs["2MB-THP"].sim
    values["sim_speedup"] = thp["runtime_ns"] / trident["runtime_ns"]
    notes["sim_speedup"] = _paper_reference(values["sim_speedup"])
    values["sim_walk_cycle_fraction"] = trident["walk_cycle_fraction"]


def _coverage(values: dict, notes: dict, sims: list[dict]) -> None:
    top = sum(s["mapped_top_bytes"] for s in sims)
    total = sum(s["mapped_bytes"] for s in sims)
    values["sim_large_coverage"] = _ratio(top, total)
    notes["sim_large_coverage"] = f"largest-level bytes {top} / mapped {total}"


def _sim_frag(values: dict, notes: dict, runs: dict) -> None:
    apps = ("GUPS", "Redis")
    values["sim_speedup"] = _geomean([
        runs[f"{a}/2MB-THP"].sim["runtime_ns"]
        / runs[f"{a}/Trident"].sim["runtime_ns"]
        for a in apps
    ])
    notes["sim_speedup"] = (
        "unvalidated: geomean over GUPS, Redis of 2MB-THP / Trident runtime "
        "at a reduced fragmented scale"
    )
    values["sim_walk_cycle_fraction"] = statistics.mean(
        runs[f"{a}/Trident"].sim["walk_cycle_fraction"] for a in apps
    )
    _coverage(values, notes, [runs[f"{a}/Trident"].sim for a in apps])
    pv, plain = runs["guest/Trident-pv"].sim, runs["guest/Trident"].sim
    values["sim_pv_speedup"] = plain["runtime_ns"] / pv["runtime_ns"]
    notes["sim_pv_speedup"] = (
        f"unvalidated: GUPS guest only ({pv['exchanges']} exchanges); the "
        "paper's fig13-pv-vs-trident is an 8-app geomean"
    )
    fmfi = [runs[f"{a}/Trident"].sim["fmfi_after_fragment"] for a in apps]
    notes["fmfi"] = "FMFI after fragment(): " + ", ".join(
        f"{a} {f:.3f}" for a, f in zip(apps, fmfi)
    )


def _sim_tenants(values: dict, notes: dict, runs: dict) -> None:
    _coverage(values, notes, [r.sim for r in runs.values()])
    notes["sim_large_coverage"] += (
        " (churn segments are 2-16 mid pages, smaller than a large page)"
    )


def _sim_service(values: dict, notes: dict, runs: dict) -> None:
    ladder = sorted((r.sim for r in runs.values()), key=lambda s: s["rate_rps"])
    knee = ladder[0]
    values["sim_max_rate_rps"] = 0.0
    for cell in ladder:
        p99 = _pct(np.asarray(cell["latencies_ns"]), 99)
        # the backlog is drained if the last request finished within one
        # SLO of the end of the arrival window
        drained = cell["span_clock_ns"] <= cell["duration_ns"] + SLO_NS
        if p99 <= SLO_NS and drained:
            knee = cell
            values["sim_max_rate_rps"] = cell["rate_rps"]
    lat = np.asarray(knee["latencies_ns"])
    values["sim_p50_latency_us"] = _pct(lat, 50) / 1e3
    values["sim_p99_latency_us"] = _pct(lat, 99) / 1e3
    beyond = int((lat > _pct(lat, 99)).sum())
    notes["sim_p99_latency_us"] = (
        f"at knee rate {knee['rate_rps']} req/s: {len(lat)} requests, "
        f"{beyond} beyond p99"
    )
    violations = sum(c["slo_violations"] for c in ladder)
    requests = sum(c["requests"] for c in ladder)
    values["sim_slo_violation_ratio"] = _ratio(violations, requests)
    notes["sim_slo_violation_ratio"] = (
        f"violations {violations} / requests {requests} over rates "
        + ", ".join(str(c["rate_rps"]) for c in ladder)
    )
    values["service.requests_per_s"] = knee["completed_rps"]
    values["service.queue_delay_us_mean"] = knee["queue_delay_mean_ns"] / 1e3
    fired = [
        c["rate_rps"] for c in ladder
        if any(t["state"] == "firing" for t in c["alerts"]["transitions"])
    ]
    notes["alerts"] = f"slo-burn alert fired at rates {fired or 'none'}"


#: per workload: fold its configurations' sim results into the sim_* metrics
WORKLOAD_RESULTS = {
    "warm-translate": _sim_warm,
    "frag-fault": _sim_frag,
    "tenant-churn": _sim_tenants,
    "service-open": _sim_service,
}


# -- reporting ----------------------------------------------------------------------
def report(result: Result) -> str:
    """Human-readable lines: every metric by name with its unit."""
    lines = [
        f"perfbench workload={result.workload} seed={result.seed} "
        f"trace={int(result.trace)} passes={result.passes} "
        f"digest={result.digest}"
    ]
    for m in catalog.END_TO_END + catalog.TRACED:
        value, unit = result.metrics.get(m.name, (0.0, m.unit))
        note = result.notes.get(m.name, "")
        if m.name not in result.metrics:
            note = (
                "traced runs only" if m.traced and not result.trace
                else "not produced by this workload"
            )
        lines.append(
            f"  {m.name:32s} {value:14.6g} {unit:6s}"
            + (f"  ({note})" if note else "")
        )
    for key in ("fmfi", "alerts"):
        if key in result.notes:
            lines.append(f"  {result.notes[key]}")
    for failure in result.failures:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)
