"""The benchmark's metric catalog and the rationale behind each metric.

``BENCHMARK.json`` declares names, units and directions only; this module
is where the benchmark records *why* each number exists: which workload a
per-layer metric is expected to move on, and which end-to-end metric that
movement should show up in.  A later performance change cites these names
instead of re-deriving the prediction.

Host metrics are wall-clock seconds of this process (``time.perf_counter``).
Simulated (``sim``) metrics come from the simulator's own statistics and
repeat exactly for a fixed seed; a change meant only to make the simulator
faster must leave every one of them, and the printed digest, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("warm-translate", "frag-fault", "tenant-churn", "service-open")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: what the number is and where it comes from
    meaning: str
    #: end-to-end metric(s) a change to this layer should move
    moves: str = ""
    #: workload(s) where the movement is predicted; the parenthesised
    #: ones should show little or no change
    on: str = ""
    #: measured from host spans, so only a traced run produces it
    traced: bool = False


#: End-to-end metrics printed on every workload and declared in
#: BENCHMARK.json.  Host time is summed over a workload's configurations
#: per pass; each number is the median over the run's passes.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "host time before the timed regions: System construction and "
           "kernel reservation, fragment(), workload premap and warm-up"),
    Metric("wall_s", "s", "lower", "host time of the timed regions"),
    Metric("accesses_per_s", "1/s", "higher",
           "simulated TLB accesses issued in the timed regions / wall_s"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident set of the benchmark process (ru_maxrss)"),
)

#: Simulated end-to-end results.  They are printed on every run, but only
#: some workloads produce each one (a workload that does not reports 0 in
#: the traced JSON line), so BENCHMARK.json lists them with the per-layer
#: metrics, which carry no regression bound.
SIM_RESULTS = (
    Metric("failed_ratio", "ratio", "lower",
           "configurations that failed the correctness gate / attempted",
           on="all"),
    Metric("sim_speedup", "x", "higher",
           "geomean over apps of 2MB-THP / Trident simulated runtime "
           "(PerfModel)", on="warm-translate, frag-fault"),
    Metric("sim_walk_cycle_fraction", "ratio", "lower",
           "Trident's page-walk share of simulated cycles, mean over apps",
           on="warm-translate, frag-fault"),
    Metric("sim_large_coverage", "ratio", "higher",
           "share of Trident-mapped bytes mapped at the largest page level "
           "at the end of the run (Table 3 analogue)",
           on="frag-fault, tenant-churn"),
    Metric("sim_pv_speedup", "x", "higher",
           "Trident guest / Trident-pv guest simulated runtime",
           on="frag-fault"),
    Metric("sim_p50_latency_us", "us", "lower",
           "request latency p50 at the ladder's knee rate (sim time)",
           on="service-open"),
    Metric("sim_p99_latency_us", "us", "lower",
           "request latency p99 at the ladder's knee rate (sim time)",
           on="service-open"),
    Metric("sim_max_rate_rps", "1/s", "higher",
           "highest ladder rate whose p99 meets the 1 ms SLO with no "
           "growing backlog (sim time)", on="service-open"),
    Metric("sim_slo_violation_ratio", "ratio", "lower",
           "SLO violations / requests over the whole ladder",
           on="service-open"),
)


def Span(*args, **kwargs) -> Metric:
    """A per-layer metric measured from host spans."""
    return Metric(*args, traced=True, **kwargs)


#: Per-layer metrics.  ``_s``/``_us`` values are host span times from the
#: traced run (``self_s`` excludes child spans); counts and ratios are the
#: program's own deterministic statistics and are printed untraced too.
PER_LAYER = (
    Span("workloads.gen_s", "s", "lower",
         "Workload.iter_batches / access_stream generation",
         "wall_s, accesses_per_s", "warm-translate"),
    Span("workloads.setup_s", "s", "lower", "Workload.setup",
         "wall_s, accesses_per_s", "frag-fault"),
    Span("sim.touch_batch.calls", "count", "lower",
         "System.touch_batch calls", "wall_s",
         "service-open (warm-translate: ~n/65536 calls)"),
    Span("sim.accesses_per_call", "ratio", "higher",
         "addresses passed to touch_batch / calls", "wall_s",
         "service-open"),
    Span("sim.touch_batch.self_s", "s", "lower",
         "touch_batch time outside its child spans", "wall_s",
         "service-open (warm-translate)"),
    Span("sim.touch_batch.us_p50", "us", "lower",
         "median touch_batch call", "wall_s", "service-open"),
    Span("sim.touch_batch.us_p99", "us", "lower",
         "p99 touch_batch call", "wall_s", "service-open"),
    Span("sim.run_daemons.calls", "count", "lower",
         "System.run_daemons calls", "wall_s",
         "frag-fault, tenant-churn"),
    Span("sim.run_daemons_s", "s", "lower", "System.run_daemons",
         "wall_s", "frag-fault, tenant-churn"),
    Span("sim.munmap.calls", "count", "lower", "System.sys_munmap calls",
         "wall_s", "tenant-churn"),
    Span("sim.munmap_s", "s", "lower", "System.sys_munmap", "wall_s",
         "tenant-churn"),
    Span("tlb.kernel_s", "s", "lower",
         "repro.tlb.batch.hierarchy_touch_batch", "accesses_per_s",
         "warm-translate (frag-fault)"),
    Metric("tlb.l1_hit_ratio", "ratio", "higher",
           "L1 hits / accesses in the measured streams (sim)",
           "sim_walk_cycle_fraction, sim_speedup", "warm-translate"),
    Metric("tlb.l2_hit_ratio", "ratio", "higher",
           "L2 hits / L1 misses in the measured streams (sim)",
           "sim_walk_cycle_fraction, sim_speedup", "warm-translate"),
    Metric("tlb.walks_per_access", "ratio", "lower",
           "page walks / accesses in the measured streams (sim)",
           "sim_walk_cycle_fraction, sim_speedup", "warm-translate"),
    Span("vm.pagetable_s", "s", "lower",
         "PageTable.map_page/unmap/unmap_range/translate", "wall_s",
         "frag-fault, tenant-churn"),
    Metric("core.faults", "count", "lower",
           "page faults handled by the policies (sim)",
           "wall_s (frag-fault), setup_s (warm-translate)",
           "frag-fault (service-open)"),
    Span("core.fault_s", "s", "lower", "policy.handle_fault",
         "wall_s (frag-fault), setup_s (warm-translate)",
         "frag-fault (service-open)"),
    Span("core.fault_us_p50", "us", "lower", "median handle_fault call",
         "wall_s (frag-fault), setup_s (warm-translate)", "frag-fault"),
    Span("core.fault_us_p99", "us", "lower", "p99 handle_fault call",
         "wall_s (frag-fault), setup_s (warm-translate)", "frag-fault"),
    Span("core.daemon_s", "s", "lower", "policy.background_tick",
         "wall_s", "frag-fault Redis leg"),
    Span("core.compaction.calls", "count", "lower",
         "compactor.compact calls", "wall_s", "frag-fault Redis leg"),
    Span("core.compaction_s", "s", "lower", "compactor.compact", "wall_s",
         "frag-fault Redis leg"),
    Metric("core.promotions", "count", "higher",
           "pages created by promotion (sim)", "sim_large_coverage",
           "frag-fault"),
    Metric("core.promo_success_ratio", "ratio", "higher",
           "successful / attempted large-page promotions (sim)",
           "sim_large_coverage", "frag-fault"),
    Span("core.unmap_s", "s", "lower", "policy.unmap_range", "wall_s",
         "tenant-churn"),
    Metric("mem.buddy.allocs", "count", "lower",
           "buddy allocations, all orders and systems (sim)",
           "wall_s, peak_rss_mb", "tenant-churn, frag-fault"),
    Metric("mem.buddy.frees", "count", "lower",
           "buddy frees, all orders and systems (sim)",
           "wall_s, peak_rss_mb", "tenant-churn, frag-fault"),
    Span("mem.buddy_s", "s", "lower",
         "BuddyAllocator.alloc/try_alloc/alloc_at/free",
         "wall_s, peak_rss_mb", "tenant-churn, frag-fault"),
    Span("mem.fragment_s", "s", "lower", "System.fragment", "setup_s",
         "frag-fault"),
    Metric("mem.zerofill_hit_ratio", "ratio", "higher",
           "zero-fill pool hits / takes (sim)",
           "sim_speedup, sim_large_coverage", "frag-fault"),
    Metric("mem.large_fault_success_ratio", "ratio", "higher",
           "fault-time large-page allocations that succeeded / attempted "
           "(sim)", "sim_speedup, sim_large_coverage", "frag-fault"),
    Span("virt.guest_touch.calls", "count", "lower",
         "GuestSystem.touch calls", "wall_s", "frag-fault guest leg"),
    Span("virt.guest_touch_s", "s", "lower", "GuestSystem.touch",
         "wall_s", "frag-fault guest leg"),
    Span("virt.nested_s", "s", "lower", "NestedTranslationUnit.access",
         "wall_s", "frag-fault guest leg"),
    Span("virt.ept_backing_s", "s", "lower", "Hypervisor.ensure_backed",
         "wall_s", "frag-fault guest leg"),
    Metric("virt.exchanges", "count", "higher",
           "page-mapping exchanges done by Trident-pv hypercalls (sim)",
           "sim_pv_speedup, wall_s", "frag-fault guest leg"),
    Span("virt.exchange_s", "s", "lower", "PVExchangeInterface.exchange",
         "sim_pv_speedup, wall_s", "frag-fault guest leg"),
    Metric("service.requests", "count", "higher",
           "requests served over the ladder (sim)",
           "wall_s, sim_p99_latency_us", "service-open"),
    Metric("service.requests_per_s", "1/s", "higher",
           "completed requests per simulated second at the knee rate",
           "wall_s, sim_p99_latency_us", "service-open"),
    Metric("service.queue_delay_us_mean", "us", "lower",
           "mean queueing delay at the knee rate (sim)",
           "wall_s, sim_p99_latency_us", "service-open"),
    Metric("obs.scrape.frames", "count", "lower",
           "telemetry frames scraped (sim cadence)", "wall_s",
           "service-open"),
    Span("obs.scrape_s", "s", "lower",
         "TelemetryScraper.scrape, alert evaluation included", "wall_s",
         "service-open"),
    Span("trace.overhead_ratio", "ratio", "lower",
         "traced / untraced wall_s - 1", on="all"),
    Span("trace.unattributed_s", "s", "lower",
         "timed-region host time inside no traced layer span", on="all"),
)

#: Everything the traced JSON line carries (BENCHMARK.json ``per_layer``).
TRACED = SIM_RESULTS + PER_LAYER

WORKLOAD_WHY = {
    "warm-translate": (
        "Fig. 9 GUPS, warm TLBs: timed work is the tlb kernel plus workloads "
        "stream generation; faults, compaction and virt are bypassed"
    ),
    "frag-fault": (
        "fragmented memory, cold caches: loads core, mem and vm fault, "
        "promotion and compaction paths plus the virt guest; tlb kernel "
        "does little"
    ),
    "tenant-churn": (
        "64 tenants on 2-node NUMA machines: loads munmap, buddy "
        "coalescing, page-table teardown and NUMA placement; no virt or "
        "service layer"
    ),
    "service-open": (
        "open-loop 16-access Redis requests over a rate ladder: loads "
        "per-call touch_batch overhead, service and obs.telemetry; tlb "
        "kernel barely shows"
    ),
}
