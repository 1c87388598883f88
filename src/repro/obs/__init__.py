"""Observability: metrics registry + tracer + simulated-time timeline.

One :class:`Observability` instance accompanies one simulated machine
(:class:`repro.sim.system.System` creates its own by default).  The memory
substrate (buddy, zero-fill, regions, compactors), the OS policies and the
TLB hierarchy all accept it optionally and instrument themselves when it is
present; construction without one keeps every component fully functional
with zero observability overhead.

The timeline layer adds a shared simulated-time axis: a :class:`SimClock`
advanced by cost-bearing operations, a :class:`SpanRecorder` for begin/end
latency attribution, and an optional :class:`TimelineSampler` snapshotting
gauges at a fixed simulated cadence.  See ``docs/observability.md`` for
the event schema, metric names, the clock-advancement discipline and
overhead notes, and ``repro metrics`` for the live catalog.

The bundle also owns the run lifecycle every driver shares: built from
an :class:`~repro.obs.options.ObsOptions` by
:meth:`Observability.from_options`, it attaches invariant auditors
(:meth:`~Observability.attach`), starts the telemetry scrape stream
(:meth:`~Observability.start_scrape`) and closes the run out with
:meth:`~Observability.finish`.
"""

from __future__ import annotations

import os

from repro.obs.clock import SimClock
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    nearest_rank,
    parse_key,
    percentile_from_buckets,
    render_key,
)
from repro.obs.options import ObsOptions, claim_drop_path
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder
from repro.obs.timeline import TimelineSampler, TimeSeries
from repro.obs.trace import RESERVED_FIELDS, SUBSYSTEMS, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "Observability",
    "ObsOptions",
    "SimClock",
    "Span",
    "SpanRecorder",
    "NULL_SPAN",
    "TimelineSampler",
    "TimeSeries",
    "SUBSYSTEMS",
    "RESERVED_FIELDS",
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "render_key",
    "parse_key",
    "escape_label_value",
    "nearest_rank",
    "percentile_from_buckets",
]


class Observability:
    """The per-machine bundle: metrics, tracer, clock, spans, timeline."""

    def __init__(
        self,
        trace_subsystems: tuple[str, ...] | str = (),
        trace_capacity: int = 65536,
        timeline: bool = False,
        timeline_interval_ms: float = 0.5,
        timeline_max_points: int = 2048,
    ) -> None:
        if trace_subsystems == "all":
            trace_subsystems = SUBSYSTEMS
        self.metrics = MetricsRegistry()
        self.clock = SimClock()
        self.tracer = Tracer(
            capacity=trace_capacity,
            subsystems=trace_subsystems,
            clock=self.clock,
        )
        self.spans = SpanRecorder(self.clock, tracer=self.tracer, metrics=self.metrics)
        self.timeline: TimelineSampler | None = None
        if timeline:
            # The timeline implies the span stream: enable both so the
            # attribution table and the trace's span track are populated.
            self.spans.enabled = True
            self.tracer.enable("span")
            self.timeline = TimelineSampler(
                self.clock,
                interval_ms=timeline_interval_ms,
                max_points=timeline_max_points,
                metrics=self.metrics,
            )
        self.options = ObsOptions()
        #: invariant auditors of the attached systems, in attach order
        self.auditors: list = []
        #: the telemetry scrape stream, once started
        self.scraper = None
        #: the alert engine evaluated per scrape frame, when rules were given
        self.alerts = None

    @classmethod
    def from_options(cls, options: ObsOptions) -> Observability:
        """The bundle ``options`` ask for: trace ring and timeline.

        ``timeline_out``/``report_out`` imply the timeline.
        """
        subsystems: tuple[str, ...] | str = ()
        if options.trace_enabled:
            subsystems = options.trace_subsystems or "all"
        obs = cls(
            trace_subsystems=subsystems,
            trace_capacity=options.trace_capacity,
            timeline=options.timeline_on,
        )
        obs.options = options
        return obs

    def attach(self, system, hypervisor=None) -> None:
        """Audit ``system`` when the options ask for it.

        Attached systems get a sampled auditor now and a final audit in
        :meth:`finish`; the audit counters land in this bundle's registry
        even for a system that runs bare (the host of a virtualized run,
        whose auditor also gets the ``hypervisor`` for pv bijectivity).
        """
        if not self.options.audit:
            return
        from repro.lint.invariants import attach_auditor

        self.auditors.append(
            attach_auditor(
                system,
                every=self.options.audit_every,
                hypervisor=hypervisor,
                obs=self,
            )
        )

    def start_scrape(self, alerts_path: str | None = None) -> None:
        """Start the scrape stream to ``options.telemetry_out``, if set.

        One Prometheus-text frame per ``telemetry_interval_ms`` of
        simulated time from here on; with ``alerts_path``, an
        :class:`~repro.obs.telemetry.AlertEngine` evaluates those rules
        on every frame.
        """
        if not self.options.telemetry_out:
            return
        from repro.obs.telemetry import (
            AlertEngine,
            ScrapeFileSink,
            TelemetryScraper,
            load_alert_rules,
        )

        if alerts_path:
            self.alerts = AlertEngine(
                load_alert_rules(alerts_path),
                tracer=self.tracer,
                metrics=self.metrics,
            )
        self.scraper = TelemetryScraper(
            self.clock,
            self.metrics,
            ScrapeFileSink(self.options.telemetry_out),
            interval_ms=self.options.telemetry_interval_ms,
            alert_engine=self.alerts,
        )

    def finish(self, run: dict | None = None) -> str | None:
        """Close the run out; returns the ``metrics.json`` path written.

        In order: a final audit of every attached system (so every run
        gets at least one), a closing timeline sample and a final scrape
        frame at end-of-run state, ``metrics.json`` (with ``run`` as its
        ``run`` section, plus the audit totals) to ``metrics_out`` or
        dropped into ``metrics_dir``, then the Chrome trace and HTML
        report.  ``run`` carries ``workload`` and ``policy``, which name
        the drop and title the report; without it no ``metrics.json`` is
        written.
        """
        for auditor in self.auditors:
            auditor.audit()
        if self.timeline is not None:
            self.timeline.sample()
        if self.scraper is not None:
            self.scraper.close()
        path = self._write_run_metrics(run) if run is not None else None
        title = f"{run['workload']} / {run['policy']}" if run is not None else "run"
        self._export_timeline(title)
        return path

    def _write_run_metrics(self, run: dict) -> str | None:
        options = self.options
        path = options.metrics_out
        if path is None and options.metrics_dir:
            path = claim_drop_path(
                options.metrics_dir, f"metrics_{run['workload']}_{run['policy']}"
            )
        if path is None:
            return None
        _make_parent(path)
        section = dict(run)
        if self.auditors:
            section["audit_runs"] = sum(a.audits for a in self.auditors)
            section["audit_checks"] = sum(a.checks for a in self.auditors)
            section["audit_violations"] = sum(
                a.violations for a in self.auditors
            )
        return self.write_metrics_json(path, extra={"run": section})

    def _export_timeline(self, title: str) -> None:
        timeline_out = self.options.timeline_out
        report_out = self.options.report_out
        if timeline_out:
            from repro.obs.export import write_chrome_trace

            _make_parent(timeline_out)
            write_chrome_trace(
                timeline_out,
                tracer=self.tracer,
                timeline=self.timeline,
                clock=self.clock,
            )
        if report_out:
            from repro.obs.report import write_report

            _make_parent(report_out)
            data = self.metrics.snapshot()
            data["timeline"] = self.timeline_export()
            write_report(report_out, [(title, data)], title=title)

    def timeline_export(self) -> dict:
        """The ``timeline`` section embedded in ``metrics.json``."""
        out: dict = {
            "clock_ns": self.clock.now_ns,
            "spans": self.spans.export(),
        }
        if self.timeline is not None:
            out["sampler"] = self.timeline.export()
        return out

    def write_metrics_json(self, path: str, extra: dict | None = None) -> str:
        """Snapshot the registry (and trace health) into one JSON file."""
        sections = {"trace": self.tracer.summary()}
        if self.spans.enabled or self.timeline is not None:
            sections["timeline"] = self.timeline_export()
        if extra:
            sections.update(extra)
        return self.metrics.write_json(path, extra=sections)


def _make_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


#: (name, kind, labels, description) for every permanently instrumented
#: metric — what ``repro metrics`` prints.  Collector-mirrored metrics are
#: authoritative copies of the simulator's own stats structs, so figures
#: built from either source agree by construction.
METRIC_CATALOG: tuple[tuple[str, str, str, str], ...] = (
    # buddy allocator (incrementally maintained)
    ("buddy_alloc_total", "counter", "order", "block allocations at order"),
    ("buddy_free_total", "counter", "order", "block frees at order"),
    ("buddy_split_total", "counter", "", "block splits while allocating"),
    ("buddy_coalesce_total", "counter", "", "buddy merges while freeing"),
    ("buddy_free_blocks", "gauge", "order", "free-list depth at order"),
    ("buddy_free_frames", "gauge", "", "total free base frames"),
    # zero-fill engine (incrementally maintained)
    ("zerofill_fill_total", "counter", "", "blocks pre-zeroed into the pool"),
    ("zerofill_take_hit_total", "counter", "", "take_zeroed served from pool"),
    ("zerofill_take_miss_total", "counter", "", "take_zeroed on empty pool"),
    ("zerofill_release_total", "counter", "", "blocks released under pressure"),
    ("zerofill_credit_dropped_ns_total", "counter", "", "zeroing credit surrendered"),
    ("zerofill_pool_size", "gauge", "", "pre-zeroed blocks currently pooled"),
    # compaction (incrementally maintained)
    ("compaction_attempt_total", "counter", "kind", "compact() calls"),
    ("compaction_success_total", "counter", "kind", "attempts that produced a block"),
    ("compaction_bytes_copied_total", "counter", "kind", "bytes physically copied"),
    ("compaction_bytes_exchanged_total", "counter", "kind", "bytes moved via pv exchange"),
    ("compaction_wasted_bytes_total", "counter", "kind", "bytes copied then abandoned"),
    ("compaction_blocks_moved_total", "counter", "kind", "blocks migrated"),
    ("compaction_regions_freed_total", "counter", "kind", "source regions fully evacuated"),
    ("compaction_abort_total", "counter", "kind,reason", "evacuations aborted, by reason"),
    # region counters (collector-mirrored from RegionTracker)
    ("regions_fully_free", "gauge", "", "large regions with every frame free"),
    ("regions_with_unmovable", "gauge", "", "large regions pinned by unmovable frames"),
    # policy layer (collector-mirrored from PolicyStats)
    ("policy_faults_total", "counter", "", "page faults handled"),
    ("policy_fault_ns_total", "counter", "", "cumulative fault latency"),
    ("policy_fault_mapped_total", "counter", "size", "fault-time mappings by page size"),
    ("policy_promoted_total", "counter", "size", "promotions by target page size"),
    ("policy_demoted_total", "counter", "size", "demotions by source page size"),
    ("policy_fault_large_attempts_total", "counter", "", "1GB attempts at fault time"),
    ("policy_fault_large_failures_total", "counter", "", "1GB fault attempts that fell back"),
    ("policy_promo_large_attempts_total", "counter", "", "1GB promotion attempts"),
    ("policy_promo_large_failures_total", "counter", "", "1GB promotions that fell back"),
    ("policy_promo_copy_bytes_total", "counter", "", "bytes copied by promotion"),
    ("policy_daemon_ns_total", "counter", "", "background daemon CPU consumed"),
    ("policy_bloat_recovered_bytes_total", "counter", "", "bloat bytes recovered"),
    # TLB (histogram incremental; totals collector-mirrored)
    ("tlb_walk_cycles", "histogram", "size", "page-walk latency distribution"),
    ("tlb_accesses_total", "counter", "", "translations requested"),
    ("tlb_l1_hits_total", "counter", "", "L1 TLB hits"),
    ("tlb_l2_hits_total", "counter", "", "L2 TLB hits"),
    ("tlb_walks_total", "counter", "size", "page walks by page size"),
    # system-level (collector-mirrored)
    ("system_fmfi", "gauge", "", "free-memory fragmentation index at large order"),
    ("system_daemon_ns_total", "counter", "", "daemon ns across all ticks"),
    # NUMA layer (repro.mem.buddy placement + System penalties; multi-node runs only)
    ("numa_alloc_local_total", "counter", "", "allocations placed on the preferred node"),
    ("numa_alloc_remote_total", "counter", "", "allocations spilled to a remote node"),
    ("numa_remote_walk_penalty_ns_total", "counter", "", "extra ns for remote page walks"),
    ("numa_remote_access_penalty_ns_total", "counter", "", "extra ns for remote data accesses"),
    ("numa_replica_updates_total", "counter", "", "page-table replica entries written"),
    ("numa_replica_update_ns_total", "counter", "", "ns spent maintaining pt replicas"),
    ("numa_node_free_frames", "gauge", "node", "free frames on one NUMA node"),
    ("numa_node_fmfi", "gauge", "node", "per-node fragmentation index at large order"),
    # simulated-time timeline layer (repro.obs.clock/spans/timeline)
    ("sim_clock_ns", "gauge", "", "simulated clock position at snapshot"),
    ("span_duration_ns", "histogram", "kind", "span durations by span kind"),
    ("timeline_samples_total", "counter", "", "timeline sampling instants taken"),
    # invariant audit layer (repro.lint.invariants; --audit runs only)
    ("audit_runs_total", "counter", "", "sampled invariant audits executed"),
    ("audit_checks_total", "counter", "", "elementary invariant checks performed"),
    ("audit_violations_total", "counter", "", "invariant violations detected"),
    # service layer (repro.service; loadgen/serve runs only)
    ("service_requests_total", "counter", "workload,policy", "service requests completed"),
    ("service_slo_violations_total", "counter", "workload,policy", "requests over the SLO bound"),
    ("service_request_latency_ns", "histogram", "workload,policy", "request latency incl. queueing"),
    ("service_queue_delay_ns", "histogram", "workload,policy", "open-loop queueing delay"),
    ("service_queue_depth", "gauge", "workload,policy", "requests arrived but not completed"),
    ("service_completed_requests", "gauge", "workload,policy", "requests completed so far"),
    # telemetry pipeline (repro.obs.telemetry; scrape-enabled runs only)
    ("telemetry_frames_total", "counter", "", "scrape frames rendered"),
    ("alert_transitions_total", "counter", "rule", "alert firing/resolved transitions"),
    ("alerts_active", "gauge", "", "alert instances currently firing"),
)
