"""The simulated memory fleet: tenant cells, request replay, orchestration.

One *cell* is the unit of service simulation: a tenant ``System`` booted
under one policy, loaded by one arrival schedule.  Each request maps to
one ``Workload.iter_batches`` slice executed through the vectorized
``touch_batch`` hot path; its service time mirrors the request model of
``NativeRunner._run_requests`` (base service time + the unhidden fraction
of the request's own translation cycles + its fault latency), and both
the queueing gap and the service time are charged against the tenant's
``SimClock``, so spans, timeline samples and Chrome traces line up with
request latency on one simulated-time axis.

Request latency composes the single-server FIFO recursion::

    start_i      = max(arrival_i, completion_{i-1})
    completion_i = start_i + service_i
    latency_i    = completion_i - arrival_i

Cells are embarrassingly parallel and run on the sweep orchestrator's
process-pool engine (:func:`repro.experiments.orchestrator.execute_units`)
with seeds derived per cell id (:func:`derive_seed`), so fleet output is
byte-identical at any ``--jobs`` count: every cell's result is a pure
function of (root seed, cell id), and cells are merged in canonical
order, never completion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.config import FREQ_GHZ, default_machine
from repro.experiments.configs import policy_factory, resolve_policy
from repro.experiments.orchestrator import (
    RECORD_TARGET,
    UnitSpec,
    derive_seed,
    run_record_units,
)
from repro.experiments.runner import _WorkloadAPI
from repro.mem.numa import NumaTopology
from repro.obs import Observability, ObsOptions
from repro.service.arrivals import (
    closed_loop_count,
    poisson_arrivals,
    trace_arrivals,
)
from repro.sim.system import System
from repro.workloads.registry import get_workload

#: the record function each fleet unit runs in a pool worker
CELL_TARGET = "repro.service.fleet:run_service_cell"

#: latency histogram bounds: a 1-2-5 ladder from 1us to 5s in ns, wide
#: enough for sub-SLO request latencies and deep-saturation queueing alike
LATENCY_BUCKETS_NS = tuple(
    m * 10**d for d in range(3, 10) for m in (1, 2, 5)
)

#: smallest tenant machine, in large regions — headroom for the stack
#: segment and the policy's reserves even for tiny smoke footprints
MIN_TENANT_REGIONS = 48


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the fleet: a workload driven at a rate under a policy."""

    workload: str
    policy: str
    rate_rps: float


@dataclass
class ServiceConfig:
    """Knobs shared by ``repro loadgen`` and ``repro serve``."""

    tenants: tuple = ()  # TenantSpec per tenant
    duration_s: float = 0.02
    accesses_per_request: int = 16
    request_base_service_ns: float = 20_000.0
    slo_ms: float = 1.0
    #: "open" (Poisson or trace arrivals) or "closed" (next request is
    #: issued on completion of the previous — the comparison baseline)
    mode: str = "open"
    #: trace file overriding Poisson arrivals (open mode only)
    arrivals_path: str | None = None
    seed: int = 7
    jobs: int = 1
    out_dir: str = "report/service"
    #: record the simulated-time timeline + spans and export one
    #: Perfetto-loadable Chrome trace per cell under ``out_dir/traces``
    timeline: bool = False
    #: shrink workload footprints further for smoke runs (paper GB are
    #: divided by this on top of the project-wide SCALE_FACTOR)
    scale_factor: int | None = None
    settle_ticks: int = 120
    timeout_s: float = 900.0
    #: NUMA shape of every tenant machine; cells pin round-robin to nodes
    #: (cell index mod nodes).  1 keeps the flat pre-NUMA machine.
    numa_nodes: int = 1
    numa_remote_multiplier: float = 1.4
    #: replicate page tables per node (Mitosis): local walks, fault-time
    #: replica maintenance — see docs/numa.md
    pt_replication: bool = False
    #: directory receiving one ``<cell>.prom`` scrape stream per cell
    #: (None disables the telemetry pipeline entirely)
    telemetry_out: str | None = None
    #: simulated milliseconds between scrape frames
    telemetry_interval_ms: float = 1.0
    #: alert rule file (JSON/TOML) evaluated per frame in every cell;
    #: cell exports merge into ``out_dir/alerts.json``
    alerts_path: str | None = None
    extra_cell_kwargs: dict = field(default_factory=dict)


def cell_id(tenant: TenantSpec, index: int) -> str:
    """Stable cell identity — the seed-derivation key."""
    return (
        f"service:{tenant.workload}:{tenant.policy}"
        f":rate{tenant.rate_rps:g}:tenant{index}"
    )


def _cell_slug(unit_id: str) -> str:
    return unit_id.replace(":", "__").replace("/", "_")


def run_service_cell(
    workload: str,
    policy: str,
    tenant: int,
    rate_rps: float,
    duration_s: float,
    seed: int,
    accesses_per_request: int = 16,
    request_base_service_ns: float = 20_000.0,
    slo_ms: float = 1.0,
    mode: str = "open",
    arrivals_path: str | None = None,
    scale_factor: int | None = None,
    settle_ticks: int = 120,
    timeline: bool = False,
    trace_out: str | None = None,
    numa_nodes: int = 1,
    numa_remote_multiplier: float = 1.4,
    pt_replication: bool = False,
    home_node: int = 0,
    telemetry_out: str | None = None,
    telemetry_interval_ms: float = 1.0,
    alerts_path: str | None = None,
) -> dict:
    """Simulate one tenant cell; returns its JSON-able result record.

    The record is a pure function of the arguments: seeded generators
    only, no wall clock, no filesystem state — the property every
    byte-determinism guarantee downstream rests on.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    policy = resolve_policy(policy)
    wl = get_workload(workload, scale_factor)
    geometry_large = default_machine(1).geometry.large_size
    regions = max(
        MIN_TENANT_REGIONS,
        int(wl.footprint_bytes * 1.15) // geometry_large + 1,
    )
    numa = NumaTopology(
        nodes=numa_nodes, remote_multiplier=numa_remote_multiplier
    )
    regions += (-regions) % numa.nodes  # whole regions per node
    obs = Observability.from_options(
        ObsOptions(
            timeline=timeline,
            timeline_out=trace_out,
            telemetry_out=telemetry_out,
            telemetry_interval_ms=telemetry_interval_ms,
        )
    )
    system = System(
        default_machine(regions),
        policy_factory(policy),
        seed=seed,
        obs=obs,
        numa=numa,
        pt_replication=pt_replication,
    )
    process = system.create_process(workload, home_node=home_node)
    api = _WorkloadAPI(
        system, process, np.random.default_rng(derive_seed(seed, "setup"))
    )
    with obs.spans.span("service_setup"):
        wl.setup(api)
    with obs.spans.span("service_settle"):
        system.settle_until_quiet(max_ticks=settle_ticks, budget_ns=2e9)
    process.tlb.reset_stats()

    # -- the arrival schedule (fixed before any request executes) ----------
    if mode == "closed":
        n_requests = closed_loop_count(rate_rps, duration_s)
        offsets = None
    elif arrivals_path:
        offsets = trace_arrivals(arrivals_path, duration_s)
        n_requests = len(offsets)
    else:
        offsets = poisson_arrivals(
            derive_seed(seed, "arrivals"), rate_rps, duration_s
        )
        n_requests = len(offsets)

    # -- metrics + timeline instrumentation --------------------------------
    # Service series carry (workload, policy) labels so fleet-level
    # consumers — the scrape endpoint, ``repro watch`` — can group cells
    # without a side channel.
    metrics = obs.metrics
    tags = {"workload": workload, "policy": policy}
    h_latency = metrics.histogram(
        "service_request_latency_ns", buckets=LATENCY_BUCKETS_NS, **tags
    )
    h_queue = metrics.histogram(
        "service_queue_delay_ns", buckets=LATENCY_BUCKETS_NS, **tags
    )
    c_requests = metrics.counter("service_requests_total", **tags)
    c_violations = metrics.counter("service_slo_violations_total", **tags)
    g_depth = metrics.gauge("service_queue_depth", **tags)
    g_completed = metrics.gauge("service_completed_requests", **tags)
    progress = {"completed": 0, "depth": 0.0}
    if obs.timeline is not None:
        obs.timeline.add_series(
            "service_queue_depth", lambda: progress["depth"], unit="requests"
        )
        obs.timeline.add_series(
            "service_completed_requests",
            lambda: float(progress["completed"]),
            unit="requests",
        )

    # -- telemetry: scrape frames + per-frame alert evaluation --------------
    obs.start_scrape(alerts_path)

    # -- request replay: FIFO queue over the simulated clock ----------------
    clock = obs.clock
    spec = wl.spec
    slo_ns = slo_ms * 1e6
    k = accesses_per_request
    epoch_ns = clock.now_ns
    prev_completion = epoch_ns
    slo_violations = 0
    queue_delay_sum = 0.0
    api.rng = np.random.default_rng(derive_seed(seed, "stream"))
    batches = wl.iter_batches(api, n_requests * k, batch=k)
    for i, batch in enumerate(batches):
        if i >= n_requests:
            break
        arrival = (
            prev_completion if offsets is None else epoch_ns + offsets[i]
        )
        start = max(arrival, prev_completion)
        if start > clock.now_ns:
            # The queueing / idle gap: simulated time passes while the
            # request waits (or the server sits idle), daemons included.
            clock.advance(start - clock.now_ns)
        with obs.spans.span("service_request") as span:
            numa_pen_before = system.numa_penalty_ns_total
            br = system.touch_batch(process, batch)
            cycles = br.translation_cycles * spec.walk_exposure
            cycles += k * spec.cpi_base
            service_ns = (
                request_base_service_ns + cycles / FREQ_GHZ + br.fault_ns
            )
            # Interconnect cost this request incurred (remote walks, remote
            # data, replica maintenance) is service time too.  Zero on flat
            # machines, so pre-NUMA latencies are byte-identical.
            service_ns += system.numa_penalty_ns_total - numa_pen_before
            # touch_batch already charged its leaf costs; top the clock up
            # to the modeled completion so time never runs backwards.
            completion = max(start + service_ns, clock.now_ns)
            clock.advance(completion - clock.now_ns)
            span.set(tenant=tenant)
        latency = completion - arrival
        queue_delay = start - arrival
        queue_delay_sum += queue_delay
        h_latency.observe(latency)
        h_queue.observe(queue_delay)
        c_requests.inc()
        if latency > slo_ns:
            slo_violations += 1
            c_violations.inc()
        prev_completion = completion
        progress["completed"] = i + 1
        if offsets is not None:
            arrived = float(
                np.searchsorted(offsets, clock.now_ns - epoch_ns, side="right")
            )
            progress["depth"] = max(0.0, arrived - progress["completed"])
        g_completed.value = float(progress["completed"])
        g_depth.value = progress["depth"]
    obs.finish()

    busy_ns = prev_completion - epoch_ns
    numa_section = None
    if numa.nodes > 1:
        snap = metrics.snapshot()
        numa_section = {
            "nodes": numa.nodes,
            "remote_multiplier": numa.remote_multiplier,
            "home_node": home_node,
            "pt_replication": pt_replication,
            "node_free_frames": [
                system.buddy.node_free_frames(n) for n in range(numa.nodes)
            ],
            "node_fmfi": [
                system.buddy.node_fmfi(n) for n in range(numa.nodes)
            ],
            "counters": {
                name: value
                for name, value in sorted(snap["counters"].items())
                if name.startswith("numa_")
            },
        }
    return {
        "workload": workload,
        "policy": policy,
        "tenant": tenant,
        "mode": mode,
        **({"numa": numa_section} if numa_section is not None else {}),
        **({"alerts": obs.alerts.export()} if obs.alerts is not None else {}),
        **(
            {"telemetry_frames": obs.scraper.frames}
            if obs.scraper is not None
            else {}
        ),
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "accesses_per_request": k,
        "requests": n_requests,
        "slo_ms": slo_ms,
        "slo_violations": slo_violations,
        "queue_delay_mean_ns": (
            queue_delay_sum / n_requests if n_requests else 0.0
        ),
        "completed_rps": n_requests / (busy_ns / 1e9) if busy_ns else 0.0,
        "span_clock_ns": busy_ns,
        "latency": h_latency.export(),
        "queue_delay": h_queue.export(),
    }


def build_cell_specs(config: ServiceConfig) -> list:
    """One :class:`UnitSpec` per (tenant, cell), seeds derived per cell id."""
    specs: list[UnitSpec] = []
    for index, tenant in enumerate(config.tenants):
        unit_id = cell_id(tenant, index)
        slug = _cell_slug(unit_id)
        seed = derive_seed(config.seed, unit_id)
        kwargs = {
            "record_target": CELL_TARGET,
            "workload": tenant.workload,
            "policy": tenant.policy,
            "tenant": index,
            "rate_rps": tenant.rate_rps,
            "duration_s": config.duration_s,
            "seed": seed,
            "accesses_per_request": config.accesses_per_request,
            "request_base_service_ns": config.request_base_service_ns,
            "slo_ms": config.slo_ms,
            "mode": config.mode,
            "arrivals_path": config.arrivals_path,
            "scale_factor": config.scale_factor,
            "settle_ticks": config.settle_ticks,
            "timeline": config.timeline,
            **(
                {
                    "numa_nodes": config.numa_nodes,
                    "numa_remote_multiplier": config.numa_remote_multiplier,
                    "pt_replication": config.pt_replication,
                    "home_node": index % config.numa_nodes,
                }
                if config.numa_nodes > 1
                else {}
            ),
            "trace_out": (
                os.path.join(config.out_dir, "traces", f"{slug}.json")
                if config.timeline
                else None
            ),
            **(
                {
                    "telemetry_out": os.path.join(
                        config.telemetry_out, f"{slug}.prom"
                    ),
                    "telemetry_interval_ms": config.telemetry_interval_ms,
                    "alerts_path": config.alerts_path,
                }
                if config.telemetry_out
                else {}
            ),
            "out_path": os.path.join(config.out_dir, "cells", f"{slug}.json"),
            **config.extra_cell_kwargs,
        }
        specs.append(
            UnitSpec(
                unit_id=unit_id,
                target=RECORD_TARGET,
                kwargs=kwargs,
                seed=seed,
                timeout_s=config.timeout_s,
            )
        )
    return specs


def run_fleet(config: ServiceConfig, progress=None) -> dict:
    """Run every cell on the pool engine and compile the service report.

    Returns the report dict (also written to ``out_dir``); raises
    ``RuntimeError`` naming the failed cells when any cell does not
    complete — a service report with silently missing tenants would
    misstate every aggregate percentile.
    """
    from repro.service.report import build_service_report, write_service_report

    if not config.tenants:
        raise ValueError("service fleet has no tenants")
    # reject a bad machine shape before any cell or report is written
    NumaTopology(
        nodes=config.numa_nodes, remote_multiplier=config.numa_remote_multiplier
    )
    os.makedirs(config.out_dir, exist_ok=True)
    specs = build_cell_specs(config)
    records = run_record_units(
        specs, "service cell", jobs=config.jobs, progress=progress
    )
    report = build_service_report(config, records)
    if any("alerts" in record for record in records):
        from repro.obs.telemetry import AlertLog
        from repro.service.report import write_alerts_json

        alert_log = AlertLog()
        for unit_spec, record in zip(specs, records):
            if "alerts" in record:
                alert_log.add(_cell_slug(unit_spec.unit_id), record["alerts"])
        merged = alert_log.export()
        write_alerts_json(config.out_dir, merged)
        report["alerts"] = {
            "firing": merged["firing"],
            "resolved": merged["resolved"],
            "active": sum(
                len(cell["active"]) for cell in merged["cells"].values()
            ),
        }
    write_service_report(config.out_dir, report)
    return report
