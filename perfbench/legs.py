"""The four benchmark workloads and the configurations each one runs.

A *configuration* is one simulated setup (a policy on a machine, a guest
on a host, a multi-tenant shard, a service cell at one offered rate).  It
is a function ``run(ctx) -> ConfigRun`` that drives the simulator only
through public entry points, marks its set-up and timed phases on
``ctx.phases``, and then runs the correctness gate outside the timing.

Every seed — System, workload RNG, arrivals — is derived from the run's
``--seed`` with :func:`repro.experiments.orchestrator.derive_seed`, so a
seed fixes every simulated number the benchmark prints.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks
from repro.config import default_machine
from repro.experiments.configs import policy_factory
from repro.lint.invariants import audit_system
from repro.sim.bench import state_fingerprint
from repro.sim.perfmodel import PerfModel
from repro.sim.system import System
from repro.workloads.registry import get_workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ALERT_RULES = os.path.join(BENCH_DIR, "alert_rules.json")


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` its unit tests."""

    #: warm-translate: GUPS at the paper's Fig. 9 scale (SCALE_FACTOR) for
    #: Trident and 2MB-THP; the 4KB config runs a quarter of the footprint
    #: so its one-fault-per-page set-up stays near a second
    warm_scale_factor: int | None = None
    warm_4k_scale_factor: int = 1024
    warm_machine_regions: int = 192
    warm_prefix: int = 65_536
    warm_accesses: int = 393_216
    #: frag-fault: native legs and the Trident-pv guest leg
    frag_scale_factor: int = 2048
    frag_accesses: int = 32_768
    guest_regions: int = 24
    guest_accesses: int = 8_192
    #: tenant-churn
    tenants: int = 64
    shards: int = 2
    rounds: int = 6
    accesses_per_round: int = 2000
    #: service-open: offered rates (req/s) and requests expected per rate
    service_scale_factor: int = 4096
    service_rates: tuple = (12_000, 24_000, 36_000, 48_000, 60_000)
    service_requests: int = 1300


FULL = Scale()
SMOKE = Scale(
    warm_scale_factor=8192,
    warm_4k_scale_factor=8192,
    warm_machine_regions=8,
    warm_prefix=4096,
    warm_accesses=8192,
    frag_scale_factor=8192,
    frag_accesses=2048,
    guest_regions=8,
    guest_accesses=1024,
    tenants=4,
    shards=2,
    rounds=2,
    accesses_per_round=200,
    service_scale_factor=16384,
    service_rates=(20_000, 80_000),
    service_requests=60,
)


@dataclass
class ConfigRun:
    """One configuration's outcome in one pass."""

    name: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: simulated accesses issued inside the timed region
    accesses: int = 0
    digest: str = ""
    #: deterministic simulated results (inputs to the sim_* metrics)
    sim: dict = field(default_factory=dict)
    #: deterministic per-layer counts, summed over a workload's configs
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Config:
    name: str
    run: object  # Callable[[Ctx], ConfigRun]


class Api:
    """The ``WorkloadAPI`` a workload drives one process through."""

    def __init__(self, system, process, rng) -> None:
        self.system = system
        self.process = process
        self.rng = rng
        self.issued = 0

    def mmap(self, nbytes: int, kind: str = "heap") -> int:
        return self.system.sys_mmap(self.process, nbytes, kind)

    def munmap(self, addr: int) -> None:
        self.system.sys_munmap(self.process, addr)

    def touch(self, addresses) -> None:
        self.system.touch_batch(self.process, addresses)
        self.issued += len(addresses)

    def phase(self, label: str) -> None:
        pass

    def stream(self, workload, n: int) -> int:
        """Replay ``n`` steady-state accesses in ``iter_batches`` chunks."""
        before = self.issued
        for batch in workload.iter_batches(self, n):
            self.touch(batch)
        return self.issued - before


# -- shared helpers ------------------------------------------------------------
def _counter_sum(system, family: str) -> float:
    counters = system.obs.metrics.snapshot()["counters"]
    return sum(
        v for k, v in counters.items() if k == family or k.startswith(family + "{")
    )


def _system_counts(system) -> dict:
    """Deterministic per-layer counts one simulated machine contributes."""
    stats = system.policy.stats
    return {
        "faults": system.faults_handled,
        "promotions": sum(stats.promoted.values()),
        "promo_large_attempts": stats.promo_large_attempts,
        "promo_large_failures": stats.promo_large_failures,
        "fault_large_attempts": stats.fault_large_attempts,
        "fault_large_failures": stats.fault_large_failures,
        "zerofill_hits": system.zerofill.pool_hits,
        "zerofill_misses": system.zerofill.pool_misses,
        "buddy_allocs": int(_counter_sum(system, "buddy_alloc_total")),
        "buddy_frees": int(_counter_sum(system, "buddy_free_total")),
    }


def _tlb_counts(stats) -> dict:
    return {
        "tlb_accesses": stats.accesses,
        "tlb_l1_hits": stats.l1_hits,
        "tlb_l2_hits": stats.l2_hits,
        "tlb_walks": stats.walks,
    }


def add_counts(total: dict, part: dict) -> dict:
    """Add ``part``'s counts into ``total`` (in place); returns ``total``."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def _perf_model(workload, **kwargs) -> PerfModel:
    spec = workload.spec
    return PerfModel(
        cpi_base=spec.cpi_base,
        represented_accesses=workload.represented_accesses,
        walk_exposure=spec.walk_exposure,
        fault_parallelism=spec.threads,
        **kwargs,
    )


def _coverage(system, process) -> dict:
    top = system.geometry.top_level
    return {
        "mapped_top_bytes": process.pagetable.mapped_bytes(top),
        "mapped_bytes": process.pagetable.mapped_bytes(),
    }


def _native_sim(system, process, workload, name: str) -> dict:
    metrics = _perf_model(workload).collect(system, process, name)
    return {
        "policy": system.policy.name,
        "app": name,
        "runtime_ns": metrics.runtime_ns,
        "walk_cycle_fraction": metrics.walk_cycle_fraction,
        **_coverage(system, process),
    }


def _finish_native(ctx, name, system, process, workload, stream_issued,
                   timed_accesses) -> ConfigRun:
    """Correctness gate + results for a native single-process config."""
    ctx.tamper(system)
    audit_system(system)
    checks.tlb_conservation(process.tlb.stats, stream_issued, name)
    sim = _native_sim(system, process, workload, workload.spec.name)
    return ConfigRun(
        name=name,
        accesses=timed_accesses,
        sim=sim,
        digest=checks.digest(state_fingerprint(system, process), sim),
        counts=add_counts(_system_counts(system), _tlb_counts(process.tlb.stats)),
    )


# -- warm-translate -------------------------------------------------------------
def _warm_translate(policy: str, scale: Scale):
    def run(ctx) -> ConfigRun:
        ctx.phases.setup()
        workload = get_workload(
            "GUPS",
            scale.warm_4k_scale_factor if policy == "4KB"
            else scale.warm_scale_factor,
        )
        system = System(
            default_machine(scale.warm_machine_regions),
            policy_factory(policy),
            seed=ctx.seed_for("system"),
        )
        process = system.create_process("GUPS")
        api = Api(system, process, ctx.rng("workload"))
        workload.setup(api)
        system.settle_until_quiet(max_ticks=100, budget_ns=1e9)
        api.stream(workload, scale.warm_prefix)
        process.tlb.reset_stats()
        ctx.phases.timed()
        issued = api.stream(workload, scale.warm_accesses)
        ctx.phases.stop()
        return _finish_native(
            ctx, policy, system, process, workload, issued, issued
        )

    return run


# -- frag-fault -----------------------------------------------------------------
def _frag_native(app: str, policy: str, scale: Scale):
    def run(ctx) -> ConfigRun:
        ctx.phases.setup()
        workload = get_workload(app, scale.frag_scale_factor)
        large = default_machine(1).geometry.large_size
        regions = max(8, int(workload.footprint_bytes * 1.6) // large + 1)
        system = System(
            default_machine(regions),
            policy_factory(policy),
            seed=ctx.seed_for(f"{app}/system"),
        )
        fmfi = system.fragment()
        process = system.create_process(app)
        api = Api(system, process, ctx.rng(f"{app}/workload"))
        ctx.phases.timed()
        workload.setup(api)
        system.settle_until_quiet(max_ticks=200, budget_ns=1e9)
        process.tlb.reset_stats()
        issued = api.stream(workload, scale.frag_accesses)
        ctx.phases.stop()
        result = _finish_native(
            ctx, f"{app}/{policy}", system, process, workload, issued,
            api.issued,
        )
        result.sim["fmfi_after_fragment"] = fmfi
        return result

    return run


#: guest khugepaged CPU allowance over the run, as a share of the
#: estimated runtime.  Figure 13 caps it at 10% of a vCPU for full-size
#: guests; at this guest size 40% is where copy-based Trident cannot
#: finish its large promotions inside the cap while copyless Trident-pv
#: can, which is the effect the guest leg exists to exercise.
GUEST_DAEMON_SHARE = 0.40
GUEST_CHUNKS = 8


def _frag_guest(pv: bool, scale: Scale):
    from repro.virt.hypercall import PVExchangeInterface
    from repro.virt.machine import VirtualMachine
    from repro.virt.tridentpv import TridentPVPolicy

    def guest_factory(kernel):
        iface = PVExchangeInterface(kernel.hypervisor, kernel.cost, obs=kernel.obs)
        return TridentPVPolicy(kernel, iface)

    def run(ctx) -> ConfigRun:
        name = "guest/Trident-pv" if pv else "guest/Trident"
        ctx.phases.setup()
        workload = get_workload("GUPS", scale.frag_scale_factor)
        guest_regions = scale.guest_regions
        host_regions = max(guest_regions + 8, int(guest_regions * 1.2))
        vm = VirtualMachine(
            default_machine(guest_regions),
            default_machine(host_regions),
            guest_factory if pv else policy_factory("Trident"),
            policy_factory("Trident"),
            seed=ctx.seed_for("guest/system"),
            guest_daemon_budget_ns=200_000.0,
        )
        guest = vm.guest
        guest.fragment()
        process = vm.create_guest_process("GUPS")
        api = Api(guest, process, ctx.rng("guest/workload"))
        ctx.phases.timed()
        workload.setup(api)
        stream = workload.access_stream(api, scale.guest_accesses)
        process.tlb.stats = type(process.tlb.stats)()
        spec = workload.spec
        cap_ns = (
            GUEST_DAEMON_SHARE
            * workload.represented_accesses * spec.cpi_base * 1.6 / 2.3
        )
        budget = max(200_000.0, cap_ns / 2000.0)
        for i, chunk in enumerate(np.array_split(stream, GUEST_CHUNKS)):
            api.touch(chunk)
            target = cap_ns * (i + 1) / GUEST_CHUNKS
            ticks = 0
            while guest.policy.stats.daemon_ns < target and ticks < 320:
                guest.run_daemons(budget)
                ticks += 1
            vm.host.settle_until_quiet(max_ticks=12, budget_ns=2e9)
        ctx.phases.stop()

        ctx.tamper(guest)
        audit_system(guest)
        audit_system(vm.host, hypervisor=vm.hypervisor)
        checks.tlb_conservation(process.tlb.stats, len(stream), name)
        metrics = _perf_model(workload, daemon_exposure=0.5).collect(
            guest, process, "GUPS"
        )
        # Host-side costs fold in as in the virtualized runner: EPT faults
        # stall the guest; host daemons run on cores the tenant does not
        # pay for (exposure 0.02 against the guest's 0.5).
        metrics.fault_ns += vm.host.policy.stats.fault_ns
        metrics.daemon_ns += vm.host.policy.stats.daemon_ns * (0.02 / 0.5)
        exchanges = guest.policy.pv.exchanges if pv else 0
        sim = {
            "guest": name,
            "runtime_ns": metrics.runtime_ns,
            "exchanges": exchanges,
            "ept_faults": vm.hypervisor.ept_faults,
        }
        counts = add_counts(_system_counts(guest), _system_counts(vm.host))
        counts["exchanges"] = exchanges
        add_counts(counts, _tlb_counts(process.tlb.stats))
        stats = process.tlb.stats
        state = (
            stats.accesses, stats.l1_hits, stats.l2_hits, stats.walks,
            stats.translation_cycles, stats.walk_cycles,
            guest.obs.clock.now_ns, vm.host.obs.clock.now_ns,
            dict(guest.policy.stats.promoted),
            len(process.touched_pages),
        )
        return ConfigRun(
            name=name,
            accesses=api.issued,
            sim=sim,
            digest=checks.digest(state, sim),
            counts=counts,
        )

    return run


# -- tenant-churn ---------------------------------------------------------------
def _tenant_shard(shard: int, scale: Scale):
    from repro.experiments.orchestrator import derive_seed
    from repro.sim.multitenant import (
        MultiTenantConfig,
        MultiTenantMachine,
        shard_id,
        shard_tenants,
    )

    config = MultiTenantConfig(
        tenants=scale.tenants,
        shards=scale.shards,
        rounds=scale.rounds,
        accesses_per_round=scale.accesses_per_round,
        numa_nodes=2,
    )

    def run(ctx) -> ConfigRun:
        name = f"shard{shard}"
        tenant_ids = shard_tenants(config, shard)
        ctx.phases.setup()
        machine = MultiTenantMachine(
            tenant_ids,
            policy=config.policy,
            seed=derive_seed(ctx.seed_for("tenants"), shard_id(config, shard)),
            numa_nodes=config.numa_nodes,
            regions_per_tenant=config.regions_per_tenant,
            max_segments=config.max_segments,
        )
        ctx.phases.timed()
        for _ in range(config.rounds):
            machine.run_round(config.accesses_per_round, config.churn_prob)
        machine.system.settle(ticks=10)
        ctx.phases.stop()

        system = machine.system
        ctx.tamper(system)
        audit_system(system)
        issued = config.rounds * config.accesses_per_round
        counts = _system_counts(system)
        coverage: dict = {}
        for process in system.processes:
            checks.tlb_conservation(
                process.tlb.stats, issued, f"{name}/{process.name}"
            )
            add_counts(counts, _tlb_counts(process.tlb.stats))
            add_counts(coverage, _coverage(system, process))
        sim = {"record": machine.record(), **coverage}
        return ConfigRun(
            name=name,
            accesses=issued * len(tenant_ids),
            sim=sim,
            digest=checks.digest(
                [state_fingerprint(system, p) for p in system.processes], sim
            ),
            counts=counts,
        )

    return run


# -- service-open ---------------------------------------------------------------
SERVICE_APP = "Redis"
SERVICE_POLICY = "Trident"


@contextlib.contextmanager
def _observe_cell(ctx, observed: dict):
    """Watch one ``run_service_cell`` call from outside.

    ``repro.service.fleet`` resolves ``System`` and ``trace_arrivals`` as
    module globals at call time; swapping them for pass-throughs lets the
    benchmark keep the cell's System for the correctness gate and switch
    from set-up to timed phase at the moment the cell reads its arrival
    schedule — after boot, workload setup and settle, before the first
    request.  Request latencies are recorded exactly on their way into
    the cell's histogram, which itself keeps only 1-2-5 buckets.
    """
    import repro.service.fleet as fleet
    from repro.obs.metrics import Histogram

    real_system, real_arrivals = fleet.System, fleet.trace_arrivals
    real_observe = Histogram.observe
    latencies = observed["latencies"] = []

    def system(*args, **kwargs):
        observed["system"] = real_system(*args, **kwargs)
        return observed["system"]

    def arrivals(path, duration_s=None):
        offsets = real_arrivals(path, duration_s)
        observed["arrivals"] = len(offsets)
        ctx.phases.timed()
        return offsets

    def observe(hist, value):
        if hist.name == "service_request_latency_ns":
            latencies.append(value)
        real_observe(hist, value)

    fleet.System, fleet.trace_arrivals = system, arrivals
    Histogram.observe = observe
    try:
        yield
    finally:
        fleet.System, fleet.trace_arrivals = real_system, real_arrivals
        Histogram.observe = real_observe


def _service_cell(rate: int, scale: Scale):
    from repro.service.arrivals import poisson_arrivals
    from repro.service.fleet import run_service_cell

    def run(ctx) -> ConfigRun:
        name = f"rate{rate}"
        duration_s = scale.service_requests / rate
        offsets = poisson_arrivals(ctx.seed_for(f"{name}/arrivals"), rate, duration_s)
        trace_path = ctx.out_path(f"{name}.arrivals.txt")
        with open(trace_path, "w") as f:
            f.writelines(f"{float(o) / 1e9!r}\n" for o in offsets)
        observed: dict = {}
        with _observe_cell(ctx, observed):
            ctx.phases.setup()
            record = run_service_cell(
                SERVICE_APP,
                SERVICE_POLICY,
                tenant=0,
                rate_rps=rate,
                duration_s=duration_s,
                seed=ctx.seed_for(f"{name}/cell"),
                arrivals_path=trace_path,
                scale_factor=scale.service_scale_factor,
                telemetry_out=ctx.out_path(f"{name}.prom"),
                alerts_path=ALERT_RULES,
            )
            ctx.phases.stop()

        system = observed["system"]
        process = system.processes[0]
        ctx.tamper(system)
        audit_system(system)
        latencies = observed["latencies"]
        checks.service_conservation(record, observed["arrivals"], len(latencies))
        issued = record["requests"] * record["accesses_per_request"]
        checks.tlb_conservation(process.tlb.stats, issued, name)
        sim = {
            "rate_rps": rate,
            "requests": record["requests"],
            "slo_violations": record["slo_violations"],
            "queue_delay_mean_ns": record["queue_delay_mean_ns"],
            "completed_rps": record["completed_rps"],
            "span_clock_ns": record["span_clock_ns"],
            "duration_ns": duration_s * 1e9,
            "latencies_ns": latencies,
            "alerts": record["alerts"],
        }
        counts = add_counts(_system_counts(system), _tlb_counts(process.tlb.stats))
        counts["requests"] = record["requests"]
        counts["scrape_frames"] = record["telemetry_frames"]
        return ConfigRun(
            name=name,
            accesses=issued,
            sim=sim,
            digest=checks.digest(state_fingerprint(system, process), sim),
            counts=counts,
        )

    return run


def configs(workload: str, scale: Scale = FULL) -> list[Config]:
    """The configurations of one benchmark workload, in run order."""
    if workload == "warm-translate":
        return [
            Config(p, _warm_translate(p, scale))
            for p in ("Trident", "2MB-THP", "4KB")
        ]
    if workload == "frag-fault":
        return [
            Config(f"{app}/{p}", _frag_native(app, p, scale))
            for app in ("GUPS", "Redis")
            for p in ("Trident", "2MB-THP")
        ] + [
            Config("guest/Trident-pv", _frag_guest(True, scale)),
            Config("guest/Trident", _frag_guest(False, scale)),
        ]
    if workload == "tenant-churn":
        return [
            Config(f"shard{s}", _tenant_shard(s, scale))
            for s in range(scale.shards)
        ]
    if workload == "service-open":
        return [
            Config(f"rate{r}", _service_cell(r, scale))
            for r in scale.service_rates
        ]
    raise KeyError(f"unknown workload {workload!r}")
