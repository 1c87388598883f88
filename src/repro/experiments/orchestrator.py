"""Parallel experiment orchestrator with deterministic replay.

The full sweep (every figure/table of the paper) is embarrassingly
parallel: each ``run_all`` module is independent, and inside the grid
experiments every workload's cell is independent of every other cell.
This module fans those *units* out across a pool of worker processes
while keeping the outputs bit-for-bit identical to a serial run:

* **deterministic seeds** — every unit derives its seed from the sweep's
  root seed and its stable unit id (:func:`derive_seed`); results depend
  only on (root seed, unit id), never on scheduling order or ``--jobs``.
* **isolation** — each unit runs in its own worker process; a crash,
  uncaught exception or wall-clock timeout kills only that unit.
* **bounded retry** — failed units are retried with exponential backoff
  (``backoff_base_s * 2**(attempt-1)``); every backoff is recorded.
* **graceful degradation** — a unit that exhausts its retries is recorded
  in the run manifest with its failure status and the report compiler
  merges whatever survived instead of aborting the sweep.
* **run manifest** — ``sweep_manifest.json`` records (unit, seed, status,
  attempts, durations, backoffs, outputs, metrics files) plus merged CSV
  paths and a merged obs-metrics summary; ``--resume MANIFEST`` skips
  units that already completed, re-running only failures and new units.

Unit granularity
----------------

``build_plan`` registers two kinds of units:

* a **module unit** per non-grid module (``latency_micro``,
  ``sensitivity``, ``kernel_directmap``, ``figure2_full``): the worker
  calls ``module.main(quick=..., seed=...)`` with the report directory
  redirected, so the module writes its own CSVs exactly as today.
* a **grid cell** per (module, workload) for every module whose ``run``
  accepts a ``workloads`` tuple: the worker calls
  ``module.run(workloads=(w,), seed=..., ...)`` and dumps the rows to
  ``partial/<module>__<workload>.json``.  After the pool drains, the
  compiler concatenates surviving cells in the module's canonical
  workload order, applies the module's ``summarize`` hook (geomean rows)
  when present, and writes the final ``<module>.csv`` via
  :func:`repro.experiments.report.write_csv`.

Because cells split along the workload axis, cross-policy normalization
inside a cell (every figure normalizes against a baseline policy *per
workload*) is preserved unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import importlib
import inspect
import json
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import asdict, dataclass, field

from repro.experiments.report import write_csv

#: manifest schema version (bump on incompatible changes)
MANIFEST_VERSION = 1

MODULE_TARGET = "repro.experiments.orchestrator:run_module_unit"
GRID_TARGET = "repro.experiments.orchestrator:run_grid_cell"
RECORD_TARGET = "repro.experiments.orchestrator:run_record_unit"


# ---------------------------------------------------------------------------
# deterministic seed derivation


def derive_seed(root_seed: int, unit_id: str) -> int:
    """A unit's seed: a pure function of (root seed, unit id).

    sha256 over both, folded to 63 bits — stable across Python versions,
    platforms and unit orderings, and collision-free for any realistic
    number of units.  Scheduling order can never influence a unit's RNG.
    """
    digest = hashlib.sha256(
        f"{root_seed}\x1f{unit_id}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


# ---------------------------------------------------------------------------
# unit specs, results, plan


@dataclass(frozen=True)
class UnitSpec:
    """One schedulable unit of work (picklable; kwargs JSON-able)."""

    unit_id: str
    target: str  # "module:function" resolved inside the worker
    kwargs: dict
    seed: int
    timeout_s: float = 900.0
    max_retries: int = 1


@dataclass
class UnitResult:
    """What the manifest records for one unit."""

    unit_id: str
    seed: int
    status: str = "pending"  # ok | failed | timeout | crashed
    attempts: int = 0
    duration_s: float = 0.0
    durations_s: list = field(default_factory=list)
    backoffs_s: list = field(default_factory=list)
    error: str | None = None
    outputs: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    cached: bool = False


@dataclass
class GridPlan:
    """Merge recipe for one grid module: cells in canonical order."""

    module_name: str
    csv_name: str
    cells: list  # [(workload, unit_id, partial_path)]


@dataclass
class SweepPlan:
    specs: list
    grids: dict  # module_name -> GridPlan


@dataclass
class SweepConfig:
    jobs: int = 1
    timeout_s: float = 900.0
    root_seed: int = 7
    quick: bool = False
    out_dir: str = "report"
    max_retries: int = 1
    backoff_base_s: float = 0.5
    modules: tuple = ()
    resume: str | None = None
    manifest_path: str | None = None
    #: attach sampled invariant auditors (repro.lint.invariants) in every
    #: worker; audit failures surface as unit failures in the manifest
    audit: bool = False
    #: record the simulated-time timeline in every worker's runs and
    #: aggregate the per-run sections into ``sweep_report.html``
    timeline: bool = False


def _unit_slug(unit_id: str) -> str:
    return unit_id.replace(":", "__").replace("/", "_")


def build_plan(
    modules: tuple = (),
    quick: bool = False,
    root_seed: int = 7,
    out_dir: str = "report",
    timeout_s: float = 900.0,
    max_retries: int = 1,
    audit: bool = False,
    timeline: bool = False,
) -> SweepPlan:
    """Register one unit per module, one per workload cell for grids."""
    from repro.experiments.run_all import MODULES, validate_quick_support

    table = dict(MODULES)
    unknown = sorted(set(modules) - set(table))
    if unknown:
        raise KeyError(
            f"unknown experiment module(s) {unknown}; "
            f"choose from {sorted(table)}"
        )
    selected = [
        (name, module)
        for name, module in MODULES
        if not modules or name in modules
    ]
    specs: list[UnitSpec] = []
    grids: dict[str, GridPlan] = {}
    for name, module in selected:
        validate_quick_support(name, module)
        run_params = inspect.signature(module.run).parameters
        if "workloads" in run_params:
            quick_kwargs = dict(getattr(module, "QUICK_KWARGS", {})) if quick else {}
            workloads = quick_kwargs.pop(
                "workloads", run_params["workloads"].default
            )
            csv_name = getattr(module, "CSV_NAME", name)
            cells = []
            for workload in workloads:
                unit_id = f"{name}:{workload}"
                partial = os.path.join(
                    out_dir, "partial", f"{_unit_slug(unit_id)}.json"
                )
                specs.append(
                    UnitSpec(
                        unit_id=unit_id,
                        target=GRID_TARGET,
                        kwargs={
                            "module_name": name,
                            "workload": workload,
                            "out_dir": out_dir,
                            "out_path": partial,
                            "seed": derive_seed(root_seed, unit_id),
                            "extra_kwargs": quick_kwargs,
                            "unit_slug": _unit_slug(unit_id),
                            "audit": audit,
                            "timeline": timeline,
                        },
                        seed=derive_seed(root_seed, unit_id),
                        timeout_s=timeout_s,
                        max_retries=max_retries,
                    )
                )
                cells.append((workload, unit_id, partial))
            grids[name] = GridPlan(name, csv_name, cells)
        else:
            specs.append(
                UnitSpec(
                    unit_id=name,
                    target=MODULE_TARGET,
                    kwargs={
                        "module_name": name,
                        "out_dir": out_dir,
                        "quick": quick,
                        "seed": derive_seed(root_seed, name),
                        "unit_slug": _unit_slug(name),
                        "audit": audit,
                        "timeline": timeline,
                    },
                    seed=derive_seed(root_seed, name),
                    timeout_s=timeout_s,
                    max_retries=max_retries,
                )
            )
    return SweepPlan(specs=specs, grids=grids)


# ---------------------------------------------------------------------------
# worker-side unit targets


def _jsonable(value):
    """JSON encoder fallback: numpy scalars become Python numbers."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


@contextlib.contextmanager
def _redirect_into(
    out_dir: str, unit_slug: str, audit: bool = False, timeline: bool = False
):
    """Point the report + obs plumbing of this worker at the sweep dirs.

    Yields the unit's metrics drop directory; the runs inside the block
    use ambient options that audit/record the timeline as asked and drop
    their ``metrics.json`` there.
    """
    from repro.experiments import report as report_mod
    from repro.obs.options import ObsOptions, ambient

    report_mod.REPORT_DIR = out_dir
    metrics_dir = os.path.join(out_dir, "metrics", unit_slug)
    options = ObsOptions(metrics_dir=metrics_dir, audit=audit, timeline=timeline)
    with ambient(options):
        yield metrics_dir


def _collect_metrics_files(metrics_dir: str) -> list:
    if not os.path.isdir(metrics_dir):
        return []
    return sorted(
        os.path.join(metrics_dir, f)
        for f in os.listdir(metrics_dir)
        if f.endswith(".json")
    )


def _open_log(out_dir: str, unit_slug: str):
    log_dir = os.path.join(out_dir, "logs")
    os.makedirs(log_dir, exist_ok=True)
    return open(os.path.join(log_dir, f"{unit_slug}.log"), "w")


def run_module_unit(
    module_name: str,
    out_dir: str,
    quick: bool,
    seed: int,
    unit_slug: str,
    audit: bool = False,
    timeline: bool = False,
) -> dict:
    """Worker target: run one whole module's ``main`` (non-grid unit)."""
    module = importlib.import_module(f"repro.experiments.{module_name}")
    with (
        _redirect_into(
            out_dir, unit_slug, audit=audit, timeline=timeline
        ) as metrics_dir,
        _open_log(out_dir, unit_slug) as log,
        contextlib.redirect_stdout(log),
    ):
        module.main(quick=quick, seed=seed)
    csv_names = getattr(module, "CSV_NAME", ())
    if isinstance(csv_names, str):
        csv_names = (csv_names,)
    outputs = [os.path.join(out_dir, f"{n}.csv") for n in csv_names]
    return {
        "outputs": [p for p in outputs if os.path.exists(p)],
        "metrics": _collect_metrics_files(metrics_dir),
    }


def run_grid_cell(
    module_name: str,
    workload: str,
    out_dir: str,
    out_path: str,
    seed: int,
    unit_slug: str,
    extra_kwargs: dict | None = None,
    audit: bool = False,
    timeline: bool = False,
) -> dict:
    """Worker target: run one (module, workload) cell, dump rows as JSON."""
    module = importlib.import_module(f"repro.experiments.{module_name}")
    with (
        _redirect_into(
            out_dir, unit_slug, audit=audit, timeline=timeline
        ) as metrics_dir,
        _open_log(out_dir, unit_slug) as log,
        contextlib.redirect_stdout(log),
    ):
        rows = module.run(
            workloads=(workload,), seed=seed, **(extra_kwargs or {})
        )
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(rows, f, default=_jsonable)
    return {
        "outputs": [out_path],
        "metrics": _collect_metrics_files(metrics_dir),
    }


def run_record_unit(record_target: str, out_path: str, **kwargs) -> dict:
    """Worker target: run ``record_target(**kwargs)``, persist its record.

    ``record_target`` is a ``"module:function"`` returning one JSON-able
    record (a tenant shard, a service cell); it lands at ``out_path`` as
    sorted-key JSON, the input :func:`run_record_units` reloads.
    """
    record = _resolve_target(record_target)(**kwargs)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return {"outputs": [out_path]}


def run_record_units(specs: list, noun: str, jobs: int = 1, progress=None) -> list:
    """Execute record units on the pool; returns their records in spec order.

    Raises ``RuntimeError`` naming every unit that did not complete
    (``"N <noun>(s) failed: ..."``) — a report with silently missing
    units would misstate every aggregate.  Records are reloaded from
    disk in canonical spec order, never completion order, so ``jobs=1``
    and ``jobs=N`` compile identical input.
    """
    results = execute_units(specs, jobs=jobs, progress=progress)
    failed = [
        f"{unit_id} ({results[unit_id].status}: {results[unit_id].error})"
        for unit_id in sorted(results)
        if results[unit_id].status != "ok"
    ]
    if failed:
        raise RuntimeError(f"{len(failed)} {noun}(s) failed: " + "; ".join(failed))
    records = []
    for spec in specs:
        with open(spec.kwargs["out_path"]) as f:
            records.append(json.load(f))
    return records


# ---------------------------------------------------------------------------
# the process-pool engine


def _resolve_target(target: str):
    module_name, func_name = target.split(":")
    return getattr(importlib.import_module(module_name), func_name)


def _child_main(conn, target: str, kwargs: dict) -> None:
    """Entry point of every worker process."""
    try:
        payload = _resolve_target(target)(**kwargs)
        conn.send({"ok": True, "payload": payload or {}})
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        with contextlib.suppress(Exception):
            conn.send(
                {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
    finally:
        with contextlib.suppress(Exception):
            conn.close()


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class _Running:
    spec: UnitSpec
    attempt: int
    proc: object
    conn: object
    started: float
    deadline: float
    result: UnitResult


def execute_units(
    specs: list,
    jobs: int = 1,
    backoff_base_s: float = 0.5,
    progress=None,
    poll_interval_s: float = 0.02,
) -> dict:
    """Run every spec to completion; returns ``{unit_id: UnitResult}``.

    ``jobs`` workers run concurrently.  A unit that raises, exceeds its
    wall-clock timeout, or kills its worker process is retried up to
    ``spec.max_retries`` times with exponential backoff; the final status
    lands in its :class:`UnitResult` and the sweep continues regardless.
    """
    ctx = _mp_context()
    jobs = max(1, int(jobs))
    results = {
        s.unit_id: UnitResult(unit_id=s.unit_id, seed=s.seed) for s in specs
    }
    ready: list = [(s, 1) for s in specs]
    ready.reverse()  # pop() from the end preserves registration order
    delayed: list = []  # heap of (ready_at, tiebreak, spec, attempt)
    running: list[_Running] = []
    tiebreak = 0

    def launch(spec: UnitSpec, attempt: int) -> None:
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main, args=(send, spec.target, spec.kwargs)
        )
        proc.start()
        send.close()
        now = time.monotonic()
        running.append(
            _Running(
                spec=spec,
                attempt=attempt,
                proc=proc,
                conn=recv,
                started=now,
                deadline=now + spec.timeout_s,
                result=results[spec.unit_id],
            )
        )
        if progress:
            progress(f"start {spec.unit_id} (attempt {attempt})")

    def finish(run: _Running, status: str, error: str | None, payload: dict):
        res = run.result
        duration = time.monotonic() - run.started
        res.attempts = run.attempt
        res.durations_s.append(round(duration, 4))
        res.duration_s = round(duration, 4)
        res.status = status
        res.error = error
        if status == "ok":
            res.outputs = payload.get("outputs", [])
            res.metrics = payload.get("metrics", [])
        run.conn.close()
        run.proc.join()
        if status != "ok" and run.attempt <= run.spec.max_retries:
            nonlocal tiebreak
            backoff = backoff_base_s * (2 ** (run.attempt - 1))
            res.backoffs_s.append(round(backoff, 4))
            tiebreak += 1
            heapq.heappush(
                delayed,
                (time.monotonic() + backoff, tiebreak, run.spec, run.attempt + 1),
            )
        elif progress:
            progress(
                f"done  {run.spec.unit_id}: {status} "
                f"({duration:.1f}s, attempt {run.attempt})"
            )

    def poll_one(run: _Running) -> bool:
        """True when the unit reached a terminal state for this attempt."""
        if run.conn.poll():
            try:
                message = run.conn.recv()
            except EOFError:
                message = None
            if message is None:
                run.proc.join(timeout=5)
                finish(
                    run,
                    "crashed",
                    f"worker exited without reply "
                    f"(exitcode {run.proc.exitcode})",
                    {},
                )
            elif message.get("ok"):
                finish(run, "ok", None, message.get("payload", {}))
            else:
                finish(run, "failed", message.get("error"), {})
            return True
        if not run.proc.is_alive():
            run.proc.join()
            finish(
                run,
                "crashed",
                f"worker died (exitcode {run.proc.exitcode})",
                {},
            )
            return True
        if time.monotonic() > run.deadline:
            run.proc.terminate()
            run.proc.join(timeout=2)
            if run.proc.is_alive():
                run.proc.kill()
                run.proc.join()
            finish(
                run,
                "timeout",
                f"exceeded {run.spec.timeout_s:.1f}s wall-clock timeout",
                {},
            )
            return True
        return False

    while ready or delayed or running:
        now = time.monotonic()
        while delayed and delayed[0][0] <= now:
            _, _, spec, attempt = heapq.heappop(delayed)
            ready.append((spec, attempt))
        while ready and len(running) < jobs:
            spec, attempt = ready.pop()
            launch(spec, attempt)
        if not running:
            if delayed:
                time.sleep(
                    max(0.0, min(delayed[0][0] - time.monotonic(), 0.1))
                )
            continue
        running = [run for run in running if not poll_one(run)]
        if running:
            time.sleep(poll_interval_s)
    return results


# ---------------------------------------------------------------------------
# report compiler + metrics merge


def compile_report(plan: SweepPlan, results: dict, out_dir: str) -> dict:
    """Merge surviving grid cells into final CSVs; skip failed units.

    Cells are concatenated in the module's canonical workload order (never
    completion order), then the module's ``summarize`` hook — when it has
    one — appends its aggregate rows, so ``--jobs N`` output is
    byte-identical to ``--jobs 1``.
    """
    merged: dict = {}
    for name, grid in plan.grids.items():
        rows: list = []
        missing: list = []
        for workload, unit_id, partial in grid.cells:
            result = results.get(unit_id)
            if (
                result is not None
                and result.status == "ok"
                and os.path.exists(partial)
            ):
                with open(partial) as f:
                    rows.extend(json.load(f))
            else:
                missing.append(workload)
        entry: dict = {"csv": None, "missing_workloads": missing}
        if rows:
            module = importlib.import_module(f"repro.experiments.{name}")
            summarize = getattr(module, "summarize", None)
            if callable(summarize):
                rows = rows + summarize(rows)
            entry["csv"] = write_csv(rows, grid.csv_name, directory=out_dir)
        merged[name] = entry
    return merged


def merge_metrics(results: dict, out_dir: str) -> str | None:
    """Fold every unit's per-run obs metrics_*.json into one summary."""
    runs = []
    totals: dict = {}
    for unit_id in sorted(results):
        for path in results[unit_id].metrics:
            if not os.path.exists(path):
                continue
            try:
                with open(path) as f:
                    payload = json.load(f)
            except (OSError, ValueError):
                continue
            section = payload.get("run", {})
            runs.append(
                {"unit": unit_id, "file": os.path.basename(path), **section}
            )
            for key, value in section.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
    if not runs:
        return None
    summary = {"files": len(runs), "totals": totals, "runs": runs}
    path = os.path.join(out_dir, "sweep_metrics.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, default=_jsonable)
    return path


# ---------------------------------------------------------------------------
# manifest + resume


def build_sweep_report(results: dict, out_dir: str) -> str | None:
    """Aggregate every unit's timeline sections into one HTML report.

    Sections are ordered by unit id and metrics filename (both sorted), so
    the report is byte-identical regardless of ``--jobs``.
    """
    from repro.obs.report import runs_from_units, write_report

    units = [
        {"unit_id": unit_id, "metrics": results[unit_id].metrics}
        for unit_id in sorted(results)
    ]
    runs = runs_from_units(units)
    if not runs:
        return None
    path = os.path.join(out_dir, "sweep_report.html")
    return write_report(path, runs, title="sweep timeline report")


def write_manifest(manifest: dict, path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, default=_jsonable)
    return path


def load_manifest(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _cached_results(plan: SweepPlan, resume_path: str) -> dict:
    """Units already 'ok' in a prior manifest, with outputs still on disk."""
    previous = {
        unit["unit_id"]: unit
        for unit in load_manifest(resume_path).get("units", [])
    }
    cached: dict = {}
    for spec in plan.specs:
        unit = previous.get(spec.unit_id)
        if not unit or unit.get("status") != "ok":
            continue
        if unit.get("seed") != spec.seed:
            continue  # different root seed: results are not reusable
        outputs = unit.get("outputs", [])
        if not all(os.path.exists(p) for p in outputs):
            continue
        cached[spec.unit_id] = UnitResult(
            unit_id=spec.unit_id,
            seed=spec.seed,
            status="ok",
            attempts=unit.get("attempts", 1),
            duration_s=unit.get("duration_s", 0.0),
            durations_s=unit.get("durations_s", []),
            backoffs_s=unit.get("backoffs_s", []),
            outputs=outputs,
            metrics=unit.get("metrics", []),
            cached=True,
        )
    return cached


def run_sweep(config: SweepConfig, progress=None) -> dict:
    """Plan, execute, compile, and write the manifest.  Returns it."""
    started = time.time()
    os.makedirs(config.out_dir, exist_ok=True)
    plan = build_plan(
        modules=tuple(config.modules),
        quick=config.quick,
        root_seed=config.root_seed,
        out_dir=config.out_dir,
        timeout_s=config.timeout_s,
        max_retries=config.max_retries,
        audit=config.audit,
        timeline=config.timeline,
    )
    cached = _cached_results(plan, config.resume) if config.resume else {}
    pending = [s for s in plan.specs if s.unit_id not in cached]
    if progress:
        progress(
            f"sweep: {len(plan.specs)} units "
            f"({len(cached)} cached, {len(pending)} to run), "
            f"jobs={config.jobs}"
        )
    results = execute_units(
        pending,
        jobs=config.jobs,
        backoff_base_s=config.backoff_base_s,
        progress=progress,
    )
    results.update(cached)
    merged = compile_report(plan, results, config.out_dir)
    metrics_summary = merge_metrics(results, config.out_dir)
    report_path = (
        build_sweep_report(results, config.out_dir) if config.timeline else None
    )
    wall_s = time.time() - started
    units = [asdict(results[s.unit_id]) for s in plan.specs]
    counts: dict = {}
    for unit in units:
        counts[unit["status"]] = counts.get(unit["status"], 0) + 1
    manifest = {
        "version": MANIFEST_VERSION,
        "root_seed": config.root_seed,
        "quick": config.quick,
        "audit": config.audit,
        "timeline": config.timeline,
        "jobs": config.jobs,
        "timeout_s": config.timeout_s,
        "max_retries": config.max_retries,
        "out_dir": config.out_dir,
        "wall_s": round(wall_s, 3),
        "serial_equivalent_s": round(
            sum(u["duration_s"] for u in units), 3
        ),
        "counts": counts,
        "units": units,
        "merged": merged,
        "metrics_summary": metrics_summary,
        "report": report_path,
    }
    manifest_path = config.manifest_path or os.path.join(
        config.out_dir, "sweep_manifest.json"
    )
    write_manifest(manifest, manifest_path)  # trd: ignore[TRD007] wall_s is host-timing metadata; determinism compares exclude it
    manifest["manifest_path"] = manifest_path
    return manifest
