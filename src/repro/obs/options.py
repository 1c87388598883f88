"""Unified observability options shared by every driver and CLI command.

:class:`ObsOptions` is the one observability configuration: every
command registers its flags through :func:`add_obs_args` and parses them
back with :func:`obs_options_from_args`; the runners carry it as their
``RunConfig.obs`` / ``VirtRunConfig.obs`` field, and
:meth:`repro.obs.Observability.from_options` turns it into the run's
instrumentation bundle.

Scopes
------

``run``
    The full surface: tracing (ring buffer, subsystem filter, capacity,
    JSONL export), metrics snapshot, invariant auditing, the
    simulated-time timeline with its Chrome-trace / HTML exports, and the
    telemetry scrape stream.
``experiment`` / ``sweep``
    The ambient toggles that make sense across many runs: ``--audit``
    and ``--timeline``.  (Their output *paths* stay per-command —
    experiments drop per-run files into :attr:`ObsOptions.metrics_dir`,
    sweeps into their ``--out`` tree.)

Ambient options
---------------

Experiment modules keep a ``main(quick, seed)`` signature, so their runs
cannot be handed options directly.  ``RunConfig.obs`` therefore defaults
to :func:`ambient_options`, which ``repro experiment`` and each sweep
worker install for the duration of their runs with :func:`ambient`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ObsOptions:
    """Parsed observability selections for one run or CLI invocation."""

    #: record structured events in the bounded ring buffer
    trace: bool = False
    #: subsystems to trace; ``None`` = all of ``repro.obs.trace.SUBSYSTEMS``
    trace_subsystems: tuple[str, ...] | None = None
    #: ring-buffer size in events (oldest dropped first)
    trace_capacity: int = 65536
    #: write traced events as JSON lines here (implies :attr:`trace`)
    trace_out: str | None = None
    #: write the metrics registry snapshot here as JSON
    metrics_out: str | None = None
    #: without :attr:`metrics_out`, drop one
    #: ``metrics_<workload>_<policy>.json`` per run into this directory
    metrics_dir: str | None = None
    #: attach a sampled invariant auditor (``repro.lint.invariants``)
    audit: bool = False
    #: buddy events between sampled audits (smaller = tighter, slower)
    audit_every: int = 4096
    #: advance the simulated clock through spans and samplers
    timeline: bool = False
    #: write a Chrome Trace Event Format JSON here (implies timeline)
    timeline_out: str | None = None
    #: write a self-contained single-file HTML report here (implies timeline)
    report_out: str | None = None
    #: append Prometheus-text scrape frames (SimClock cadence) here
    telemetry_out: str | None = None
    #: simulated milliseconds between scrape frames
    telemetry_interval_ms: float = 1.0

    @property
    def trace_enabled(self) -> bool:
        """Tracing is on — requested directly or implied by an export path."""
        return self.trace or self.trace_out is not None

    @property
    def timeline_on(self) -> bool:
        """The timeline is on — requested directly or implied by an export."""
        return self.timeline or bool(self.timeline_out or self.report_out)

    def companion(self) -> ObsOptions:
        """These options for a companion run (e.g. ``repro run --baseline``).

        Ambient toggles (audit, timeline, the metrics drop directory)
        still apply; the trace buffer and the per-run artifact paths
        belong to the primary run only.
        """
        return replace(
            self,
            trace=False,
            trace_out=None,
            metrics_out=None,
            timeline_out=None,
            report_out=None,
            telemetry_out=None,
        )


_ambient = ObsOptions()
#: drop paths handed out under the current ambient options -> times used
_drops: dict[str, int] = {}


def ambient_options() -> ObsOptions:
    """The options a run uses when its config names none."""
    return _ambient


@contextlib.contextmanager
def ambient(options: ObsOptions):
    """Make ``options`` the ambient default for the block, then restore."""
    global _ambient, _drops
    saved = _ambient, _drops
    _ambient, _drops = options, {}
    try:
        yield options
    finally:
        _ambient, _drops = saved


def claim_drop_path(directory: str, stem: str) -> str:
    """``directory/stem.json``, suffixed ``-2``, ``-3``, ... on reuse.

    Runs that repeat a (workload, policy) pair within one ambient scope
    keep every drop: the first run gets the plain name, later ones a
    suffix in run order, so names that never collide are unchanged.
    """
    path = os.path.join(directory, stem.replace("/", "_"))
    uses = _drops[path] = _drops.get(path, 0) + 1
    return f"{path}.json" if uses == 1 else f"{path}-{uses}.json"


def add_obs_args(
    parser: argparse.ArgumentParser, scope: str = "run"
) -> None:
    """Register the observability flags for ``scope`` on ``parser``.

    ``scope`` is ``"run"`` (the full surface) or ``"experiment"`` /
    ``"sweep"`` (the ambient ``--audit`` / ``--timeline`` toggles).
    """
    if scope not in ("run", "experiment", "sweep"):
        raise ValueError(f"unknown obs-args scope: {scope!r}")
    many = "in every run" if scope == "experiment" else "in every worker"
    if scope == "run":
        parser.add_argument(
            "--audit",
            action="store_true",
            help="attach a sampled invariant auditor (repro.lint.invariants)",
        )
        parser.add_argument(
            "--audit-every",
            type=int,
            default=4096,
            metavar="N",
            help="audit at the next checkpoint after every N buddy events",
        )
    else:
        parser.add_argument(
            "--audit",
            action="store_true",
            help=f"attach sampled invariant auditors {many}"
            + (
                "; audit failures surface as unit failures in the manifest"
                if scope == "sweep"
                else ""
            ),
        )
    if scope != "run":
        parser.add_argument(
            "--timeline",
            action="store_true",
            help=f"record the simulated-time timeline {many}"
            + (
                " and aggregate the sections into sweep_report.html"
                if scope == "sweep"
                else ""
            ),
        )
        return

    from repro.obs.trace import SUBSYSTEMS

    parser.add_argument(
        "--trace",
        action="store_true",
        help="record structured events in a bounded ring buffer",
    )
    parser.add_argument(
        "--trace-subsystems",
        default=None,
        metavar="NAMES",
        help=f"comma-separated subset of {','.join(SUBSYSTEMS)} (default: all)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=65536,
        metavar="N",
        help="ring-buffer size in events (oldest dropped first)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write traced events as JSON lines to PATH (implies --trace)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="advance the simulated clock through spans and samplers "
        "(implied by --timeline-out / --report-out)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome Trace Event Format JSON (Perfetto-loadable)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write a self-contained single-file HTML timeline report",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="append Prometheus-text scrape frames to PATH on the "
        "simulated-clock cadence",
    )
    parser.add_argument(
        "--telemetry-interval-ms",
        type=float,
        default=1.0,
        metavar="MS",
        help="simulated milliseconds between scrape frames (default: 1)",
    )


def obs_options_from_args(args: argparse.Namespace) -> ObsOptions:
    """Build :class:`ObsOptions` from parsed args of any scope.

    Flags a scope did not register fall back to the dataclass defaults,
    so one construction site serves ``run``, ``experiment`` and
    ``sweep`` alike.
    """
    raw_subsystems = getattr(args, "trace_subsystems", None)
    subsystems = (
        tuple(s for s in raw_subsystems.split(",") if s)
        if raw_subsystems
        else None
    )
    return ObsOptions(
        trace=getattr(args, "trace", False),
        trace_subsystems=subsystems,
        trace_capacity=getattr(args, "trace_capacity", 65536),
        trace_out=getattr(args, "trace_out", None),
        metrics_out=getattr(args, "metrics_out", None),
        audit=getattr(args, "audit", False),
        audit_every=getattr(args, "audit_every", 4096),
        timeline=getattr(args, "timeline", False),
        timeline_out=getattr(args, "timeline_out", None),
        report_out=getattr(args, "report_out", None),
        telemetry_out=getattr(args, "telemetry_out", None),
        telemetry_interval_ms=getattr(args, "telemetry_interval_ms", 1.0),
    )
