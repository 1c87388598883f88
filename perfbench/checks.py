"""The correctness gate run after every configuration's timed region.

Nothing here is timed.  A failed check raises :class:`CheckFailed`; the
harness counts it (like any other exception, such as the
``InvariantViolation`` of :func:`repro.lint.invariants.audit_system`, which
every configuration also runs) toward ``failed_ratio``.
"""

from __future__ import annotations

import hashlib


class CheckFailed(AssertionError):
    """A benchmark correctness check did not hold."""


def tlb_conservation(stats, issued: int, where: str) -> None:
    """``l1_hits + l2_hits + walks == accesses == addresses issued``."""
    resolved = stats.l1_hits + stats.l2_hits + stats.walks
    if not resolved == stats.accesses == issued:
        raise CheckFailed(
            f"{where}: TLB conservation broken: l1 {stats.l1_hits} + l2 "
            f"{stats.l2_hits} + walks {stats.walks} = {resolved}, accesses "
            f"{stats.accesses}, addresses issued {issued}"
        )


def service_conservation(record: dict, arrivals: int, observed: int) -> None:
    """requests == arrivals == latency-histogram count == observations."""
    counts = (
        record["requests"],
        arrivals,
        record["latency"]["count"],
        observed,
    )
    if len(set(counts)) != 1:
        raise CheckFailed(
            "service conservation broken: requests {}, arrivals {}, "
            "histogram count {}, observed latencies {}".format(*counts)
        )


def digest(*parts) -> str:
    """Stable hash of simulated state (``repr`` keeps every float digit)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(_canonical(part)).encode())
    return h.hexdigest()[:16]


def _canonical(value):
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()  # numpy scalar -> Python number
    return value
