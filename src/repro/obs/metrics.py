"""A kernel-style metrics registry: counters, gauges and histograms.

The simulator's claims live in counters (zero-fill pool hit rates,
compaction bytes copied, promotion attempt/failure ratios — Figures 5, 7,
11 and Tables 4, 5 of the paper), so the registry is designed the way
``/proc/vmstat`` and tracefs are: a flat namespace of named metrics, each
optionally qualified by a small set of labels, cheap enough to update from
hot paths.

Three metric kinds:

* :class:`Counter` — monotonically increasing value (events, bytes, ns).
* :class:`Gauge` — point-in-time value (pool size, free-list depth).
* :class:`Histogram` — fixed-boundary bucketed distribution (walk latency).

Hot paths hold direct references to metric objects (``self._c_alloc[order]``
style) so the per-event cost is one attribute increment — the registry's
name/label lookup happens only at registration time.  Derived or aggregate
metrics that would be expensive to maintain incrementally are filled in by
*collectors*: callbacks run once per :meth:`MetricsRegistry.snapshot`,
mirroring authoritative simulator state (``PolicyStats``,
``TranslationStats``) into the registry — the same split the kernel makes
between per-cpu event counters and fill-on-read ``/proc`` files.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Callable, Iterable


def nearest_rank(n: int, pct: float) -> int:
    """Ceil-based nearest-rank index into ``n`` sorted samples.

    The p-th percentile is the smallest sample such that at least p% of
    the samples are <= it (the same rule
    :meth:`repro.sim.perfmodel.RunMetrics.percentile_latency_ns` uses for
    Table 5's tails — ``round``-based indexing under-reports them).
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def percentile_from_buckets(export: dict, pct: float) -> float:
    """Nearest-rank percentile from a :meth:`Histogram.export` dict.

    Returns the upper bound of the bucket holding the nearest-rank sample
    (the resolution a fixed-boundary histogram offers).  A rank landing in
    the open-ended overflow bucket yields the maximum observed sample when
    the export carries one (the ``max`` key) instead of ``math.inf``, so
    p99/p100 stay finite in reports; exports written before ``max`` was
    recorded keep the old behaviour (``inf``).  Empty histograms are 0.0.

    Buckets are sorted numerically here rather than trusted in dict order:
    a JSON round-trip through ``sort_keys=True`` reorders the keys
    lexicographically ("+Inf" before "100").
    """
    count = export.get("count", 0)
    if not count:
        return 0.0
    observed_max = export.get("max")
    rank = nearest_rank(count, pct) + 1  # 1-based cumulative rank
    cumulative = 0
    items = sorted(
        export["buckets"].items(),
        key=lambda kv: math.inf if kv[0] == "+Inf" else float(kv[0]),
    )
    for bound, n in items:
        cumulative += n
        if cumulative >= rank:
            if bound != "+Inf":
                return float(bound)
            break
    # Overflow bucket: clamp the open upper bound to the observed max.
    return math.inf if observed_max is None else float(observed_max)


#: label-value characters that render bare (unquoted) in a flat key;
#: anything else forces the quoted-and-escaped form so keys stay
#: unambiguous and machine-parseable (``parse_key`` is the exact inverse)
_BARE_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:+/-"
)


def escape_label_value(value: str) -> str:
    """Backslash-escape ``\\``, ``"`` and newlines (Prometheus label rules)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep both chars verbatim
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def render_key(name: str, labels: dict) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` with sorted keys.

    Simple values (alphanumerics plus ``_.:+/-``) render bare, keeping the
    historical key format byte-for-byte.  Values containing anything else —
    ``"``, ``\\``, newlines, commas, ``=``, ``}`` ... — render quoted with
    Prometheus-style escapes; a bare value never starts with ``"``, so the
    two forms cannot collide and :func:`parse_key` can invert exactly.
    """
    if not labels:
        return name
    parts = []
    for k in sorted(labels):
        value = str(labels[k])
        if value and all(ch in _BARE_LABEL_CHARS for ch in value):
            parts.append(f"{k}={value}")
        else:
            parts.append(f'{k}="{escape_label_value(value)}"')
    return f"{name}{{{','.join(parts)}}}"


def metric_family(key: str) -> str:
    """The family name of a :func:`render_key` flat key, without parsing.

    Exact because a family name never contains ``{``: the labels are the
    only braces, so the family is everything before the first one.
    """
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def parse_key(key: str) -> tuple[str, dict]:
    """Split a :func:`render_key` flat key back into ``(name, labels)``.

    Exact inverse for both the bare and the quoted-escaped label forms;
    raises ``ValueError`` on malformed keys (the exposition layer depends
    on this being strict, not best-effort).
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed metric key (unclosed labels): {key!r}")
    name = key[:brace]
    body = key[brace + 1 : -1]
    labels: dict = {}
    i = 0
    while i < len(body):
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"malformed label pair in key: {key!r}")
        label = body[i:eq]
        if body[eq + 1 : eq + 2] == '"':  # quoted-escaped value
            j = eq + 2
            raw: list[str] = []
            while j < len(body):
                ch = body[j]
                if ch == "\\" and j + 1 < len(body):
                    raw.append(body[j : j + 2])
                    j += 2
                    continue
                if ch == '"':
                    break
                raw.append(ch)
                j += 1
            else:
                raise ValueError(f"unterminated label quote in key: {key!r}")
            labels[label] = unescape_label_value("".join(raw))
            i = j + 1
            if i < len(body):
                if body[i] != ",":
                    raise ValueError(f"malformed label list in key: {key!r}")
                i += 1
        else:  # bare value: runs to the next comma
            comma = body.find(",", eq + 1)
            end = comma if comma >= 0 else len(body)
            labels[label] = body[eq + 1 : end]
            i = end + 1 if comma >= 0 else end
    return name, labels


class Counter:
    """Monotonic event counter.  ``inc`` is the hot-path entry point."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def set(self, value: int | float) -> None:
        """Overwrite the value (collector mirroring only — not hot paths)."""
        self.value = value


class Gauge:
    """Point-in-time value; hot paths assign :attr:`value` directly."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount


#: default bucket upper bounds — powers of four from 1 to ~10^9, a decade
#: ladder wide enough for cycle counts and nanosecond latencies alike
DEFAULT_BUCKETS = tuple(4**i for i in range(16))


class Histogram:
    """Fixed-boundary histogram (cumulative-style buckets on export).

    ``bounds`` are upper bounds of the finite buckets; one implicit
    overflow bucket catches everything above the last bound.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "sum", "max"
    )
    kind = "histogram"

    def __init__(
        self, name: str, labels: dict, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        #: largest observed sample; lets percentile readers clamp the
        #: open-ended overflow bucket to a finite value
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile at bucket-bound resolution."""
        return percentile_from_buckets(self.export(), pct)

    def export(self) -> dict:
        buckets = {}
        for bound, n in zip(self.bounds, self.bucket_counts):
            buckets[str(bound)] = n
        buckets["+Inf"] = self.bucket_counts[-1]
        out = {"count": self.count, "sum": self.sum, "buckets": buckets}
        if self.max is not None:
            out["max"] = self.max
        return out


class MetricsRegistry:
    """Flat namespace of metrics plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- registration (get-or-create) --------------------------------------
    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = render_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None, **labels
    ) -> Histogram:
        kwargs = {} if buckets is None else {"bounds": buckets}
        return self._get_or_create(Histogram, name, labels, **kwargs)

    # -- collectors ---------------------------------------------------------
    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run once per snapshot (fill-on-read metrics)."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # -- read side ----------------------------------------------------------
    def get(self, name: str, **labels) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(render_key(name, labels))

    def value(self, name: str, **labels) -> int | float:
        """Current value of a counter/gauge (0 if never registered)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise TypeError(f"{name} is a histogram; read .export() instead")
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Run collectors, then export everything as plain JSON-able dicts."""
        self.collect()
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            else:
                out["histograms"][key] = metric.export()
        return out

    def write_json(self, path: str, extra: dict | None = None) -> str:
        """Write a snapshot (plus optional extra sections) to ``path``."""
        data = self.snapshot()
        if extra:
            data.update(extra)
        with open(path, "w") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")
        return path
