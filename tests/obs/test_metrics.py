"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    metric_family,
    render_key,
)

_FAMILIES = st.from_regex(r"[a-zA-Z_:][a-zA-Z0-9_:]{0,20}", fullmatch=True)
_LABEL_NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True)
#: label values biased toward the characters that force the quoted form
_LABEL_VALUES = st.text(
    alphabet=st.sampled_from('ab1_.-"{}\\,=\n '), max_size=12
)


class TestRenderKey:
    def test_no_labels_is_bare_name(self):
        assert render_key("buddy_alloc_total", {}) == "buddy_alloc_total"

    def test_labels_sorted(self):
        key = render_key("m", {"b": 2, "a": 1})
        assert key == "m{a=1,b=2}"


class TestCounter:
    def test_inc_default_and_amount(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(4)
        assert reg.value("events_total") == 5

    def test_labelled_counters_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("allocs", order=0).inc()
        reg.counter("allocs", order=1).inc(2)
        assert reg.value("allocs", order=0) == 1
        assert reg.value("allocs", order=1) == 2

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("pool_size")
        g.set(5)
        g.inc()
        g.dec(3)
        assert reg.value("pool_size") == 3

    def test_unregistered_value_is_zero(self):
        assert MetricsRegistry().value("never_seen") == 0


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = Histogram("lat", {}, bounds=(10, 100))
        for v in (3, 10, 50, 5000):
            h.observe(v)
        export = h.export()
        assert export["count"] == 4
        assert export["buckets"] == {"10": 2, "100": 1, "+Inf": 1}
        assert export["max"] == 5000
        assert h.mean == pytest.approx((3 + 10 + 50 + 5000) / 4)

    def test_export_omits_max_when_empty(self):
        assert "max" not in Histogram("h", {}, bounds=(10,)).export()

    def test_default_buckets_are_sorted_powers_of_four(self):
        assert DEFAULT_BUCKETS[0] == 1
        assert all(
            b == 4 * a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", {}, bounds=())

    def test_value_raises_on_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        with pytest.raises(TypeError):
            reg.value("h")


class TestRegistrySnapshot:
    def test_snapshot_sections(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1, 2)).observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 7}
        assert snap["gauges"] == {"g": 2}
        assert snap["histograms"]["h"]["count"] == 1

    def test_collectors_run_on_snapshot(self):
        reg = MetricsRegistry()
        state = {"value": 10}
        reg.add_collector(lambda m: m.gauge("mirrored").set(state["value"]))
        assert reg.snapshot()["gauges"]["mirrored"] == 10
        state["value"] = 20
        assert reg.snapshot()["gauges"]["mirrored"] == 20

    def test_write_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", order=3).inc(9)
        path = str(tmp_path / "m.json")
        assert reg.write_json(path, extra={"run": {"policy": "Trident"}}) == path
        data = json.loads(open(path).read())
        assert data["counters"]["c{order=3}"] == 9
        assert data["run"]["policy"] == "Trident"

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert reg.names() == ["a", "z"]


class TestNearestRank:
    def test_ceil_based_indexing(self):
        from repro.obs.metrics import nearest_rank

        # 10 samples: p50 is the 5th (index 4), p99 the 10th (index 9)
        assert nearest_rank(10, 50.0) == 4
        assert nearest_rank(10, 90.0) == 8
        assert nearest_rank(10, 99.0) == 9
        assert nearest_rank(10, 0.0) == 0
        assert nearest_rank(10, 100.0) == 9
        assert nearest_rank(1, 50.0) == 0

    def test_out_of_range_pct_rejected(self):
        from repro.obs.metrics import nearest_rank

        with pytest.raises(ValueError):
            nearest_rank(10, -1.0)
        with pytest.raises(ValueError):
            nearest_rank(10, 101.0)


class TestPercentileFromBuckets:
    def test_returns_bucket_upper_bound(self):
        h = Histogram("h", {}, bounds=(10, 100, 1000))
        for v in (5, 5, 50, 50, 50, 500):  # 6 samples
            h.observe(v)
        assert h.percentile(50.0) == 100.0  # rank 3 lands in (10, 100]
        assert h.percentile(90.0) == 1000.0
        assert h.percentile(0.0) == 10.0

    def test_overflow_bucket_clamps_to_observed_max(self):
        """Regression: a nearest-rank sample in the open-ended overflow
        bucket used to report ``inf``; it must clamp to the largest
        observed sample so p99/p100 stay finite in service reports."""
        h = Histogram("h", {}, bounds=(10,))
        h.observe(99)
        assert h.percentile(50.0) == 99.0
        assert h.percentile(100.0) == 99.0

    def test_observed_max_never_inflates_lower_buckets(self):
        h = Histogram("h", {}, bounds=(10, 100))
        for v in (5, 5, 5, 250):
            h.observe(v)
        assert h.percentile(50.0) == 10.0  # finite bound untouched by max
        assert h.percentile(99.0) == 250.0  # overflow clamped to max

    def test_overflow_without_max_falls_back_to_inf(self):
        """Exports written before ``max`` was recorded keep the old
        (infinite) overflow behaviour rather than guessing a bound."""
        import math

        from repro.obs.metrics import percentile_from_buckets

        legacy = {"count": 1, "sum": 99.0, "buckets": {"10": 0, "+Inf": 1}}
        assert percentile_from_buckets(legacy, 50.0) == math.inf

    def test_empty_histogram_is_zero(self):
        h = Histogram("h", {}, bounds=(10,))
        assert h.percentile(99.0) == 0.0

    def test_survives_json_sort_keys_roundtrip(self):
        """Regression: sort_keys=True reorders bucket keys
        lexicographically ("+Inf" first); percentiles must sort
        numerically, not trust dict order."""
        import json

        from repro.obs.metrics import percentile_from_buckets

        h = Histogram("h", {}, bounds=(100, 1000, 30, 300))
        for v in (20, 200, 200, 2000):
            h.observe(v)
        direct = [h.percentile(p) for p in (50.0, 90.0, 99.0)]
        roundtripped = json.loads(json.dumps(h.export(), sort_keys=True))
        via_json = [
            percentile_from_buckets(roundtripped, p) for p in (50.0, 90.0, 99.0)
        ]
        assert via_json == direct
        # and the tails never decrease
        assert via_json == sorted(via_json)


class TestKeyEscaping:
    """render_key / parse_key / escape round-trips for awkward label values."""

    def test_escape_and_unescape_are_inverse(self):
        from repro.obs.metrics import escape_label_value, unescape_label_value

        for value in ('a"b', "back\\slash", "multi\nline", 'all\\"of\nit', ""):
            escaped = escape_label_value(value)
            assert "\n" not in escaped
            assert unescape_label_value(escaped) == value

    def test_simple_values_keep_bare_form(self):
        # The historical key spelling must not change for plain values.
        assert (
            render_key("m", {"workload": "GUPS", "policy": "Trident-1Gonly"})
            == "m{policy=Trident-1Gonly,workload=GUPS}"
        )

    def test_awkward_values_round_trip(self):
        from repro.obs.metrics import parse_key

        labels = {
            "quote": 'a"b',
            "slash": "c\\d",
            "newline": "e\nf",
            "comma": "g,h",
            "equals": "i=j",
            "brace": "k}l",
            "empty": "",
        }
        key = render_key("odd_total", labels)
        assert "\n" not in key  # keys stay single-line everywhere
        name, parsed = parse_key(key)
        assert name == "odd_total"
        assert parsed == labels

    def test_registry_snapshot_with_awkward_labels(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", path='x"y\nz').inc(3)
        snapshot = reg.snapshot()
        (key,) = snapshot["counters"]
        from repro.obs.metrics import parse_key

        assert parse_key(key) == ("odd_total", {"path": 'x"y\nz'})
        assert snapshot["counters"][key] == 3

    @given(
        name=_FAMILIES,
        labels=st.dictionaries(_LABEL_NAMES, _LABEL_VALUES, max_size=4),
    )
    def test_metric_family_matches_parse_key(self, name, labels):
        from repro.obs.metrics import parse_key

        key = render_key(name, labels)
        assert metric_family(key) == parse_key(key)[0] == name

    def test_malformed_keys_raise(self):
        from repro.obs.metrics import parse_key

        with pytest.raises(ValueError, match="unclosed"):
            parse_key("m{a=1")
        with pytest.raises(ValueError, match="malformed label pair"):
            parse_key("m{nopair}")
        with pytest.raises(ValueError, match="unterminated label quote"):
            parse_key('m{a="broken}')
