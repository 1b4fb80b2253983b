"""Metrics substrate: histogram accuracy, registry behaviour, JSONL round-trip,
and the guarantee that a run without observability records nothing."""

import json
import math
import random

import pytest

from repro.obs.metrics import MetricsRegistry, StreamingHistogram, _make_key
from repro.simnet.scheduler import Simulator
from repro.testbed import SmartHomeTestbed


def _reference_quantile(samples, q):
    """Nearest-rank quantile over the actual sorted samples.

    Uses the same 1-based nearest-rank convention as the histogram so the
    comparison isolates bucketing error from rank-convention error.
    """
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1) + 1
    return ordered[math.ceil(rank) - 1]


class TestStreamingHistogram:
    def _hist(self, growth=1.05):
        return StreamingHistogram(_make_key("t", "h", {}), growth=growth)

    @pytest.mark.parametrize("distribution", ["uniform", "lognormal", "exponential"])
    def test_quantiles_match_sorted_sample_reference(self, distribution):
        rng = random.Random(42)
        if distribution == "uniform":
            samples = [rng.uniform(0.001, 100.0) for _ in range(5000)]
        elif distribution == "lognormal":
            samples = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        else:
            samples = [rng.expovariate(1 / 30.0) for _ in range(5000)]
        hist = self._hist()
        for s in samples:
            hist.observe(s)
        for q in (0.50, 0.90, 0.95, 0.99):
            reference = _reference_quantile(samples, q)
            got = hist.quantile(q)
            # Bucketed estimate: within one growth factor of the true value.
            assert reference / hist.growth <= got <= reference * hist.growth, (
                f"{distribution} q={q}: {got} vs reference {reference}"
            )

    def test_zero_samples_are_counted_not_lost(self):
        hist = self._hist()
        for _ in range(90):
            hist.observe(0.0)
        for _ in range(10):
            hist.observe(50.0)
        assert hist.count == 100
        assert hist.zero_count == 90
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == pytest.approx(50.0, rel=hist.growth - 1)

    def test_single_sample(self):
        hist = self._hist()
        hist.observe(3.0)
        assert hist.quantile(0.0) == pytest.approx(3.0, rel=hist.growth - 1)
        assert hist.quantile(1.0) == pytest.approx(3.0, rel=hist.growth - 1)
        assert hist.mean == 3.0

    def test_empty_histogram_quantile_is_zero(self):
        assert self._hist().quantile(0.5) == 0.0

    def test_quantile_never_exceeds_observed_max(self):
        # Regression: the geometric midpoint of the max observation's
        # bucket can exceed the max itself.  With growth 1.05, bucket 40
        # spans [7.040, 7.392) with midpoint 7.213 — so a single 7.05
        # observation used to report p99 ≈ 7.213 > max.
        hist = self._hist()
        hist.observe(7.05)
        assert hist.quantile(0.99) <= hist.max
        assert hist.quantile(0.99) == pytest.approx(7.05)

    def test_quantile_never_undercuts_observed_min(self):
        # The mirror case: 7.39 sits at the top of the same bucket, so the
        # midpoint 7.213 used to fall below the minimum.
        hist = self._hist()
        hist.observe(7.39)
        assert hist.quantile(0.0) >= hist.min
        assert hist.quantile(0.0) == pytest.approx(7.39)

    def test_quantiles_stay_inside_range_for_random_streams(self):
        rng = random.Random(11)
        hist = self._hist()
        for _ in range(500):
            hist.observe(rng.lognormvariate(0.0, 3.0))
            for q in (0.0, 0.25, 0.5, 0.99, 1.0):
                assert hist.min <= hist.quantile(q) <= hist.max

    def test_memory_is_bounded_by_buckets_not_samples(self):
        hist = self._hist()
        rng = random.Random(7)
        for _ in range(50_000):
            hist.observe(rng.uniform(0.01, 10.0))
        # log(1000) / log(1.05) ≈ 142 possible buckets over 3 decades.
        assert len(hist.buckets) < 200
        assert hist.count == 50_000


class TestMetricsRegistry:
    def test_get_or_create_returns_same_handle(self):
        reg = MetricsRegistry()
        a = reg.counter("tcp", "retransmissions", flow="x")
        b = reg.counter("tcp", "retransmissions", flow="x")
        assert a is b
        a.inc(3)
        assert reg.value("tcp", "retransmissions", flow="x") == 3

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("host", "packets", host="a").inc()
        reg.counter("host", "packets", host="b").inc(5)
        assert reg.value("host", "packets", host="a") == 1
        assert reg.value("host", "packets", host="b") == 5
        assert len(reg.find("host", "packets")) == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("c", "n")
        with pytest.raises(TypeError):
            reg.gauge("c", "n")

    def test_gauge_tracks_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("scheduler", "queue_depth")
        g.set(5)
        g.set(12)
        g.set(3)
        assert g.value == 3
        assert g.high_water == 12

    def test_untouched_metric_value_is_zero(self):
        assert MetricsRegistry().value("no", "such") == 0


class TestJsonlRoundTrip:
    def test_snapshot_round_trips_through_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("tcp", "retransmissions").inc(7)
        gauge = reg.gauge("scheduler", "queue_depth")
        gauge.set(40)
        gauge.set(11)
        hist = reg.histogram("scheduler", "firing_latency", label="keepalive")
        rng = random.Random(3)
        samples = [rng.expovariate(1 / 5.0) for _ in range(1000)] + [0.0] * 20
        for s in samples:
            hist.observe(s)

        path = tmp_path / "metrics.jsonl"
        count = reg.export_jsonl(str(path))
        assert count == 3

        records = [json.loads(line) for line in path.read_text().splitlines()]
        # The exported lines are the registry's snapshot, record for record.
        assert records == reg.snapshot()
        by_name = {r["name"]: r for r in records}
        assert by_name["retransmissions"]["value"] == 7
        assert (by_name["queue_depth"]["value"], by_name["queue_depth"]["high_water"]) == (11, 40)
        latency = by_name["firing_latency"]
        assert latency["labels"] == {"label": "keepalive"}
        assert latency["count"] == hist.count
        assert latency["state"]["zero_count"] == hist.zero_count
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert latency[key] == hist.quantile(q)

    def test_export_is_atomic_against_serialisation_crash(self, tmp_path, monkeypatch):
        # Regression: export used to open(path, "w") before serialising, so
        # a crash mid-serialisation truncated an existing good snapshot.
        import repro.obs.metrics as metrics_mod

        reg = MetricsRegistry()
        reg.counter("tcp", "retransmissions").inc(7)
        path = tmp_path / "metrics.jsonl"
        reg.export_jsonl(str(path))
        good = path.read_bytes()
        assert good

        def boom(*args, **kwargs):
            raise RuntimeError("unserialisable metric")

        monkeypatch.setattr(metrics_mod.json, "dumps", boom)
        with pytest.raises(RuntimeError, match="unserialisable"):
            reg.export_jsonl(str(path))
        assert path.read_bytes() == good  # previous snapshot untouched
        assert not list(tmp_path.glob(".metrics.jsonl-*.tmp"))  # temp file cleaned up

    def test_render_table_lists_every_series(self):
        reg = MetricsRegistry()
        reg.counter("a", "x").inc()
        reg.histogram("b", "y").observe(1.0)
        rendered = reg.render_table()
        assert "a" in rendered and "x" in rendered
        assert "b" in rendered and "y" in rendered


class TestDisabledObservability:
    """With the default no-op observer nothing is recorded anywhere."""

    def test_plain_simulator_records_nothing(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, fired.append, 1, label="t")
        sim.run(2.0)
        assert fired == [1]
        assert sim.obs.enabled is False
        assert sim.obs.registry is None
        assert sim.obs.tracer is None

    def test_unobserved_testbed_records_nothing(self):
        home = SmartHomeTestbed(seed=5)
        home.add_device("SM1")
        home.settle()
        home.run(30.0)
        assert home.obs.enabled is False
        assert home.obs.registry is None
        assert home.obs.tracer is None
        assert home.sim.events_processed > 0

    def test_observed_testbed_profiles_the_scheduler(self):
        home = SmartHomeTestbed(seed=5, observe=True)
        home.add_device("SM1")
        home.settle()
        home.run(30.0)
        obs = home.obs
        assert obs.enabled
        assert obs.registry.value("scheduler", "events_processed") == (
            home.sim.events_processed
        )
        depth = obs.registry.gauge("scheduler", "queue_depth")
        assert depth.high_water >= 1
        latencies = obs.registry.find("scheduler", "firing_latency")
        assert latencies, "per-label firing-latency histograms expected"
        assert all(h.count > 0 for h in latencies)


class TestBudgetError:
    def test_budget_error_names_the_hot_timers(self):
        sim = Simulator(seed=0)
        sim.max_events = 500

        def spin_a():
            sim.schedule(0.001, spin_a, label="runaway-a")

        def spin_b():
            sim.schedule(0.002, spin_b, label="slow-b")

        spin_a()
        spin_b()
        with pytest.raises(RuntimeError) as err:
            sim.run()
        text = str(err.value)
        assert "event budget" in text
        assert "runaway-a" in text, "hottest timer label should be named"
        # The hottest label is listed before the cooler one.
        assert text.index("runaway-a") < text.index("slow-b")

    def test_budget_setter_keeps_normal_runs_untallied(self):
        sim = Simulator(seed=0)
        assert sim.max_events == 50_000_000
        sim.schedule(1.0, lambda: None, label="once")
        sim.run()
        assert sim._label_fires == {}
