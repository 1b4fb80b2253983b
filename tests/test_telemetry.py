"""Tests for campaign-scale telemetry (``repro.obs.telemetry`` + manifest).

The pipeline's contract has three load-bearing properties:

* **merge is order-free** for everything a campaign reports — counts,
  buckets, extrema, and therefore quantiles — so sharding can never change
  a merged metric (property-tested with hypothesis);
* **worker telemetry survives the pool and the cache** — a shard's
  snapshot rides back with its result, is cached alongside it, and warm
  runs replay it byte-identically, so ``jobs=1`` == ``jobs=4`` == warm;
* **the manifest round-trips** — write → load → diff-against-self reports
  zero drift, and degraded runs (in-process replays after worker failures)
  are visible in their shard rows.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.manifest import (
    RunManifest,
    ShardRow,
    diff_manifests,
    git_describe,
    manifest_path_for,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    NONDETERMINISTIC_COMPONENTS,
    RegistrySnapshot,
    ShardTelemetry,
    ShardUsage,
    capture,
    cpu_seconds_now,
    harvest_result,
    merge_telemetry,
)
from repro.parallel import CampaignRunner, Shard, derive_seed, fork_available
from repro.simnet.scheduler import Simulator


def _registry_with(counter: int = 0, gauge: float = 0.0,
                   samples: tuple[float, ...] = ()) -> MetricsRegistry:
    registry = MetricsRegistry(capture=False)
    if counter:
        registry.counter("test", "count").inc(counter)
    if gauge:
        registry.gauge("test", "depth").set(gauge)
    for sample in samples:
        registry.histogram("test", "delay").observe(sample)
    return registry


class TestMetricMerge:
    def test_counter_merge_adds(self):
        a, b = _registry_with(counter=3), _registry_with(counter=4)
        a.merge(b)
        assert a.value("test", "count") == 7

    def test_gauge_merge_adds_values_maxes_high_water(self):
        a, b = MetricsRegistry(capture=False), MetricsRegistry(capture=False)
        ga, gb = a.gauge("g", "depth"), b.gauge("g", "depth")
        ga.set(9.0)
        ga.set(2.0)
        gb.set(5.0)
        ga.merge(gb)
        assert ga.value == 7.0
        assert ga.high_water == 9.0

    def test_histogram_merge_growth_mismatch_rejected(self):
        from repro.obs.metrics import StreamingHistogram, _make_key

        a = StreamingHistogram(_make_key("h", "x", {}))
        b = StreamingHistogram(_make_key("h", "x", {}), growth=1.5)
        with pytest.raises(ValueError, match="growth"):
            a.merge(b)

    def test_registry_merge_kind_conflict_rejected(self):
        a, b = MetricsRegistry(capture=False), MetricsRegistry(capture=False)
        a.counter("c", "thing").inc()
        b.histogram("c", "thing").observe(1.0)
        with pytest.raises(TypeError):
            a.merge(b)

    def test_merge_excludes_components(self):
        a = MetricsRegistry(capture=False)
        b = _registry_with(counter=2)
        b.counter("parallel", "cache_hits").inc(5)
        a.merge(b, exclude_components=NONDETERMINISTIC_COMPONENTS)
        assert a.value("test", "count") == 2
        assert a.get("parallel", "cache_hits") is None


# Hypothesis: merged campaign numbers must not depend on merge order.

_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=12
)


def _hist_fingerprint(registry: MetricsRegistry):
    hist = registry.histogram("test", "delay")
    return (
        hist.count, dict(hist.buckets), hist.zero_count, hist.min, hist.max,
        hist.quantile(0.5), hist.quantile(0.95), hist.quantile(0.99),
    )


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(a=_samples, b=_samples)
    def test_histogram_merge_commutes(self, a, b):
        left = _registry_with(samples=tuple(a))
        left.merge(_registry_with(samples=tuple(b)))
        right = _registry_with(samples=tuple(b))
        right.merge(_registry_with(samples=tuple(a)))
        assert _hist_fingerprint(left) == _hist_fingerprint(right)

    @settings(max_examples=50, deadline=None)
    @given(a=_samples, b=_samples, c=_samples)
    def test_histogram_merge_associates(self, a, b, c):
        ab_c = _registry_with(samples=tuple(a))
        ab_c.merge(_registry_with(samples=tuple(b)))
        ab_c.merge(_registry_with(samples=tuple(c)))
        bc = _registry_with(samples=tuple(b))
        bc.merge(_registry_with(samples=tuple(c)))
        a_bc = _registry_with(samples=tuple(a))
        a_bc.merge(bc)
        assert _hist_fingerprint(ab_c) == _hist_fingerprint(a_bc)

    @settings(max_examples=50, deadline=None)
    @given(
        counters=st.lists(st.integers(min_value=0, max_value=100),
                          min_size=1, max_size=6),
        samples=st.lists(_samples, min_size=1, max_size=6),
    )
    def test_registry_merge_order_free(self, counters, samples):
        def build(order):
            merged = MetricsRegistry(capture=False)
            for i in order:
                shard = _registry_with(
                    counter=counters[i % len(counters)],
                    samples=tuple(samples[i % len(samples)]),
                )
                merged.merge(shard)
            return merged

        n = max(len(counters), len(samples))
        forward, backward = build(range(n)), build(reversed(range(n)))
        assert forward.value("test", "count") == backward.value("test", "count")
        assert _hist_fingerprint(forward) == _hist_fingerprint(backward)

    @settings(max_examples=25, deadline=None)
    @given(a=_samples, b=_samples)
    def test_snapshot_merge_matches_registry_merge(self, a, b):
        direct = _registry_with(samples=tuple(a))
        direct.merge(_registry_with(samples=tuple(b)))
        via_snapshots = RegistrySnapshot.of(
            _registry_with(samples=tuple(a))
        ).merge(RegistrySnapshot.of(_registry_with(samples=tuple(b))))
        assert via_snapshots == RegistrySnapshot.of(direct)


class TestRegistrySnapshot:
    def test_round_trip(self):
        registry = _registry_with(counter=3, gauge=2.5, samples=(0.1, 4.2))
        snap = RegistrySnapshot.of(registry)
        assert RegistrySnapshot.of(snap.to_registry()) == snap

    def test_picklable_and_canonical(self):
        snap = RegistrySnapshot.of(_registry_with(counter=2, samples=(1.0,)))
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_empty_is_falsy(self):
        assert not RegistrySnapshot.empty()
        assert RegistrySnapshot.of(_registry_with(counter=1))


class TestCapture:
    def test_captures_registries_and_simulators(self):
        with capture() as cap:
            registry = MetricsRegistry()
            registry.counter("app", "messages").inc(4)
            sim = Simulator(seed=3)
            sim.schedule(1.0, lambda: None)
            sim.run(5.0)
        snap = cap.snapshot()
        values = {(r["component"], r["name"]): r for r in snap.records}
        assert values[("app", "messages")]["value"] == 4
        assert values[("scheduler", "simulations")]["value"] == 1
        assert values[("scheduler", "events_processed")]["value"] == 1
        assert sim.now == 5.0

    @pytest.mark.parametrize("observed", [False, True])
    def test_finished_simulator_is_not_kept_alive(self, observed):
        # The capture keeps an account of each simulation, not the
        # simulator: a finished home is collectable while its shard runs,
        # and the snapshot still reports it.
        with capture() as cap:
            sim = Simulator(seed=3)
            if observed:
                sim.enable_observability()
                sim.schedule(0.5, lambda: sim.obs.tracer.event("test", "tick"))
            sim.schedule(1.0, lambda: None)
            sim.run(5.0)
            alive = weakref.ref(sim)
            del sim
            gc.collect()
            assert alive() is None
        values = {(r["component"], r["name"]): r for r in cap.snapshot().records}
        assert values[("scheduler", "simulations")]["value"] == 1
        assert values[("scheduler", "events_processed")]["value"] == (2 if observed else 1)
        assert values[("scheduler", "sim_clock_seconds")]["max"] == 5.0
        spans = cap.span_summaries()
        if observed:
            assert spans == ({"component": "test", "name": "tick", "count": 1,
                              "total_duration": 0.0},)
        else:
            assert spans == ()

    def test_live_simulator_reported_at_snapshot_time(self):
        with capture() as cap:
            sim = Simulator(seed=3)
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(3.0)
        values = {(r["component"], r["name"]): r for r in cap.snapshot().records}
        assert values[("scheduler", "events_processed")]["value"] == 2

    def test_parallel_component_excluded(self):
        with capture() as cap:
            registry = MetricsRegistry()
            registry.counter("parallel", "cache_hits").inc(9)
            registry.counter("app", "ok").inc()
        records = cap.snapshot().records
        assert all(r["component"] != "parallel" for r in records)
        assert any(r["component"] == "app" for r in records)

    def test_innermost_capture_wins(self):
        with capture() as outer:
            with capture() as inner:
                MetricsRegistry().counter("app", "inner").inc()
            MetricsRegistry().counter("app", "outer").inc()
        assert [r["name"] for r in inner.snapshot().records] == ["inner"]
        assert [r["name"] for r in outer.snapshot().records] == ["outer"]

    def test_no_capture_is_free(self):
        # Constructing registries/simulators outside a capture must not
        # accumulate anywhere (no global leak).
        from repro.obs import telemetry as t

        assert t.active_capture() is None
        MetricsRegistry()
        Simulator()
        assert t.active_capture() is None


class _FakeResult:
    def __init__(self):
        self.fault_stats = {"dropped_frames": 3, "note": "ignored"}
        self.invariant_violations = ["v1", "v2"]
        self.alarms = {"offline": 2}
        self.metrics = {"achieved_delay": 25.0, "unbounded": float("inf")}
        self.baseline = None
        self.attacked = None


class TestHarvest:
    def test_result_shapes_mirrored(self):
        registry = MetricsRegistry(capture=False)
        harvest_result([_FakeResult(), None], registry)
        assert registry.value("faults", "dropped_frames") == 3
        assert registry.value("invariants", "runs_audited") == 1
        assert registry.value("invariants", "violations") == 2
        assert registry.value("alarms", "offline") == 2
        hist = registry.histogram("campaign", "result_metric",
                                  metric="achieved_delay")
        assert hist.count == 1
        # inf metrics are skipped, not recorded as garbage buckets
        assert registry.get("campaign", "result_metric", metric="unbounded") is None


class TestShardTelemetry:
    def test_pickle_round_trip(self):
        with capture() as cap:
            MetricsRegistry().counter("app", "n").inc(2)
        telemetry = cap.finish(usage=ShardUsage(1.0, 0.9, 1024))
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone == telemetry

    def test_deterministic_strips_run_specific_state(self):
        shard = ShardTelemetry(
            snapshot=RegistrySnapshot.of(_registry_with(counter=1)),
            usage=ShardUsage(1.0, 0.5, 2048),
            replayed=True,
            cached=True,
        )
        det = shard.deterministic()
        assert det.usage is None and not det.replayed and not det.cached
        assert det.snapshot == shard.snapshot

    def test_usage_measure(self):
        usage = ShardUsage.measure(1.0, 3.5, 0.0)
        assert usage.wall_seconds == 2.5
        assert usage.cpu_seconds >= 0.0
        assert usage.peak_rss_kb > 0  # Linux: ru_maxrss is KB and nonzero
        assert cpu_seconds_now() > 0.0

    def test_merge_telemetry_skips_none(self):
        one = ShardTelemetry(snapshot=RegistrySnapshot.of(_registry_with(counter=2)))
        snap, spans = merge_telemetry([None, one, None, one])
        assert spans == ()
        [record] = [r for r in snap.records if r["name"] == "count"]
        assert record["value"] == 4


# Module-level shard fns (workers unpickle by qualified name).

def _sim_shard(label: str, seed: int) -> int:
    sim = Simulator(seed=seed)
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None, label=label)
    sim.run(10.0)
    return sim.events_processed


def _unpicklable_result(seed: int):
    return lambda: seed


class TestRunnerTelemetry:
    def test_serial_run_collects_telemetry_and_manifest(self, tmp_path):
        runner = CampaignRunner(jobs=1, manifest=str(tmp_path / "m.jsonl"))
        results = runner.run([
            Shard(key=f"s/{i}", fn=_sim_shard, kwargs={"label": f"l{i}"})
            for i in range(3)
        ], campaign="tele-serial", base_seed=5)
        assert results == [3, 3, 3]
        assert len(runner.last_telemetry) == 3
        assert all(t is not None for t in runner.last_telemetry)
        assert all(t.usage is not None for t in runner.last_telemetry)
        assert all(t.events_processed() == 3 for t in runner.last_telemetry)
        events = [r for r in runner.last_snapshot.records
                  if (r["component"], r["name"]) == ("scheduler", "events_processed")
                  and not r.get("labels")]
        assert [r["value"] for r in events] == [9]
        assert runner.last_manifest_path == tmp_path / "m.jsonl"
        loaded = RunManifest.load(runner.last_manifest_path)
        assert loaded.header["campaign"] == "tele-serial"
        assert loaded.header["shards"] == 3
        assert [row.key for row in loaded.shards] == ["s/0", "s/1", "s/2"]
        assert all(row.seed == derive_seed(5, row.key) for row in loaded.shards)
        assert all(row.events == 3 for row in loaded.shards)
        assert all(row.cpu_seconds >= 0.0 for row in loaded.shards)
        assert all(row.peak_rss_kb > 0 for row in loaded.shards)

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_pool_telemetry_identical_to_serial(self, tmp_path):
        def merged(jobs: int) -> RegistrySnapshot:
            runner = CampaignRunner(jobs=jobs, manifest=False)
            runner.run([
                Shard(key=f"s/{i}", fn=_sim_shard, kwargs={"label": f"l{i}"})
                for i in range(4)
            ], campaign="tele-eq", base_seed=5)
            return runner.last_snapshot

        assert merged(1) == merged(4)

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_replayed_flag_reaches_manifest_row(self, tmp_path):
        runner = CampaignRunner(jobs=2, manifest=str(tmp_path / "m.jsonl"))
        runner.run([
            Shard(key="ok", fn=_sim_shard, kwargs={"label": "a"}),
            Shard(key="bad", fn=_unpicklable_result),
        ], campaign="tele-replay", base_seed=0)
        loaded = RunManifest.load(tmp_path / "m.jsonl")
        by_key = {row.key: row for row in loaded.shards}
        assert not by_key["ok"].replayed
        assert by_key["bad"].replayed
        assert loaded.header["replayed_shards"] == 1

    def test_cache_replays_telemetry_byte_identically(self, tmp_path):
        from repro.cache import CampaignCache

        cache = CampaignCache(root=tmp_path / "cache")
        shards = [
            Shard(key=f"s/{i}", fn=_sim_shard, kwargs={"label": f"l{i}"})
            for i in range(3)
        ]
        cold = CampaignRunner(jobs=1, cache=cache, manifest=False)
        cold.run(shards, campaign="tele-cache", base_seed=5)
        warm = CampaignRunner(jobs=1, cache=cache, manifest=False)
        warm.run(shards, campaign="tele-cache", base_seed=5)
        assert warm.completed == 3
        assert all(t is not None and t.cached for t in warm.last_telemetry)
        # the deterministic merged snapshot is byte-identical warm vs cold
        assert warm.last_snapshot == cold.last_snapshot
        # but the warm run's rows carry no usage (nothing executed)
        assert all(t.usage is None for t in warm.last_telemetry)


class TestManifest:
    def _manifest(self, tmp_path, campaign="m-test"):
        runner = CampaignRunner(jobs=1,
                                manifest=str(tmp_path / f"{campaign}.jsonl"))
        runner.run([
            Shard(key=f"s/{i}", fn=_sim_shard, kwargs={"label": f"l{i}"})
            for i in range(2)
        ], campaign=campaign, base_seed=5)
        return runner.last_manifest_path

    def test_round_trip_and_self_diff_empty(self, tmp_path):
        path = self._manifest(tmp_path)
        loaded = RunManifest.load(path)
        diff = diff_manifests(loaded, loaded)
        assert diff.clean
        assert diff.metric_drift == []
        assert diff.attribution_deltas == []
        assert diff.notes == []

    def test_diff_detects_metric_drift(self, tmp_path):
        a = RunManifest.load(self._manifest(tmp_path, "m-a"))
        b = RunManifest.load(self._manifest(tmp_path, "m-b"))
        # same shape, same values -> clean
        assert diff_manifests(a, b).clean
        # perturb one counter record
        perturbed = RunManifest(
            header=b.header,
            metrics=tuple(
                {**r, "value": r["value"] + 1} if r["name"] == "events_processed"
                else r
                for r in b.metrics
            ),
            shards=b.shards,
        )
        diff = diff_manifests(a, perturbed)
        assert not diff.clean
        assert any(d["field"] == "value" for d in diff.metric_drift)

    def test_load_rejects_headerless_file(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"record": "metric", "component": "x"}\n')
        with pytest.raises(ValueError, match="no header"):
            RunManifest.load(bogus)

    def test_load_rejects_newer_schema(self, tmp_path):
        too_new = tmp_path / "new.jsonl"
        too_new.write_text('{"record": "header", "schema": 99}\n')
        with pytest.raises(ValueError, match="newer"):
            RunManifest.load(too_new)

    def test_shard_row_record_round_trip(self):
        row = ShardRow(index=1, key="k", seed=9, cached=True, replayed=True,
                       wall_seconds=1.25, cpu_seconds=1.0, peak_rss_kb=2048,
                       events=17)
        assert ShardRow.from_record(row.to_record()) == row

    def test_default_path_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "mdir"))
        assert manifest_path_for("c") == tmp_path / "mdir" / "c.jsonl"
        monkeypatch.delenv("REPRO_MANIFEST_DIR")
        # falls back next to the campaign cache (isolated by conftest)
        assert "repro-cache" in str(manifest_path_for("c"))

    def test_git_describe_is_best_effort(self):
        assert isinstance(git_describe(), str)
        assert git_describe() != ""


class TestExperimentIntegration:
    """The acceptance criterion, on a small slice: jobs=1 == jobs=4 == warm."""

    LABELS = ["M7", "C2"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_table1_manifest_metrics_identical_across_jobs_and_cache(self, tmp_path):
        from repro.cache import CampaignCache
        from repro.experiments.table1 import run_table1

        def manifest_for(jobs: int, cache, tag: str) -> RunManifest:
            runner = CampaignRunner(
                jobs=jobs, cache=cache, manifest=str(tmp_path / f"{tag}.jsonl"),
            )
            run_table1(labels=self.LABELS, trials=1, seed=7, runner=runner)
            return RunManifest.load(runner.last_manifest_path)

        cache = CampaignCache(root=tmp_path / "cache")
        serial = manifest_for(1, cache, "serial")
        parallel = manifest_for(4, CampaignCache(root=tmp_path / "cache2"),
                                "parallel")
        warm = manifest_for(1, cache, "warm")

        assert serial.metrics == parallel.metrics == warm.metrics
        assert diff_manifests(serial, parallel).clean
        assert diff_manifests(serial, warm).clean
        assert all(row.cached for row in warm.shards)


class TestObserveCli:
    def test_report_and_diff(self, tmp_path, capsys):
        from repro.cli import main

        runner = CampaignRunner(jobs=1, manifest=str(tmp_path / "m.jsonl"))
        runner.run([Shard(key="s/0", fn=_sim_shard, kwargs={"label": "x"})],
                   campaign="cli-test", base_seed=3)

        assert main(["observe", "report", str(tmp_path / "m.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "Per-shard execution" in out

        assert main(["observe", "diff", str(tmp_path / "m.jsonl"),
                     str(tmp_path / "m.jsonl")]) == 0
        assert "zero drift" in capsys.readouterr().out

    def test_diff_exit_code_on_drift(self, tmp_path, capsys):
        from repro.cli import main

        for shards, tag in ((1, "a"), (2, "b")):
            runner = CampaignRunner(jobs=1,
                                    manifest=str(tmp_path / f"{tag}.jsonl"))
            runner.run([
                Shard(key=f"s/{i}", fn=_sim_shard, kwargs={"label": "x"})
                for i in range(shards)
            ], campaign="cli-test", base_seed=3)
        assert main(["observe", "diff", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_campaign_prints_manifest_path(self, capsys):
        from repro.cli import main

        assert main(["--trials", "1", "--labels", "M7", "table1"]) == 0
        out = capsys.readouterr().out
        assert "\nmanifest: " in out

    def test_no_manifest_flag(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "none"))
        assert main(["--trials", "1", "--labels", "M7", "--no-manifest",
                     "table1"]) == 0
        assert "manifest:" not in capsys.readouterr().out
        assert not (tmp_path / "none").exists()


class TestCliManifestPaths:
    """Every campaign a command runs keeps its own manifest."""

    @staticmethod
    def _printed(out: str) -> list[str]:
        return [line.removeprefix("manifest: ") for line in out.splitlines()
                if line.startswith("manifest: ")]

    def test_table3_then_figure3_leave_two_manifests(self, capsys, tmp_path,
                                                     monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        assert main(["table3"]) == 0
        assert self._printed(capsys.readouterr().out) == [str(tmp_path / "table3.jsonl")]
        assert main(["figure3"]) == 0
        assert self._printed(capsys.readouterr().out) == [str(tmp_path / "figure3.jsonl")]
        table3 = RunManifest.load(tmp_path / "table3.jsonl")
        figure3 = RunManifest.load(tmp_path / "figure3.jsonl")
        assert (table3.campaign, table3.header["shards"]) == ("table3", 11)
        assert (figure3.campaign, figure3.header["shards"]) == ("figure3", 4)

    def test_all_keeps_one_default_manifest_per_campaign(self, capsys, tmp_path,
                                                         monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        redirect = tmp_path / "single.jsonl"
        assert main(["--trials", "1", "--manifest", str(redirect), "all"]) == 0
        campaigns = ["table1", "table2", "table3", "figure3", "verification",
                     "cm-ack-timeout", "cm-keepalive-cost", "cm-timestamp"]
        paths = [tmp_path / "manifests" / f"{c}.jsonl" for c in campaigns]
        assert self._printed(capsys.readouterr().out) == [str(p) for p in paths]
        assert not redirect.exists()
        assert sorted((tmp_path / "manifests").iterdir()) == sorted(paths)
        for campaign, path in zip(campaigns, paths):
            assert RunManifest.load(path).campaign == campaign

    def test_manifest_flag_takes_the_first_of_several_campaigns(
            self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        redirect = tmp_path / "single.jsonl"
        assert main(["--manifest", str(redirect), "countermeasures"]) == 0
        assert self._printed(capsys.readouterr().out) == [
            str(redirect),
            str(tmp_path / "manifests" / "cm-keepalive-cost.jsonl"),
            str(tmp_path / "manifests" / "cm-timestamp.jsonl"),
        ]
        assert RunManifest.load(redirect).campaign == "cm-ack-timeout"
