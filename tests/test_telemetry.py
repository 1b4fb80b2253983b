"""Tests for campaign-scale telemetry (``repro.obs.telemetry`` + manifest).

The pipeline's contract has three load-bearing properties:

* **merge is order-free** for everything a campaign reports — counts,
  buckets, extrema, and therefore quantiles — so sharding can never change
  a merged metric (property-tested with hypothesis);
* **worker telemetry survives the pool and the cache** — a shard's
  registry rides back with its result, is cached alongside it, and warm
  runs replay it byte-identically, so ``jobs=1`` == ``jobs=4`` == warm;
* **the manifest round-trips** — write → load → diff-against-self reports
  zero drift, and degraded runs (in-process replays after worker failures)
  are visible in their shard rows.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import subprocess
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
    ShardTelemetry,
    ShardUsage,
    capture,
    cpu_seconds_now,
    harvest_result,
    merge_telemetry,
    register_registry,
)
from repro.parallel.runner import CampaignRunner, Shard, fork_available
from repro.parallel.seeds import derive_seed
from repro.simnet.scheduler import Simulator


def _registry_with(counter: int = 0, gauge: float = 0.0,
                   samples: tuple[float, ...] = ()) -> MetricsRegistry:
    registry = MetricsRegistry()
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
        a, b = MetricsRegistry(), MetricsRegistry()
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
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", "thing").inc()
        b.histogram("c", "thing").observe(1.0)
        with pytest.raises(TypeError):
            a.merge(b)


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
            merged = MetricsRegistry()
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


class TestCapture:
    def test_captures_registries_and_simulators(self):
        with capture() as cap:
            registry = MetricsRegistry()
            register_registry(registry)
            registry.counter("app", "messages").inc(4)
            sim = Simulator(seed=3)
            sim.schedule(1.0, lambda: None)
            sim.run(5.0)
        merged = cap.snapshot()
        assert merged.value("app", "messages") == 4
        assert merged.value("scheduler", "simulations") == 1
        assert merged.value("scheduler", "events_processed") == 1
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
        merged = cap.snapshot()
        assert merged.value("scheduler", "simulations") == 1
        assert merged.value("scheduler", "events_processed") == (2 if observed else 1)
        assert merged.histogram("scheduler", "sim_clock_seconds").max == 5.0
        # An observed simulation's own registry stays on ``sim.obs``.
        assert merged.find("scheduler", "timer_fired") == []

    def test_live_simulator_reported_at_snapshot_time(self):
        with capture() as cap:
            sim = Simulator(seed=3)
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(3.0)
        assert cap.snapshot().value("scheduler", "events_processed") == 2

    def test_parallel_component_excluded(self):
        # Only a registry handed over joins the shard's telemetry: a
        # runner's wall-clock bookkeeping built inside a shard never does.
        with capture() as cap:
            CampaignRunner(jobs=1).registry.counter("parallel", "cache_hits").inc(9)
            registry = MetricsRegistry()
            register_registry(registry)
            registry.counter("app", "ok").inc()
        records = cap.snapshot().snapshot()
        assert [(r["component"], r["name"]) for r in records] == [("app", "ok")]

    def test_innermost_capture_wins(self):
        def handed_over(name: str) -> None:
            registry = MetricsRegistry()
            register_registry(registry)
            registry.counter("app", name).inc()

        with capture() as outer:
            with capture() as inner:
                handed_over("inner")
            handed_over("outer")
        assert [r["name"] for r in inner.snapshot().snapshot()] == ["inner"]
        assert [r["name"] for r in outer.snapshot().snapshot()] == ["outer"]

    def test_no_capture_is_free(self):
        # Registries handed over and simulators built outside a capture
        # must not accumulate anywhere (no global leak).
        from repro.obs import telemetry as t

        assert t._CAPTURES == []
        register_registry(MetricsRegistry())
        assert Simulator()._telemetry_account is None
        assert t._CAPTURES == []


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
        registry = MetricsRegistry()
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
        # A shard's registry crosses the pool and the cache as a pickle.
        with capture() as cap:
            register_registry(_registry_with(counter=2, gauge=2.5, samples=(0.1, 4.2)))
        telemetry = cap.finish(usage=ShardUsage(1.0, 0.9, 1024))
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone.metrics.snapshot() == telemetry.metrics.snapshot()
        assert clone.metrics.value("test", "count") == 2
        assert clone.usage == telemetry.usage

    def test_deterministic_strips_run_specific_state(self):
        shard = ShardTelemetry(
            metrics=_registry_with(counter=1),
            usage=ShardUsage(1.0, 0.5, 2048),
            replayed=True,
            cached=True,
        )
        det = shard.deterministic()
        assert det.usage is None and not det.replayed and not det.cached
        assert det.metrics is shard.metrics

    def test_usage_measure(self):
        usage = ShardUsage.measure(1.0, 3.5, 0.0)
        assert usage.wall_seconds == 2.5
        assert usage.cpu_seconds >= 0.0
        assert usage.peak_rss_kb > 0  # Linux: ru_maxrss is KB and nonzero
        assert cpu_seconds_now() > 0.0

    def test_merge_telemetry_skips_none(self):
        one = ShardTelemetry(metrics=_registry_with(counter=2))
        merged = merge_telemetry([None, one, None, one])
        assert merged.value("test", "count") == 4
        assert one.metrics.value("test", "count") == 2  # shards stay as they were


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
        assert runner.last_metrics.value("scheduler", "events_processed") == 9
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
        def merged(jobs: int) -> list[dict]:
            runner = CampaignRunner(jobs=jobs, manifest=False)
            runner.run([
                Shard(key=f"s/{i}", fn=_sim_shard, kwargs={"label": f"l{i}"})
                for i in range(4)
            ], campaign="tele-eq", base_seed=5)
            return runner.last_metrics.snapshot()

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
        from repro.cache.store import CampaignCache

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
        # the merged metrics are byte-identical warm vs cold
        assert warm.last_metrics.snapshot() == cold.last_metrics.snapshot()
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

    def test_manifest_with_span_and_hot_timer_records_still_loads(self, tmp_path):
        # Manifests once carried ``span`` and ``hot_timers`` records; a
        # file that still holds them loads and diffs clean against itself.
        path = self._manifest(tmp_path)
        current = RunManifest.load(path)
        with open(path, "a") as fh:
            fh.write(json.dumps({"record": "span", "component": "tls",
                                 "name": "handshake", "count": 2,
                                 "total_duration": 0.5}) + "\n")
            fh.write(json.dumps({"record": "hot_timers",
                                 "top": [{"label": "keepalive", "fires": 3}]}) + "\n")
        older = RunManifest.load(path)
        assert older.metrics == current.metrics
        assert older.shards == current.shards
        assert diff_manifests(older, older).clean
        assert diff_manifests(current, older).clean

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

    def test_manifests_ask_git_once_per_process(self, monkeypatch):
        # ``git describe`` costs about 13 ms; the code identity is per process.
        commands = []
        real_run = subprocess.run

        def counting_run(args, *rest, **kwargs):
            commands.append(args[0])
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        git_describe.cache_clear()
        for seed in range(3):
            RunManifest.build("c", seed, 1, MetricsRegistry(), ())
        assert commands == ["git"]


def _digest_manifest_lines(paths) -> str:
    """blake2b-128 of the ``metric`` and ``attribution`` lines, as written."""
    digest = hashlib.blake2b(digest_size=16)
    for path in paths:
        for line in path.read_text().splitlines(keepends=True):
            if json.loads(line)["record"] in ("metric", "attribution"):
                digest.update(line.encode())
    return digest.hexdigest()


def _pinned_campaigns():
    from repro.core.attacks.scenarios import TABLE3_SCENARIOS
    from repro.experiments.breaking_point import run_breaking_point
    from repro.experiments.table3 import run_table3
    from repro.fleet.engine import run_fleet
    from repro.search.planner import run_search

    return {
        "breaking-point": lambda runner: run_breaking_point(
            start_homes=2, max_steps=2, seed=7, runner=runner),
        "fleet": lambda runner: run_fleet(8, seed=7, batch_size=4, runner=runner),
        "search": lambda runner: run_search(4, seed=7, batch_size=2, runner=runner),
        "table3-lossy": lambda runner: run_table3(
            seed=3, scenarios=TABLE3_SCENARIOS[:3], faults="lossy", runner=runner),
    }


class TestManifestPins:
    """The deterministic sections of four small campaigns' manifests.

    Each digest covers the ``metric`` and ``attribution`` lines of every
    manifest the campaign wrote (both ladder steps for the breaking point),
    byte for byte, and holds for every worker count.
    """

    MANIFEST_BLAKE2B = {
        "breaking-point": "0a927208733f42a032c4adf0766250b0",
        "fleet": "afc9b9fc30b346e089092591f0572b28",
        "search": "ff452092f7ab1303b1ec22f1cac54150",
        "table3-lossy": "4d2d8e79144b2e15393075a5bc826372",
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("campaign", sorted(MANIFEST_BLAKE2B))
    def test_metric_and_attribution_lines_pinned(self, campaign, jobs, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        runner = CampaignRunner(jobs=jobs, manifest=True)
        _pinned_campaigns()[campaign](runner)
        assert runner.manifest_paths
        assert (_digest_manifest_lines(runner.manifest_paths)
                == self.MANIFEST_BLAKE2B[campaign])


class TestExperimentIntegration:
    """The acceptance criterion, on a small slice: jobs=1 == jobs=4 == warm."""

    LABELS = ["M7", "C2"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_table1_manifest_metrics_identical_across_jobs_and_cache(self, tmp_path):
        from repro.cache.store import CampaignCache
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
