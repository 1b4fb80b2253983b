"""Tests for the sharded campaign runner (``repro.parallel``).

The runner's contract is determinism: a campaign sharded across N worker
processes must render byte-identically to the same campaign run serially.
These tests pin the seed-derivation function (values must never drift — a
drift silently changes every derived-seed campaign), exercise the runner's
ordering/progress/fallback behaviour, and prove serial == parallel on a
real Table I subset.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cache.store import CampaignCache
from repro.parallel.runner import (
    JOBS_CAP,
    CampaignCancelled,
    CampaignRunner,
    Shard,
    SharedWorkerPool,
    fork_available,
    resolve_jobs,
)
from repro.parallel.seeds import derive_seed


class TestDeriveSeed:
    def test_pinned_values_never_drift(self):
        # These exact values are part of the reproducibility contract:
        # any campaign that relies on derived seeds replays byte-identically
        # only while these hold.  Do not update them to make the test pass.
        assert derive_seed(0, "a") == 2962476648899723354
        assert derive_seed(1, "a") == 951889089193931511
        assert derive_seed(0, "b") == 2455393401910235455
        assert derive_seed(7, "table1/HS1") == 2803529311351306933
        assert derive_seed(7, "table1/C2") == 6948489930538022564

    def test_fleet_namespace_pins_never_drift(self):
        # The fleet engine seeds home i from the ``fleet/<home-index>``
        # namespace; these pins guarantee every previously sampled fleet
        # replays byte-identically.  Do not update them to make the test
        # pass — bump the fleet SPEC_SCHEMA instead.
        assert derive_seed(0, "fleet/0") == 5706399973494835688
        assert derive_seed(0, "fleet/1") == 6658469710963336721
        assert derive_seed(0, "fleet/2") == 791601933851559249
        assert derive_seed(0, "fleet/63") == 2626018286476806942
        assert derive_seed(7, "fleet/0") == 3932195172573457893

    def test_stable_across_calls(self):
        assert derive_seed(42, "x/y") == derive_seed(42, "x/y")

    def test_distinct_across_keys_and_bases(self):
        seeds = {derive_seed(base, key)
                 for base in range(4)
                 for key in ("table1/HS1", "table1/HS2", "table3/case1")}
        assert len(seeds) == 12

    def test_range_is_63_bit(self):
        for i in range(200):
            seed = derive_seed(i, f"shard/{i}")
            assert 0 <= seed < 2**63

    def test_key_delimiter_prevents_collisions(self):
        # base=1, key="2x" must differ from base=12, key="x".
        assert derive_seed(1, "2x") != derive_seed(12, "x")


class TestResolveJobs:
    def test_explicit_value_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_capped_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == min(os.cpu_count() or 1, JOBS_CAP)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_non_integer_env_gets_actionable_error(self, monkeypatch):
        # A bare int() ValueError ("invalid literal...") never mentioned the
        # variable; the message must say what to fix.
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'many'"):
            resolve_jobs(None)


# Shard functions must be module-level so worker processes can unpickle
# them by qualified name.

def _echo_shard(name: str, seed: int) -> tuple[str, int]:
    return name, seed


def _slow_then_fast(name: str, delay: float, seed: int) -> str:
    time.sleep(delay)
    return name

def _no_seed_shard(value: int) -> int:
    return value * 2


def _pid_shard(seed: int) -> int:
    return os.getpid()


def _failing_shard(seed: int) -> None:
    raise ValueError(f"shard blew up (seed={seed})")


def _unpicklable_result(seed: int):
    # Completes fine in the worker, but the result cannot cross the process
    # boundary — the classic infrastructure failure the replay path heals.
    return lambda: seed


class TestCampaignRunner:
    def test_results_in_shard_order_not_completion_order(self):
        # The first shard sleeps longest; with a pool it completes last,
        # but the merge must still put it first.
        shards = [
            Shard(key=f"s/{i}", fn=_slow_then_fast,
                  kwargs={"name": f"r{i}", "delay": 0.05 * (3 - i)}, seed=i)
            for i in range(4)
        ]
        runner = CampaignRunner(jobs=4)
        assert runner.run(shards, campaign="order-test", base_seed=0) == [
            "r0", "r1", "r2", "r3"]

    def test_zero_shard_campaign_progress_line(self):
        # Regression: an empty campaign (e.g. a zero-home fleet) must not
        # divide by zero anywhere in the progress/summary path.
        runner = CampaignRunner(jobs=1, manifest=False)
        assert runner.run([], campaign="empty", base_seed=0) == []
        line = runner.render_progress()
        assert line.startswith("empty: 0/0 shard(s)")
        assert "%" not in line  # no percentage without a denominator
        assert "empty" in runner.summary()

    def test_progress_line_percentage(self):
        runner = CampaignRunner(jobs=1, manifest=False)
        shards = [Shard(key=f"s/{i}", fn=_echo_shard, kwargs={"name": f"r{i}"}, seed=i)
                  for i in range(4)]
        runner.run(shards, campaign="pct", base_seed=0)
        assert "4/4 shard(s) (100%)" in runner.render_progress()

    def test_serial_path_preserves_order(self):
        shards = [Shard(key=f"s/{i}", fn=_echo_shard, kwargs={"name": f"r{i}"}, seed=i)
                  for i in range(3)]
        runner = CampaignRunner(jobs=1)
        assert [name for name, _ in runner.run(shards, base_seed=9)] == [
            "r0", "r1", "r2"]

    def test_explicit_seed_passed_verbatim(self):
        runner = CampaignRunner(jobs=1)
        [(_, seed)] = runner.run(
            [Shard(key="k", fn=_echo_shard, kwargs={"name": "n"}, seed=777)],
            base_seed=0,
        )
        assert seed == 777

    def test_unseeded_shard_is_called_without_seed(self):
        runner = CampaignRunner(jobs=1)
        assert runner.run(
            [Shard(key="k", fn=_no_seed_shard, kwargs={"value": 21})], base_seed=7
        ) == [42]

    def test_empty_campaign(self):
        assert CampaignRunner(jobs=2).run([]) == []

    def test_progress_counters(self):
        runner = CampaignRunner(jobs=1)
        runner.run([Shard(key=f"s/{i}", fn=_echo_shard, kwargs={"name": "n"}, seed=i)
                    for i in range(3)], campaign="metrics-test")
        assert runner.completed == 3
        assert [row.index for row in runner.last_shard_rows] == [0, 1, 2]
        assert runner.last_wall_seconds > 0.0
        assert "metrics-test" in runner.summary()

    def test_one_runner_carries_two_campaigns(self, tmp_path, monkeypatch):
        # The campaign and base seed belong to a run, not to the runner:
        # each run writes its own manifest and keeps its own shard rows.
        from repro.obs.manifest import RunManifest

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        runner = CampaignRunner(jobs=1)
        shards = [Shard(key=f"s/{i}", fn=_echo_shard, kwargs={"name": f"r{i}"}, seed=i)
                  for i in range(3)]
        first = runner.run(shards, campaign="alpha", base_seed=1)
        second = runner.run(shards[:2], campaign="beta", base_seed=2)
        assert first == [("r0", 0), ("r1", 1), ("r2", 2)]
        assert second == first[:2]
        assert runner.completed == 2  # the last run's rows only
        assert runner.manifest_paths == [tmp_path / "alpha.jsonl",
                                         tmp_path / "beta.jsonl"]
        assert runner.last_manifest_path == tmp_path / "beta.jsonl"
        for campaign, seed, count in (("alpha", 1, 3), ("beta", 2, 2)):
            manifest = RunManifest.load(tmp_path / f"{campaign}.jsonl")
            assert manifest.campaign == campaign
            assert (manifest.header["seed"], manifest.header["shards"]) == (seed, count)
            assert [(row.key, row.seed) for row in manifest.shards] == [
                (f"s/{i}", i) for i in range(count)]

    def test_explicit_manifest_path_holds_only_the_first_campaign(
            self, tmp_path, monkeypatch):
        from repro.obs.manifest import RunManifest

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "default"))
        explicit = tmp_path / "explicit.jsonl"
        runner = CampaignRunner(jobs=1, manifest=explicit)
        shards = [Shard(key=f"s/{i}", fn=_echo_shard, kwargs={"name": f"r{i}"}, seed=i)
                  for i in range(2)]
        runner.run(shards, campaign="alpha", base_seed=1)
        runner.run(shards, campaign="beta", base_seed=2)
        assert runner.manifest_paths == [explicit,
                                         tmp_path / "default" / "beta.jsonl"]
        assert RunManifest.load(explicit).campaign == "alpha"
        assert RunManifest.load(runner.manifest_paths[1]).campaign == "beta"

    def test_no_fork_falls_back_inprocess(self, monkeypatch):
        import repro.parallel.runner as runner_mod

        monkeypatch.setattr(runner_mod, "fork_available", lambda: False)
        runner = CampaignRunner(jobs=4)
        shards = [Shard(key=f"s/{i}", fn=_pid_shard, seed=i) for i in range(3)]
        assert runner.run(shards, campaign="fallback") == [os.getpid()] * 3
        assert not any(row.replayed for row in runner.last_shard_rows)

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_replayed_shard_books_exactly_once(self):
        # Regression: a pool failure that is healed by the in-process replay
        # must count the shard once — as replayed — not once in the pool
        # *and* once in-process, or completed drifts past total.
        runner = CampaignRunner(jobs=2)
        shards = [
            Shard(key="ok", fn=_echo_shard, kwargs={"name": "fine"}, seed=1),
            Shard(key="bad", fn=_unpicklable_result, seed=2),
        ]
        results = runner.run(shards, campaign="replay")
        assert results[0] == ("fine", 1)
        assert callable(results[1])  # healed: the replay ran in-process
        assert runner.completed == 2
        assert [(row.key, row.replayed) for row in runner.last_shard_rows] == [
            ("ok", False), ("bad", True)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_replay_of_unpicklable_result_survives_cache_store(self, tmp_path):
        # Regression: with a cache attached, a pool failure healed by the
        # in-process replay used to die *after* completing — the outcomes
        # loop handed the healed (unpicklable) result to cache.put, and
        # pickle's error killed the run.  The store must degrade to a
        # put failure on the shard's manifest row instead, and the shard
        # must still book once.
        from repro.obs.manifest import RunManifest

        cache = CampaignCache(root=tmp_path / "cache")
        runner = CampaignRunner(jobs=2, cache=cache,
                                manifest=tmp_path / "cold.jsonl")
        shards = [
            Shard(key="ok", fn=_echo_shard, kwargs={"name": "fine"}, seed=1),
            Shard(key="bad", fn=_unpicklable_result, seed=2),
        ]
        results = runner.run(shards, campaign="putfail")
        assert results[0] == ("fine", 1)
        assert callable(results[1])  # healed in-process, result intact
        assert runner.completed == 2
        cold = RunManifest.load(tmp_path / "cold.jsonl")
        assert [(row.replayed, row.stored) for row in cold.shards] == [
            (False, True), (True, False)]

        # The unstorable shard must not have poisoned the cache: a warm
        # runner hits the good shard and quietly re-runs the bad one.
        runner2 = CampaignRunner(jobs=2, cache=cache,
                                 manifest=tmp_path / "warm.jsonl")
        results2 = runner2.run(shards, campaign="putfail")
        assert results2[0] == results[0]
        assert callable(results2[1])
        assert (runner2.cache_hits, runner2.cache_misses) == (1, 1)
        assert runner2.completed == 2
        warm = RunManifest.load(tmp_path / "warm.jsonl")
        assert [(row.cached, row.stored) for row in warm.shards] == [
            (True, True), (False, False)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_cache_hit_then_replay_books_once(self, tmp_path):
        # A cache hit, a pool completion and a pool failure's replay in one
        # run: each shard books exactly once, as what it was.
        shards = [
            Shard(key="hit", fn=_echo_shard, kwargs={"name": "h"}, seed=1),
            Shard(key="pool", fn=_echo_shard, kwargs={"name": "p"}, seed=2),
            Shard(key="bad", fn=_unpicklable_result, seed=3),
        ]
        CampaignRunner(jobs=1, cache=CampaignCache(root=tmp_path),
                       manifest=False).run(shards[:1], campaign="guard")
        runner = CampaignRunner(jobs=2, cache=CampaignCache(root=tmp_path),
                                manifest=False)
        runner.run(shards, campaign="guard")
        assert (runner.completed, runner.cache_hits) == (3, 1)
        assert [(row.cached, row.replayed) for row in runner.last_shard_rows] == [
            (True, False), (False, False), (False, True)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_failing_shard_reraises_with_original_error(self):
        runner = CampaignRunner(jobs=2)
        shards = [
            Shard(key="ok", fn=_echo_shard, kwargs={"name": "fine"}, seed=1),
            Shard(key="bad", fn=_failing_shard, seed=2),
        ]
        with pytest.raises(ValueError, match="shard blew up"):
            runner.run(shards, campaign="failure-test")


class TestSerialParallelEquivalence:
    """The headline guarantee: ``--jobs N`` never changes a single value."""

    LABELS = ["HS1", "C2", "M7", "HS3"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_table1_rows_identical(self):
        from repro.experiments.table1 import render_table1, run_table1

        serial = run_table1(labels=self.LABELS, trials=3,
                            runner=CampaignRunner(jobs=1))
        parallel = run_table1(labels=self.LABELS, trials=3,
                              runner=CampaignRunner(jobs=4))
        assert [r.profile.label for r in parallel] == self.LABELS
        assert render_table1(parallel) == render_table1(serial)
        for s_row, p_row in zip(serial, parallel):
            assert s_row.measured_event_window == p_row.measured_event_window
            assert s_row.measured_command_window == p_row.measured_command_window

    def test_ablation_jobs_kwarg_accepted_serially(self):
        # The sweep drivers take a caller-built runner; a jobs=1 runner must
        # stay the plain in-process path (no pool spin-up inside unit tests).
        from repro.experiments.ablations import run_forged_ack_ablation

        rows = run_forged_ack_ablation(seed=71, runner=CampaignRunner(jobs=1))
        assert {row.forge_acks for row in rows} == {True, False}


def _touch_and_echo(path: str, seed: int) -> int:
    from pathlib import Path

    Path(path).touch()
    return seed % 97


def _wait_for_file(path: str, seed: int, timeout: float = 20.0) -> int:
    from pathlib import Path

    deadline = time.monotonic() + timeout
    target = Path(path)
    while not target.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"release file {path} never appeared")
        time.sleep(0.02)
    return seed % 97


class TestCancellation:
    """Cooperative cancellation: stop between shards, keep the cache whole."""

    def _shards(self, n=3):
        return [Shard(key=f"c/{i}", fn=_echo_shard, kwargs={"name": f"r{i}"}, seed=i)
                for i in range(n)]

    def test_preset_event_cancels_before_any_shard(self, tmp_path):
        import threading

        stop = threading.Event()
        stop.set()
        cache = CampaignCache(root=tmp_path / "cache", fingerprint="a" * 32)
        runner = CampaignRunner(jobs=1, cache=cache, manifest=False,
                                cancel=stop)
        with pytest.raises(CampaignCancelled) as err:
            runner.run(self._shards(), campaign="cancel-now")
        assert (err.value.done, err.value.total) == (0, 3)
        assert cache.stats()["entries"] == 0

    def test_serial_cancel_after_first_shard_keeps_cache_consistent(self, tmp_path):
        # Cancel as soon as the first shard books; the completed shard must
        # be stored (atomic entries only) so a resubmission resumes from it.
        cache = CampaignCache(root=tmp_path / "cache", fingerprint="a" * 32)
        seen = {"done": 0}

        def on_progress(done, total):
            seen["done"] = done

        runner = CampaignRunner(
            jobs=1, cache=cache, manifest=False,
            cancel=lambda: seen["done"] >= 1, on_progress=on_progress,
        )
        with pytest.raises(CampaignCancelled) as err:
            runner.run(self._shards(), campaign="cancel-mid", base_seed=3)
        assert (err.value.done, err.value.total) == (1, 3)
        assert cache.stats()["entries"] == 1

        resumed = CampaignRunner(jobs=1, cache=cache, manifest=False)
        results = resumed.run(self._shards(), campaign="cancel-mid", base_seed=3)
        assert results == [("r0", 0), ("r1", 1), ("r2", 2)]
        assert resumed.cache_hits == 1

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_pool_cancel_revokes_pending_and_stores_completed(self, tmp_path):
        # Pool mode: shard 0 drops a marker; the cancel check fires once the
        # marker exists, and the runner must revoke the still-queued shards
        # while caching everything that completed.  The blockers are released
        # only once the pool shows a revoked future: released any earlier,
        # the workers could drain the whole backlog through the executor's
        # call queue before the runner revokes it.
        import threading

        class RecordingPool(SharedWorkerPool):
            def __init__(self, jobs: int) -> None:
                super().__init__(jobs)
                self.futures = []

            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                self.futures.append(future)
                return future

        cache = CampaignCache(root=tmp_path / "cache", fingerprint="a" * 32)
        pool = RecordingPool(2)
        marker = tmp_path / "first-done"
        release = tmp_path / "release"
        ran_last = tmp_path / "ran-last"
        releasers: list[threading.Thread] = []

        def release_after_revocation() -> None:
            deadline = time.monotonic() + 20.0
            while (not any(future.cancelled() for future in pool.futures)
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            release.touch()

        def cancel() -> bool:
            if not marker.exists():
                return False
            if not releasers:
                releasers.append(threading.Thread(
                    target=release_after_revocation, daemon=True))
                releasers[0].start()
            return True

        shards = [
            Shard(key="p/0", fn=_touch_and_echo, kwargs={"path": str(marker)}, seed=0),
            Shard(key="p/1", fn=_wait_for_file, kwargs={"path": str(release)}, seed=1),
            Shard(key="p/2", fn=_wait_for_file, kwargs={"path": str(release)}, seed=2),
        ] + [
            Shard(key=f"p/{i}", fn=_touch_and_echo,
                  kwargs={"path": str(ran_last)}, seed=i)
            for i in range(3, 10)
        ]
        runner = CampaignRunner(jobs=2, cache=cache, manifest=False,
                                cancel=cancel, pool=pool)
        try:
            with pytest.raises(CampaignCancelled) as err:
                runner.run(shards, campaign="cancel-pool", base_seed=0)
        finally:
            pool.shutdown()
        assert len(releasers) == 1
        releasers[0].join(timeout=30.0)
        assert not releasers[0].is_alive()
        # Shard 0 always completes.  The executor may have prefetched a few
        # of the tail shards into its call queue (those are uncancellable),
        # but the backlog beyond the prefetch window must have been revoked
        # — and every shard that did complete must be cached.
        assert 1 <= err.value.done < len(shards)
        assert cache.stats()["entries"] == err.value.done
        warm = CampaignRunner(jobs=1, cache=cache, manifest=False)
        release.touch()
        assert len(warm.run(shards, campaign="cancel-pool", base_seed=0)) == len(shards)

    def test_on_progress_reports_each_booked_shard(self):
        calls = []
        runner = CampaignRunner(jobs=1, manifest=False,
                                on_progress=lambda d, t: calls.append((d, t)))
        runner.run(self._shards(), campaign="progress-hook")
        assert calls == [(1, 3), (2, 3), (3, 3)]


class TestSharedWorkerPool:
    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_two_runners_share_one_executor(self):
        pool = SharedWorkerPool(jobs=2)
        try:
            pool.prewarm()
            executor = pool.executor()
            assert pool.executor() is executor  # reused, not rebuilt
            shards = [
                Shard(key=f"s/{i}", fn=_echo_shard, kwargs={"name": f"r{i}"}, seed=i)
                for i in range(3)
            ]
            first = CampaignRunner(jobs=2, manifest=False, pool=pool)
            second = CampaignRunner(jobs=2, manifest=False, pool=pool)
            assert (first.run(shards, campaign="pool-a")
                    == second.run(shards, campaign="pool-b"))
            assert pool.executor() is executor  # survived both campaigns
        finally:
            pool.shutdown()

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_a_killed_worker_heals_on_the_next_campaign(self):
        # One worker killed under a shared pool breaks its executor for
        # good; the next submit replaces it, so every later campaign runs
        # on the pool again instead of failing.
        pool = SharedWorkerPool(jobs=2)
        try:
            pool.prewarm()
            broken = pool.executor()
            os.kill(next(iter(broken._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while not broken._broken:
                assert time.monotonic() < deadline, "executor never broke"
                time.sleep(0.01)
            shards = [Shard(key=f"d/{i}", fn=_no_seed_shard, kwargs={"value": i})
                      for i in range(4)]
            for _ in range(2):
                runner = CampaignRunner(jobs=2, manifest=False, pool=pool)
                assert runner.run(shards, campaign="healed") == [0, 2, 4, 6]
                assert not any(row.replayed for row in runner.last_shard_rows)
            assert pool.rebuilds == 1
            assert pool.executor() is not broken
        finally:
            pool.shutdown()


class TestProgressTick:
    def test_tick_renders_exactly_once(self):
        # Regression: the tick used to call render_progress() twice (once to
        # write, once to measure), doubling the work per repaint and letting
        # a counter bumped between the calls mis-pad the line.
        import io

        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        runner = CampaignRunner(jobs=1, manifest=False)
        runner._progress_stream = lambda: stream
        renders = {"count": 0}
        real_render = runner.render_progress

        def counting_render():
            renders["count"] += 1
            return real_render()

        runner.render_progress = counting_render
        runner._progress_tick(force=True)
        assert renders["count"] == 1
        assert stream.getvalue().startswith("\r")
