"""Tests for the content-addressed campaign cache (``repro.cache``).

The cache's contract has three legs:

* **identity** — the logical digest of (fn, kwargs, seed) is pinned, like
  ``derive_seed``: drift silently orphans every existing cache on disk;
* **transparency** — a warm campaign renders byte-identically to the cold
  one for every ``--jobs`` value, with zero live simulations;
* **robustness** — corruption degrades to a miss, a source-tree change
  degrades to stale, and neither ever takes a campaign down.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.keys import canonical, code_fingerprint, digest, qualified_name
from repro.cache import store
from repro.cache.store import CampaignCache, resolve_cache, write_atomically
from repro.faults.profiles import FaultProfile
from repro.obs.metrics import MetricsRegistry
from repro.parallel.runner import CampaignRunner, Shard


# Shard functions must be module-level so the cache can pickle the call
# for later ``verify`` replay.

def _double(value: int, seed: int) -> tuple[int, int]:
    return value * 2, seed


def _with_faults(faults=None, seed: int = 0) -> str:
    profile = faults.name if faults is not None else "ideal"
    return f"{profile}/{seed}"


class TestGoldenDigests:
    def test_logical_digest_never_drifts(self):
        # These exact values are part of the cache-compatibility contract:
        # changing them orphans every cache on disk.  Do not update them to
        # make the test pass.
        from repro.experiments.table1 import profile_label

        cache = CampaignCache(root="/tmp/unused", fingerprint="f" * 32)
        explicit = cache.key_for(
            Shard(key="table1/M7", fn=profile_label,
                  kwargs={"label": "M7", "trials": 1, "catalogue": None}, seed=7),
            base_seed=0,
        )
        assert explicit.logical == "0b8cef8874cc1ac09518b5e5fcd0a646"
        assert explicit.seed == 7
        derived = cache.key_for(
            Shard(key="table1/HS1", fn=profile_label,
                  kwargs={"label": "HS1", "trials": 3, "catalogue": None}),
            base_seed=7,
        )
        assert derived.logical == "e76424ac21da33d9ccb2b6bed57f3cae"
        assert derived.seed == 2803529311351306933

    def test_digest_parts_are_length_prefixed(self):
        # (b"a",) vs (b"a", b"") vs (b"", b"a") must all differ — plain
        # concatenation would collapse them into one key.
        assert len({digest(b"a"), digest(b"a", b""), digest(b"", b"a")}) == 3

    def test_qualified_name(self):
        assert qualified_name(_double).endswith("test_cache._double")


class TestCanonical:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_scalar_types_do_not_collide(self):
        values = [1, 1.0, "1", True, None]
        assert len({canonical(v) for v in values}) == len(values)

    def test_float_uses_repr(self):
        assert canonical(0.1) != canonical(0.1 + 1e-12)

    def test_dataclass_includes_qualname_and_fields(self):
        a = FaultProfile(name="x", loss=0.1)
        b = FaultProfile(name="x", loss=0.2)
        assert canonical(a) != canonical(b)
        assert canonical(a) == canonical(FaultProfile(name="x", loss=0.1))

    def test_faults_spec_and_profile_share_a_key(self):
        # key_for normalises the ``faults`` kwarg through resolve_profile,
        # so the CLI spec string and the equivalent profile hit one entry.
        cache = CampaignCache(root="/tmp/unused", fingerprint="f" * 32)
        spec = cache.key_for(
            Shard(key="k", fn=_with_faults, kwargs={"faults": "loss=0.05"}, seed=1),
            base_seed=0,
        )
        profile = cache.key_for(
            Shard(key="k", fn=_with_faults,
                  kwargs={"faults": FaultProfile(name="custom", loss=0.05)}, seed=1),
            base_seed=0,
        )
        assert spec.logical == profile.logical


class TestStoreRoundtrip:
    def _cache(self, tmp_path, fingerprint="a" * 32) -> CampaignCache:
        return CampaignCache(root=tmp_path / "cache", fingerprint=fingerprint)

    def _shard(self, value: int = 21) -> Shard:
        return Shard(key=f"double/{value}", fn=_double,
                     kwargs={"value": value}, seed=5)

    def test_put_then_get_hits(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(self._shard(), base_seed=0)
        assert not cache.get(key).hit
        cache.put(key, (42, 5), wall_seconds=0.5)
        lookup = cache.get(key)
        assert lookup.hit and lookup.result == (42, 5)

    def test_fingerprint_change_is_stale_then_overwritten(self, tmp_path):
        old = self._cache(tmp_path, fingerprint="a" * 32)
        key = old.key_for(self._shard(), base_seed=0)
        old.put(key, (42, 5), wall_seconds=0.1)
        new = self._cache(tmp_path, fingerprint="b" * 32)
        new_key = new.key_for(self._shard(), base_seed=0)
        assert new_key.logical == key.logical  # code is not in the logical id
        lookup = new.get(new_key)
        assert lookup.stale and not lookup.hit
        new.put(new_key, (42, 5), wall_seconds=0.1)
        assert new.get(new_key).hit
        assert old.get(key).stale  # the one file now belongs to the new tree

    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(self._shard(), base_seed=0)
        cache.put(key, (42, 5), wall_seconds=0.1)
        path = cache.shard_dir / f"{key.logical}.jsonl"
        for garbage in (b"", b"not json\n", b'{"schema": 99}\n{}\n',
                        b'{"schema": 1, "logical": "wrong"}\n{}\n'):
            path.write_bytes(garbage)
            assert cache.get(key).status == "miss"

    def test_stats_and_gc(self, tmp_path):
        cache = self._cache(tmp_path)
        for value in (1, 2, 3):
            shard = self._shard(value)
            cache.put(cache.key_for(shard, base_seed=0), value * 2, wall_seconds=0.2)
        (cache.shard_dir / "deadbeef.jsonl").write_text("torn\n")
        stats = cache.stats()
        assert (stats["entries"], stats["fresh"], stats["corrupt"]) == (4, 3, 1)
        assert stats["replayable_seconds"] == pytest.approx(0.6)
        removed, kept, failed = cache.gc()
        assert (removed, kept, failed) == (1, 3, 0)
        removed, kept, failed = cache.gc(everything=True)
        assert (removed, kept, failed) == (3, 0, 0)
        assert cache.stats()["entries"] == 0

    def test_gc_counts_unremovable_entries_as_failed_not_kept(self, tmp_path,
                                                              monkeypatch):
        # Regression: an entry whose unlink raised used to be reported as
        # deliberately "kept", hiding permission/IO problems from `cache gc`.
        from pathlib import Path

        cache = self._cache(tmp_path)
        for value in (1, 2):
            shard = self._shard(value)
            cache.put(cache.key_for(shard, base_seed=0), value, wall_seconds=0.1)
        stuck = sorted(cache.shard_dir.glob("*.jsonl"))[0]
        real_unlink = Path.unlink

        def flaky_unlink(self, *args, **kwargs):
            if self == stuck:
                raise OSError("simulated EACCES")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", flaky_unlink)
        removed, kept, failed = cache.gc(everything=True)
        assert (removed, kept, failed) == (1, 0, 1)

    def test_verify_replays_the_stored_call(self, tmp_path):
        cache = self._cache(tmp_path)
        shard = self._shard(21)
        key = cache.key_for(shard, base_seed=0)
        cache.put(key, (42, 5), wall_seconds=0.1,
                  call=(_double, {"value": 21, "seed": 5}))
        [outcome] = cache.verify(sample=5)
        assert outcome.ok, outcome.detail

    def test_verify_samples_deterministically_across_all_entries(self, tmp_path):
        # Regression: `verify` used to replay the first `sample` entries in
        # directory order, so a large cache's tail was never checked.  The
        # sample must be (a) reproducible for a given seed and (b) actually
        # drawn across the whole population as the seed varies.
        cache = self._cache(tmp_path)
        for value in range(10):
            shard = self._shard(value)
            cache.put(cache.key_for(shard, base_seed=0), (value * 2, 5),
                      wall_seconds=0.1, call=(_double, {"value": value, "seed": 5}))

        def sampled_keys(seed):
            outcomes = cache.verify(sample=2, seed=seed)
            assert len(outcomes) == 2
            assert all(o.ok for o in outcomes)
            return {o.shard_key for o in outcomes}

        assert sampled_keys(0) == sampled_keys(0)  # deterministic per seed
        coverage = set()
        for seed in range(8):
            coverage |= sampled_keys(seed)
        assert len(coverage) > 2  # not pinned to one fixed prefix

    def test_verify_flags_a_drifted_result(self, tmp_path):
        cache = self._cache(tmp_path)
        key = cache.key_for(self._shard(21), base_seed=0)
        # Stored result disagrees with what the call actually computes.
        cache.put(key, (999, 5), wall_seconds=0.1,
                  call=(_double, {"value": 21, "seed": 5}))
        [outcome] = cache.verify(sample=5)
        assert not outcome.ok and "drifted" in outcome.detail

    def test_resolve_cache_shapes(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        built = resolve_cache(True)
        assert isinstance(built, CampaignCache)
        passthrough = self._cache(tmp_path)
        assert resolve_cache(passthrough) is passthrough

    def test_write_atomically_leaves_old_file_and_no_temp_on_failure(
            self, tmp_path, monkeypatch):
        path = write_atomically(tmp_path / "sub" / "entry.jsonl", "old\n")
        assert path.read_text() == "old\n"

        def boom(*args):
            raise OSError("replace failed")

        monkeypatch.setattr(store.os, "replace", boom)
        with pytest.raises(OSError, match="replace failed"):
            write_atomically(path, "new\n")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["entry.jsonl"]

    def test_code_fingerprint_is_stable_in_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 32


class TestRunnerIntegration:
    def _run(self, tmp_path, registry, fingerprint="a" * 32, jobs=1):
        cache = CampaignCache(root=tmp_path / "cache", fingerprint=fingerprint)
        runner = CampaignRunner(jobs=jobs, registry=registry, cache=cache)
        shards = [Shard(key=f"double/{v}", fn=_double, kwargs={"value": v})
                  for v in (1, 2, 3)]
        return runner.run(shards, campaign="cache-test", base_seed=3), runner

    def test_cold_then_warm_counts_and_results(self, tmp_path):
        cold_reg = MetricsRegistry()
        cold, _ = self._run(tmp_path, cold_reg)
        assert cold_reg.value("parallel", "cache_misses", campaign="cache-test") == 3
        assert cold_reg.value("parallel", "cache_hits", campaign="cache-test") == 0

        warm_reg = MetricsRegistry()
        warm, runner = self._run(tmp_path, warm_reg)
        assert warm == cold
        assert warm_reg.value("parallel", "cache_hits", campaign="cache-test") == 3
        assert warm_reg.value("parallel", "cache_misses", campaign="cache-test") == 0
        # The headline: a warm campaign runs zero live simulations, yet
        # every shard still counts as completed exactly once.
        assert warm_reg.value("parallel", "shards_run_inprocess",
                              campaign="cache-test") == 0
        assert warm_reg.value("parallel", "shards_completed",
                              campaign="cache-test") == 3
        assert "3 hit(s)" in runner.summary()

    def test_source_change_invalidates_via_fingerprint(self, tmp_path):
        cold, _ = self._run(tmp_path, MetricsRegistry(), fingerprint="a" * 32)
        stale_reg = MetricsRegistry()
        results, _ = self._run(tmp_path, stale_reg, fingerprint="b" * 32)
        assert results == cold
        assert stale_reg.value("parallel", "cache_stale", campaign="cache-test") == 3
        assert stale_reg.value("parallel", "cache_hits", campaign="cache-test") == 0
        # The re-run overwrote the entries for the new tree.
        warm_reg = MetricsRegistry()
        self._run(tmp_path, warm_reg, fingerprint="b" * 32)
        assert warm_reg.value("parallel", "cache_hits", campaign="cache-test") == 3

    def test_corrupt_entry_reruns_that_shard_only(self, tmp_path):
        _, runner = self._run(tmp_path, MetricsRegistry())
        victim = runner.cache.key_for(
            Shard(key="double/2", fn=_double, kwargs={"value": 2}), 3
        )
        (runner.cache.shard_dir / f"{victim.logical}.jsonl").write_text("torn")
        reg = MetricsRegistry()
        results, _ = self._run(tmp_path, reg)
        assert results[1][0] == 4
        assert reg.value("parallel", "cache_hits", campaign="cache-test") == 2
        assert reg.value("parallel", "cache_misses", campaign="cache-test") == 1


class TestWarmColdEquivalence:
    """The acceptance property: warm output is byte-identical to cold for
    any ``--jobs`` value, with zero live simulations on the warm run."""

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jobs=st.sampled_from([1, 2, 4, 8]))
    def test_table1_warm_equals_cold_for_any_jobs(self, tmp_path, jobs):
        from repro.experiments.table1 import render_table1, run_table1

        cache_root = tmp_path / "cache"  # shared across hypothesis examples
        cache = CampaignCache(root=cache_root)
        cold = render_table1(run_table1(labels=["M7"], trials=1, seed=7,
                                        runner=CampaignRunner(jobs=1, cache=cache)))
        registry = MetricsRegistry()
        runner = CampaignRunner(jobs=jobs, registry=registry, cache=cache)
        from repro.experiments.table1 import profile_label

        warm = render_table1(runner.run([
            Shard(key="table1/M7", fn=profile_label,
                  kwargs={"label": "M7", "trials": 1}, seed=7)
        ], campaign="table1", base_seed=7))
        assert warm == cold
        assert registry.value("parallel", "cache_hits", campaign="table1") == 1
        assert registry.value("parallel", "shards_run_inprocess", campaign="table1") == 0


class TestCacheCli:
    def test_cli_warm_run_is_byte_identical(self, capsys):
        from repro.cli import main

        argv = ["--trials", "1", "--labels", "M7", "table1"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_cache_stats_verify_gc(self, capsys):
        from repro.cli import main

        assert main(["--trials", "1", "--labels", "M7", "table1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "fingerprint" in out
        assert main(["cache", "verify", "--sample", "1"]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["cache", "gc", "--all"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0

    def test_no_cache_flag_disables_lookup(self, capsys):
        from repro.cli import main

        assert main(["--no-cache", "--trials", "1", "--labels", "M7", "table1"]) == 0
        capsys.readouterr()
        # Nothing was written: the run never touched the cache.
        assert CampaignCache().stats()["entries"] == 0

    def test_provenance_line_is_plain_json(self, capsys):
        from repro.cli import main

        assert main(["--trials", "1", "--labels", "M7", "table1"]) == 0
        capsys.readouterr()
        [entry] = sorted(CampaignCache().shard_dir.glob("*.jsonl"))
        with open(entry) as fh:
            provenance = json.loads(fh.readline())
        assert provenance["fn"] == "repro.experiments.table1.profile_label"
        assert provenance["shard_key"] == "table1/M7"
        assert provenance["fingerprint"] == code_fingerprint()
