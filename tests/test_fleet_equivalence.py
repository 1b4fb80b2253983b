"""Differential fleet equivalence: fleet-of-K == K independent simulations.

The fleet engine's whole determinism claim is that batching, worker count,
and cache state are invisible: home *i* of a fleet behaves byte-identically
to a :class:`SmartHomeTestbed` built by hand from the same derived seed.
This suite checks the claim differentially — every fleet digest against the
same home run on its own, across ``jobs in {1, 2, 4}``, odd batch
partitions, and cold vs warm cache — and pins one fleet's digest, which
the differential checks cannot see move.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet.engine import run_fleet, run_home
from repro.fleet.sampler import FleetSampler
from repro.parallel.runner import CampaignRunner


def independent_digests(seed: int, homes: int) -> tuple[str, ...]:
    """K homes sampled and run one at a time, with no batching, campaign
    runner or cache involved.

    Both sides of the comparison run each home through ``run_home``, so a
    change to ``drive_home`` moves them together; the golden pins below
    are what catch that.
    """
    sampler = FleetSampler(seed)
    return tuple(run_home(sampler.sample(i)).digest for i in range(homes))


class TestFleetEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           homes=st.integers(min_value=1, max_value=4))
    def test_fleet_matches_independent_sims(self, jobs, seed, homes):
        report = run_fleet(homes, seed=seed, batch_size=2,
                           runner=CampaignRunner(jobs=jobs, manifest=False))
        assert report.homes == homes
        assert report.digests == independent_digests(seed, homes)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_batch_partition_is_invisible(self, jobs):
        expected = independent_digests(11, 6)
        for batch_size in (1, 2, 5, 16):
            report = run_fleet(6, seed=11, batch_size=batch_size,
                               runner=CampaignRunner(jobs=jobs, manifest=False))
            assert report.digests == expected, f"batch_size={batch_size}"

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_warm_cache_replays_identically(self, jobs):
        # conftest points REPRO_CACHE_DIR at tmp_path, so cache=True here
        # is a genuinely cold cache the first time around.
        cold = run_fleet(5, seed=23, batch_size=2, runner=CampaignRunner(
            jobs=jobs, cache=True, manifest=False))
        warm = run_fleet(5, seed=23, batch_size=2, runner=CampaignRunner(
            jobs=1, cache=True, manifest=False))
        assert warm.digests == cold.digests
        assert warm.fleet_digest == cold.fleet_digest
        assert warm.digests == independent_digests(23, 5)

    def test_cache_is_actually_hit_on_replay(self):
        cold = run_fleet(4, seed=9, batch_size=2, runner=CampaignRunner(
            jobs=1, cache=True, manifest=False))
        replay = CampaignRunner(jobs=1, cache=True, manifest=False)
        warm = run_fleet(4, seed=9, batch_size=2, runner=replay)
        assert warm.digests == cold.digests
        assert replay.cache_hits == 2  # both batches replayed

    def test_row_metadata_matches_specs(self):
        report = run_fleet(6, seed=4, runner=CampaignRunner(jobs=1, manifest=False))
        sampler = FleetSampler(4)
        for row in report.rows:
            spec = sampler.sample(row.home_index)
            assert row.seed == spec.seed
            assert row.attacker == spec.attacker
            assert row.fault_profile == spec.fault_profile
            assert row.rules == len(spec.rules)

    def test_streaming_drops_rows_but_keeps_digests(self, tmp_path):
        import json

        path = tmp_path / "rows.jsonl"
        kept = run_fleet(4, seed=2, runner=CampaignRunner(jobs=1, manifest=False))
        streamed = run_fleet(4, seed=2, runner=CampaignRunner(jobs=1, manifest=False),
                             keep_rows=False, stream_to=path)
        assert streamed.rows == ()
        assert streamed.digests == kept.digests
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["digest"] for r in rows] == list(kept.digests)

    def test_empty_fleet(self):
        report = run_fleet(0, seed=0, runner=CampaignRunner(jobs=1, manifest=False))
        assert report.homes == 0
        assert report.digests == ()
        assert report.success_rate == 1.0

    def test_run_home_accepts_spec_dicts(self):
        # Shards carry specs as plain dicts; the dict path must land on
        # the exact same digest as the object path.
        spec = FleetSampler(0).sample(1)
        assert run_home(spec.to_dict()).digest == run_home(spec).digest

    def test_runner_rejects_nonsense_sizes(self):
        with pytest.raises(ValueError, match="fleet size"):
            run_fleet(-1)
        with pytest.raises(ValueError, match="batch size"):
            run_fleet(4, batch_size=0)


class TestGoldenDigests:
    """What a fleet simulates, pinned.

    The equivalence tests above compare the engine with itself; these pins
    catch a change that moves every home at once.  Do not update them to
    make the test pass: drift means the sampler, ``drive_home`` or the
    simulation changed observable behaviour.
    """

    def test_fleet_digest_pin(self):
        report = run_fleet(64, seed=7, runner=CampaignRunner(jobs=1, manifest=False))
        assert report.completed == 64
        assert report.fleet_digest == "dbb036a3c95144fd41a7563f2b8922ae"


class TestFleetCli:
    def test_fleet_run_digests_stable_across_jobs(self, capsys, tmp_path):
        from repro.cli import main

        outs = []
        for jobs in ("1", "2"):
            assert main([
                "--seed", "7", "--jobs", jobs, "--no-cache", "--no-manifest",
                "fleet", "run", "--homes", "4", "--digests",
            ]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "fleet digest:" in outs[0]
        assert outs[0].count("home ") == 4

    def test_syn_ack_after_close_does_not_abort_the_fleet(self, capsys):
        # A home on this seed closes a connection still in SYN_SENT and
        # then receives the late SYN-ACK; that used to raise out of the
        # whole fleet ("cannot send after close()").
        from repro.cli import main

        assert main([
            "--seed", "2156272379", "--jobs", "1", "--no-cache",
            "--no-manifest", "fleet", "--homes", "64", "--digests",
        ]) == 0
        assert "fleet: 64 home(s), 64 completed" in capsys.readouterr().out

    def test_fleet_run_streams_rows(self, capsys, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "rows.jsonl"
        assert main([
            "--seed", "7", "--no-cache", "--no-manifest",
            "fleet", "run", "--homes", "3", "--stream", str(path),
        ]) == 0
        capsys.readouterr()
        assert len([json.loads(l) for l in path.read_text().splitlines()]) == 3

    def test_fleet_spec_action_is_deterministic(self, capsys):
        import json

        from repro.cli import main

        outs = []
        for _ in range(2):
            assert main(["--seed", "7", "fleet", "spec", "--homes", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        records = [json.loads(line) for line in outs[0].splitlines()]
        assert [r["home_index"] for r in records] == [0, 1, 2]
        assert all("digest" in r and "rules" in r for r in records)
