"""Determinism of the search pipeline and the witness shrinker.

The corpus a search emits is a reproducibility artefact: it must be
byte-identical for every ``--jobs`` value, every batch partition, and a
warm-cache replay — the same contract the fleet engine's equivalence
suite pins, extended to the full generate/plan/shrink/write pipeline.
The shrinker itself is deterministic and monotone: it never returns a
longer schedule than it was given, and every accepted or rejected step
is one full re-verification run.
"""

from __future__ import annotations

import pytest

from repro.cache.store import CampaignCache
from repro.parallel.runner import CampaignRunner
from repro.search.planner import candidate_schedules, plan_program, run_search, shrink
from repro.search.table3 import table3_spec
from repro.search import planner as planner_mod
from repro.search.engine import run_program
from repro.search.generator import RuleSetGenerator
from repro.search.oracles import classify, primary_class


def _corpus_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in directory.glob("case-*.jsonl")
    }


class TestCorpusDeterminism:
    PROGRAMS = 12

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus-ref")
        report = run_search(self.PROGRAMS, seed=0, corpus_dir=out,
                            runner=CampaignRunner(jobs=1, manifest=False))
        assert report.hits, "the reference search must find something"
        return report, _corpus_bytes(out)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_do_not_change_the_corpus(self, reference, tmp_path, jobs):
        report, files = reference
        parallel = run_search(self.PROGRAMS, seed=0, corpus_dir=tmp_path,
                              runner=CampaignRunner(jobs=jobs, manifest=False))
        assert parallel.corpus_digest == report.corpus_digest
        assert _corpus_bytes(tmp_path) == files

    @pytest.mark.parametrize("batch_size", [1, 5, 12])
    def test_batch_partition_does_not_change_the_corpus(
            self, reference, tmp_path, batch_size):
        # The partition changes every shard key; the corpus must not care.
        report, files = reference
        other = run_search(self.PROGRAMS, seed=0, batch_size=batch_size,
                           corpus_dir=tmp_path,
                           runner=CampaignRunner(jobs=1, manifest=False))
        assert other.corpus_digest == report.corpus_digest
        assert _corpus_bytes(tmp_path) == files

    def test_warm_cache_replays_byte_identically(self, reference, tmp_path):
        report, files = reference
        cache = CampaignCache(root=tmp_path / "cache")
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        cold = run_search(self.PROGRAMS, seed=0, corpus_dir=cold_dir, runner=CampaignRunner(
            jobs=1, cache=cache, manifest=False))
        warm = run_search(self.PROGRAMS, seed=0, corpus_dir=warm_dir, runner=CampaignRunner(
            jobs=1, cache=cache, manifest=False))
        assert cold.corpus_digest == warm.corpus_digest == report.corpus_digest
        assert _corpus_bytes(cold_dir) == _corpus_bytes(warm_dir) == files
        assert "hit" in warm.runner_summary  # the replay actually hit


class TestShrinker:
    @pytest.fixture(scope="class")
    def sample(self):
        """A violating (spec, schedule, class, baseline) quadruple."""
        spec = table3_spec(5)
        baseline = run_program(spec)
        for schedule in candidate_schedules(spec):
            attacked = run_program(spec, schedule)
            violations = classify(baseline, attacked)
            if violations and not attacked.invariant_violations:
                return spec, schedule, primary_class(violations), baseline
        raise AssertionError("no violating candidate for case 5")

    def test_shrink_never_lengthens(self, sample):
        spec, schedule, violation, baseline = sample
        witness, steps = shrink(spec, schedule, violation, baseline)
        assert len(witness) <= len(schedule)
        assert len(witness) >= 1
        assert steps >= 1

    def test_shrink_is_deterministic(self, sample):
        spec, schedule, violation, baseline = sample
        first = shrink(spec, schedule, violation, baseline)
        second = shrink(spec, schedule, violation, baseline)
        assert first == second

    def test_minimal_witness_still_violates(self, sample):
        spec, schedule, violation, baseline = sample
        witness, _ = shrink(spec, schedule, violation, baseline)
        attacked = run_program(spec, witness)
        assert primary_class(classify(baseline, attacked)) == violation
        assert not attacked.invariant_violations

    def test_every_shrink_step_is_a_verification_run(self, sample,
                                                     monkeypatch):
        # The shrinker's step count is its run count: each candidate
        # edit — kept or rejected — is verified by one full re-run,
        # never accepted on faith.
        spec, schedule, violation, baseline = sample
        runs = 0
        real = planner_mod.run_program

        def counting(*args, **kwargs):
            nonlocal runs
            runs += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(planner_mod, "run_program", counting)
        _, steps = shrink(spec, schedule, violation, baseline)
        assert runs == steps

    def test_finite_durations_preferred_over_max_safe(self):
        # The ladder pass trades every max-safe hold for the smallest
        # finite duration that keeps the violation — witnesses should
        # normally carry concrete durations, not None.
        outcome = plan_program(table3_spec(5))
        hit = outcome["hit"]
        assert hit is not None
        durations = [duration for _dev, _at, duration in hit["schedule"]]
        assert all(d is not None for d in durations)

    def test_generated_hits_already_minimal_under_reshrink(self):
        # Shrinking a shrunk witness again is a fixed point (up to the
        # verification runs it performs): nothing further to remove.
        gen = RuleSetGenerator(0)
        shrunk = 0
        for index in range(4):
            spec = gen.sample(index)
            outcome = plan_program(spec)
            hit = outcome["hit"]
            if hit is None:
                continue
            from repro.search.spec import schedule_from_lists

            witness = schedule_from_lists(hit["schedule"])
            baseline = run_program(spec)
            again, _ = shrink(spec, witness, hit["violation"], baseline)
            assert again == witness
            shrunk += 1
        assert shrunk >= 2
