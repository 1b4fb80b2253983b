"""Adversarial schedule search over generated TAP rule sets.

The pipeline, end to end:

1. :class:`~repro.search.generator.RuleSetGenerator` draws seeded
   trigger-condition-action programs (device mix, DSL rules, bait-story
   stimulus timelines) as schema-versioned
   :class:`~repro.search.spec.ProgramSpec` records;
2. the planner (:func:`~repro.search.planner.plan_program`) explores
   candidate attacker hold/release schedules per program, comparing each
   attacked run against the baseline with the differential oracles in
   :mod:`~repro.search.oracles`;
3. every hit is minimised by the deterministic shrinker and re-verified
   (violation class intact, :class:`~repro.faults.invariants.InvariantSuite`
   silent) before it becomes a corpus case;
4. :mod:`~repro.search.corpus` writes one JSONL case file per hit and
   folds the case digests into a campaign-level corpus digest.

The search is the second population the fleet engine runs: programs are
built and driven by :func:`~repro.fleet.engine.build_home` and
:func:`~repro.fleet.engine.drive_home`, and shard over
:class:`~repro.parallel.runner.CampaignRunner` through
:func:`~repro.fleet.engine.run_batches`, so searches cache, parallelise,
and manifest like every other campaign — and the corpus is
byte-identical across ``--jobs`` and cache state.
"""
