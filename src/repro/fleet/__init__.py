"""Fleet engine: populations of sampled smart homes at campaign scale.

``repro.fleet`` turns the single-home testbed into a population workload:
:class:`~repro.fleet.sampler.FleetSampler` draws per-home
:class:`~repro.fleet.spec.HomeSpec`\\ s (device mix, rule set, fault
profile, attacker schedule) from seeded distributions;
:func:`~repro.fleet.engine.run_fleet` steps the homes in content-addressed
batches across the ``repro.parallel`` pool and streams aggregates through
``repro.obs``.  :mod:`repro.fleet.engine`'s ``build_home``, ``drive_home``
and the batch partition ``run_batches`` are shared with ``repro.search``.
See ``docs/API.md`` ("repro.fleet") and ``experiments/breaking_point.py``
for the step-load experiment built on top.
"""
