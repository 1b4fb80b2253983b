"""Fleet engine: populations of sampled smart homes at campaign scale.

``repro.fleet`` turns the single-home testbed into a population workload:
:class:`FleetSampler` draws per-home :class:`HomeSpec`\\ s (device mix,
rule set, fault profile, attacker schedule) from seeded distributions;
:func:`run_fleet` steps the homes in content-addressed batches across
the ``repro.parallel`` pool and streams aggregates through ``repro.obs``.
``build_home``, ``drive_home`` and the batch partition ``run_batches``
are shared with ``repro.search``.  See ``docs/API.md`` ("repro.fleet") and
``experiments/breaking_point.py`` for the step-load experiment built on
top.
"""

from .engine import (
    DEFAULT_BATCH_SIZE,
    SETTLE_SECONDS,
    FleetReport,
    HomeResult,
    build_home,
    drive_home,
    fleet_digest,
    run_batches,
    run_fleet,
    run_home,
    run_home_batch,
)
from .sampler import SEED_NAMESPACE, FleetSampler, home_seed
from .spec import SPEC_SCHEMA, HomeSpec, Stimulus

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SEED_NAMESPACE",
    "SETTLE_SECONDS",
    "SPEC_SCHEMA",
    "FleetReport",
    "FleetSampler",
    "HomeResult",
    "HomeSpec",
    "Stimulus",
    "build_home",
    "drive_home",
    "fleet_digest",
    "home_seed",
    "run_batches",
    "run_fleet",
    "run_home",
    "run_home_batch",
]
