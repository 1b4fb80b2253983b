"""Parallel campaign execution: shard-per-device fan-out over processes.

Public surface:

* :func:`derive_seed` — stable per-shard seed derivation;
* :class:`Shard` — one independent simulation of a campaign;
* :class:`CampaignRunner` — ordered, deterministic fan-out/merge: the
  execution context a caller builds once and hands to any driver;
* :func:`runner_or_serial` — a driver's default runner (serial, uncached);
* :class:`CampaignCancelled` — raised on cooperative mid-campaign cancel;
* :class:`SharedWorkerPool` — one long-lived pool shared by many runners
  (the campaign service's execution substrate);
* :func:`resolve_jobs` / :func:`fork_available` — worker-count policy.

See ``docs/API.md`` for the determinism guarantee and usage examples.
"""

from .runner import (
    JOBS_CAP,
    CampaignCancelled,
    CampaignRunner,
    Shard,
    SharedWorkerPool,
    fork_available,
    resolve_jobs,
    runner_or_serial,
)
from .seeds import derive_seed

__all__ = [
    "JOBS_CAP",
    "CampaignCancelled",
    "CampaignRunner",
    "Shard",
    "SharedWorkerPool",
    "derive_seed",
    "fork_available",
    "resolve_jobs",
    "runner_or_serial",
]
