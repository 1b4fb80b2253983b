"""Parallel campaign execution: shard-per-device fan-out over processes.

Modules:

* :mod:`repro.parallel.seeds` — ``derive_seed``, the stable seed
  derivation behind fleet homes, search programs, Table III specs and the
  fault injector;
* :mod:`repro.parallel.runner` — ``Shard`` (one independent simulation of
  a campaign, called with ``seed=`` exactly when it carries one);
  ``CampaignRunner``, the ordered, deterministic fan-out/merge a caller
  builds once and hands to any driver, whose one account of a run is its
  shard rows; ``runner_or_serial``, a driver's default runner (serial,
  uncached); ``CampaignCancelled``, raised on cooperative mid-campaign
  cancel; ``SharedWorkerPool``, the fork pool every pool run goes through
  (shared by many runners in the campaign service), which replaces an
  executor a dead worker broke; and ``resolve_jobs`` / ``fork_available``,
  the worker-count policy.

See ``docs/API.md`` for the determinism guarantee and usage examples.
"""
