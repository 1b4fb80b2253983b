"""Parallel campaign execution: shard-per-device fan-out over processes.

Modules:

* :mod:`repro.parallel.seeds` — ``derive_seed``, the stable per-shard seed
  derivation;
* :mod:`repro.parallel.runner` — ``Shard`` (one independent simulation of
  a campaign); ``CampaignRunner``, the ordered, deterministic
  fan-out/merge a caller builds once and hands to any driver;
  ``runner_or_serial``, a driver's default runner (serial, uncached);
  ``CampaignCancelled``, raised on cooperative mid-campaign cancel;
  ``SharedWorkerPool``, one long-lived pool shared by many runners (the
  campaign service's execution substrate); and ``resolve_jobs`` /
  ``fork_available``, the worker-count policy.

See ``docs/API.md`` for the determinism guarantee and usage examples.
"""
