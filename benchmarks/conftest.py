"""Benchmark harness configuration.

Every bench regenerates one of the paper's artefacts end-to-end, so each
is run exactly once (``pedantic(rounds=1, iterations=1)``) — the interesting
output is the reproduced table, printed to stdout, not the timing
distribution.

Environment knobs (all optional):

``REPRO_BENCH_TRIALS``
    Measurement trials per message type.  Defaults to the paper's 20; the
    simulation is deterministic, so lower counts measure the same values
    faster.  CI's smoke job runs with ``REPRO_BENCH_TRIALS=2``.
``REPRO_BENCH_JOBS``
    Worker-process count for the parallel campaign benches.  Defaults to
    the machine's CPU count (capped by ``repro.parallel.runner.JOBS_CAP``).
``REPRO_BENCH_OUT``
    Where ``benchmarks/_perf.record_bench`` writes the perf-trajectory
    file (default: ``BENCH_campaign.json`` at the repo root).
``REPRO_BENCH_EVENTS``
    Workload size for the scheduler micro-benchmark.
"""

from __future__ import annotations

import os

import pytest


def bench_trials(default: int = 20) -> int:
    return int(os.environ.get("REPRO_BENCH_TRIALS", default))


def bench_jobs(default: int | None = None) -> int:
    """Worker count for parallel benches (``REPRO_BENCH_JOBS`` wins)."""
    from repro.parallel.runner import resolve_jobs

    env = os.environ.get("REPRO_BENCH_JOBS")
    if env is not None:
        return resolve_jobs(int(env))
    return resolve_jobs(default)


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
