"""Bench E8: the content-addressed campaign cache — cold vs warm Table I.

Runs the same Table I subset twice against a fresh cache directory: the
cold pass simulates and stores every shard, the warm pass must answer
entirely from disk.  Asserts the rendered tables are byte-identical and
that the warm pass ran zero live simulations, then records both wall
clocks plus the speedup to ``BENCH_campaign.json``.

Cold time is dominated by the simulations themselves, so the speedup
here is the honest headline of ``repro.cache``: what a re-run of the
paper's evaluation costs once the results already exist.
"""

from __future__ import annotations

import tempfile
import time

from repro.cache.store import CampaignCache
from repro.experiments.table1 import render_table1, run_table1
from repro.obs.metrics import MetricsRegistry
from repro.parallel.runner import CampaignRunner

from _perf import baseline_matches, check_regression, record_bench
from conftest import bench_trials

#: Same representative slice as bench_parallel, for comparable numbers.
LABELS = ["HS1", "HS2", "C2", "M7", "HS3", "P1"]


def _warm_run(cache: CampaignCache, trials: int, registry: MetricsRegistry):
    runner = CampaignRunner(jobs=1, registry=registry, cache=cache)
    return run_table1(labels=LABELS, trials=trials, seed=7, runner=runner)


def test_table1_cache_roundtrip(once):
    trials = min(bench_trials(), 20)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cache = CampaignCache(root=root)

        start = time.perf_counter()
        cold_rows = run_table1(labels=LABELS, trials=trials, seed=7,
                               runner=CampaignRunner(jobs=1, cache=cache))
        cold_s = time.perf_counter() - start

        registry = MetricsRegistry()
        start = time.perf_counter()
        warm_rows = once(_warm_run, cache, trials, registry)
        warm_s = time.perf_counter() - start

    # The whole point: a warm campaign answers from disk, byte-identically.
    assert render_table1(warm_rows) == render_table1(cold_rows)
    assert registry.value("parallel", "cache_hits", campaign="table1") == len(LABELS)
    assert registry.value("parallel", "shards_run_inprocess", campaign="table1") == 0

    speedup = cold_s / warm_s if warm_s else 0.0
    entry = record_bench(
        "table1_cache",
        labels=LABELS,
        trials=trials,
        cold_seconds=round(cold_s, 3),
        warm_seconds=round(warm_s, 3),
        speedup=round(speedup, 1),
    )
    print()
    print(render_table1(warm_rows))
    print(f"cold {cold_s:.2f}s vs warm {warm_s:.3f}s ({speedup:.0f}x) -> {entry}")
    # The warm/cold ratio swings with disk and CPU — and scales with the
    # trial count, since only the cold side grows — so the gate compares
    # like workloads only and fails just on an order-of-magnitude collapse
    # (e.g. warm runs re-simulating).
    if baseline_matches("table1_cache", trials=trials):
        check_regression("table1_cache", "speedup", speedup, tolerance=0.9)
