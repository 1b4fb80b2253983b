"""Bench: the fleet engine — a sampled home population, end to end.

Runs one fleet of ``REPRO_BENCH_HOMES`` homes (default 64) serially and
across a worker pool, asserts the per-home digests are byte-identical (the
fleet determinism contract), and records homes/sec plus the memory one
home costs into ``BENCH_campaign.json`` under the regression gate.
Throughput is the number that tracks the "millions of homes" north star.

``home_peak_kb`` is the median, over the fleet's first
:data:`MEMORY_SAMPLE` homes, of the :mod:`tracemalloc` peak while one home
is built and run: the Python heap a home needs on top of the interpreter
and the imported package.  ``peak_rss_kb`` is the worker processes' peak
resident set, interpreter included, for the whole fleet.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc

from repro.fleet.engine import run_fleet, run_home
from repro.fleet.sampler import FleetSampler
from repro.parallel.runner import CampaignRunner, fork_available

from _perf import baseline_matches, check_regression, cpu_comparable, record_bench
from conftest import bench_jobs


def bench_homes(default: int = 64) -> int:
    return int(os.environ.get("REPRO_BENCH_HOMES", default))


#: Homes whose build-and-run is traced for ``home_peak_kb``.
MEMORY_SAMPLE = 8


def _home_peak_kb(homes: int) -> float:
    """Median tracemalloc peak (KiB) of building and running one home."""
    sampler = FleetSampler(0)  # the population _run's fleets sample
    peaks = []
    for index in range(min(homes, MEMORY_SAMPLE)):
        spec = sampler.sample(index)
        tracemalloc.start()
        try:
            run_home(spec)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
        finally:
            tracemalloc.stop()
    return statistics.median(peaks) if peaks else 0.0


def _run(homes: int, jobs: int):
    runner = CampaignRunner(jobs=jobs, manifest=False)
    start = time.perf_counter()
    report = run_fleet(homes, seed=0, keep_rows=False, runner=runner)
    wall = time.perf_counter() - start
    peak_rss_kb = max(
        (row.peak_rss_kb for row in runner.last_shard_rows), default=0
    )
    return report, wall, peak_rss_kb


def test_fleet_campaign(once):
    homes = bench_homes()
    jobs = bench_jobs()

    serial_report, serial_s, serial_rss = _run(homes, 1)
    parallel_report, parallel_s, parallel_rss = once(_run, homes, jobs)

    # The determinism contract: worker count must not move a single home.
    assert parallel_report.digests == serial_report.digests
    assert parallel_report.completed == homes

    homes_per_sec = homes / parallel_s if parallel_s else 0.0
    peak_rss_kb = max(serial_rss, parallel_rss)
    home_peak_kb = _home_peak_kb(homes)
    entry = record_bench(
        "fleet",
        homes=homes,
        jobs=jobs,
        serial_seconds=round(serial_s, 3),
        parallel_seconds=round(parallel_s, 3),
        homes_per_sec=round(homes_per_sec, 1),
        serial_homes_per_sec=round(homes / serial_s if serial_s else 0.0, 1),
        events=parallel_report.events,
        attacked_homes=parallel_report.attacked,
        peak_rss_kb=peak_rss_kb,
        home_peak_kb=round(home_peak_kb, 1),
        fork_available=fork_available(),
    )
    print()
    print(f"fleet: {homes} homes, {parallel_report.events} events, "
          f"{parallel_report.attacked} attacked")
    print(f"serial {serial_s:.2f}s vs jobs={jobs} {parallel_s:.2f}s; "
          f"{homes_per_sec:.1f} homes/s, {home_peak_kb:.0f} KiB heap peak/home "
          f"-> {entry}")
    # Throughput is hardware-bound: gate only against a baseline that
    # measured the same workload on a comparable machine.  The serial
    # number gates a per-home fixed-cost regression; the parallel one
    # additionally needs matching jobs.
    if baseline_matches("fleet", homes=homes):
        check_regression("fleet", "serial_homes_per_sec",
                         homes / serial_s if serial_s else 0.0)
    if cpu_comparable("fleet") and baseline_matches("fleet", homes=homes,
                                                    jobs=jobs):
        check_regression("fleet", "homes_per_sec", homes_per_sec)
