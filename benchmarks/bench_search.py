"""Bench: the adversarial schedule search, generate-to-corpus.

Runs one search of ``REPRO_BENCH_PROGRAMS`` generated programs (default
48) serially and across a worker pool, asserts the corpus digests are
byte-identical (the search determinism contract), and records
candidates/sec into ``BENCH_campaign.json`` under the regression gate.
Candidates/sec is the number that bounds how much of the rule-set space
one campaign can cover: every candidate is a full baseline-vs-attacked
program run plus its share of shrink verifications.
"""

from __future__ import annotations

import os
import time

from repro.parallel.runner import CampaignRunner, fork_available
from repro.search.planner import run_search

from _perf import baseline_matches, check_regression, cpu_comparable, record_bench
from conftest import bench_jobs


def bench_programs(default: int = 48) -> int:
    return int(os.environ.get("REPRO_BENCH_PROGRAMS", default))


def _run(programs: int, jobs: int):
    start = time.perf_counter()
    report = run_search(programs, seed=0,
                        runner=CampaignRunner(jobs=jobs, manifest=False))
    wall = time.perf_counter() - start
    return report, wall


def test_search_campaign(once):
    programs = bench_programs()
    jobs = bench_jobs()

    serial_report, serial_s = _run(programs, 1)
    parallel_report, parallel_s = once(_run, programs, jobs)

    # The determinism contract: worker count must not move a single case.
    assert parallel_report.corpus_digest == serial_report.corpus_digest
    assert parallel_report.programs == programs

    # Throughput counts candidate schedules, each one a full paired run;
    # shrink verifications ride inside the same wall time.
    explored = parallel_report.explored
    candidates_per_sec = explored / parallel_s if parallel_s else 0.0
    entry = record_bench(
        "search",
        programs=programs,
        jobs=jobs,
        serial_seconds=round(serial_s, 3),
        parallel_seconds=round(parallel_s, 3),
        candidates=explored,
        candidates_per_sec=round(candidates_per_sec, 1),
        serial_candidates_per_sec=round(
            explored / serial_s if serial_s else 0.0, 1),
        hits=len(parallel_report.hits),
        programs_per_sec=round(programs / parallel_s if parallel_s else 0.0, 1),
        fork_available=fork_available(),
    )
    print()
    print(f"search: {programs} programs, {explored} candidates, "
          f"{len(parallel_report.hits)} verified hits")
    print(f"serial {serial_s:.2f}s vs jobs={jobs} {parallel_s:.2f}s; "
          f"{candidates_per_sec:.1f} candidates/s -> {entry}")
    # Same gating policy as the fleet bench: serial gates the per-program
    # fixed cost on any machine with a matching workload; the parallel
    # number additionally needs a comparable CPU and matching jobs.
    if baseline_matches("search", programs=programs):
        check_regression("search", "serial_candidates_per_sec",
                         explored / serial_s if serial_s else 0.0)
    if cpu_comparable("search") and baseline_matches("search",
                                                     programs=programs,
                                                     jobs=jobs):
        check_regression("search", "candidates_per_sec", candidates_per_sec)
