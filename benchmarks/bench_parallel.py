"""Bench E7: the parallel campaign runner — Table I sharded across workers.

Runs the same Table I subset twice — serially (``jobs=1``) and sharded
across a worker pool (``jobs=REPRO_BENCH_JOBS`` or CPU count) — asserts the
rendered tables are byte-identical, and records both wall clocks plus the
speedup to ``BENCH_campaign.json``.

The determinism assertion is the hard guarantee of ``repro.parallel``; the
speedup is hardware-bound (on a 1-CPU runner fork overhead makes it < 1x),
so it is recorded alongside ``cpu_count`` rather than asserted when the
machine cannot physically provide parallelism.
"""

from __future__ import annotations

import time

from repro.experiments.table1 import render_table1, run_table1
from repro.parallel.runner import CampaignRunner, fork_available

from _perf import baseline_matches, check_regression, cpu_comparable, record_bench
from conftest import bench_jobs, bench_trials

#: A representative Table I slice: two SmartThings hubs, a Ring camera, a
#: Hue bridge, and the SimpliSafe keypad — mixed servers and timeout shapes.
LABELS = ["HS1", "HS2", "C2", "M7", "HS3", "P1"]


def _timed(jobs: int, trials: int):
    start = time.perf_counter()
    rows = run_table1(labels=LABELS, trials=trials, runner=CampaignRunner(jobs=jobs))
    return rows, time.perf_counter() - start


def test_table1_parallel_campaign(once):
    trials = min(bench_trials(), 20)
    jobs = bench_jobs()

    serial_rows, serial_s = _timed(1, trials)
    parallel_rows, parallel_s = once(_timed, jobs, trials)

    # The whole point: sharding must not perturb a single measured value.
    assert render_table1(parallel_rows) == render_table1(serial_rows)

    speedup = serial_s / parallel_s if parallel_s else 0.0
    entry = record_bench(
        "table1_parallel",
        labels=LABELS,
        trials=trials,
        jobs=jobs,
        serial_seconds=round(serial_s, 3),
        parallel_seconds=round(parallel_s, 3),
        speedup=round(speedup, 3),
        fork_available=fork_available(),
    )
    print()
    print(render_table1(parallel_rows))
    print(f"serial {serial_s:.2f}s vs jobs={jobs} {parallel_s:.2f}s "
          f"({speedup:.2f}x) -> {entry}")
    # Wall clocks are hardware-bound, so the gate is generous — fail only
    # when the serial campaign takes 3x the committed baseline (the shape
    # of regression a telemetry-capture bug in the shard wrapper causes) —
    # and only comparing like workloads: REPRO_BENCH_TRIALS shrinks CI
    # runs below what the committed baseline measured.
    if baseline_matches("table1_parallel", trials=trials):
        check_regression("table1_parallel", "serial_seconds", serial_s,
                         tolerance=2.0, larger_is_better=False)
    # Speedup is hardware-bound: assert it only on a machine that can
    # physically parallelise AND whose core count matches the committed
    # baseline — a 1-core runner records speedup < 1 (fork overhead) and
    # must neither fail here nor gate future multi-core baselines.
    if cpu_comparable("table1_parallel") and baseline_matches(
        "table1_parallel", trials=trials, jobs=jobs
    ):
        check_regression("table1_parallel", "speedup", speedup)
