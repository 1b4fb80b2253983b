"""Idle smart-home day: periodic re-arm on an all-periodic fleet.

The paper's victim population is a smart home that spends most of a day
*idle*: every device just heartbeats — MQTT keep-alives, TCP keep-alive
probes, periodic sensor reports — and nothing else happens.  This bench
simulates 24 hours of that steady state for a 20-device fleet (60 periodic
timers, ≈90k events) through two engines:

* ``events_per_sec`` (headline): :class:`Simulator` with
  :meth:`~Simulator.schedule_periodic` timers, re-armed in place in the
  one event heap;
* ``legacy_events_per_sec``: the seed's ``_Entry``-dataclass engine, which
  allocates a fresh ``Timer`` + heap entry + f-string label per fire.

Both fire the identical logical event stream (asserted), so the ratio is
pure engine overhead.  The inline gate is a 3x floor on
``speedup_vs_legacy``; absolute rates are gated against the committed
baseline by :func:`check_regression`.

``REPRO_BENCH_IDLE_SECONDS`` shrinks the simulated day for smoke runs.
"""

from __future__ import annotations

import os
import time

from repro.simnet.scheduler import Simulator

from _perf import check_regression, record_bench
from bench_scheduler import _LegacySimulator

#: Simulated horizon (one day of idle steady state by default).
DAY = float(os.environ.get("REPRO_BENCH_IDLE_SECONDS", 86_400))

N_DEVICES = 20

#: Per-device heartbeat periods, staggered so fires interleave instead of
#: phase-locking: an MQTT keep-alive, a TCP keep-alive probe cycle, and a
#: periodic sensor report — the Table I idle traffic mix.
def _device_periods(i: int) -> tuple[float, float, float]:
    return (29.0 + 0.25 * i, 45.0 + 1.5 * i, 300.0 + float(i))


def _noop() -> None:
    pass


def _drive_simulator() -> tuple[int, float]:
    """One simulated day on the simulator; returns (events, wall seconds)."""
    sim = Simulator()
    for i in range(N_DEVICES):
        mqtt, tcpka, sensor = _device_periods(i)
        sim.schedule_periodic(mqtt, _noop, label=f"dev{i}:mqtt-ka")
        sim.schedule_periodic(tcpka, _noop, label=f"dev{i}:tcp-ka")
        sim.schedule_periodic(sensor, _noop, label=f"dev{i}:sensor")
    start = time.perf_counter()
    sim.run_until(DAY)
    return sim._events_processed, time.perf_counter() - start


def _drive_legacy() -> tuple[int, float]:
    """The same day on the seed engine: self-rescheduling one-shot timers,
    a fresh Timer object and a freshly formatted label per fire — exactly
    how the seed's protocol layers armed their keep-alives."""
    sim = _LegacySimulator()

    def arm(i: int, kind: str, period: float) -> None:
        def fire() -> None:
            sim.schedule(period, fire, label=f"dev{i}:{kind}")

        sim.schedule(period, fire, label=f"dev{i}:{kind}")

    for i in range(N_DEVICES):
        mqtt, tcpka, sensor = _device_periods(i)
        arm(i, "mqtt-ka", mqtt)
        arm(i, "tcp-ka", tcpka)
        arm(i, "sensor", sensor)
    start = time.perf_counter()
    sim.run_until(DAY)
    return sim._events_processed, time.perf_counter() - start


def _best(drive, rounds: int = 3) -> tuple[int, float, float]:
    """Best-of-N: (events, best events/sec, best wall seconds)."""
    events, best_rate, best_wall = 0, 0.0, float("inf")
    for _ in range(rounds):
        events, elapsed = drive()
        best_rate = max(best_rate, events / elapsed)
        best_wall = min(best_wall, elapsed)
    return events, best_rate, best_wall


def test_idle_home_day():
    events, rate, wall = _best(_drive_simulator)
    l_events, legacy, l_wall = _best(_drive_legacy)
    assert events == l_events, (
        "both engines must fire the identical heartbeat stream"
    )

    speedup = rate / legacy
    entry = record_bench(
        "idle_home_bench",
        devices=N_DEVICES,
        timers=N_DEVICES * 3,
        day_seconds=DAY,
        events=events,
        events_per_sec=round(rate),
        legacy_events_per_sec=round(legacy),
        speedup_vs_legacy=round(speedup, 3),
        day_wall_ms=round(wall * 1e3, 2),
        legacy_day_wall_ms=round(l_wall * 1e3, 2),
    )
    print()
    print(
        f"idle home day: {events} events in {wall * 1e3:.1f} ms "
        f"({rate / 1e6:.3f} M events/s; legacy {legacy / 1e6:.3f} M, "
        f"{speedup:.2f}x) -> {entry}"
    )
    # Inline floor: in-place periodic re-arm must hold at least 3x over
    # the seed engine's allocate-per-fire keep-alives.
    assert speedup >= 3.0, (
        f"idle-home speedup vs the seed engine fell to {speedup:.2f}x"
    )
    check_regression("idle_home_bench", "events_per_sec", rate)
    check_regression("idle_home_bench", "speedup_vs_legacy", speedup,
                     tolerance=0.45)
