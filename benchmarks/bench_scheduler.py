"""Scheduler micro-benchmark: raw events/second through the hot loop.

The discrete-event scheduler executes every packet, timer, and attacker
hold of the reproduction, so its per-event overhead multiplies into every
campaign's wall clock.  This bench measures two workloads:

* the **headline** (``events_per_sec``): pure periodic keep-alives via
  :meth:`~repro.simnet.scheduler.Simulator.schedule_periodic` — the dominant event
  mix of an idle IoT fleet (each timer re-armed in place in the event
  heap, zero Timer allocation per fire);
* the **one-shot chain** (``oneshot_events_per_sec``): self-rescheduling
  timer chains plus a cancelled decoy per fire (defensive ``cancel()``
  calls from protocol state machines), driven through both the current
  :class:`repro.simnet.scheduler.Simulator` and ``_LegacySimulator`` — a faithful
  clone of the seed's ``_Entry``-dataclass loop (rich-comparison heap
  nodes, ``peek()``/``step()`` double scan).

Rates and speedups land in ``BENCH_campaign.json`` so the perf trajectory
of the hot loop is tracked release over release.

``REPRO_BENCH_EVENTS`` scales the workload (default ≈290k events).
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from dataclasses import dataclass, field

from repro.obs import telemetry
from repro.simnet.scheduler import Simulator, Timer

from _perf import check_regression, record_bench


@dataclass(order=True)
class _Entry:
    when: float
    seq: int
    timer: "Timer" = field(compare=False)


class _Clock:
    """The seed's virtual clock, which ``_LegacySimulator`` reads time through."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        if when < self._now:
            raise ValueError(f"time cannot move backwards: {when} < {self._now}")
        self._now = when


class _LegacySimulator:
    """The seed scheduler's hot loop, kept verbatim as the perf baseline."""

    def __init__(self) -> None:
        self.clock = _Clock()
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._observer = None

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, delay, callback, *args, label=""):
        return self.at(self.now + delay, callback, *args, label=label)

    def at(self, when, callback, *args, label=""):
        timer = Timer(when, callback, args, label=label, created_at=self.now)
        heapq.heappush(self._queue, _Entry(when, next(self._seq), timer))
        return timer

    def peek(self):
        while self._queue and not self._queue[0].timer.active:
            heapq.heappop(self._queue)
        return self._queue[0].when if self._queue else None

    def step(self):
        while self._queue:
            entry = heapq.heappop(self._queue)
            timer = entry.timer
            if not timer.active:
                continue
            self.clock.advance_to(entry.when)
            timer._fired = True
            self._events_processed += 1
            if self._observer is not None:
                self._observer.timer_fired(timer, self.clock.now, len(self._queue))
            timer.callback(*timer.args)
            return True
        return False

    def run_until(self, deadline):
        while True:
            nxt = self.peek()
            if nxt is None or nxt > deadline:
                break
            self.step()
        self.clock.advance_to(max(self.clock.now, deadline))


N_CHAINS = 32
#: Simulated horizon sized so the default workload is ≈290k events.
HORIZON = float(os.environ.get("REPRO_BENCH_EVENTS", 290_000)) / 36.1


def _drive(sim) -> tuple[int, float]:
    """Run the chain workload; returns (events fired, wall seconds)."""

    def fire(i: int, period: float) -> None:
        decoy = sim.schedule(period * 3, _noop, label="decoy")
        decoy.cancel()
        sim.schedule(period, fire, i, period, label=f"chain{i}")

    for i in range(N_CHAINS):
        fire(i, 0.7 + 0.013 * i)
    start = time.perf_counter()
    sim.run_until(HORIZON)
    return sim._events_processed, time.perf_counter() - start


def _drive_periodic(sim: Simulator) -> tuple[int, float]:
    """Run the keep-alive workload; returns (events fired, wall seconds).

    Every timer is armed with :meth:`Simulator.schedule_periodic`, so the
    event mix is all-periodic re-arms for the whole horizon.
    """
    for i in range(N_CHAINS):
        sim.schedule_periodic(0.7 + 0.013 * i, _noop, label=f"ka{i}")
    start = time.perf_counter()
    sim.run_until(HORIZON)
    return sim._events_processed, time.perf_counter() - start


def _noop() -> None:
    pass


def _best_rate(make_sim, drive=_drive, rounds: int = 3) -> tuple[int, float]:
    """Best-of-N events/second (best-of absorbs scheduler jitter)."""
    events, best = 0, 0.0
    for _ in range(rounds):
        events, elapsed = drive(make_sim())
        best = max(best, events / elapsed)
    return events, best


def test_scheduler_events_per_second():
    legacy_events, legacy = _best_rate(_LegacySimulator)
    periodic_events, periodic = _best_rate(Simulator, drive=_drive_periodic)
    # Plain and captured runs interleave round by round so clock drift on a
    # busy machine biases both the same way; the captured run keeps a
    # telemetry capture active for the whole workload (construction + hot
    # loop), exactly as a campaign shard wrapper runs it.
    events = captured_events = 0
    current = captured = 0.0
    for _ in range(3):
        events, elapsed = _drive(Simulator())
        current = max(current, events / elapsed)
        with telemetry.capture():
            captured_events, elapsed = _drive(Simulator())
        captured = max(captured, captured_events / elapsed)
    assert events == legacy_events == captured_events, (
        "all loops must fire the identical workload"
    )
    speedup = current / legacy
    overhead = 1.0 - captured / current
    entry = record_bench(
        "scheduler_microbench",
        events=periodic_events,
        events_per_sec=round(periodic),
        oneshot_events=events,
        oneshot_events_per_sec=round(current),
        events_per_sec_captured=round(captured),
        legacy_events_per_sec=round(legacy),
        speedup_vs_entry_dataclass=round(speedup, 3),
        telemetry_overhead_pct=round(overhead * 100, 2),
    )
    print()
    print(
        f"scheduler: periodic {periodic / 1e6:.3f} M events/s, "
        f"one-shot {current / 1e6:.3f} M events/s "
        f"(legacy {legacy / 1e6:.3f} M events/s, {speedup:.2f}x; "
        f"telemetry capture overhead {overhead:+.1%}) -> {entry}"
    )
    # Telemetry capture registers at construction time only — the
    # acceptance bar is <5% on the hot loop.
    assert captured >= current * 0.95, (
        f"telemetry capture costs {overhead:.1%} of scheduler throughput"
    )
    # The regression gates replace the old inline speedup assert: the
    # absolute rates must stay within 25% of the committed baseline.  The
    # speedup ratio compounds the noise of two measurements, so its
    # tolerance is set to put the floor where the old inline assert was
    # (2.08x committed * 0.55 ≈ 1.15x).
    check_regression("scheduler_microbench", "events_per_sec", periodic)
    check_regression("scheduler_microbench", "oneshot_events_per_sec", current)
    check_regression("scheduler_microbench", "events_per_sec_captured", captured)
    check_regression("scheduler_microbench", "speedup_vs_entry_dataclass", speedup,
                     tolerance=0.45)


def test_scheduler_loop_equivalence():
    """Optimised and legacy loops agree on order, count, and final clock."""
    order_current: list[str] = []
    order_legacy: list[str] = []

    def run(sim, order):
        for i, period in ((0, 1.0), (1, 1.0), (2, 0.5)):
            def fire(i=i, period=period):
                order.append(f"{i}@{sim.now:.1f}")
                if sim.now + period <= 10.0:
                    sim.schedule(period, fire, label=f"c{i}")
            sim.schedule(period, fire, label=f"c{i}")
        cancelled = sim.schedule(0.25, lambda: order.append("never"), label="dead")
        cancelled.cancel()
        sim.run_until(10.0)
        return sim._events_processed, sim.now

    n_cur, now_cur = run(Simulator(), order_current)
    n_leg, now_leg = run(_LegacySimulator(), order_legacy)
    assert order_current == order_legacy
    assert n_cur == n_leg
    assert now_cur == now_leg == 10.0
