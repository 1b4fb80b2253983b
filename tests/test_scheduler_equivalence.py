"""Equivalence proofs for the scheduler.

Two layers of evidence that the event core fires exactly the textbook
``(when, seq)`` order:

1. A hypothesis property drives randomly generated timer programs —
   one-shots and periodics with colliding fire times, cancellations
   (including self-cancel and cancel-from-callback), mid-run spawns, and
   net-zero cancel+respawn tricks — through :class:`Simulator` and
   through a straight-heap reference model, and demands identical fire
   logs, event counts, and final clocks.

2. Byte-identity pins: the rendered Table I and the canonical Table III
   result digests are asserted against recorded values.  Any scheduler
   change that perturbs event order anywhere in the full stack (TLS,
   TCP, application timers, attacker holds) moves these digests.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.cache.keys import canonical
from repro.simnet.scheduler import Simulator

#: sha256 of ``render_table1(run_table1(labels, trials=3, cache=False))``;
#: every scheduler since the original binary heap reproduces it.
TABLE1_SHA256 = "9f9a848f786f46ddd76592c3d2a74206ea9cbb04fc6567177285be2eefc40f08"
TABLE1_LABELS = ["HS1", "C2", "M7"]

#: blake2b-128 of ``canonical(run_table3(cache=False))``, same provenance.
TABLE3_BLAKE2B = "b29df45a230f797f5cbe33dd7b4e8d2f"


# --------------------------------------------------------------- reference

class _RefTimer:
    __slots__ = ("when", "callback", "args", "label", "period", "_cancelled")

    def __init__(self, when, callback, args, label, period):
        self.when = when
        self.callback = callback
        self.args = args
        self.label = label
        self.period = period
        self._cancelled = False

    def cancel(self):
        self._cancelled = True


class _HeapReference:
    """Textbook binary-heap scheduler with the Simulator's semantics.

    Global ``(when, seq)`` order over one shared insertion counter;
    cancelled timers are skipped lazily at pop time; a fired periodic is
    re-armed with a fresh seq even when its own callback cancelled it (a
    seq drawn for a dead node moves no live timer's relative order); the
    clock lands exactly on the deadline.
    """

    def __init__(self):
        self.now = 0.0
        self._q = []
        self._seq = itertools.count()
        self._events_processed = 0

    def schedule(self, delay, callback, *args, label=""):
        return self.at(self.now + delay, callback, *args, label=label)

    def at(self, when, callback, *args, label=""):
        timer = _RefTimer(when, callback, args, label, None)
        heapq.heappush(self._q, (when, next(self._seq), timer))
        return timer

    def schedule_periodic(self, period, callback, *args, first=None, label=""):
        delay = period if first is None else first
        timer = _RefTimer(self.now + delay, callback, args, label, period)
        heapq.heappush(self._q, (timer.when, next(self._seq), timer))
        return timer

    def run_until(self, deadline):
        q = self._q
        while q:
            when, _seq, timer = q[0]
            if when > deadline:
                break
            heapq.heappop(q)
            if timer._cancelled:
                continue
            self.now = when
            self._events_processed += 1
            timer.callback(*timer.args)
            if timer.period is not None:
                timer.when = when + timer.period
                heapq.heappush(q, (timer.when, next(self._seq), timer))
        self.now = max(self.now, deadline)


# ---------------------------------------------------------------- programs

#: Delays drawn from a coarse grid so distinct timers collide on the same
#: fire instant and tie-breaking (insertion order) actually gets exercised.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 2.0, 7.75, 9.5, 40.0])
_PERIODS = st.sampled_from([0.25, 0.5, 0.5, 1.0, 3.0])

_ONESHOT = st.tuples(st.just("one"), _DELAYS,
                     st.sampled_from(["noop", "spawn", "cancel", "respawn"]))
_PERIODIC = st.tuples(st.just("per"), _PERIODS, _DELAYS,
                      st.integers(min_value=0, max_value=6),
                      st.sampled_from(["stop", "stop+spawn", "ghost"]))

_PROGRAM = st.lists(st.one_of(_ONESHOT, _PERIODIC), min_size=1, max_size=12)


def _execute(sim, program, deadline):
    """Run one generated program on ``sim``; returns the fire log."""
    log = []
    handles = []

    def fire_oneshot(idx, action):
        log.append(("one", idx, sim.now))
        if action == "spawn":
            sim.schedule(0.25, lambda: log.append(("spawned", idx, sim.now)),
                         label=f"spawn{idx}")
        elif action == "cancel":
            # Cancel the *next* armed sibling that is still pending.
            for h in handles[idx + 1:]:
                if not h._cancelled:
                    h.cancel()
                    break
        elif action == "respawn":
            # Net-zero trick: replace a pending sibling with a new timer.
            for h in handles[idx + 1:]:
                if not h._cancelled:
                    h.cancel()
                    sim.schedule(0.5, lambda: log.append(("resp", idx, sim.now)),
                                 label=f"resp{idx}")
                    break

    for idx, spec in enumerate(program):
        if spec[0] == "one":
            _, delay, action = spec
            handles.append(
                sim.schedule(delay, fire_oneshot, idx, action, label=f"one{idx}")
            )
        else:
            _, period, first_extra, limit, action = spec
            state = {"fires": 0}

            def fire(idx=idx, limit=limit, action=action, state=state):
                state["fires"] += 1
                log.append(("per", idx, sim.now))
                if state["fires"] > limit:
                    timer = handles[idx]
                    if action == "ghost":
                        # Self-cancel from inside the callback: the timer
                        # must never fire again.
                        timer.cancel()
                    elif action == "stop":
                        timer.cancel()
                    else:  # stop+spawn — net-zero periodic swap
                        timer.cancel()
                        sim.schedule_periodic(
                            7.5, lambda: log.append(("swap", idx, sim.now)),
                            label=f"swap{idx}")

            handles.append(
                sim.schedule_periodic(period, fire, first=period + first_extra,
                                      label=f"per{idx}")
            )
    sim.run_until(deadline)
    return log


@given(program=_PROGRAM)
@settings(max_examples=60, deadline=None)
def test_wheel_matches_heap_reference(program):
    deadline = 12.0
    sim = Simulator()
    reference = _HeapReference()
    log_sim = _execute(sim, program, deadline)
    log_ref = _execute(reference, program, deadline)
    assert log_sim == log_ref
    assert sim._events_processed == reference._events_processed
    assert sim.now == reference.now == deadline


@given(program=_PROGRAM)
@settings(max_examples=25, deadline=None)
def test_wheel_overflow_horizon_matches_reference(program):
    """Same property with delays stretched to keep-alive scale (tens of s)."""
    deadline = 95.0
    sim = Simulator()
    reference = _HeapReference()
    scale = 11.0

    def stretch(spec):
        if spec[0] == "one":
            return ("one", spec[1] * scale, spec[2])
        return ("per", spec[1] * scale, spec[2] * scale, spec[3], spec[4])

    stretched = [stretch(s) for s in program]
    assert _execute(sim, stretched, deadline) == _execute(
        reference, stretched, deadline
    )
    assert sim._events_processed == reference._events_processed


# ------------------------------------------------------------- digest pins

def test_table1_byte_identity_pin():
    from repro.experiments.table1 import render_table1, run_table1

    rows = run_table1(labels=TABLE1_LABELS, trials=3, cache=False)
    digest = hashlib.sha256(render_table1(rows).encode()).hexdigest()
    assert digest == TABLE1_SHA256, (
        "Table I bytes moved — the scheduler (or anything beneath it) "
        f"perturbed event order: {digest}"
    )


def test_table3_canonical_digest_pin():
    from repro.experiments.table3 import run_table3

    digest = hashlib.blake2b(
        canonical(run_table3(cache=False)), digest_size=16
    ).hexdigest()
    assert digest == TABLE3_BLAKE2B, (
        f"Table III canonical result moved: {digest}"
    )
