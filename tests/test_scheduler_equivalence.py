"""Equivalence proofs for the scheduler.

Two layers of evidence that the event core fires exactly the textbook
``(when, seq)`` order:

1. A hypothesis property drives randomly generated timer programs —
   one-shots and periodics with colliding fire times, cancellations
   (including self-cancel and cancel-from-callback), mid-run spawns,
   net-zero cancel+respawn tricks, and watchdog restarts (later, equal and
   earlier deadlines, from inside callbacks, of fired, cancelled and
   periodic handles) and handle-less posts (at the top level, from timer
   and post callbacks, at colliding instants) — through
   :class:`Simulator` and through a straight-heap reference model that
   restarts by cancel+schedule and posts by scheduling and dropping the
   handle, driven by one ``run_until``, by deadline slices, or by
   ``peek``/``step``, and demands identical fire logs, event counts, and
   final clocks.

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

#: sha256 of ``render_table1(run_table1(labels, trials=3))`` (uncached);
#: every scheduler since the original binary heap reproduces it.
TABLE1_SHA256 = "9f9a848f786f46ddd76592c3d2a74206ea9cbb04fc6567177285be2eefc40f08"
TABLE1_LABELS = ["HS1", "C2", "M7"]

#: blake2b-128 of ``canonical(run_table3())`` (uncached), same provenance.
TABLE3_BLAKE2B = "b29df45a230f797f5cbe33dd7b4e8d2f"


# --------------------------------------------------------------- reference

class _RefTimer:
    __slots__ = ("when", "callback", "args", "label", "period", "_cancelled", "_fired")

    def __init__(self, when, callback, args, label, period):
        self.when = when
        self.callback = callback
        self.args = args
        self.label = label
        self.period = period
        self._cancelled = False
        self._fired = False

    def cancel(self):
        # Like Timer.cancel: a fired one-shot is inert.
        if not self._fired:
            self._cancelled = True


class _HeapReference:
    """Textbook binary-heap scheduler with the Simulator's semantics.

    Global ``(when, seq)`` order over one shared insertion counter;
    cancelled timers are skipped lazily at pop time; a fired periodic is
    re-armed with a fresh seq even when its own callback cancelled it (a
    seq drawn for a dead node moves no live timer's relative order); the
    clock lands exactly on the deadline.  ``restart`` is literally
    ``timer.cancel()`` followed by ``schedule``.
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

    def restart(self, timer, delay, callback, *args, label=""):
        if timer is not None:
            timer.cancel()
        return self.schedule(delay, callback, *args, label=label)

    def post(self, delay, callback, *args, label=""):
        self.schedule(delay, callback, *args, label=label)

    def peek(self):
        q = self._q
        while q and q[0][2]._cancelled:
            heapq.heappop(q)
        return q[0][0] if q else None

    def step(self):
        if self.peek() is None:
            return False
        when, _seq, timer = heapq.heappop(self._q)
        self._fire(timer, when)
        return True

    def _fire(self, timer, when):
        self.now = when
        self._events_processed += 1
        if timer.period is None:
            timer._fired = True
        timer.callback(*timer.args)
        if timer.period is not None:
            timer.when = when + timer.period
            heapq.heappush(self._q, (timer.when, next(self._seq), timer))

    def run_until(self, deadline):
        q = self._q
        while q:
            when, _seq, timer = q[0]
            if when > deadline:
                break
            heapq.heappop(q)
            if timer._cancelled:
                continue
            self._fire(timer, when)
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

#: A watchdog re-armed with ``restart``: ``(first, kick_at, rearm, mode)``.
#: ``outside`` restarts it before the run; ``kick`` from a callback at
#: ``kick_at`` (after the watchdog fired, when ``kick_at`` is later);
#: ``kick-twice`` twice at one instant (an equal deadline); ``kick-back``
#: later, then earlier than that (a stale node cancelled); ``cancel-kick``
#: a cancelled handle; ``self`` from the watchdog's own callback (a fired
#: handle); ``sibling`` the previous program's handle, periodic or not.
_RESTART = st.tuples(st.just("rst"), _DELAYS, _DELAYS, _DELAYS,
                     st.sampled_from(["outside", "kick", "kick-twice", "kick-back",
                                      "cancel-kick", "self", "sibling"]))

_PROGRAM = st.lists(st.one_of(_ONESHOT, _PERIODIC, _RESTART), min_size=1, max_size=12)

#: A handle-less post: ``(delay, mode)``.  ``top`` posts from the program;
#: ``chain`` also posts again from its own callback at the same instant;
#: ``spawn`` schedules a timer from its callback; ``from-timer`` is posted
#: by a timer's callback (a timer the ``cancel`` one-shots can cancel).
_POST = st.tuples(st.just("post"), _DELAYS,
                  st.sampled_from(["top", "chain", "spawn", "from-timer"]))

_PROGRAM_WITH_POSTS = st.lists(
    st.one_of(_ONESHOT, _PERIODIC, _RESTART, _POST), min_size=1, max_size=12
)

#: How a program is run to its deadline: one ``run_until``, a series of
#: ``run_until`` slices (deadlines between and on fire instants, so stale
#: nodes reach the top past a deadline), or ``peek``/``step`` one event at
#: a time.
_DRIVES = st.sampled_from(["run_until", "slices", "step"])


def _drive(sim, deadline, drive):
    if drive == "slices":
        for fraction in (0.09, 0.25, 0.4, 0.5, 0.77):
            sim.run_until(deadline * fraction)
    elif drive == "step":
        while True:
            when = sim.peek()
            if when is None or when > deadline:
                break
            assert sim.step()
    sim.run_until(deadline)


def _execute(sim, program, deadline, drive="run_until"):
    """Run one generated program on ``sim``; returns the fire log."""
    log = []
    handles = []

    def restart(idx, target, delay):
        handles[target] = sim.restart(
            handles[target], delay, on_watchdog, idx, label=f"wd{idx}"
        )

    def on_watchdog(idx):
        log.append(("wd", idx, sim.now))
        _, _first, _kick_at, rearm, mode = program[idx]
        if mode == "self" and sum(e[:2] == ("wd", idx) for e in log) < 3:
            restart(idx, idx, rearm)

    def kick(idx):
        log.append(("kick", idx, sim.now))
        _, _first, _kick_at, rearm, mode = program[idx]
        if mode == "kick":
            restart(idx, idx, rearm)
        elif mode == "kick-twice":
            restart(idx, idx, rearm)
            restart(idx, idx, rearm)
        elif mode == "kick-back":
            restart(idx, idx, rearm + 7.75)
            restart(idx, idx, rearm)
        elif mode == "cancel-kick":
            handles[idx].cancel()
            restart(idx, idx, rearm)
        elif mode == "sibling" and idx > 0:
            restart(idx, idx - 1, rearm)

    def fire_post(idx, mode):
        log.append(("post", idx, sim.now))
        if mode == "chain":
            sim.post(0.0, lambda: log.append(("chained", idx, sim.now)),
                     label=f"chain{idx}")
        elif mode == "spawn":
            sim.schedule(0.25, lambda: log.append(("post-spawned", idx, sim.now)),
                         label=f"pspawn{idx}")

    def post_from_timer(idx):
        log.append(("poster", idx, sim.now))
        sim.post(0.5, fire_post, idx, "top", label=f"post{idx}")

    def fire_oneshot(idx, action):
        log.append(("one", idx, sim.now))
        if action == "spawn":
            sim.schedule(0.25, lambda: log.append(("spawned", idx, sim.now)),
                         label=f"spawn{idx}")
        elif action == "cancel":
            # Cancel the *next* armed sibling that is still pending (a
            # post has no handle: its slot holds None).
            for h in handles[idx + 1:]:
                if h is not None and not h._cancelled:
                    h.cancel()
                    break
        elif action == "respawn":
            # Net-zero trick: replace a pending sibling with a new timer.
            for h in handles[idx + 1:]:
                if h is not None and not h._cancelled:
                    h.cancel()
                    sim.schedule(0.5, lambda: log.append(("resp", idx, sim.now)),
                                 label=f"resp{idx}")
                    break

    for idx, spec in enumerate(program):
        if spec[0] == "post":
            _, delay, mode = spec
            if mode == "from-timer":
                handles.append(
                    sim.schedule(delay, post_from_timer, idx, label=f"poster{idx}")
                )
            else:
                sim.post(delay, fire_post, idx, mode, label=f"post{idx}")
                handles.append(None)
        elif spec[0] == "rst":
            _, first, kick_at, rearm, mode = spec
            handles.append(sim.schedule(first, on_watchdog, idx, label=f"wd{idx}"))
            if mode == "outside":
                restart(idx, idx, rearm)
            elif mode != "self":
                sim.schedule(kick_at, kick, idx, label=f"kick{idx}")
        elif spec[0] == "one":
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
    _drive(sim, deadline, drive)
    return log


@given(program=_PROGRAM, drive=_DRIVES)
@settings(max_examples=90, deadline=None)
def test_wheel_matches_heap_reference(program, drive):
    deadline = 12.0
    sim = Simulator()
    reference = _HeapReference()
    log_sim = _execute(sim, program, deadline, drive)
    log_ref = _execute(reference, program, deadline, drive)
    assert log_sim == log_ref
    assert sim._events_processed == reference._events_processed
    assert sim.now == reference.now == deadline


@given(program=_PROGRAM, drive=_DRIVES)
@settings(max_examples=25, deadline=None)
def test_wheel_overflow_horizon_matches_reference(program, drive):
    """Same property with delays stretched to keep-alive scale (tens of s)."""
    deadline = 95.0
    sim = Simulator()
    reference = _HeapReference()
    scale = 11.0

    def stretch(spec):
        if spec[0] == "one":
            return ("one", spec[1] * scale, spec[2])
        if spec[0] == "rst":
            return ("rst", spec[1] * scale, spec[2] * scale, spec[3] * scale, spec[4])
        if spec[0] == "post":
            return ("post", spec[1] * scale, spec[2])
        return ("per", spec[1] * scale, spec[2] * scale, spec[3], spec[4])

    stretched = [stretch(s) for s in program]
    assert _execute(sim, stretched, deadline, drive) == _execute(
        reference, stretched, deadline, drive
    )
    assert sim._events_processed == reference._events_processed


@given(program=_PROGRAM_WITH_POSTS, drive=_DRIVES)
@settings(max_examples=90, deadline=None)
def test_posts_match_heap_reference(program, drive):
    """Posts fire exactly where a dropped-handle ``schedule`` would."""
    deadline = 12.0
    sim = Simulator()
    reference = _HeapReference()
    log_sim = _execute(sim, program, deadline, drive)
    log_ref = _execute(reference, program, deadline, drive)
    assert log_sim == log_ref
    assert sim._events_processed == reference._events_processed
    assert sim.now == reference.now == deadline
    # Nothing is left pending that the reference would not also hold.
    assert sim.pending_events == sum(
        1 for *_, timer in reference._q if not timer._cancelled
    )


# ---------------------------------------------------- restart, stale nodes

def _watchdog_behind_stale_node():
    """A watchdog re-armed in place from 1.0 to 10.0, and a timer at 3.0."""
    sim = Simulator()
    fired = []
    watchdog = sim.schedule(1.0, fired.append, "wd")
    sim.schedule(3.0, fired.append, "other")
    assert sim.restart(watchdog, 10.0, fired.append, "wd") is watchdog
    assert (watchdog.when, watchdog.active, sim.pending_events) == (10.0, True, 2)
    return sim, fired, watchdog


def test_peek_requeues_stale_top_without_an_event():
    sim, fired, _ = _watchdog_behind_stale_node()
    assert sim.peek() == 3.0
    assert (fired, sim.now, sim.events_processed, sim.pending_events) == ([], 0.0, 0, 2)


def test_step_skips_stale_top_and_fires_next_live_event():
    sim, fired, watchdog = _watchdog_behind_stale_node()
    assert sim.step()
    assert (fired, sim.now, sim.events_processed) == (["other"], 3.0, 1)
    assert sim.step()
    assert (fired, sim.now, sim.events_processed) == (["other", "wd"], 10.0, 2)
    assert not watchdog.active and not sim.step()


def test_run_until_past_stale_top_moves_clock_only_to_deadline():
    sim, fired, watchdog = _watchdog_behind_stale_node()
    sim.run_until(2.0)  # the stale node at 1.0 is re-queued at 10.0
    assert (fired, sim.now, sim.events_processed, sim.pending_events) == ([], 2.0, 0, 2)
    sim.run_until(9.999)
    assert (fired, sim.events_processed) == (["other"], 1)
    sim.run_until(10.0)
    assert (fired, sim.now, sim.events_processed) == (["other", "wd"], 10.0, 2)
    assert not watchdog.active and sim.pending_events == 0


# ------------------------------------------------------------- digest pins

def test_table1_byte_identity_pin():
    from repro.experiments.table1 import render_table1, run_table1

    rows = run_table1(labels=TABLE1_LABELS, trials=3)
    digest = hashlib.sha256(render_table1(rows).encode()).hexdigest()
    assert digest == TABLE1_SHA256, (
        "Table I bytes moved — the scheduler (or anything beneath it) "
        f"perturbed event order: {digest}"
    )


def test_table3_canonical_digest_pin():
    from repro.experiments.table3 import run_table3

    digest = hashlib.blake2b(
        canonical(run_table3()), digest_size=16
    ).hexdigest()
    assert digest == TABLE3_BLAKE2B, (
        f"Table III canonical result moved: {digest}"
    )
