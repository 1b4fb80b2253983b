"""Discrete-event scheduler: one binary heap of ``(when, seq, event)`` nodes.

The scheduler is the heartbeat of the whole reproduction: TCP retransmission
and keep-alive timers, MQTT PINGREQ periods, HTTP response timeouts, sensor
trigger timelines, and the attacker's hold-and-release schedules are all
events in a single logical timeline.  Determinism matters — two runs with
the same seed and the same timeline must produce identical packet traces —
so ties are broken by insertion order, never by object identity.

Every pending event sits in one :mod:`heapq` list as a plain
``(when, seq, event)`` tuple, where ``event`` is either a :class:`Timer`
(one-shot or periodic) or, for a handle-less post, the tuple
``(callback, args, label, created_at)``.  ``seq`` is a single
per-simulator insertion counter, so tuple comparison (done in C) settles
every order on the first two fields and fire order is exactly
``(when, seq)``.

* **Handle-less posts.**  :meth:`Simulator.post` is
  :meth:`~Simulator.schedule` for callers that never keep the handle (LAN
  and WAN deliveries, the hijacker's relay): it draws its ``seq`` at the
  same point but queues no :class:`Timer`, so it can be neither cancelled
  nor re-armed.  A post fires exactly as a one-shot timer would, and an
  observer sees it fire through a :class:`Timer` built from its node.
* **Lazy cancellation.**  ``Timer.cancel()`` only flags the timer and
  drops it from the live count; the node stays in the heap and is skipped
  when it reaches the top.  The heap stays small on every campaign (a few
  hundred nodes at peak), so cancelled nodes never need compacting.
* **Periodic timers.**  :meth:`Simulator.schedule_periodic` returns a
  :class:`PeriodicTimer` that the loop re-arms in place after each fire,
  drawing its new ``seq`` after the callback returns and setting
  ``created_at`` to the fire instant — exactly as if the callback had
  ended with ``sim.schedule(period, ...)``.
* **Watchdog re-arm.**  :meth:`Simulator.restart` is ``timer.cancel()``
  followed by :meth:`~Simulator.schedule`.  When a live one-shot's deadline
  does not move earlier, the timer keeps its heap node: the re-arm draws
  its ``seq`` at once and stores the new ``(when, seq)`` on the timer.  A
  node whose ``seq`` is no longer its timer's is stale, and is re-queued at
  the timer's key when it reaches the top.  Every node popped before it
  has a smaller key than the new one, so fire order stays exactly
  ``(when, seq)``; the re-queue is no event and moves no clock.

``tests/test_scheduler_equivalence.py`` drives random schedule / post /
cancel / re-arm / restart programs through this loop and through a
textbook heap reference, and pins the rendered Table I and canonical
Table III digests.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, TYPE_CHECKING

from ..obs import telemetry
from ..obs.observer import Observability

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver


class Timer:
    """Handle for a scheduled callback.

    A fired or cancelled timer is inert; ``cancel()`` is idempotent so
    protocol state machines can cancel defensively.
    """

    __slots__ = (
        "callback",
        "args",
        "when",
        "created_at",
        "_cancelled",
        "_fired",
        "label",
        "_sim",
        "_seq",
    )

    #: Re-arm interval; None for one-shots (:class:`PeriodicTimer` sets it).
    period: float | None = None

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        label: str = "",
        created_at: float = 0.0,
    ) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.label = label
        self.created_at = created_at
        self._cancelled = False
        self._fired = False
        #: The simulator counting this timer as pending, if any.
        self._sim: "Simulator | None" = None
        # ``_seq``, the seq of the timer's current heap key, is set when the
        # simulator queues the timer; a heap node carrying another seq is
        # stale (see Simulator.restart).

    @property
    def active(self) -> bool:
        """True while the timer is pending (not yet fired nor cancelled)."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._sim is not None:
            self._sim._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else ("fired" if self._fired else "cancelled")
        return f"Timer({self.label or self.callback!r} @ {self.when:.3f}, {state})"


class PeriodicTimer(Timer):
    """A timer the scheduler re-arms in place after every fire.

    ``active`` stays true across fires; :meth:`Timer.cancel` stops the
    cycle.  ``when`` always holds the next pending fire time.
    """

    __slots__ = ("period",)

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        period: float,
        label: str = "",
        created_at: float = 0.0,
    ) -> None:
        super().__init__(when, callback, args, label=label, created_at=created_at)
        self.period = period

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "active"
        return (
            f"PeriodicTimer({self.label or self.callback!r} @ {self.when:.3f} "
            f"every {self.period:.3f}, {state})"
        )


class Simulator:
    """Event loop owning the virtual clock.

    Components schedule callbacks with :meth:`schedule` (relative delay),
    :meth:`schedule_periodic` (recurring), or :meth:`post` (relative
    delay, no handle).  ``run_until`` / ``run`` drive the loop.
    :attr:`now` is a plain attribute that only the loop
    writes; everything else reads it.  The simulator also owns a seeded
    :class:`random.Random` so that jitter (for example TCP retransmission
    backoff randomisation) is reproducible.
    """

    #: When the event budget is near, fire counts over this trailing window
    #: of events are tallied so the budget error can name the hot timers.
    BUDGET_TALLY_WINDOW = 100_000

    #: Cap on distinct labels the near-budget tally tracks; the long tail
    #: beyond it is folded into ``<other>`` so a high-cardinality label set
    #: cannot grow the tally dict without bound.
    TALLY_MAX_LABELS = 256

    #: The telemetry capture's account of this simulator, if one was active.
    _telemetry_account: "telemetry.SimulationAccount | None" = None

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time in seconds; read-only outside the loop.
        self.now = 0.0
        self.rng = random.Random(seed)
        #: ``(when, seq, timer)`` and ``(when, seq, (callback, args, label,
        #: created_at))`` nodes; ``seq`` is unique, so no comparison ever
        #: reaches the third field.
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        #: Ids of this simulation's IoT messages (``IoTMessage.msg_id``).
        self.msg_ids = itertools.count(1)
        self._pending = 0  # live (un-fired, un-cancelled) timers, all kinds
        self._events_processed = 0
        self._max_events = 50_000_000  # runaway-loop backstop
        self._tally_after = max(0, self._max_events - self.BUDGET_TALLY_WINDOW)
        self._label_fires: dict[str, int] = {}
        self._tally_total = 0
        #: Scheduler profiling hook; None keeps the hot loop branch-cheap.
        self._observer: "SimObserver | None" = None
        #: Per-simulation observability facade; disabled until enabled.
        self.obs = Observability()
        #: Optional cross-layer invariant suite (see
        #: :mod:`repro.faults.invariants`); None keeps layer hooks free.
        self.invariants: Any = None
        # Registration is construction-time only: an active telemetry
        # capture opens an account for this simulator, and the hot loop
        # stays untouched — counts are read off the finished simulator.
        self._telemetry_account = telemetry.register_simulator(self)

    def __del__(self) -> None:
        # The capture keeps an account, not the simulator: hand it the
        # final counts before the simulator (and its home) is freed.
        account = self._telemetry_account
        if account is not None:
            account.settle(self)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (scheduled, not yet fired or cancelled) timers."""
        return self._pending

    @property
    def max_events(self) -> int:
        return self._max_events

    @max_events.setter
    def max_events(self, budget: int) -> None:
        if budget <= 0:
            raise ValueError(f"event budget must be positive: {budget}")
        self._max_events = budget
        # A budget below the tally window must not go negative: that would
        # re-enable tallying for events already processed and, worse, keep
        # the "near budget" branch permanently hot.  Clamping to zero means
        # small budgets simply tally from the first event.
        self._tally_after = max(0, budget - self.BUDGET_TALLY_WINDOW)
        # A new budget starts a new tally window: fires counted against the
        # old budget must not masquerade as this run's hot timers.
        self._label_fires.clear()
        self._tally_total = 0

    def set_observer(self, observer: "SimObserver | None") -> None:
        """Install (or remove) the scheduler profiling observer.

        The observer sees every event from the next one on.  A post, queued
        before or after the install, is reported when it fires through a
        :class:`Timer` built from its node.
        """
        self._observer = observer

    def enable_observability(self) -> Observability:
        """Turn on the metrics registry and tracer for this simulation.

        A :class:`~repro.obs.observer.SchedulerProfiler` is installed as the observer
        unless one is already set; the facade is returned.
        """
        obs = self.obs.enable(self)
        if self._observer is None:
            from ..obs.observer import SchedulerProfiler

            assert obs.registry is not None
            self._observer = SchedulerProfiler(obs.registry)
        return obs

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        return self._insert(self.now + delay, callback, args, label)

    def post(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> None:
        """:meth:`schedule` without a handle: a one-shot nobody can cancel.

        For the per-packet callers that drop the handle (LAN and WAN
        deliveries, the hijacker's relay).  The ``seq`` is drawn here,
        exactly where :meth:`schedule` draws it, and the node fires as a
        one-shot timer would: same clock, event count, budget tally (by
        ``label``) and :attr:`pending_events`.  An observer sees it fire
        through a :class:`Timer` built from its node.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        now = self.now
        heapq.heappush(
            self._heap, (now + delay, next(self._seq), (callback, args, label, now))
        )
        self._pending += 1

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        first: float | None = None,
        label: str = "",
    ) -> PeriodicTimer:
        """Schedule ``callback(*args)`` every ``period`` seconds.

        The first fire is ``first`` seconds from now (default: one period).
        After each fire the scheduler re-arms the same
        :class:`PeriodicTimer` in place with a fresh insertion sequence
        number and ``created_at`` set to the fire instant, exactly as if
        the callback had ended with ``sim.schedule(period, ...)``.  Cancel
        to stop.
        """
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        delay = period if first is None else first
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: first={first}")
        return self._insert(  # type: ignore[return-value]
            self.now + delay, callback, args, label, period
        )

    def restart(
        self,
        timer: Timer | None,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Timer:
        """Re-arm a watchdog: ``timer.cancel()`` then :meth:`schedule`.

        Returns the live timer, which callers keep in place of ``timer``.
        When ``timer`` is a live one-shot of this simulator and the new
        deadline is not earlier than its current one, the same timer is
        re-armed in place: it takes a fresh ``seq`` now and keeps its heap
        node, which the loop re-queues at the new key once it reaches the
        top.  Every other case — an earlier deadline, a fired or cancelled
        timer, no timer, a periodic timer — cancels and schedules exactly as
        written.
        """
        now = self.now
        when = now + delay
        if (
            timer is not None
            and when >= timer.when
            and timer._sim is self
            and timer.period is None
            and not (timer._cancelled or timer._fired)
        ):
            timer.when = when
            timer._seq = next(self._seq)
            timer.callback = callback
            timer.args = args
            timer.label = label
            timer.created_at = now
            return timer
        if timer is not None:
            timer.cancel()
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        return self._insert(when, callback, args, label)

    def _insert(
        self,
        when: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
        label: str,
        period: float | None = None,
    ) -> Timer:
        """Queue a new timer (a :class:`PeriodicTimer` when ``period`` is
        given) at ``when``, which callers have checked is not in the past."""
        now = self.now
        if period is None:
            timer = Timer(when, callback, args, label, now)
        else:
            timer = PeriodicTimer(when, callback, args, period, label, now)
        timer._sim = self
        timer._seq = seq = next(self._seq)
        heapq.heappush(self._heap, (when, seq, timer))
        self._pending += 1
        return timer

    # ------------------------------------------------------------------ firing

    def peek(self) -> float | None:
        """Time of the next pending event, or None when the queue is drained."""
        heap = self._heap
        while heap:
            when, seq, event = heap[0]
            if type(event) is tuple:  # a post is always live
                return when
            if event._cancelled:
                heapq.heappop(heap)
            elif seq != event._seq:  # re-armed in place: re-queue, no event
                heapq.heapreplace(heap, (event.when, event._seq, event))
            else:
                return when
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns False when nothing is pending."""
        when = self.peek()
        if when is None:
            return False
        self._fire(heapq.heappop(self._heap)[2], when)
        return True

    def _fire(self, timer: Any, when: float) -> None:
        """Fire one live event just popped off the heap, re-arming periodics.

        A post node fires through the one-shot :class:`Timer` it stands for,
        so an observer sees it as that timer.  ``run_until`` inlines the
        unobserved post and the one-shot timer, which are nearly every
        event.
        """
        if type(timer) is tuple:  # (callback, args, label, created_at)
            timer = Timer(when, *timer)
        self.now = when  # heap order guarantees monotonicity
        self._events_processed += 1
        if self._events_processed > self._tally_after:
            self._tally_near_budget(timer.label)
        period = timer.period
        if period is None:
            timer._fired = True
            self._pending -= 1
            depth = self._pending
        else:
            depth = self._pending - 1  # the re-armed timer stays pending
        if self._observer is not None:
            self._observer.timer_fired(timer, when, depth)
        timer.callback(*timer.args)
        if period is not None and not timer._cancelled:
            # Exactly ``sim.schedule(period, ...)`` from the callback: a
            # fresh seq drawn now, and the re-arm scheduled at this instant.
            timer.when = when + period
            timer.created_at = when
            timer._seq = seq = next(self._seq)
            heapq.heappush(self._heap, (timer.when, seq, timer))

    def _tally_near_budget(self, label: str) -> None:
        """Count fires by label near the budget; raise a diagnosable error.

        The tally only starts within :data:`BUDGET_TALLY_WINDOW` events of
        the budget so normal runs never pay for it; a runaway loop is by
        definition still spinning in that window, so the top labels identify
        the culprit without a debugger.  The tally is a *trailing* window:
        once twice the window has been counted the counts are halved (an
        exponential decay that keeps persistent hot labels on top while
        letting stale ones fade), and at most :data:`TALLY_MAX_LABELS`
        distinct labels are tracked — the long tail folds into ``<other>``.
        """
        fires = self._label_fires
        count = fires.get(label)
        if count is None and len(fires) >= self.TALLY_MAX_LABELS:
            label = "<other>"
            count = fires.get(label)
        fires[label] = 1 if count is None else count + 1
        self._tally_total += 1
        if self._tally_total >= 2 * self.BUDGET_TALLY_WINDOW:
            self._label_fires = {k: v // 2 for k, v in fires.items() if v >= 2}
            self._tally_total = sum(self._label_fires.values())
        if self._events_processed > self._max_events:
            top = sorted(self._label_fires.items(), key=lambda kv: -kv[1])[:5]
            window = min(self.BUDGET_TALLY_WINDOW, self._max_events)
            hot = ", ".join(f"{label or '<unlabelled>'} x{count}" for label, count in top)
            raise RuntimeError(
                f"simulation exceeded event budget ({self._max_events} events); "
                f"runaway loop? hottest timers over the last {window} events: {hot}"
            )

    def run_until(self, deadline: float) -> None:
        """Process events until the clock reaches ``deadline``.

        Events scheduled exactly at ``deadline`` are executed; the clock
        never moves past ``deadline`` even if later events are pending.
        ``self._observer`` and ``_tally_after`` are re-read for every
        event, so a callback installing a profiler or tightening
        ``max_events`` mid-run takes effect from the next event on.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, seq, event = heap[0]
            if when > deadline:
                break
            pop(heap)
            if type(event) is tuple:  # a post: a one-shot without a handle
                if self._observer is not None:
                    self._fire(event, when)
                    continue
                callback, args, label, _ = event
                self.now = when
                self._events_processed = fired = self._events_processed + 1
                if fired > self._tally_after:
                    self._tally_near_budget(label)
                self._pending -= 1
                callback(*args)
                continue
            if event._cancelled:
                continue
            if seq != event._seq:  # re-armed in place: re-queue, no event
                heapq.heappush(heap, (event.when, event._seq, event))
                continue
            if event.period is not None:
                self._fire(event, when)
                continue
            self.now = when
            self._events_processed = fired = self._events_processed + 1
            if fired > self._tally_after:
                self._tally_near_budget(event.label)
            event._fired = True
            self._pending -= 1
            if self._observer is not None:
                self._observer.timer_fired(event, when, self._pending)
            event.callback(*event.args)
        if deadline > self.now:
            self.now = deadline

    def run(self, for_duration: float | None = None) -> None:
        """Run for ``for_duration`` seconds, or drain the queue when None."""
        if for_duration is not None:
            self.run_until(self.now + for_duration)
            return
        while self.step():
            pass


def run_until(sim: Simulator, predicate: Callable[[], bool], timeout: float) -> bool:
    """Advance ``sim`` until ``predicate`` holds or ``timeout`` passes.

    The predicate is re-evaluated per simulated *instant*, not per event:
    each pass batch-steps to the next event's timestamp (which fires every
    event scheduled at that instant in one fused scheduler loop) and only
    then re-checks.  Predicates are functions of simulation state that
    changes when events fire, so checking between two events of the same
    instant buys nothing — it was the dominant Python-level overhead of the
    profiling campaigns.
    """
    deadline = sim.now + timeout
    while not predicate():
        nxt = sim.peek()
        if nxt is None or nxt > deadline:
            sim.run_until(deadline)
            return predicate()
        sim.run_until(nxt)
    return True
