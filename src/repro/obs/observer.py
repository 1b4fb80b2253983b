"""Scheduler observers and the per-simulation observability facade.

The :class:`~repro.simnet.scheduler.Simulator` hot loop must stay fast:
profiling is therefore *injected* with
:meth:`~repro.simnet.scheduler.Simulator.set_observer`, and its one hook is
:meth:`SimObserver.timer_fired`.  :class:`SimObserver` is the no-op base —
install it (or nothing) and the loop pays one attribute load and a branch
per event.
:class:`SchedulerProfiler` is the real implementation: it keeps per-label
fire counters, a queue-depth gauge, and per-label firing-latency
histograms (time from ``schedule()`` or ``post()`` to the callback
running) in a :class:`~repro.obs.metrics.MetricsRegistry`.

:class:`Observability` bundles the registry and tracer for one simulation.
Every :class:`Simulator` owns a disabled instance from birth; components
cache a reference and check ``obs.enabled`` (a plain attribute) before
doing any instrumentation work, so a run without observability is within
noise of the pre-instrumentation code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from .tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator, Timer


class SimObserver:
    """No-op scheduler observer; subclass and override :meth:`timer_fired`."""

    def timer_fired(self, timer: "Timer", now: float, queue_depth: int) -> None:
        """A timer's callback is about to run; ``queue_depth`` excludes it.

        ``queue_depth`` is the number of *live* pending timers (scheduled,
        not yet fired or cancelled) — cancelled timers still in the heap
        awaiting lazy removal are never counted.  The hook fires once per
        event, every fire of a periodic timer included.  A handle-less post
        arrives as a one-shot :class:`~repro.simnet.scheduler.Timer` built
        from its node, with the ``created_at`` of the post call.
        """


class SchedulerProfiler(SimObserver):
    """Records scheduler activity into a metrics registry.

    Metric handles are cached per label so the per-event cost is two dict
    lookups and three O(1) updates — cheap enough to leave on for a whole
    campaign.
    """

    UNLABELLED = "<unlabelled>"

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._fired: dict[str, Counter] = {}
        self._latency: dict[str, StreamingHistogram] = {}
        self._depth: Gauge = registry.gauge("scheduler", "queue_depth")
        self._events: Counter = registry.counter("scheduler", "events_processed")

    def timer_fired(self, timer: "Timer", now: float, queue_depth: int) -> None:
        label = timer.label or self.UNLABELLED
        counter = self._fired.get(label)
        if counter is None:
            counter = self.registry.counter("scheduler", "timer_fired", label=label)
            self._fired[label] = counter
            self._latency[label] = self.registry.histogram(
                "scheduler", "firing_latency", label=label
            )
        counter.inc()
        self._events.inc()
        self._latency[label].observe(now - timer.created_at)
        self._depth.set(queue_depth)


class Observability:
    """Registry + tracer for one simulation; disabled (and empty) by default.

    The same object lives for the simulator's whole lifetime so components
    may cache it: :meth:`enable` mutates it in place rather than replacing
    it.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.registry: MetricsRegistry | None = None
        self.tracer: Tracer | None = None

    def enable(self, sim: "Simulator") -> "Observability":
        if not self.enabled:
            self.registry = MetricsRegistry()
            self.tracer = Tracer(sim)
            self.enabled = True
        return self
