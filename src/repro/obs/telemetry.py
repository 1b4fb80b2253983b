"""Campaign-scale telemetry: worker-side capture and resource accounting.

``repro.parallel`` runs every shard in its own process, and until this
module existed each worker's observability died with it: the driver kept
only its own bookkeeping counters.  The pieces here make shard telemetry
*survive the pool*, as one :class:`~repro.obs.metrics.MetricsRegistry`
from shard to manifest:

* :func:`capture` — a context manager the shard wrapper puts around the
  shard function.  While active, a shard function hands the registry its
  metrics go to over with :func:`register_registry`, and every
  :class:`~repro.simnet.scheduler.Simulator` constructed registers itself;
  :meth:`TelemetryCapture.finish` folds them into the shard's one registry
  (simulators contribute their event counts without any per-event hook,
  so the scheduler hot loop stays untouched).  A simulator is accounted
  for by a small :class:`SimulationAccount`, not held: a finished home can
  be collected while the rest of its shard runs.
* :func:`harvest_result` — result-shape telemetry: fault-injector stats,
  invariant violations, alarm counts, and numeric scenario metrics found in
  a shard's return value are mirrored into the shard's registry, so a
  campaign's merged metrics carry the paper-level signals (delays, drops,
  violations) even for runs that never enabled full observability.
* :class:`ShardUsage` — the worker's resource account of one shard
  (wall/CPU seconds, peak RSS via ``getrusage``).

The runner pickles a shard's registry back across the pool, caches it with
the result in ``repro.cache``, and folds the registries in shard order into
the campaign's metrics.  Registries merge exactly (counters add, gauges
add / max high-water, histogram buckets add), so merge order can never
change a count, a bucket or a quantile.

Everything deterministic is kept strictly apart from everything timed:
only registries a shard hands over join its telemetry, and the usage goes
to the shard's manifest row, never into the registry, so ``jobs=1`` and
``jobs=N`` campaigns — warm or cold — merge to identical metrics.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


# ------------------------------------------------------------- shard usage


@dataclass(frozen=True)
class ShardUsage:
    """Worker-process resource account of one shard (never deterministic)."""

    wall_seconds: float
    cpu_seconds: float
    peak_rss_kb: int

    @classmethod
    def measure(cls, start_wall: float, end_wall: float,
                start_cpu: float) -> "ShardUsage":
        if resource is None:  # pragma: no cover - non-POSIX fallback
            return cls(wall_seconds=end_wall - start_wall, cpu_seconds=0.0,
                       peak_rss_kb=0)
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return cls(
            wall_seconds=end_wall - start_wall,
            cpu_seconds=(ru.ru_utime + ru.ru_stime) - start_cpu,
            peak_rss_kb=int(ru.ru_maxrss),
        )


def cpu_seconds_now() -> float:
    """Process CPU time (user+sys) so far; 0.0 where ``resource`` is absent."""
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return 0.0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# ----------------------------------------------------------------- capture


class SimulationAccount:
    """What a capture keeps of one simulator: its final counts.

    Holding the :class:`~repro.simnet.scheduler.Simulator` itself would
    keep its whole home alive, through the event heap, until the shard
    ends.  The account holds a weak reference instead and copies the
    figures the capture needs: the simulator settles it as it is
    collected, and :meth:`TelemetryCapture.snapshot` settles the ones still
    alive.
    """

    __slots__ = ("_sim", "events_processed", "clock")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = weakref.ref(sim)
        self.events_processed = 0
        self.clock = 0.0

    def settle(self, sim: "Simulator | None" = None) -> None:
        """Copy the simulator's figures; a no-op once it has been collected."""
        if sim is None:
            sim = self._sim()
            if sim is None:
                return
        self.events_processed = sim.events_processed
        self.clock = sim.now


class TelemetryCapture:
    """Collects the registries handed over and the simulators created
    while active."""

    def __init__(self) -> None:
        self.registries: list[MetricsRegistry] = []
        #: One account per simulator, in registration order.
        self.simulations: list[SimulationAccount] = []

    # Registration happens at *construction* time only — nothing here is on
    # a per-event path, which is what keeps capture overhead invisible to
    # the scheduler microbenchmark.

    def snapshot(self) -> MetricsRegistry:
        """Fold everything captured into one registry."""
        merged = MetricsRegistry()
        for registry in self.registries:
            merged.merge(registry)
        if self.simulations:
            sims = merged.counter("scheduler", "simulations")
            events = merged.counter("scheduler", "events_processed")
            clock = merged.histogram("scheduler", "sim_clock_seconds")
            for account in self.simulations:
                account.settle()
                sims.inc()
                events.inc(account.events_processed)
                clock.observe(account.clock)
        return merged

    def finish(self, result: Any = None) -> MetricsRegistry:
        """Harvest the result shape and fold the shard's one registry."""
        if result is not None:
            harvest = MetricsRegistry()
            harvest_result(result, harvest)
            self.registries.append(harvest)
        return self.snapshot()


_CAPTURES: list[TelemetryCapture] = []


def register_registry(registry: MetricsRegistry) -> None:
    """Hand ``registry`` to the innermost active capture, if one is active.

    A shard function calls this for the registry it records into; the
    registry is folded into the shard's telemetry when the shard finishes.
    """
    if _CAPTURES:
        _CAPTURES[-1].registries.append(registry)


def register_simulator(sim: "Simulator") -> SimulationAccount | None:
    """Open an account for ``sim`` in the innermost capture, if one is active.

    The simulator keeps the returned account and settles it as it is
    collected.
    """
    if not _CAPTURES:
        return None
    account = SimulationAccount(sim)
    _CAPTURES[-1].simulations.append(account)
    return account


class capture:
    """Context manager installing a :class:`TelemetryCapture`.

    Captures nest: a registry or simulator registers with the *innermost*
    active capture only, mirroring how a nested campaign's shards should
    account to the nested campaign.
    """

    def __enter__(self) -> TelemetryCapture:
        cap = TelemetryCapture()
        _CAPTURES.append(cap)
        return cap

    def __exit__(self, *exc_info: Any) -> None:
        _CAPTURES.pop()


# ------------------------------------------------------------------ harvest


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not (isinstance(value, float) and math.isnan(value))
    )


def harvest_result(result: Any, registry: MetricsRegistry, _depth: int = 0) -> None:
    """Mirror result-shape telemetry into ``registry``.

    Understands the experiment result idioms of this repo without importing
    any of them: objects carrying ``fault_stats`` dicts,
    ``invariant_violations`` lists, ``alarms`` dicts, integer ``violations``
    counts, and ``metrics`` dicts of numeric measurements (recorded into
    per-name histograms so delays aggregate across cases).  Recurses
    through sequences and through ``baseline``/``attacked`` pairs only —
    everything found is deterministic given the shard's seed.
    """
    if result is None or _depth > 4:
        return
    if isinstance(result, (list, tuple)):
        for item in result:
            harvest_result(item, registry, _depth)
        return
    fault_stats = getattr(result, "fault_stats", None)
    if isinstance(fault_stats, dict):
        for key in sorted(fault_stats):
            value = fault_stats[key]
            if _is_number(value):
                registry.counter("faults", str(key)).inc(int(value))
    violations = getattr(result, "invariant_violations", None)
    if isinstance(violations, list):
        registry.counter("invariants", "runs_audited").inc()
        if violations:
            registry.counter("invariants", "violations").inc(len(violations))
    count = getattr(result, "violations", None)
    if _is_number(count) and count:
        registry.counter("invariants", "violations").inc(int(count))
    alarms = getattr(result, "alarms", None)
    if isinstance(alarms, dict):
        for kind in sorted(alarms):
            if _is_number(alarms[kind]):
                registry.counter("alarms", str(kind)).inc(int(alarms[kind]))
    metrics = getattr(result, "metrics", None)
    if isinstance(metrics, dict):
        for name in sorted(metrics):
            value = metrics[name]
            if _is_number(value) and not math.isinf(value):
                registry.histogram("campaign", "result_metric",
                                   metric=str(name)).observe(float(value))
    for attr in ("baseline", "attacked"):
        nested = getattr(result, attr, None)
        if nested is not None and nested is not result:
            harvest_result(nested, registry, _depth + 1)
