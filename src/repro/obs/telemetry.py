"""Campaign-scale telemetry: mergeable snapshots and worker-side capture.

``repro.parallel`` runs every shard in its own process, and until this
module existed each worker's observability died with it: the driver kept
only its own bookkeeping counters.  The pieces here make shard telemetry
*survive the pool*:

* :class:`RegistrySnapshot` — a compact, picklable, canonical snapshot of a
  :class:`~repro.obs.metrics.MetricsRegistry`.  Snapshots merge (counters
  add, gauges add / max high-water, histogram buckets add), and merging is
  exact for counts, buckets, min/max, and therefore quantiles — merge order
  can never change what a campaign reports.
* :func:`capture` — a context manager the shard wrapper puts around the
  shard function.  While active, every ``MetricsRegistry`` and every
  :class:`~repro.simnet.scheduler.Simulator` constructed registers itself
  with the capture; at close the capture folds them into one snapshot
  (simulators contribute their event counts without any per-event hook, so
  the scheduler hot loop stays untouched).  A simulator is accounted for
  by a small :class:`SimulationAccount`, not held: a finished home can be
  collected while the rest of its shard runs.
* :func:`harvest_result` — result-shape telemetry: fault-injector stats,
  invariant violations, alarm counts, and numeric scenario metrics found in
  a shard's return value are mirrored into the capture registry, so a
  campaign's merged metrics carry the paper-level signals (delays, drops,
  violations) even for runs that never enabled full observability.
* :class:`ShardTelemetry` — what rides back with each shard result: the
  snapshot, span summaries from any observed simulators, and the worker's
  resource usage (wall/CPU seconds, peak RSS via ``getrusage``).  The
  deterministic part (snapshot + spans) is byte-identical for any ``jobs``
  value and is cached alongside the result by ``repro.cache``; the usage
  part is per-run and reported separately.

Everything deterministic is kept strictly apart from everything timed: the
``parallel`` component (wall clocks, cache hit counts) is excluded from
captured snapshots, so ``jobs=1`` and ``jobs=N`` campaigns — warm or cold —
merge to identical metrics.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator
    from .tracing import Span

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Version stamp carried by every snapshot (bump on layout changes).
SNAPSHOT_SCHEMA = 1

#: Components whose metrics are wall-clock/cache-state dependent and must
#: never enter the deterministic campaign snapshot.
NONDETERMINISTIC_COMPONENTS = frozenset({"parallel"})


# --------------------------------------------------------------- snapshots


@dataclass(frozen=True)
class RegistrySnapshot:
    """Picklable, canonical image of one registry's metrics.

    ``records`` is exactly :meth:`MetricsRegistry.snapshot` output (sorted
    by key), so a snapshot round-trips through JSON, pickle, and
    :meth:`to_registry` without loss.
    """

    records: tuple[dict[str, Any], ...] = ()
    schema: int = SNAPSHOT_SCHEMA

    @classmethod
    def of(cls, registry: MetricsRegistry,
           exclude_components: frozenset[str] = frozenset()) -> "RegistrySnapshot":
        records = tuple(
            r for r in registry.snapshot() if r["component"] not in exclude_components
        )
        return cls(records=records)

    @classmethod
    def empty(cls) -> "RegistrySnapshot":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.records)

    def to_registry(self) -> MetricsRegistry:
        return MetricsRegistry.from_records(self.records)

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """A new snapshot with both sets of metrics folded together."""
        if not self.records:
            return other
        if not other.records:
            return self
        merged = self.to_registry()
        merged.merge(other.to_registry())
        return RegistrySnapshot.of(merged)


# ------------------------------------------------------------ shard payload


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


@dataclass(frozen=True)
class ShardTelemetry:
    """Everything one shard reports back besides its result.

    ``snapshot`` and ``span_summaries`` are deterministic (identical for
    any ``jobs`` value and replayed byte-identically from cache);
    ``usage`` is the live run's resource account and ``replayed`` /
    ``cached`` are driver-side annotations about *how* the result was
    obtained this time.
    """

    snapshot: RegistrySnapshot = field(default_factory=RegistrySnapshot)
    span_summaries: tuple[dict[str, Any], ...] = ()
    usage: ShardUsage | None = None
    replayed: bool = False
    cached: bool = False

    def deterministic(self) -> "ShardTelemetry":
        """The cacheable part: run-specific usage and flags stripped."""
        return replace(self, usage=None, replayed=False, cached=False)

    def events_processed(self) -> int:
        """Total scheduler events this shard's simulations processed."""
        for record in self.snapshot.records:
            if (record["component"], record["name"]) == (
                "scheduler", "events_processed",
            ) and not record.get("labels"):
                return int(record["value"])
        return 0


# ----------------------------------------------------------------- capture


class SimulationAccount:
    """What a capture keeps of one simulator: its final counts and spans.

    Holding the :class:`~repro.simnet.scheduler.Simulator` itself would
    keep its whole home alive, through the event heap, until the shard
    ends.  The account holds a weak reference instead and copies the
    figures the snapshot needs: the simulator settles it as it is
    collected, and :meth:`TelemetryCapture.snapshot` settles the ones still
    alive.  It keeps the tracer's span list, not the tracer, which holds
    its simulator.
    """

    __slots__ = ("_sim", "events_processed", "clock", "spans")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = weakref.ref(sim)
        self.events_processed = 0
        self.clock = 0.0
        self.spans: list["Span"] | tuple[()] = ()

    def settle(self, sim: "Simulator | None" = None) -> None:
        """Copy the simulator's figures; a no-op once it has been collected."""
        if sim is None:
            sim = self._sim()
            if sim is None:
                return
        self.events_processed = sim.events_processed
        self.clock = sim.now
        if sim.obs.enabled:
            self.spans = sim.obs.tracer.spans


class TelemetryCapture:
    """Collects every registry and simulator created while active."""

    def __init__(self) -> None:
        self.registries: list[MetricsRegistry] = []
        #: One account per simulator, in registration order.
        self.simulations: list[SimulationAccount] = []

    # Registration happens at *construction* time only — nothing here is on
    # a per-event path, which is what keeps capture overhead invisible to
    # the scheduler microbenchmark.

    def snapshot(self) -> RegistrySnapshot:
        """Fold everything captured into one canonical snapshot."""
        merged = MetricsRegistry(capture=False)
        for registry in self.registries:
            merged.merge(registry, exclude_components=NONDETERMINISTIC_COMPONENTS)
        if self.simulations:
            sims = merged.counter("scheduler", "simulations")
            # Each simulation's events count once, from its account: an
            # observed simulator's profiler counted the same events into
            # the registry merged above.
            events = merged.counter("scheduler", "events_processed")
            events.value = 0
            clock = merged.histogram("scheduler", "sim_clock_seconds")
            for account in self.simulations:
                account.settle()
                sims.inc()
                events.inc(account.events_processed)
                clock.observe(account.clock)
        return RegistrySnapshot.of(merged)

    def span_summaries(self) -> tuple[dict[str, Any], ...]:
        """Per-(component, name) span rollup across observed simulators."""
        rollup: dict[tuple[str, str], dict[str, Any]] = {}
        for account in self.simulations:
            account.settle()
            for span in account.spans:
                entry = rollup.setdefault(
                    (span.component, span.name),
                    {"component": span.component, "name": span.name,
                     "count": 0, "total_duration": 0.0},
                )
                entry["count"] += 1
                if span.end is not None:
                    entry["total_duration"] += span.end - span.start
        return tuple(rollup[key] for key in sorted(rollup))

    def finish(self, result: Any = None, usage: ShardUsage | None = None,
               ) -> ShardTelemetry:
        """Harvest the result shape and pack the shard's telemetry."""
        if result is not None:
            harvest = MetricsRegistry(capture=False)
            harvest_result(result, harvest)
            self.registries.append(harvest)
        return ShardTelemetry(
            snapshot=self.snapshot(),
            span_summaries=self.span_summaries(),
            usage=usage,
        )


_CAPTURES: list[TelemetryCapture] = []


def active_capture() -> TelemetryCapture | None:
    return _CAPTURES[-1] if _CAPTURES else None


def register_registry(registry: MetricsRegistry) -> None:
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


# ------------------------------------------------------------- aggregation


def merge_telemetry(
    telemetry: Iterator[ShardTelemetry | None] | list[ShardTelemetry | None],
) -> tuple[RegistrySnapshot, tuple[dict[str, Any], ...]]:
    """Fold shard telemetry (in shard-index order) into campaign totals.

    Returns the merged deterministic snapshot and the merged span
    summaries.  ``None`` entries (shards the user skipped, legacy cache
    entries without telemetry) contribute nothing.
    """
    merged = MetricsRegistry(capture=False)
    spans: dict[tuple[str, str], dict[str, Any]] = {}
    for shard in telemetry:
        if shard is None:
            continue
        if shard.snapshot:
            merged.merge(shard.snapshot.to_registry())
        for summary in shard.span_summaries:
            entry = spans.setdefault(
                (summary["component"], summary["name"]),
                {"component": summary["component"], "name": summary["name"],
                 "count": 0, "total_duration": 0.0},
            )
            entry["count"] += summary["count"]
            entry["total_duration"] += summary["total_duration"]
    return RegistrySnapshot.of(merged), tuple(spans[key] for key in sorted(spans))
