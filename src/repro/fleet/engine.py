"""Fleet execution: millions of parameterised homes over the campaign pool.

The unit of work is one *batch* of homes, not one home: a
:class:`~repro.parallel.runner.Shard` carries ``run_home_batch`` with a
``(start, count)`` window, and each home inside the batch is sampled and
seeded purely from ``(base_seed, home_index)`` — so the partition into
batches, the worker count, and the cache state can never change a single
home's behaviour.  ``tests/test_fleet_equivalence.py`` holds the proof:
a fleet of K homes produces byte-identical per-home digests to the same
K homes run one at a time, and a pinned fleet digest catches a change
that moves every home at once.

This module is also the population engine of :mod:`repro.search`:
:func:`build_home` and :func:`drive_home` build and run a fleet home and
a search program alike, and :func:`run_batches` is the batch partition
both campaigns run on.

Results are deliberately *compact*: a home simulation is thrown away at
the end of its batch and only a :class:`HomeResult` row — a content digest
of the home's observable behaviour plus a handful of counters — rides
back.  Fleet-level aggregates stream through the mergeable
``repro.obs.telemetry`` machinery (each batch records into a captured
:class:`~repro.obs.metrics.MetricsRegistry`), so the campaign manifest
carries the population metrics without the driver materialising a fleet-
sized result list; per-home rows can additionally be streamed to JSONL
and dropped (``stream_to=..., keep_rows=False``).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..automation.dsl import parse_rule
from ..cache.keys import canonical
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import register_registry
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed
from .sampler import FleetSampler, home_seed
from .spec import HomeSpec, Stimulus

#: Seconds every home gets to establish sessions before its timeline runs.
SETTLE_SECONDS = 8.0

#: Homes per shard.  Fixed (never derived from ``jobs``) so the batch
#: partition — and with it every shard key and cache address — is a pure
#: function of the fleet size.
DEFAULT_BATCH_SIZE = 16


# ---------------------------------------------------------------- one home


@dataclass(frozen=True)
class HomeResult:
    """The compact, deterministic account of one simulated home."""

    home_index: int
    seed: int
    digest: str
    devices: int
    rules: int
    attacker: bool
    fault_profile: str | None
    completed: bool
    events: int
    sim_seconds: float
    notifications: int
    delivered: int
    rule_firings: int
    alarms: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "home_index": self.home_index,
            "seed": self.seed,
            "digest": self.digest,
            "devices": self.devices,
            "rules": self.rules,
            "attacker": self.attacker,
            "fault_profile": self.fault_profile,
            "completed": self.completed,
            "events": self.events,
            "sim_seconds": self.sim_seconds,
            "notifications": self.notifications,
            "delivered": self.delivered,
            "rule_firings": self.rule_firings,
            "alarms": self.alarms,
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "HomeResult":
        return cls(**record)


def build_home(
    seed: int,
    devices: Sequence[str],
    rules: Sequence[str],
    rule_prefix: str,
    faults: str | None = None,
    integration_staleness: float | None = None,
    check_invariants: bool = False,
    initial_states: Sequence[tuple[str, str]] = (),
) -> SmartHomeTestbed:
    """Construct (without running) one home: its devices, its DSL rules
    (ids ``<rule_prefix>-r<j>``), and any device states seeded before
    settle.  Fleet homes and search programs are both built here."""
    tb = SmartHomeTestbed(
        seed=seed,
        faults=faults,
        integration_staleness=integration_staleness,
        check_invariants=check_invariants,
    )
    for label in devices:
        tb.add_device(label)
    for j, line in enumerate(rules):
        tb.install_rule(parse_rule(line, rule_id=f"{rule_prefix}-r{j}"))
    for device_id, value in initial_states:
        device = tb.device(device_id)
        device.state[device.behavior.attribute] = value
    return tb


def drive_home(
    tb: SmartHomeTestbed,
    stimuli: Sequence[Stimulus],
    duration: float,
    settle: float,
    holds: Sequence[tuple[str, float, float | None]] = (),
    observe: float = 0.0,
    event_budget: int | None = None,
) -> bool:
    """Run one built home through its timeline; returns ``completed``.

    The home settles for ``settle`` seconds.  With ``holds`` — one
    ``(device_id, at, duration)`` triple per hold — a phantom-delay
    attacker is deployed and each hold is scheduled as a deferred ``arm``
    of the device's e-Delay from ``delay_for`` at ``observe + at``
    (``duration=None`` holds for the maximum safe window).  A
    non-zero ``observe`` window then runs before the stimuli are scheduled
    ``at`` seconds after it, and the timeline runs for ``duration``.

    ``event_budget`` caps the scheduler's event count; a home that trips
    it is reported ``completed=False`` (deterministically — the same
    budget stops the same home at the same event) rather than raised, so
    the breaking-point experiment can measure a success-rate floor.
    """
    if event_budget is not None:
        tb.sim.max_events = event_budget
    try:
        tb.settle(settle)
        if holds:
            from ..core.attacker import PhantomDelayAttacker
            from ..core.primitives import CDelay, EDelay

            attacker = PhantomDelayAttacker.deploy(tb)
            primitives: dict[str, EDelay | CDelay] = {}
            for device_id, at, hold_duration in holds:
                primitive = primitives.get(device_id)
                if primitive is None:
                    primitive = attacker.delay_for(tb.device(device_id))
                    primitives[device_id] = primitive
                tb.sim.schedule(
                    max(0.0, observe + at),
                    lambda p=primitive, d=hold_duration: p.arm(duration=d),
                    label="home:arm-hold",
                )
        if observe:
            tb.run(observe)
        for stimulus in stimuli:
            tb.sim.schedule(
                stimulus.at,
                tb.device(stimulus.device_id).stimulate,
                stimulus.value,
                label="home:stimulus",
            )
        tb.run(duration)
    except RuntimeError as exc:
        if "event budget" not in str(exc):
            raise
        return False
    return True


def _summarise(tb: SmartHomeTestbed, spec: HomeSpec, completed: bool) -> HomeResult:
    """Fold a finished home into its deterministic result row.

    The digest covers everything observable about the home — final device
    states, the notification log, rule firings, alarms, the event count,
    and the clock — so two runs agree on the digest iff they agreed on
    behaviour.  Timestamps are rounded to nanoseconds before hashing to
    keep the digest stable under float formatting changes.
    """
    notifications = [
        (round(n.sent_at, 9), n.channel, n.message,
         None if n.delivered_at is None else round(n.delivered_at, 9))
        for n in tb.notifier.notifications
    ]
    firings = [
        (round(f.ts, 9), f.rule_id, f.trigger_event, f.condition_met,
         f.action_taken)
        for f in tb.integration.engine.firings
    ]
    alarms = tb.alarms.summary()
    summary = {
        "home": spec.home_index,
        "seed": spec.seed,
        "spec": spec.digest(),
        "completed": completed,
        "events": tb.sim.events_processed,
        "now": round(tb.now, 9),
        "states": {device_id: dict(device.state)
                   for device_id, device in sorted(tb.devices.items())},
        "notifications": notifications,
        "firings": firings,
        "alarms": alarms,
    }
    digest = hashlib.blake2b(canonical(summary), digest_size=16).hexdigest()
    return HomeResult(
        home_index=spec.home_index,
        seed=spec.seed,
        digest=digest,
        devices=len(tb.devices),
        rules=len(spec.rules),
        attacker=spec.attacker,
        fault_profile=spec.fault_profile,
        completed=completed,
        events=tb.sim.events_processed,
        sim_seconds=round(tb.now, 9),
        notifications=len(notifications),
        delivered=sum(1 for n in tb.notifier.notifications if n.delivered),
        rule_firings=len(firings),
        alarms=sum(alarms.values()),
    )


def run_home(spec: HomeSpec | dict[str, Any],
             event_budget: int | None = None) -> HomeResult:
    """Build and run one home from its spec (dict form accepted)."""
    if isinstance(spec, dict):
        spec = HomeSpec.from_dict(spec)
    tb = build_home(spec.seed, spec.devices, spec.rules,
                    f"h{spec.home_index}", faults=spec.fault_profile)
    holds = ()
    if spec.attacker and spec.attack_target is not None:
        holds = ((spec.attack_target.lower(), spec.hold_at, spec.hold_duration),)
    completed = drive_home(tb, spec.stimuli, spec.duration, SETTLE_SECONDS,
                           holds, event_budget=event_budget)
    return _summarise(tb, spec, completed)


# --------------------------------------------------------------- one batch


def run_home_batch(
    start: int,
    count: int,
    base_seed: int,
    event_budget: int | None = None,
) -> list[dict[str, Any]]:
    """Shard function: sample and run homes ``start .. start+count-1``.

    Module-level and pure — workers import it by qualified name and the
    cache addresses it by ``(start, count, base_seed, event_budget)``.
    Fleet-level metrics are recorded into a registry handed to the active
    telemetry capture, so they merge into the campaign's metrics and
    manifest without riding in the return value.
    """
    sampler = FleetSampler(base_seed)
    registry = MetricsRegistry()
    register_registry(registry)
    homes = registry.counter("fleet", "homes")
    homes_ok = registry.counter("fleet", "homes_completed")
    homes_attacked = registry.counter("fleet", "homes_attacked")
    homes_impaired = registry.counter("fleet", "homes_impaired")
    deliveries = registry.counter("fleet", "notifications_delivered")
    home_events = registry.histogram("fleet", "home_events")
    home_rules = registry.histogram("fleet", "home_rules")
    rows: list[dict[str, Any]] = []
    for index in range(start, start + count):
        result = run_home(sampler.sample(index), event_budget=event_budget)
        homes.inc()
        if result.completed:
            homes_ok.inc()
        if result.attacker:
            homes_attacked.inc()
        if result.fault_profile is not None:
            homes_impaired.inc()
        deliveries.inc(result.delivered)
        home_events.observe(float(result.events))
        home_rules.observe(float(result.rules))
        rows.append(result.to_dict())
    return rows


def run_batches(
    fn: Callable[..., list[dict[str, Any]]],
    kind: str,
    count: int,
    base_seed: int,
    batch_size: int,
    campaign: str,
    runner: CampaignRunner,
    **kwargs: Any,
) -> tuple[list[dict[str, Any]], float]:
    """Run units ``0 .. count-1`` as batch shards of ``fn`` on ``runner``.

    The fleet and the search share this partition: fixed-size
    ``<kind>/batch/<start>+<count>`` shards (never sized from ``jobs``, so
    every shard key and cache address is a pure function of the range),
    each calling ``fn(start=, count=, base_seed=, **kwargs)``, run as
    campaign ``campaign``.  Returns the batches' rows, flattened in unit
    order, and the campaign's wall seconds.
    """
    if count < 0:
        raise ValueError(f"{kind} size must be >= 0: {count}")
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1: {batch_size}")
    shards = []
    for start in range(0, count, batch_size):
        size = min(batch_size, count - start)
        shards.append(Shard(
            key=f"{kind}/batch/{start}+{size}",
            fn=fn,
            kwargs={"start": start, "count": size, "base_seed": base_seed,
                    **kwargs},
            # Per-unit seeds derive from (base_seed, index) inside the
            # batch; a shard-level seed would vary with batching.
            pass_seed=False,
        ))
    began = time.perf_counter()
    batches = runner.run(shards, campaign=campaign, base_seed=base_seed)
    wall = time.perf_counter() - began
    return [row for batch in batches if batch is not None for row in batch], wall


# --------------------------------------------------------------- the fleet


@dataclass
class FleetReport:
    """Aggregate account of one fleet run."""

    homes: int
    completed: int
    attacked: int
    impaired: int
    events: int
    notifications_delivered: int
    fleet_digest: str
    digests: tuple[str, ...]
    wall_seconds: float
    rows: tuple[HomeResult, ...] = ()
    manifest_path: Path | None = None
    results_path: Path | None = None
    runner_summary: str = ""

    @property
    def failed(self) -> int:
        return self.homes - self.completed

    @property
    def success_rate(self) -> float:
        return self.completed / self.homes if self.homes else 1.0

    @property
    def homes_per_second(self) -> float:
        return self.homes / self.wall_seconds if self.wall_seconds else 0.0


def fleet_digest(digests: Sequence[str]) -> str:
    """One content address for a whole fleet: digest of per-home digests."""
    h = hashlib.blake2b(digest_size=16)
    for entry in digests:
        h.update(entry.encode())
        h.update(b"\n")
    return h.hexdigest()


def run_fleet(
    homes: int,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    event_budget: int | None = None,
    campaign: str = "fleet",
    keep_rows: bool = True,
    stream_to: "str | os.PathLike | None" = None,
    runner: CampaignRunner | None = None,
) -> FleetReport:
    """Run a sampled fleet as campaign ``campaign`` and aggregate it.

    The batches run on the caller's :class:`CampaignRunner` (serial and
    uncached by default); the campaign manifest, cache entries, and merged
    telemetry land exactly where every other campaign puts them.
    ``stream_to`` appends one JSON object per home to a JSONL file; with
    ``keep_rows=False`` the rows are dropped after streaming and only
    digests/aggregates stay in the report — the shape a million-home
    campaign needs.
    """
    runner = runner_or_serial(runner)
    records, wall = run_batches(run_home_batch, "fleet", homes, seed,
                                batch_size, campaign, runner,
                                event_budget=event_budget)
    digests: list[str] = []
    rows: list[HomeResult] = []
    completed = attacked = impaired = events = delivered = 0
    stream = None
    results_path: Path | None = None
    if stream_to is not None:
        results_path = Path(stream_to)
        results_path.parent.mkdir(parents=True, exist_ok=True)
        stream = open(results_path, "w")
    try:
        for record in records:
            digests.append(record["digest"])
            completed += bool(record["completed"])
            attacked += bool(record["attacker"])
            impaired += record["fault_profile"] is not None
            events += record["events"]
            delivered += record["delivered"]
            if stream is not None:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
            if keep_rows:
                rows.append(HomeResult.from_dict(record))
    finally:
        if stream is not None:
            stream.close()
    return FleetReport(
        homes=len(digests),
        completed=completed,
        attacked=attacked,
        impaired=impaired,
        events=events,
        notifications_delivered=delivered,
        fleet_digest=fleet_digest(digests),
        digests=tuple(digests),
        wall_seconds=wall,
        rows=tuple(rows),
        manifest_path=runner.last_manifest_path,
        results_path=results_path,
        runner_summary=runner.summary(),
    )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SETTLE_SECONDS",
    "FleetReport",
    "HomeResult",
    "build_home",
    "drive_home",
    "fleet_digest",
    "home_seed",
    "run_batches",
    "run_fleet",
    "run_home",
    "run_home_batch",
]
