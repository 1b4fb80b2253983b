"""Fleet execution: millions of parameterised homes over the campaign pool.

The unit of work is one *batch* of homes, not one home: a
:class:`~repro.parallel.runner.Shard` carries ``run_home_batch`` with a
``(start, count)`` window, and each home inside the batch is sampled and
seeded purely from ``(base_seed, home_index)`` — so the partition into
batches, the worker count, and the cache state can never change a single
home's behaviour.  ``tests/test_fleet_equivalence.py`` holds the proof:
a fleet of K homes produces byte-identical per-home digests to K
independently constructed :class:`~repro.testbed.SmartHomeTestbed` runs.

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
from typing import Any, Iterator, Sequence

from ..automation.dsl import parse_rule
from ..cache.keys import canonical
from ..obs.metrics import MetricsRegistry
from ..parallel import CampaignRunner, Shard, runner_or_serial
from ..testbed import SmartHomeTestbed
from .sampler import FleetSampler, home_seed
from .spec import FleetConfig, HomeSpec

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


def build_home(spec: HomeSpec) -> SmartHomeTestbed:
    """Construct (without running) the testbed one spec describes."""
    tb = SmartHomeTestbed(seed=spec.seed, faults=spec.fault_profile)
    for label in spec.devices:
        tb.add_device(label)
    for j, line in enumerate(spec.rules):
        tb.install_rule(parse_rule(line, rule_id=f"h{spec.home_index}-r{j}"))
    return tb


def drive_home(tb: SmartHomeTestbed, spec: HomeSpec,
               event_budget: int | None = None) -> HomeResult:
    """Run one built home through its spec'd timeline and summarise it.

    ``event_budget`` caps the scheduler's event count; a home that trips
    it is reported ``completed=False`` (deterministically — the same
    budget stops the same home at the same event) rather than raised, so
    the breaking-point experiment can measure a success-rate floor.
    """
    if event_budget is not None:
        tb.sim.max_events = event_budget
    completed = True
    try:
        tb.settle(SETTLE_SECONDS)
        if spec.attacker and spec.attack_target is not None:
            from ..core.attacker import PhantomDelayAttacker
            from ..core.attacks.state_update_delay import StateUpdateDelay

            attacker = PhantomDelayAttacker.deploy(tb)
            delay = StateUpdateDelay(attacker, tb.device(spec.attack_target.lower()))
            tb.sim.schedule(
                max(0.0, spec.hold_at),
                lambda: delay.arm(duration=spec.hold_duration),
                label="fleet:arm-hold",
            )
        for stimulus in spec.stimuli:
            tb.sim.schedule(
                stimulus.at,
                tb.device(stimulus.device_id).stimulate,
                stimulus.value,
                label="fleet:stimulus",
            )
        tb.run(spec.duration)
    except RuntimeError as exc:
        if "event budget" not in str(exc):
            raise
        completed = False
    return _summarise(tb, spec, completed)


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
    return drive_home(build_home(spec), spec, event_budget=event_budget)


# --------------------------------------------------------------- one batch


def run_home_batch(
    start: int,
    count: int,
    base_seed: int,
    config: dict[str, Any] | None = None,
    event_budget: int | None = None,
) -> list[dict[str, Any]]:
    """Shard function: sample and run homes ``start .. start+count-1``.

    Module-level and pure — workers import it by qualified name and the
    cache addresses it by ``(start, count, base_seed, config, budget)``.
    Fleet-level metrics are recorded into a registry that auto-registers
    with the active telemetry capture, so they merge into the campaign
    snapshot and manifest without riding in the return value.
    """
    sampler = FleetSampler(base_seed, FleetConfig.from_dict(config))
    registry = MetricsRegistry()
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


class FleetRunner:
    """Steps a sampled fleet of homes in batches across the campaign pool.

    One runner is one fleet campaign: it owns the fleet size, the base
    seed, the batch partition and the campaign name, and runs on the
    caller's :class:`CampaignRunner` (serial and uncached by default).
    ``run()`` returns a :class:`FleetReport`; the campaign manifest, cache
    entries, and merged telemetry land exactly where every other campaign
    puts them.
    """

    def __init__(
        self,
        homes: int,
        base_seed: int = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        config: FleetConfig | None = None,
        event_budget: int | None = None,
        campaign: str = "fleet",
        runner: CampaignRunner | None = None,
    ) -> None:
        if homes < 0:
            raise ValueError(f"fleet size must be >= 0: {homes}")
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {batch_size}")
        self.homes = homes
        self.base_seed = base_seed
        self.batch_size = batch_size
        self.config = config or FleetConfig()
        self.event_budget = event_budget
        self.campaign = campaign
        self.runner = runner_or_serial(runner)

    def shards(self) -> list[Shard]:
        """The fleet's batch partition — jobs- and cache-independent."""
        config = (
            None if self.config == FleetConfig() else self.config.to_dict()
        )
        out = []
        for start in range(0, self.homes, self.batch_size):
            count = min(self.batch_size, self.homes - start)
            out.append(Shard(
                key=f"fleet/batch/{start}+{count}",
                fn=run_home_batch,
                kwargs={
                    "start": start,
                    "count": count,
                    "base_seed": self.base_seed,
                    "config": config,
                    "event_budget": self.event_budget,
                },
                # Per-home seeds derive from (base_seed, home index) inside
                # the batch; a shard-level seed would vary with batching.
                pass_seed=False,
            ))
        return out

    def run(self, keep_rows: bool = True,
            stream_to: "str | os.PathLike | None" = None) -> FleetReport:
        """Run every home; aggregate batch rows as they merge back.

        ``stream_to`` appends one JSON object per home to a JSONL file;
        with ``keep_rows=False`` the rows are dropped after streaming and
        only digests/aggregates stay in memory — the shape a
        million-home campaign needs.
        """
        start = time.perf_counter()
        batches = self.runner.run(
            self.shards(), campaign=self.campaign, base_seed=self.base_seed
        )
        wall = time.perf_counter() - start
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
            for record in self._iter_rows(batches):
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
            manifest_path=self.runner.last_manifest_path,
            results_path=results_path,
            runner_summary=self.runner.summary(),
        )

    @staticmethod
    def _iter_rows(batches: Sequence[Any]) -> Iterator[dict[str, Any]]:
        for batch in batches:
            if batch is None:
                continue
            yield from batch


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
    config: FleetConfig | None = None,
    event_budget: int | None = None,
    campaign: str = "fleet",
    keep_rows: bool = True,
    stream_to: "str | os.PathLike | None" = None,
    runner: CampaignRunner | None = None,
) -> FleetReport:
    """One-call fleet campaign (the CLI and bench entry point)."""
    return FleetRunner(
        homes=homes, base_seed=seed, batch_size=batch_size, config=config,
        event_budget=event_budget, campaign=campaign, runner=runner,
    ).run(keep_rows=keep_rows, stream_to=stream_to)


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SETTLE_SECONDS",
    "FleetReport",
    "FleetRunner",
    "HomeResult",
    "build_home",
    "drive_home",
    "fleet_digest",
    "home_seed",
    "run_fleet",
    "run_home",
    "run_home_batch",
]
