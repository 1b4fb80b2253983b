"""Step-load breaking-point experiment: how many homes can one box carry?

Runs a geometric fleet ladder — N homes, then 2N, 4N, … — until a stop
condition trips:

* **wall-clock**: one step took longer than its wall budget,
* **event-budget**: one step's total simulated events exceeded the cap, or
* **success-floor**: the fraction of homes that finished inside their
  per-home event budget fell below the floor.

Every step is its own fleet campaign (``breaking-point-step-<homes>``) with
its own manifest; the tripping step's manifest carries the stop condition
as a ``breaking_point/stopped{reason=...}`` counter, so ``observe report``
and ``observe diff`` show *why* the ladder ended, not just where.  The
ladder is in the style of the UC5 edge-monitoring scalability test: the
interesting output is the largest sustained population and the resource
that gave out first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..fleet.engine import DEFAULT_BATCH_SIZE, FleetReport, run_fleet
from ..obs.metrics import MetricsRegistry
from ..parallel.runner import CampaignRunner, runner_or_serial

#: Stop reasons, in the order they are checked (first trip wins).
REASON_WALL_CLOCK = "wall-clock"
REASON_EVENT_BUDGET = "event-budget"
REASON_SUCCESS_FLOOR = "success-floor"
REASON_MAX_STEPS = "max-steps"


@dataclass(frozen=True)
class StepResult:
    """One rung of the ladder."""

    step: int
    homes: int
    completed: int
    events: int
    wall_seconds: float
    homes_per_second: float
    success_rate: float
    fleet_digest: str
    stop_reason: str | None
    manifest_path: Path | None

    @property
    def passed(self) -> bool:
        return self.stop_reason is None


@dataclass
class BreakingPointReport:
    """The whole ladder: every step plus where and why it stopped."""

    steps: list[StepResult] = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def breaking_point(self) -> int | None:
        """Homes at the step that tripped (None if the ladder ran out)."""
        for step in self.steps:
            if step.stop_reason is not None and step.stop_reason != REASON_MAX_STEPS:
                return step.homes
        return None

    @property
    def max_sustained(self) -> int:
        """The largest population that passed every condition."""
        passed = [s.homes for s in self.steps if s.passed]
        return max(passed) if passed else 0

    def render(self) -> str:
        lines = ["Breaking point — step-load fleet ladder", ""]
        lines.append(
            f"{'step':>4}  {'homes':>8}  {'ok':>8}  {'events':>10}  "
            f"{'wall(s)':>8}  {'homes/s':>8}  {'success':>8}  outcome"
        )
        for s in self.steps:
            outcome = s.stop_reason or "pass"
            lines.append(
                f"{s.step:>4}  {s.homes:>8}  {s.completed:>8}  {s.events:>10}  "
                f"{s.wall_seconds:>8.2f}  {s.homes_per_second:>8.1f}  "
                f"{s.success_rate:>8.3f}  {outcome}"
            )
        lines.append("")
        if self.breaking_point is not None:
            lines.append(
                f"breaking point: {self.breaking_point} homes ({self.stop_reason}); "
                f"max sustained: {self.max_sustained} homes"
            )
        else:
            lines.append(
                f"no breaking point within {len(self.steps)} step(s); "
                f"max sustained: {self.max_sustained} homes"
            )
        return "\n".join(lines)


def step_campaign(campaign: str, homes: int) -> str:
    """The per-step campaign name (and thus manifest stem)."""
    return f"{campaign}-step-{homes}"


def run_breaking_point(
    start_homes: int = 4,
    growth_factor: int = 2,
    max_steps: int = 8,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    home_event_budget: int | None = None,
    step_event_limit: int | None = None,
    wall_limit: float | None = None,
    success_floor: float = 0.95,
    runner: CampaignRunner | None = None,
) -> BreakingPointReport:
    """Climb the ladder until a budget trips; one manifest per step.

    Every step is its own campaign on the one ``runner`` (serial and
    uncached by default); an explicit manifest path on that runner holds
    the first step, and later steps write their default paths.

    ``home_event_budget`` caps each home's scheduler events (a home over
    budget counts as failed, feeding ``success_floor``);
    ``step_event_limit`` caps a whole step's simulated events;
    ``wall_limit`` caps a step's wall-clock seconds.  With no limits set
    the ladder runs all ``max_steps`` rungs and reports
    ``max-steps`` as the stop reason.
    """
    if start_homes < 1:
        raise ValueError(f"start_homes must be >= 1: {start_homes}")
    if growth_factor < 2:
        raise ValueError(f"growth_factor must be >= 2: {growth_factor}")
    runner = runner_or_serial(runner)
    report = BreakingPointReport()
    homes = start_homes
    for step in range(max_steps):
        fleet = run_fleet(
            homes,
            seed=seed,
            batch_size=batch_size,
            event_budget=home_event_budget,
            campaign=step_campaign("breaking-point", homes),
            keep_rows=False,
            runner=runner,
        )
        reason = _stop_reason(
            fleet,
            wall_limit=wall_limit,
            step_event_limit=step_event_limit,
            success_floor=success_floor,
        )
        manifest_path = _attribute_step(runner, fleet, step, reason)
        report.steps.append(StepResult(
            step=step,
            homes=homes,
            completed=fleet.completed,
            events=fleet.events,
            wall_seconds=fleet.wall_seconds,
            homes_per_second=fleet.homes_per_second,
            success_rate=fleet.success_rate,
            fleet_digest=fleet.fleet_digest,
            stop_reason=reason,
            manifest_path=manifest_path,
        ))
        if reason is not None:
            report.stop_reason = reason
            return report
        homes *= growth_factor
    # The ladder ran out without tripping anything: the last rung still
    # *passed*, so it stays in ``max_sustained`` and only the report-level
    # stop reason records that we hit the step cap.
    report.stop_reason = REASON_MAX_STEPS
    return report


def _stop_reason(
    fleet: FleetReport,
    wall_limit: float | None,
    step_event_limit: int | None,
    success_floor: float,
) -> str | None:
    if wall_limit is not None and fleet.wall_seconds > wall_limit:
        return REASON_WALL_CLOCK
    if step_event_limit is not None and fleet.events > step_event_limit:
        return REASON_EVENT_BUDGET
    if fleet.success_rate < success_floor:
        return REASON_SUCCESS_FLOOR
    return None


def _attribute_step(
    runner: CampaignRunner,
    fleet: FleetReport,
    step: int,
    reason: str | None,
) -> Path | None:
    """Fold the step verdict into the step's manifest and rewrite it.

    The step metrics live in a ``breaking_point`` component merged into
    the campaign's metrics, so the stop condition is attributed *in the
    manifest itself* (and survives ``observe report``/``diff``), not just
    in this process's return value.
    """
    registry = MetricsRegistry()
    registry.counter("breaking_point", "step").inc(step)
    registry.counter("breaking_point", "homes").inc(fleet.homes)
    registry.counter("breaking_point", "homes_completed").inc(fleet.completed)
    registry.counter("breaking_point", "homes_failed").inc(fleet.failed)
    outcome = reason if reason is not None else "pass"
    registry.counter("breaking_point", "stopped", reason=outcome).inc()
    runner.last_metrics.merge(registry)
    if runner.manifest is None or runner.manifest is False:
        return None
    return runner.write_manifest(runner.last_manifest_path)

