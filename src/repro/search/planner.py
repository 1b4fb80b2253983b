"""Schedule planning and witness shrinking over generated programs.

For each generated program the planner runs one baseline trace, then
explores candidate hold/release schedules **in a fixed documented order**
until one induces a verified violation (or the candidate budget runs
out).  Candidate order:

1. the *saturation* schedule — one maximum-safe hold per condition
   device, each armed between that device's last two stimuli (the window
   the bait stories leave open); then
2. single-hold candidates, one per ``(device, stimulus index)`` pair in
   spec device order then stimulus order, armed at the midpoint of the
   previous same-device stimulus (so an earlier event of the same size
   cannot trip the hold early — Case 5's arming note) or ``lead``
   seconds before a first stimulus.

A hit is then handed to the deterministic shrinker: greedy hold removal
in fixed index order (repeated until a fixed point), then a per-hold
duration descent over :data:`DURATION_LADDER` — each step re-verified against
the baseline, the primary violation class required to survive, and the
schedule never allowed to grow.  The minimal witness is re-verified one
final time before it becomes a corpus case.

Work is sharded as fixed-size program batches through the fleet engine's
:func:`~repro.fleet.engine.run_batches` (key
``search/batch/<start>+<count>``, no shard seed), so the batch
partition — and with it every cache address — is a pure function of the
program range, never of ``--jobs``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from ..automation.dsl import parse_rule
from ..cache.keys import canonical
from ..fleet.engine import run_batches
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import register_registry
from ..parallel.runner import CampaignRunner, runner_or_serial
from .engine import BehaviorTrace, run_program
from .generator import RuleSetGenerator
from .oracles import classify, primary_class
from .spec import Hold, ProgramSpec, Schedule, schedule_to_lists

#: Programs per shard.  Fixed (never derived from ``jobs``) so the batch
#: partition — and every shard key and cache address — is a pure function
#: of the search size.
DEFAULT_BATCH_SIZE = 8

#: Candidate schedules explored per program before giving up (``--budget``).
DEFAULT_BUDGET = 8

#: Seconds before a device's first stimulus at which a hold arms.
LEAD = 2.0

#: Minimum attacked-vs-baseline latency shift that counts as a delay-class
#: violation.
DELAY_THRESHOLD = 5.0

#: Finite durations the shrinker tries (ascending) in place of a
#: maximum-safe hold.
DURATION_LADDER = (5.0, 10.0, 20.0)


# ------------------------------------------------------------- candidates


def _stimuli_of(spec: ProgramSpec, device_id: str):
    return [s for s in spec.stimuli if s.device_id == device_id]


def _hold_for(spec: ProgramSpec, device_id: str, index: int) -> Hold:
    """A maximum-safe hold armed just before the device's ``index``-th
    stimulus — after the previous same-device stimulus, whose event size
    would otherwise trip the hold early."""
    stimuli = _stimuli_of(spec, device_id)
    stimulus = stimuli[index]
    if index == 0:
        at = stimulus.at - LEAD
    else:
        at = (stimuli[index - 1].at + stimulus.at) / 2.0
    return Hold(device_id=device_id, at=round(at, 3), duration=None)


def condition_devices(spec: ProgramSpec) -> list[str]:
    """Condition device ids in first-appearance order across the rules."""
    seen: list[str] = []
    for line in spec.rules:
        rule = parse_rule(line, rule_id="probe")
        if rule.condition is not None and rule.condition.device_id not in seen:
            seen.append(rule.condition.device_id)
    return seen


def candidate_schedules(spec: ProgramSpec,
                        budget: int = DEFAULT_BUDGET) -> list[Schedule]:
    """The first ``budget`` candidate hold schedules, in the fixed
    exploration order."""
    candidates: list[Schedule] = []
    saturation = tuple(
        _hold_for(spec, device_id, len(_stimuli_of(spec, device_id)) - 1)
        for device_id in condition_devices(spec)
        if _stimuli_of(spec, device_id)
    )
    if saturation:
        candidates.append(saturation)
    for label in spec.devices:
        device_id = label.lower()
        for index in range(len(_stimuli_of(spec, device_id))):
            single = (_hold_for(spec, device_id, index),)
            if single not in candidates:
                candidates.append(single)
    return candidates[:budget]


# --------------------------------------------------------------- shrinking


def shrink(
    spec: ProgramSpec,
    schedule: Schedule,
    violation: str,
    baseline: BehaviorTrace,
) -> tuple[Schedule, int]:
    """Minimise a violating schedule; returns ``(witness, steps)``.

    Every step re-runs the program and keeps the change only if the
    primary violation class survives with the invariants silent; the
    schedule only ever loses holds or swaps a maximum-safe hold for a
    finite duration, never grows.
    """
    steps = 0

    def still_violates(candidate: Schedule) -> bool:
        nonlocal steps
        steps += 1
        trace = run_program(spec, candidate)
        found = classify(baseline, trace, DELAY_THRESHOLD)
        return (primary_class(found) == violation
                and not trace.invariant_violations)

    current = tuple(schedule)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if still_violates(candidate):
                current = candidate
                changed = True
                break
    minimized: list[Hold] = []
    for index, hold in enumerate(current):
        if hold.duration is None:
            for duration in sorted(DURATION_LADDER):
                candidate = (tuple(minimized)
                             + (replace(hold, duration=duration),)
                             + current[index + 1:])
                if still_violates(candidate):
                    hold = replace(hold, duration=duration)
                    break
        minimized.append(hold)
    return tuple(minimized), steps


# ------------------------------------------------------------- one program


def case_digest(spec_digest: str, schedule: Schedule, violation: str) -> str:
    """Content address of one violation case (spec x witness x class)."""
    payload = {
        "spec": spec_digest,
        "schedule": schedule_to_lists(schedule),
        "violation": violation,
    }
    return hashlib.blake2b(canonical(payload), digest_size=16).hexdigest()


def plan_program(spec: ProgramSpec,
                 budget: int = DEFAULT_BUDGET) -> dict[str, Any]:
    """Search one program for a minimal verified violation witness.

    Returns ``{"program_index", "explored", "hit"}`` where ``hit`` is the
    JSON-able corpus case record, or None when no candidate within the
    budget induced a verified violation.
    """
    baseline = run_program(spec)
    explored = 0
    for schedule in candidate_schedules(spec, budget):
        attacked = run_program(spec, schedule)
        explored += 1
        violations = classify(baseline, attacked, DELAY_THRESHOLD)
        if (not violations or attacked.invariant_violations
                or baseline.invariant_violations):
            continue
        violation = primary_class(violations)
        witness, shrink_steps = shrink(spec, schedule, violation, baseline)
        final = run_program(spec, witness)
        final_violations = classify(baseline, final, DELAY_THRESHOLD)
        verified = (primary_class(final_violations) == violation
                    and not final.invariant_violations)
        if not verified:
            # The shrinker's acceptance runs make this unreachable in
            # practice; a hit that fails its final re-verification is
            # dropped rather than emitted unverified.
            continue
        spec_digest = spec.digest()
        hit = {
            "schema": spec.schema,
            "program_index": spec.program_index,
            "seed": spec.seed,
            "spec": spec.to_dict(),
            "spec_digest": spec_digest,
            "schedule": schedule_to_lists(witness),
            "violation": violation,
            "violations": [dict(v) for v in final_violations],
            "baseline_digest": baseline.digest(),
            "attacked_digest": final.digest(),
            "explored": explored,
            "shrink_steps": shrink_steps,
            "verified": True,
            "case_digest": case_digest(spec_digest, witness, violation),
        }
        return {"program_index": spec.program_index, "explored": explored,
                "hit": hit}
    return {"program_index": spec.program_index, "explored": explored,
            "hit": None}


# --------------------------------------------------------------- one batch


def search_batch(
    start: int,
    count: int,
    base_seed: int,
    budget: int = DEFAULT_BUDGET,
) -> list[dict[str, Any]]:
    """Shard function: generate and search programs ``start .. start+count-1``.

    Module-level and pure — workers import it by qualified name and the
    cache addresses it by ``(start, count, base_seed, budget)``.  Search
    telemetry (candidates explored, hits, shrink steps) is recorded into
    a registry handed to the active telemetry capture, so it merges into
    the campaign's metrics and manifest.
    """
    generator = RuleSetGenerator(base_seed)
    registry = MetricsRegistry()
    register_registry(registry)
    programs = registry.counter("search", "programs")
    candidates = registry.counter("search", "candidates_explored")
    hits = registry.counter("search", "hits")
    shrink_steps = registry.counter("search", "shrink_steps")
    rows: list[dict[str, Any]] = []
    for index in range(start, start + count):
        outcome = plan_program(generator.sample(index), budget)
        programs.inc()
        candidates.inc(outcome["explored"])
        hit = outcome["hit"]
        if hit is not None:
            hits.inc()
            shrink_steps.inc(hit["shrink_steps"])
            registry.counter("search", "violations",
                             kind=hit["violation"]).inc()
        rows.append(outcome)
    return rows


# -------------------------------------------------------------- the search


@dataclass
class SearchReport:
    """Aggregate account of one adversarial search campaign."""

    programs: int
    explored: int
    hits: tuple[dict[str, Any], ...]
    corpus_digest: str
    wall_seconds: float
    case_paths: tuple[Path, ...] = ()
    corpus_dir: Path | None = None
    manifest_path: Path | None = None
    runner_summary: str = ""

    @property
    def candidates_per_second(self) -> float:
        return self.explored / self.wall_seconds if self.wall_seconds else 0.0


def run_search(
    programs: int,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    budget: int = DEFAULT_BUDGET,
    corpus_dir: "str | Path | None" = None,
    runner: CampaignRunner | None = None,
) -> SearchReport:
    """Search ``programs`` generated programs as campaign ``search``.

    The batches run on the caller's :class:`CampaignRunner` (serial and
    uncached by default); with ``corpus_dir`` every verified hit is
    written there as one case file.
    """
    from .corpus import corpus_digest, write_corpus

    runner = runner_or_serial(runner)
    rows, wall = run_batches(search_batch, "search", programs, seed,
                             batch_size, "search", runner, budget=budget)
    hits = tuple(row["hit"] for row in rows if row["hit"] is not None)
    case_paths: tuple[Path, ...] = ()
    out_dir: Path | None = None
    if corpus_dir is not None:
        out_dir = Path(corpus_dir)
        case_paths = tuple(write_corpus(hits, out_dir))
    return SearchReport(
        programs=len(rows),
        explored=sum(row["explored"] for row in rows),
        hits=hits,
        corpus_digest=corpus_digest(hits),
        wall_seconds=wall,
        case_paths=case_paths,
        corpus_dir=out_dir,
        manifest_path=runner.last_manifest_path,
        runner_summary=runner.summary(),
    )


def plan_specs(specs: Sequence[ProgramSpec],
               budget: int = DEFAULT_BUDGET) -> list[dict[str, Any]]:
    """Plan a fixed spec list serially (the Table III differential path)."""
    return [plan_program(spec, budget) for spec in specs]
