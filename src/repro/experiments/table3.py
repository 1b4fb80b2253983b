"""Experiment E3: regenerate Table III (the 11 PoC attack cases).

Every case runs twice — identical home, identical physical timeline, with
and without the attacker — and the row reports the consequence column of
the paper's Table III plus stealth (alarm counts must be zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..analysis.reporting import TextTable
from ..core.attacks.base import Scenario, ScenarioResult, compare_scenario
from ..core.attacks.scenarios import FIGURE3_SCENARIOS, TABLE3_SCENARIOS
from ..parallel.runner import CampaignRunner, Shard, runner_or_serial


@dataclass
class CaseRow:
    scenario: Scenario
    baseline: ScenarioResult
    attacked: ScenarioResult

    @property
    def consequence_reproduced(self) -> bool:
        """Did the attack change the outcome the way the paper reports?"""
        return self.scenario.reproduced(self.baseline, self.attacked)

    @property
    def stealthy(self) -> bool:
        return self.attacked.stealthy


def _run_case(scenario: Scenario, seed: int, faults: Any = None) -> CaseRow:
    """One shard: the with/without pair for a single PoC case.

    An impaired run is always audited with the cross-layer invariant
    suite: faults are what could make the simulator itself misbehave.
    """
    baseline, attacked = compare_scenario(
        scenario, seed=seed, faults=faults, check_invariants=bool(faults)
    )
    return CaseRow(scenario=scenario, baseline=baseline, attacked=attacked)


def _run_cases(
    campaign: str,
    cases: list[Scenario],
    seed: int,
    faults: Any,
    runner: CampaignRunner | None,
) -> list[CaseRow]:
    """One shard per case; every case keeps the campaign seed."""
    shards = [
        Shard(
            key=f"table3/{scenario.case_id or scenario.name}",
            fn=_run_case,
            kwargs={"scenario": scenario, "faults": faults},
            seed=seed,
        )
        for scenario in cases
    ]
    return runner_or_serial(runner).run(shards, campaign=campaign, base_seed=seed)


def run_table3(
    seed: int = 3,
    scenarios: list[Scenario] | None = None,
    runner: CampaignRunner | None = None,
    faults: Any = None,
) -> list[CaseRow]:
    """Every Table III case (or ``scenarios``) as campaign ``table3``.

    ``faults`` (profile or spec string) runs every case on an impaired LAN
    and audits each run with the invariant suite; the faults spec is part
    of each shard's cache key, so impaired and clean runs never mix.
    """
    return _run_cases(
        "table3", list(scenarios or TABLE3_SCENARIOS), seed, faults, runner
    )


def run_figure3(
    seed: int = 3,
    runner: CampaignRunner | None = None,
    faults: Any = None,
) -> list[CaseRow]:
    """The four attacks Figure 3 illustrates, as campaign ``figure3``."""
    return _run_cases("figure3", list(FIGURE3_SCENARIOS), seed, faults, runner)


def _headline(metrics: dict[str, Any]) -> str:
    parts = []
    for key, value in metrics.items():
        if key in ("stealthy_hold", "achieved_delay", "combined_window"):
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.1f}")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)


def render_table3(rows: list[CaseRow], title: str = "Table III — PoC attack cases") -> str:
    """The case table, plus one fault summary line if the LAN was impaired."""
    table = TextTable(
        ["Case", "Type", "Rule", "Without attack", "With attack", "Reproduced", "Stealthy"],
        title=title,
    )
    for row in rows:
        table.add_row(
            row.scenario.case_id,
            row.scenario.attack_type,
            row.scenario.description,
            _headline(row.baseline.metrics),
            _headline(row.attacked.metrics),
            "yes" if row.consequence_reproduced else "NO",
            "yes" if row.stealthy else "NO",
        )
    summary = _faults_summary(rows)
    return table.render() if summary is None else f"{table.render()}\n{summary}"


def _faults_summary(rows: list[CaseRow]) -> str | None:
    """Frames the injector dropped and invariants broken, if it ran."""
    if not any(r.attacked.fault_stats for r in rows):
        return None
    violations = sum(
        len(r.baseline.invariant_violations or [])
        + len(r.attacked.invariant_violations or [])
        for r in rows
    )
    dropped = sum(
        sum(v for k, v in (r.attacked.fault_stats or {}).items() if k.startswith("dropped"))
        for r in rows
    )
    return (
        f"fault injection: {dropped} frames dropped across attacked runs; "
        f"invariant violations: {violations}"
    )
