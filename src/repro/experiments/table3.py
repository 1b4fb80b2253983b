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
from ..parallel import CampaignRunner, Shard, runner_or_serial


@dataclass
class CaseRow:
    scenario: Scenario
    baseline: ScenarioResult
    attacked: ScenarioResult

    @property
    def consequence_reproduced(self) -> bool:
        """Did the attack change the outcome the way the paper reports?"""
        return _consequence_holds(self.scenario, self.baseline, self.attacked)

    @property
    def stealthy(self) -> bool:
        return self.attacked.stealthy


def _consequence_holds(
    scenario: Scenario, baseline: ScenarioResult, attacked: ScenarioResult
) -> bool:
    b, a = baseline.metrics, attacked.metrics
    kind = scenario.attack_type
    if kind == "state-update-delay":
        if scenario.case_id == "Case 4":
            return bool(b.get("heater_turned_off")) and not a.get("heater_turned_off")
        return (
            a.get("alert_latency") is not None
            and b.get("alert_latency") is not None
            and a["alert_latency"] > b["alert_latency"] + 10.0
        )
    if kind == "action-delay":
        if scenario.case_id == "Case 4":
            return bool(b.get("heater_turned_off")) and not a.get("heater_turned_off")
        key = "lock_latency" if "lock_latency" in b else "shutoff_latency"
        return (
            a.get(key) is not None
            and b.get(key) is not None
            and a[key] > b[key] + 10.0
        )
    if kind == "spurious-execution":
        flag = _spurious_flag(b)
        return not b.get(flag) and bool(a.get(flag))
    if kind == "disabled-execution":
        flag = _disabled_flag(b)
        return bool(b.get(flag)) and not a.get(flag)
    return False


def _spurious_flag(metrics: dict[str, Any]) -> str:
    for key in ("disarmed", "heater_turned_on", "window_opened", "unlocked"):
        if key in metrics:
            return key
    raise KeyError(f"no spurious flag in {metrics}")


def _disabled_flag(metrics: dict[str, Any]) -> str:
    for key in ("warning_sent", "auto_locked", "heater_turned_off"):
        if key in metrics:
            return key
    raise KeyError(f"no disabled flag in {metrics}")


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
