"""Experiment: attack robustness under network impairment (extension).

The paper's testbed is a clean home WiFi; a real deployment sees loss,
jitter, and bursts.  This sweep re-runs the Table III PoC cases over a
loss × jitter grid with the fault injector on the LAN and the cross-layer
invariant suite armed, answering two questions at once:

* does every phantom-delay attack still reproduce (and stay stealthy)
  when the network genuinely misbehaves, and
* does the simulator itself stay honest — no invariant (TCP exactly-once,
  TLS integrity, hold-release order, rule provenance) may break.

One shard per (cell, case), so the grid parallelises like any campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..analysis.reporting import TextTable
from ..core.attacks.base import Scenario, compare_scenario
from ..core.attacks.scenarios import TABLE3_SCENARIOS
from ..faults.profiles import FaultProfile
from ..parallel import CampaignRunner, Shard, runner_or_serial

#: Default sweep: clean through "bad home WiFi" (5% loss / 20 ms jitter).
DEFAULT_LOSS_GRID = (0.0, 0.01, 0.03, 0.05)
DEFAULT_JITTER_GRID = (0.0, 0.01, 0.02)


@dataclass
class CellResult:
    """One PoC case at one (loss, jitter) grid point."""

    loss: float
    jitter: float
    scenario: str
    case_id: str
    reproduced: bool
    stealthy: bool
    violations: int
    fault_stats: dict[str, int] | None

    @property
    def success(self) -> bool:
        return self.reproduced and self.stealthy


def _profile_for(loss: float, jitter: float) -> FaultProfile | None:
    if loss == 0.0 and jitter == 0.0:
        return None  # the ideal link: the Table III baseline conditions
    return FaultProfile(name=f"grid-l{loss:g}-j{jitter:g}", loss=loss, jitter=jitter)


def _run_cell_case(
    scenario: Scenario, loss: float, jitter: float, seed: int
) -> CellResult:
    """One shard: with/without pair for one case on one impaired link."""
    baseline, attacked = compare_scenario(
        scenario, seed=seed, faults=_profile_for(loss, jitter), check_invariants=True
    )
    violations = len(baseline.invariant_violations or []) + len(
        attacked.invariant_violations or []
    )
    return CellResult(
        loss=loss,
        jitter=jitter,
        scenario=scenario.name,
        case_id=scenario.case_id,
        reproduced=scenario.reproduced(baseline, attacked),
        stealthy=attacked.stealthy,
        violations=violations,
        fault_stats=attacked.fault_stats,
    )


def run_robustness(
    seed: int = 3,
    loss_grid: tuple[float, ...] = DEFAULT_LOSS_GRID,
    jitter_grid: tuple[float, ...] = DEFAULT_JITTER_GRID,
    scenarios: list[Scenario] | None = None,
    runner: CampaignRunner | None = None,
) -> list[CellResult]:
    """Sweep the grid; deterministic for a seed however ``runner`` runs it."""
    cases = list(scenarios or TABLE3_SCENARIOS)
    shards = [
        Shard(
            key=f"robustness/l{loss:g}/j{jitter:g}/{sc.case_id or sc.name}",
            fn=_run_cell_case,
            kwargs={"scenario": sc, "loss": loss, "jitter": jitter},
            seed=seed,
        )
        for loss in loss_grid
        for jitter in jitter_grid
        for sc in cases
    ]
    return runner_or_serial(runner).run(shards, campaign="robustness", base_seed=seed)


def render_robustness(
    results: list[CellResult],
    title: str = "Attack robustness — Table III success under loss × jitter",
) -> str:
    losses = sorted({r.loss for r in results})
    jitters = sorted({r.jitter for r in results})
    cells: dict[tuple[float, float], list[CellResult]] = {}
    for r in results:
        cells.setdefault((r.loss, r.jitter), []).append(r)
    table = TextTable(
        ["loss \\ jitter"] + [f"{j * 1000:g}ms" for j in jitters], title=title
    )
    for loss in losses:
        row: list[Any] = [f"{loss * 100:g}%"]
        for jitter in jitters:
            group = cells.get((loss, jitter), [])
            ok = sum(1 for g in group if g.success)
            cell = f"{ok}/{len(group)}"
            viol = sum(g.violations for g in group)
            if viol:
                cell += f" [{viol} INV!]"
            row.append(cell)
        table.add_row(*row)
    lines = [table.render()]
    failed = [r for r in results if not r.success]
    if failed:
        lines.append("failed cells:")
        lines.extend(
            f"  {r.case_id} @ loss={r.loss:g} jitter={r.jitter:g}: "
            f"reproduced={r.reproduced} stealthy={r.stealthy}"
            for r in failed
        )
    else:
        lines.append(
            "every case reproduced stealthily at every grid point; "
            "all invariants held"
        )
    return "\n".join(lines)
