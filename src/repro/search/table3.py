"""The paper's Table III attack cases, as program specs.

Each of the eleven end-to-end cases the paper demonstrates is declared
once, as a :class:`~repro.core.attacks.base.Scenario` in
:data:`~repro.core.attacks.scenarios.TABLE3_SCENARIOS`.  This module copies
each declaration's home — devices, rules, seeded states, stimulus timeline,
staleness window and duration — field by field into a
:class:`~repro.search.spec.ProgramSpec`, minus the declared hold.  The
differential harness then requires the planner to *rediscover* a violating
hold schedule for every case, and the classified violation must match the
case's declared ``effect``, Table III's effect column:

=====  ============================  ======================
case   paper effect                  expected class
=====  ============================  ======================
1-3    delayed notification/action   ``delay``
4      discarded (stale) trigger     ``disabled-execution``
5-8    condition stale-true          ``spurious-execution``
9-11   condition stale-false         ``disabled-execution``
=====  ============================  ======================

Two differences from the scenario runs are deliberate: the specs seed
their initial states before settle (in ``build_home``) rather than when
the timeline starts, and Case 1's spec has no speaker.

These specs also serve as the *novelty* reference: a generated search
hit whose case digest collides with a Table III rediscovery digest is
counted as a rediscovery, not a novel case.
"""

from __future__ import annotations

from ..core.attacks.scenarios import TABLE3_SCENARIOS
from ..fleet.spec import Stimulus
from ..parallel.seeds import derive_seed
from .spec import ProgramSpec

#: Seed namespace for the encoded cases (distinct from generated
#: programs so digests can never collide by construction).
TABLE3_NAMESPACE = "search/table3/{}"

#: ``case number -> expected primary violation class``.
TABLE3_EXPECTED: dict[int, str] = {
    case: scenario.effect for case, scenario in enumerate(TABLE3_SCENARIOS, 1)
}


def table3_spec(case: int, base_seed: int = 0) -> ProgramSpec:
    """The declarative program spec of one Table III case.

    ``program_index`` is the negated case number so table specs can never
    collide with generated programs (whose indices are >= 0).
    """
    scenario = TABLE3_SCENARIOS[case - 1]
    return ProgramSpec(
        program_index=-case,
        seed=derive_seed(base_seed, TABLE3_NAMESPACE.format(case)),
        devices=scenario.devices,
        rules=scenario.rules,
        initial_states=scenario.initial_states,
        integration_staleness=scenario.integration_staleness,
        duration=scenario.duration,
        stimuli=tuple(Stimulus(*stimulus) for stimulus in scenario.stimuli),
        meta={"table3_case": case},
    )


def table3_specs(base_seed: int = 0) -> list[ProgramSpec]:
    """All eleven case specs in table order."""
    return [table3_spec(case, base_seed) for case in TABLE3_EXPECTED]
