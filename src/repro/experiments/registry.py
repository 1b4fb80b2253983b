"""Registry mapping experiment names to their drivers.

This table is the one place an experiment name resolves to a driver, a
renderer, and an exit-status rule.  Both ``phantom-delay <experiment>``
and the campaign service (``repro.service``, which accepts JSON specs that
name an experiment) run a registered experiment the same way::

    result = spec.run(**kwargs, seed=seed, runner=runner)
    print(spec.render(result))
    return spec.status(result)

so a served result equals the one-shot CLI's output by construction: only
one path leads from either front-end to the driver.

Every registered ``run`` callable accepts ``**kwargs`` plus ``seed=`` and
``runner=`` (a caller-built :class:`~repro.parallel.CampaignRunner`
carrying worker count, cache, manifest policy and, in the service, the
shared pool, cancel signal and progress observer).  The service passes a
spec's kwargs; the CLI passes the global flags named in
:attr:`ExperimentSpec.flags` that the user gave, so every default lives in
the driver's signature.  Tests may :func:`register` their own experiments
and :func:`unregister` them afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: driver + renderer + exit status rule."""

    name: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    #: Maps the driver's result to the command's exit status
    #: (0 = every row matched expectations).
    status: Callable[[Any], int]
    description: str = ""
    #: The CLI's global flags (``labels``, ``trials``, ``faults``) this
    #: driver takes as keyword arguments; the CLI ignores the rest.
    flags: tuple[str, ...] = ()


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
    """Add an experiment; refuses to shadow an existing name by accident."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            + ", ".join(experiment_names())
        ) from None


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def _all_pass(predicate: Callable[[Any], bool]) -> Callable[[Any], int]:
    return lambda rows: 0 if all(predicate(r) for r in rows) else 1


def _register_builtins() -> None:
    from .robustness import render_robustness, run_robustness
    from .table1 import render_table1, run_table1
    from .table2 import render_table2, run_table2
    from .table3 import render_table3, run_figure3, run_table3
    from .verification import render_verification, run_verification

    register(ExperimentSpec(
        name="table1",
        run=run_table1,
        render=render_table1,
        status=_all_pass(lambda r: r.matches_expectation()),
        description="Table I: cloud device timeout profiling",
        flags=("labels", "trials"),
    ))
    register(ExperimentSpec(
        name="table2",
        run=run_table2,
        render=render_table2,
        status=_all_pass(lambda r: r.matches_expectation),
        description="Table II: HomeKit device profiling",
        flags=("labels", "trials"),
    ))
    register(ExperimentSpec(
        name="table3",
        run=run_table3,
        render=render_table3,
        status=_all_pass(lambda r: r.consequence_reproduced and r.stealthy),
        description="Table III: the 11 PoC attack cases",
        flags=("faults",),
    ))
    register(ExperimentSpec(
        name="figure3",
        run=run_figure3,
        render=lambda rows: render_table3(
            rows, title="Figure 3 — the four illustrated attacks"
        ),
        status=_all_pass(lambda r: r.consequence_reproduced and r.stealthy),
        description="Figure 3: the four illustrated attacks",
        flags=("faults",),
    ))
    register(ExperimentSpec(
        name="verify",
        run=run_verification,
        render=render_verification,
        status=_all_pass(lambda r: r.success_rate == 1.0),
        description="Section VI-C verification test",
        flags=("trials",),
    ))
    register(ExperimentSpec(
        name="robustness",
        run=run_robustness,
        render=render_robustness,
        status=_all_pass(lambda r: r.success and r.violations == 0),
        description="attack success over a loss x jitter grid with invariants audited",
    ))


_register_builtins()
