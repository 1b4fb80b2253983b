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

Every registered ``run`` callable accepts its experiment's keyword
arguments plus ``seed=`` and ``runner=`` (a caller-built
:class:`~repro.parallel.runner.CampaignRunner` carrying worker count, cache,
manifest policy and, in the service, the shared pool, cancel signal and
progress observer).  The service passes a spec's kwargs; the CLI passes
the global flags named in :attr:`ExperimentSpec.flags` that the user gave,
so every default lives in the driver's signature.  Tests may
:func:`register` their own experiments and :func:`unregister` them
afterwards.
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


def _holds(claims: Callable[..., bool]) -> Callable[[tuple], int]:
    """Status 0 iff ``claims(*result)`` for a driver tuple ``result``."""
    return lambda result: 0 if claims(*result) else 1


def _findings_hold(f1, f2, f3) -> bool:
    """Findings 1 and 3 reproduce, and Finding 2 is a silent cliff at the
    driver's 30 s integration window."""
    return f1.reproduced and f3.reproduced and all(
        row.delivered_to_engine == (row.delay <= 30.0) and row.alarms == 0
        for row in f2
    )


def _countermeasures_hold(ack, traffic, stamps, detection, arp, remediation) -> bool:
    """The Section VII claims, as ``benchmarks/bench_countermeasures.py``
    asserts them."""
    achieved = [row.achieved_delay for row in ack]
    rates = [row.analytic_bytes_per_hour
             for row in sorted(traffic, key=lambda r: r.ka_period, reverse=True)]
    return (
        # VII-A: ack-timeout windows shrink and stay stealthy.
        None not in achieved and achieved == sorted(achieved, reverse=True)
        and all(row.stealthy for row in ack)
        # ... but traffic rises as the keep-alive period shrinks, as modelled,
        # and some period drains a battery within a month.
        and rates == sorted(rates)
        and all(abs(row.measured_bytes_per_hour - row.analytic_bytes_per_hour)
                <= 0.25 * row.analytic_bytes_per_hour
                for row in traffic if row.measured_bytes_per_hour is not None)
        and any(row.battery_days is not None and row.battery_days < 31
                for row in traffic)
        # VII-B: a 10 s freshness window stops only the delayed trigger.
        and all(row.attack_succeeded != (row.attack == "spurious via delayed trigger")
                for row in stamps if row.window == 10.0)
        and detection.detected
        and all(row.attack_succeeded != row.hardened for row in arp)
        and remediation.remediated and (remediation.exposure or 0.0) > 10.0
    )


def _register_builtins() -> None:
    from .countermeasures import (
        render_countermeasures,
        run_ack_timeout_sweep,
        run_delay_detection,
        run_keepalive_cost_curve,
        run_remediation_experiment,
        run_static_arp_defense,
        run_timestamp_defense,
    )
    from .findings import (
        finding1_half_open,
        finding2_event_discard,
        finding3_unidirectional_liveness,
        render_findings,
    )
    from .jamming_contrast import render_jamming_contrast, run_jamming_contrast
    from .recognition import render_recognition, run_recognition
    from .robustness import render_robustness, run_robustness
    from .table1 import render_table1, run_table1
    from .table2 import render_table2, run_table2
    from .table3 import render_table3, run_figure3, run_table3
    from .tls_integrity import render_integrity, run_integrity_experiment
    from .verification import render_verification, run_verification

    def run_findings(seed, runner):
        return (finding1_half_open(seed=seed), finding2_event_discard(seed=seed),
                finding3_unidirectional_liveness(seed=seed))

    def run_countermeasures(seed, runner):
        return (
            run_ack_timeout_sweep(seed=seed, runner=runner),
            run_keepalive_cost_curve(seed=seed, runner=runner),
            run_timestamp_defense(seed=seed, runner=runner),
            run_delay_detection(seed=seed),
            run_static_arp_defense(seed=seed),
            run_remediation_experiment(seed=seed),
        )

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
    register(ExperimentSpec(
        name="findings",
        run=run_findings,
        render=lambda result: render_findings(*result),
        status=_holds(_findings_hold),
        description="Findings 1-3",
    ))
    register(ExperimentSpec(
        name="countermeasures",
        run=run_countermeasures,
        render=lambda result: render_countermeasures(*result),
        status=_holds(_countermeasures_hold),
        description="Section VII defences",
    ))
    register(ExperimentSpec(
        name="integrity",
        run=lambda seed, runner: run_integrity_experiment(seed=seed),
        render=render_integrity,
        status=_all_pass(lambda r: r.matches_paper),
        description="TLS integrity vs delay",
    ))
    register(ExperimentSpec(
        name="jamming",
        run=lambda seed, runner: run_jamming_contrast(seed=seed),
        render=render_jamming_contrast,
        # Only the phantom delay is silent, and its event still arrives.
        status=_all_pass(lambda r: (r.silent and r.event_delivered)
                         if r.mode == "phantom-delay" else not r.silent),
        description="phantom delay vs packet discarding (extension)",
    ))
    register(ExperimentSpec(
        name="recognition",
        run=lambda seed, runner: run_recognition(seed=seed),
        render=render_recognition,
        status=lambda report: 0 if report.accuracy == 1.0 else 1,
        description="device recognition accuracy (extension)",
    ))


_register_builtins()
