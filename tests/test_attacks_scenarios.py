"""End-to-end attack scenario tests (Table III / Figure 3 behaviours)."""

from __future__ import annotations

import pytest

from repro.core.attacks.base import ScenarioResult, compare_scenario, run_scenario
from repro.core.attacks.scenarios import (
    Case1FrontDoorVoiceAlert,
    Case3DoorCloseAutoLock,
    Case4ArmedHeaterOff,
    Case8StormDoorUnlock,
    Case10AutoLockOnLeave,
    DelayedTriggerSpurious,
    DisorderedOppositeActions,
    FIGURE3_SCENARIOS,
    Fig3bWaterValve,
    TABLE3_SCENARIOS,
)

#: Every declared case once: Table III, Figure 3 and the two extensions.
ALL_SCENARIOS = list({
    s.case_id: s
    for s in TABLE3_SCENARIOS + FIGURE3_SCENARIOS
    + [DelayedTriggerSpurious(), DisorderedOppositeActions()]
}.values())


class TestScenarioFramework:
    def test_eleven_table3_cases(self):
        assert len(TABLE3_SCENARIOS) == 11
        assert [s.case_id for s in TABLE3_SCENARIOS] == [f"Case {i}" for i in range(1, 12)]

    def test_four_figure3_scenarios(self):
        assert len(FIGURE3_SCENARIOS) == 4

    def test_each_type_represented(self):
        types = {s.attack_type for s in TABLE3_SCENARIOS}
        assert types == {
            "state-update-delay", "action-delay",
            "spurious-execution", "disabled-execution",
        }


class TestTypeI:
    def test_alert_delayed_dozens_of_seconds(self):
        baseline, attacked = compare_scenario(Case1FrontDoorVoiceAlert(), seed=9)
        assert baseline.metrics["alert_latency"] < 2.0
        assert attacked.metrics["alert_latency"] > 20.0
        assert attacked.metrics["alert_delivered"]  # late, not lost

    def test_attack_is_stealthy(self):
        _, attacked = compare_scenario(Case1FrontDoorVoiceAlert(), seed=9)
        assert attacked.alarms == {}
        assert attacked.metrics["stealthy_hold"]


class TestTypeII:
    def test_lock_command_delayed(self):
        baseline, attacked = compare_scenario(Case3DoorCloseAutoLock(), seed=9)
        assert baseline.metrics["lock_latency"] < 2.0
        assert attacked.metrics["lock_latency"] > 15.0
        assert attacked.metrics["locked_eventually"]  # command not lost

    def test_combined_event_and_command_delay(self):
        baseline, attacked = compare_scenario(Fig3bWaterValve(), seed=9)
        assert attacked.metrics["shutoff_latency"] > baseline.metrics["shutoff_latency"] + 15.0
        assert attacked.metrics["combined_window"] > 15.0

    def test_routine_disabled_forever_via_discard(self):
        baseline, attacked = compare_scenario(Case4ArmedHeaterOff(), seed=9)
        assert baseline.metrics["heater_turned_off"]
        assert not attacked.metrics["heater_turned_off"]
        assert attacked.metrics["events_discarded"] == 1
        assert attacked.alarms == {}  # Finding 2: silent


class TestTypeIII:
    def test_storm_door_spurious_unlock(self):
        baseline, attacked = compare_scenario(Case8StormDoorUnlock(), seed=9)
        assert not baseline.metrics["unlocked"]
        assert attacked.metrics["unlocked"]
        assert attacked.alarms == {}

    def test_auto_lock_disabled(self):
        baseline, attacked = compare_scenario(Case10AutoLockOnLeave(), seed=9)
        assert baseline.metrics["auto_locked"]
        assert not attacked.metrics["auto_locked"]
        assert attacked.metrics["lock_state"] == "unlocked"

    def test_opposite_actions_disordered(self):
        baseline, attacked = compare_scenario(DisorderedOppositeActions(), seed=9)
        assert baseline.metrics["action_order"] == "unlock->lock"
        assert not baseline.metrics["left_unlocked"]
        assert attacked.metrics["action_order"] == "lock->unlock"
        assert attacked.metrics["left_unlocked"]
        assert attacked.alarms == {}

    def test_delayed_trigger_spurious_extension(self):
        baseline, attacked = compare_scenario(DelayedTriggerSpurious(), seed=9)
        assert not baseline.metrics["heater_turned_on"]
        assert attacked.metrics["heater_turned_on"]

    def test_timestamp_checking_stops_delayed_trigger(self):
        scenario = DelayedTriggerSpurious()
        scenario.trigger_timestamp_window = 10.0
        result = run_scenario(scenario, attacked=True, seed=9)
        assert not result.metrics["heater_turned_on"]
        assert result.metrics["stale_triggers_suppressed"] >= 1

    def test_timestamp_checking_does_not_stop_condition_delay(self):
        scenario = Case8StormDoorUnlock()
        scenario.trigger_timestamp_window = 10.0
        result = run_scenario(scenario, attacked=True, seed=9)
        assert result.metrics["unlocked"]  # the burglar still gets in


class TestBaselineSanity:
    """Without the attacker, every home behaves as the rules intend."""

    @pytest.mark.parametrize("scenario", TABLE3_SCENARIOS, ids=lambda s: s.case_id)
    def test_baseline_runs_clean(self, scenario):
        result = run_scenario(scenario, attacked=False, seed=11)
        assert result.alarms == {}


class TestDeclaredVerdict:
    """``Scenario.reproduced`` judges every case by its declared effect."""

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.case_id)
    def test_paired_run_reproduces_declared_effect(self, scenario):
        baseline, attacked = compare_scenario(scenario, seed=3)
        assert scenario.verdict_metric in baseline.metrics
        assert scenario.verdict_metric in attacked.metrics
        assert scenario.reproduced(baseline, attacked)

    def test_missing_verdict_metric_raises(self):
        scenario = Case8StormDoorUnlock()
        baseline = ScenarioResult(scenario.name, attacked=False, metrics={"unlocked": False})
        attacked = ScenarioResult(scenario.name, attacked=True, metrics={"lock_state": "unlocked"})
        with pytest.raises(KeyError):
            scenario.reproduced(baseline, attacked)


class TestRuleIds:
    def test_rule_ids_do_not_depend_on_earlier_parses(self):
        """Scenario rules are named ``<scenario name>-r<j>``, so a run's rule
        spans and metric keys are the same however many rules the process
        parsed before it (a ``--jobs N`` worker runs several shards)."""

        def rule_names():
            result = run_scenario(
                Case8StormDoorUnlock(), attacked=True, seed=3, observe=True
            )
            spans = sorted(
                {s.name for s in result.obs.tracer.spans if s.name.startswith("rule:")}
            )
            keys = sorted(
                (m["component"], m["name"], m["labels"]["rule"])
                for m in result.obs.registry.snapshot()
                if "rule" in m["labels"]
            )
            return spans, keys

        first = rule_names()
        assert first == rule_names()
        assert first[0] == ["rule:case8-storm-door-unlock-r0"]
        assert ("automation", "rule_firings", "case8-storm-door-unlock-r0") in first[1]
