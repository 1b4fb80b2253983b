"""Property and pin tests for the search rule-set generator.

The generator's contract mirrors the fleet sampler's: program *i* of a
search is a pure function of ``(base_seed, i)``, every generated rule
line is legal DSL that round-trips through parse/unparse, specs survive
the JSON round trip digest-intact, and loaders reject records written by
a newer schema.  The seed and digest pins are part of the
reproducibility contract — do not update them to make the test pass;
bump ``SEARCH_SCHEMA`` instead.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automation.dsl import parse_rule
from repro.devices.profiles import CATALOGUE
from repro.parallel import derive_seed
from repro.search import (
    SEARCH_SCHEMA,
    Hold,
    ProgramSpec,
    RuleSetGenerator,
    program_seed,
    schedule_from_lists,
    schedule_to_lists,
    session_of,
)


class TestProgramSeeds:
    def test_pinned_values_never_drift(self):
        # The search namespace pins: every previously generated program
        # replays byte-identically only while these hold.  Do not update
        # them to make the test pass — bump SEARCH_SCHEMA instead.
        assert program_seed(0, 0) == 719046569849950451
        assert program_seed(0, 1) == 1935413437187983039
        assert program_seed(0, 2) == 1185285789311657292
        assert program_seed(0, 63) == 2552485082471241565
        assert program_seed(7, 0) == 3373751155317006170

    def test_matches_campaign_namespace(self):
        assert program_seed(7, 12) == derive_seed(7, "search/12")


class TestGeneratorDeterminism:
    def test_golden_spec_digests_never_drift(self):
        # Digest pins for the first programs of the seed-0 search: any
        # drift silently re-rolls every generated corpus.
        gen = RuleSetGenerator(0)
        assert gen.sample(0).digest() == "54ecb4a0754b3594747c5929b64dd41e"
        assert gen.sample(1).digest() == "f44bb0dc84b3b006279dd0c8a35d1188"
        assert gen.sample(2).digest() == "bc0d1e22d0c94d3d8c90310a00733b62"

    @given(base=st.integers(0, 2**31), index=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_sample_is_a_pure_function(self, base, index):
        # Same (base_seed, index) -> identical spec, regardless of what
        # was sampled before: no hidden state between draws.
        gen = RuleSetGenerator(base)
        first = gen.sample(index)
        gen.sample(index + 1)
        assert gen.sample(index) == first
        assert RuleSetGenerator(base).sample(index) == first

    def test_batching_does_not_change_programs(self):
        # sample_many over any partition equals per-index sampling —
        # the property the shard partition relies on.
        gen = RuleSetGenerator(3)
        whole = gen.sample_many(12)
        parts = gen.sample_many(5) + gen.sample_many(7, start=5)
        assert whole == parts

    def test_distinct_programs_across_indices(self):
        specs = RuleSetGenerator(0).sample_many(32)
        assert len({spec.digest() for spec in specs}) == 32


class TestGeneratedStructure:
    @pytest.fixture(scope="class")
    def specs(self):
        return RuleSetGenerator(0).sample_many(48)

    def test_rules_reference_only_program_devices(self, specs):
        for spec in specs:
            ids = {label.lower() for label in spec.devices}
            for line in spec.rules:
                rule = parse_rule(line, rule_id="probe")
                assert rule.trigger.device_id in ids
                if rule.condition is not None:
                    assert rule.condition.device_id in ids

    def test_conditions_live_on_a_different_session(self, specs):
        # A condition on the trigger's own uplink session cannot be held
        # independently; the generator must never produce one.
        found = 0
        for spec in specs:
            for line in spec.rules:
                rule = parse_rule(line, rule_id="probe")
                if rule.condition is None:
                    continue
                found += 1
                assert (session_of(rule.condition.device_id.upper())
                        != session_of(rule.trigger.device_id.upper()))
        assert found > 10  # the space actually contains conditioned rules

    def test_stimuli_are_ordered_and_within_duration(self, specs):
        for spec in specs:
            times = [s.at for s in spec.stimuli]
            assert times == sorted(times)
            assert spec.stimuli, "every program has a timeline"
            assert spec.duration >= times[-1] + 10.0

    def test_stimulus_values_are_legal_for_the_device(self, specs):
        from repro.devices.behaviors import behavior_for

        label_of = {label.lower(): label for spec in specs
                    for label in spec.devices}
        for spec in specs:
            for stimulus in spec.stimuli:
                kind = CATALOGUE.get(label_of[stimulus.device_id]).kind
                assert stimulus.value in behavior_for(kind).sensor_values


class TestSpecSerialisation:
    @given(index=st.integers(0, 200), base=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_dict_round_trip_preserves_identity(self, index, base):
        spec = RuleSetGenerator(base).sample(index)
        again = ProgramSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_ignores_meta(self):
        spec = RuleSetGenerator(0).sample(0)
        tagged = ProgramSpec.from_dict({**spec.to_dict(), "meta": {"x": 1}})
        assert tagged.digest() == spec.digest()
        assert tagged == spec  # meta is compare=False provenance

    def test_newer_schema_rejected(self):
        record = RuleSetGenerator(0).sample(0).to_dict()
        record["schema"] = SEARCH_SCHEMA + 1
        with pytest.raises(ValueError, match="newer than supported"):
            ProgramSpec.from_dict(record)

    def test_schedule_round_trip(self):
        schedule = (Hold("c1", 3.0, 5.0), Hold("m2", 10.5, None))
        assert schedule_from_lists(schedule_to_lists(schedule)) == schedule
