"""Sampler contract: golden-pinned specs, schema gating, stable distributions.

The golden pins are a reproducibility contract, exactly like the
``derive_seed`` pins in tests/test_parallel.py: if any of them moves, every
previously sampled fleet silently re-rolls, which is a breaking change and
must bump ``SPEC_SCHEMA``.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.devices.profiles import CATALOGUE
from repro.fleet import sampler
from repro.fleet.sampler import ACTUATOR_POOL, SENSOR_POOL, FleetSampler, home_seed
from repro.fleet.spec import SPEC_SCHEMA, HomeSpec, Stimulus


class TestSeedDerivation:
    def test_home_seed_pins(self):
        # fleet/<home-index> namespace pins (base_seed=0); moving any of
        # these re-rolls every fleet ever sampled.
        assert home_seed(0, 0) == 5706399973494835688
        assert home_seed(0, 1) == 6658469710963336721
        assert home_seed(0, 2) == 791601933851559249
        assert home_seed(0, 63) == 2626018286476806942
        assert home_seed(7, 0) == 3932195172573457893

    def test_distinct_across_homes_and_bases(self):
        seeds = {home_seed(0, i) for i in range(256)}
        assert len(seeds) == 256
        assert home_seed(1, 0) != home_seed(0, 0)


class TestGoldenSpecs:
    def test_spec_digest_pins(self):
        sampler = FleetSampler(0)
        assert sampler.sample(0).digest() == "4d88909f4f745a40fef019e8bc172d9a"
        assert sampler.sample(1).digest() == "1ed3a4ef60591e64d7cfca69d9c528dd"
        assert sampler.sample(2).digest() == "0a1de46ce9fbb0888dbf5cd5e7e10d32"

    def test_home1_golden_spec(self):
        spec = FleetSampler(0).sample(1)
        assert spec.seed == home_seed(0, 1)
        assert spec.devices == ("WL1", "M2", "S1", "P3")
        assert spec.rules == (
            'WHEN s1 button.pushed THEN NOTIFY push "home-1 rule-0: button.pushed"',
            "WHEN wl1 water.wet IF s1.button == idle THEN COMMAND p3 on",
            'WHEN m2 motion.active THEN NOTIFY push "home-1 rule-2: motion.active"',
        )
        assert spec.fault_profile == "jittery"
        assert not spec.attacker
        assert spec.attack_target is None
        assert spec.duration == pytest.approx(103.879, abs=1e-3)

    def test_sampling_is_a_pure_function_of_seed_and_index(self):
        a = FleetSampler(42).sample(17)
        b = FleetSampler(42).sample(17)
        assert a == b
        assert a.digest() == b.digest()
        # Sampling other homes in between must not perturb the draw.
        sampler = FleetSampler(42)
        sampler.sample(3)
        sampler.sample(99)
        assert sampler.sample(17) == a

    def test_digest_ignores_meta(self):
        spec = FleetSampler(0).sample(0)
        tagged = HomeSpec.from_dict({**spec.to_dict(), "meta": {"note": "x"}})
        assert tagged.digest() == spec.digest()

    def test_round_trip_through_dict(self):
        for index in range(8):
            spec = FleetSampler(5).sample(index)
            assert HomeSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_equals_the_asdict_form(self):
        # The reference is the dataclasses.asdict form to_dict once
        # returned; it also catches a field added without a to_dict key.
        def reference(spec):
            record = dataclasses.asdict(spec)
            record["devices"] = list(spec.devices)
            record["rules"] = list(spec.rules)
            record["stimuli"] = [list(s.to_tuple()) for s in spec.stimuli]
            return record

        sampler = FleetSampler(7)
        specs = [sampler.sample(index) for index in range(64)]
        specs[0] = dataclasses.replace(specs[0], meta={"origin": {"batch": [1, 2]}})
        for spec in specs:
            record = spec.to_dict()
            assert list(record.items()) == list(reference(spec).items())
        assert record["meta"] is not spec.meta
        nested = specs[0].to_dict()["meta"]
        assert nested == {"origin": {"batch": [1, 2]}}
        assert nested["origin"] is not specs[0].meta["origin"]


class TestSchemaGate:
    def test_newer_spec_schema_rejected(self):
        record = FleetSampler(0).sample(0).to_dict()
        record["schema"] = SPEC_SCHEMA + 1
        with pytest.raises(ValueError, match="newer than supported"):
            HomeSpec.from_dict(record)

    def test_current_and_older_schemas_load(self):
        spec = FleetSampler(0).sample(0)
        assert HomeSpec.from_dict(spec.to_dict()).schema == SPEC_SCHEMA


class TestDistributions:
    """Histogram sanity over 1k draws — loose bounds, no flakiness."""

    DRAWS = 1000

    @pytest.fixture(scope="class")
    def specs(self):
        return FleetSampler(0).sample_many(self.DRAWS)

    def test_device_mix_within_config(self, specs):
        sensor_counts = collections.Counter()
        for spec in specs:
            sensors = [d for d in spec.devices if d in SENSOR_POOL]
            actuators = [d for d in spec.devices if d in ACTUATOR_POOL]
            assert len(sensors) + len(actuators) == len(spec.devices)
            assert sampler.MIN_SENSORS <= len(sensors) <= sampler.MAX_SENSORS
            assert len(actuators) <= sampler.MAX_ACTUATORS
            sensor_counts[len(sensors)] += 1
        # Uniform over {1,2,3}: every bucket must be populated, roughly evenly.
        assert set(sensor_counts) == {1, 2, 3}
        for count in sensor_counts.values():
            assert count > self.DRAWS // 6

    def test_rule_counts_within_config(self, specs):
        rule_counts = collections.Counter(len(s.rules) for s in specs)
        assert set(rule_counts) == set(
            range(sampler.MIN_RULES, sampler.MAX_RULES + 1))
        for count in rule_counts.values():
            assert count > self.DRAWS // 8

    def test_fault_profile_fractions(self, specs):
        fractions = collections.Counter(s.fault_profile for s in specs)
        assert 0.6 < fractions[None] / self.DRAWS < 0.8
        assert 0.08 < fractions["lossy"] / self.DRAWS < 0.25
        assert 0.08 < fractions["jittery"] / self.DRAWS < 0.25
        assert set(fractions) == {None, "lossy", "jittery"}

    def test_attacker_fraction_and_schedule(self, specs):
        attacked = [s for s in specs if s.attacker]
        assert 0.4 < len(attacked) / self.DRAWS < 0.6
        for spec in attacked:
            assert spec.attack_target in spec.devices
            assert spec.attack_target in SENSOR_POOL
            assert 1.0 <= spec.hold_at <= 30.0
            if spec.hold_duration is not None:
                lo, hi = sampler.HOLD_RANGE
                assert lo <= spec.hold_duration <= hi
        held = sum(1 for s in attacked if s.hold_duration is None)
        assert 0.3 < held / len(attacked) < 0.7

    def test_stimuli_sorted_and_inside_run(self, specs):
        for spec in specs:
            keys = [(s.at, s.device_id) for s in spec.stimuli]
            assert keys == sorted(keys)
            for stimulus in spec.stimuli:
                assert isinstance(stimulus, Stimulus)
                assert 0.0 < stimulus.at < spec.duration
                assert stimulus.device_id in {d.lower() for d in spec.devices}

    def test_durations_within_range(self, specs):
        lo, hi = sampler.DURATION_RANGE
        for spec in specs:
            assert lo <= spec.duration <= hi


class TestPools:
    def test_pools_are_real_catalogue_devices(self):
        assert SENSOR_POOL and ACTUATOR_POOL
        for label in SENSOR_POOL + ACTUATOR_POOL:
            assert CATALOGUE.get(label) is not None
        assert not set(SENSOR_POOL) & set(ACTUATOR_POOL)
