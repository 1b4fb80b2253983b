"""Regression tests for the invariant checkers: seed each known violation
class and assert the right checker catches it with an actionable message.

A checker that never fires is indistinguishable from a checker that works;
these tests are the proof the suite can actually catch a dishonest stack.
The env-matrix test at the bottom backs the CI ``faults-matrix`` job.
"""

from __future__ import annotations

import os

import pytest

from repro.faults.invariants import (
    ALL_INVARIANTS,
    INV_HOLD_ORDER,
    INV_RULE_PROVENANCE,
    INV_TCP_STREAM,
    INV_TLS_INTEGRITY,
    InvariantError,
    InvariantSuite,
)
from repro.faults.profiles import FaultProfile
from repro.simnet.scheduler import Simulator
from repro.testbed import SmartHomeTestbed


class _FakeConn:
    """Just enough of a TcpConnection for the stream checker's key/label."""

    def __init__(self, local_ip, local_port, remote_ip, remote_port):
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port

    def flow_label(self):
        return f"{self.local_ip}:{self.local_port}<->{self.remote_ip}:{self.remote_port}"


def _pair():
    sender = _FakeConn("10.0.0.1", 40000, "10.0.0.2", 8883)
    receiver = _FakeConn("10.0.0.2", 8883, "10.0.0.1", 40000)
    return sender, receiver


@pytest.fixture
def suite():
    return InvariantSuite(Simulator(seed=0)).install()


class TestTcpStreamChecker:
    def test_faithful_delivery_passes(self, suite):
        sender, receiver = _pair()
        suite.on_tcp_send(sender, b"hello world")
        suite.on_tcp_deliver(receiver, b"hello ")
        suite.on_tcp_deliver(receiver, b"world")
        assert suite.ok

    def test_skipped_retransmission_caught(self, suite):
        """A hole in the stream (lost segment never repaired) is detected."""
        sender, receiver = _pair()
        suite.on_tcp_send(sender, b"aaaabbbbcccc")
        suite.on_tcp_deliver(receiver, b"aaaa")
        suite.on_tcp_deliver(receiver, b"cccc")  # skipped the b's
        assert not suite.ok
        v = suite.violations[0]
        assert v.invariant == INV_TCP_STREAM
        assert "byte 4" in v.message  # names the exact stream offset
        assert "10.0.0.1:40000" in v.message  # names the flow

    def test_mangled_bytes_caught(self, suite):
        sender, receiver = _pair()
        suite.on_tcp_send(sender, b"precious-data")
        suite.on_tcp_deliver(receiver, b"precioXs-data")
        [v] = suite.violations
        assert v.invariant == INV_TCP_STREAM
        assert "0x58" in v.message and "0x75" in v.message  # got X, sent u

    def test_duplicate_delivery_caught(self, suite):
        sender, receiver = _pair()
        suite.on_tcp_send(sender, b"once")
        suite.on_tcp_deliver(receiver, b"once")
        suite.on_tcp_deliver(receiver, b"once")  # delivered twice
        [v] = suite.violations
        assert v.invariant == INV_TCP_STREAM
        assert "exactly-once" in v.message

    def test_invented_data_caught(self, suite):
        _, receiver = _pair()
        suite.on_tcp_deliver(receiver, b"from thin air")
        [v] = suite.violations
        assert v.invariant == INV_TCP_STREAM
        assert "no recorded sender" in v.message


class TestTlsIntegrityChecker:
    def test_any_fatal_alert_is_a_violation(self, suite):
        suite.on_tls_alert("server@flow-x", "bad_record_mac")
        [v] = suite.violations
        assert v.invariant == INV_TLS_INTEGRITY
        assert "bad_record_mac" in v.message and "flow-x" in v.message

    def test_corrupt_deliver_mode_end_to_end(self):
        """A frame mangled past the FCS must be caught by the TLS MAC."""
        profile = FaultProfile(
            name="bitrot", corrupt=0.25, corrupt_mode="deliver"
        )
        tb = SmartHomeTestbed(seed=1, faults=profile, check_invariants=True)
        tb.add_device("SM1")
        tb.settle()
        tb.run(60.0)
        tls_violations = [
            v for v in tb.invariants.violations if v.invariant == INV_TLS_INTEGRITY
        ]
        assert tls_violations, "corrupted records reached TLS but no alert fired"
        assert tb.fault_injector.stats["corrupted_delivered"] > 0

    def test_corrupt_drop_mode_stays_silent(self):
        """The honest default: FCS discards, TCP repairs, TLS never sees it."""
        profile = FaultProfile(name="fcs", corrupt=0.1, corrupt_mode="drop")
        tb = SmartHomeTestbed(seed=1, faults=profile, check_invariants=True)
        tb.add_device("SM1")
        tb.settle()
        tb.run(60.0)
        assert tb.invariants.ok, tb.invariants.summary()
        assert tb.fault_injector.stats["dropped_corrupt"] > 0


class TestHoldOrderChecker:
    def test_in_order_release_passes(self, suite):
        suite.on_hold_release("flow-a", [1.0, 2.0, 3.0])
        suite.on_hold_release("flow-a", [4.0])
        assert suite.ok

    def test_shuffled_release_caught(self, suite):
        suite.on_hold_release("flow-a", [5.0, 4.0])
        [v] = suite.violations
        assert v.invariant == INV_HOLD_ORDER
        assert "capture order" in v.message

    def test_release_older_than_previous_batch_caught(self, suite):
        suite.on_hold_release("flow-a", [1.0, 2.0])
        suite.on_hold_release("flow-a", [1.5])  # older than the last release
        [v] = suite.violations
        assert v.invariant == INV_HOLD_ORDER

    def test_flows_are_independent(self, suite):
        suite.on_hold_release("flow-a", [5.0])
        suite.on_hold_release("flow-b", [1.0])  # different flow: fine
        assert suite.ok


class TestRuleProvenanceChecker:
    def test_fire_with_emission_passes(self, suite):
        suite.on_event_emitted("c1", "contact.open")
        suite.on_rule_fired("rule-1", "c1", "contact.open")
        assert suite.ok

    def test_phantom_firing_caught(self, suite):
        suite.on_rule_fired("rule-1", "c1", "contact.open")
        [v] = suite.violations
        assert v.invariant == INV_RULE_PROVENANCE
        assert "rule-1" in v.message and "c1" in v.message

    def test_double_firing_from_one_emission_caught(self, suite):
        suite.on_event_emitted("c1", "contact.open")
        suite.on_rule_fired("rule-1", "c1", "contact.open")
        suite.on_rule_fired("rule-1", "c1", "contact.open")
        [v] = suite.violations
        assert "fired 2 time(s)" in v.message and "1 time(s)" in v.message


class TestSuiteMechanics:
    def test_check_raises_with_every_violation_listed(self, suite):
        suite.on_hold_release("f", [2.0, 1.0])
        suite.on_rule_fired("r", "d", "e")
        with pytest.raises(InvariantError) as exc:
            suite.check()
        assert len(exc.value.violations) == 2
        assert INV_HOLD_ORDER in str(exc.value)
        assert INV_RULE_PROVENANCE in str(exc.value)

    def test_strict_mode_raises_at_the_moment_of_violation(self):
        suite = InvariantSuite(Simulator(seed=0), strict=True).install()
        with pytest.raises(InvariantError):
            suite.on_hold_release("f", [2.0, 1.0])

    def test_summary_reports_checks_and_violations(self, suite):
        suite.on_hold_release("f", [1.0])
        assert "all held" in suite.summary()
        suite.on_rule_fired("r", "d", "e")
        assert "1 violation" in suite.summary()

    def test_all_invariants_enumerated(self):
        assert set(ALL_INVARIANTS) == {
            INV_TCP_STREAM, INV_TLS_INTEGRITY, INV_HOLD_ORDER, INV_RULE_PROVENANCE,
        }


class TestFaultsMatrix:
    """CI entry point: REPRO_FAULT_PROFILE x REPRO_FAULT_SEED sweep.

    Locally this runs one (lossy, seed 3) cell; the ``faults-matrix`` CI job
    fans it out over three seeds and three profiles via the env vars.
    """

    def test_table3_succeeds_under_profile(self):
        from repro.experiments.table3 import run_table3

        profile = os.environ.get("REPRO_FAULT_PROFILE", "lossy")
        seed = int(os.environ.get("REPRO_FAULT_SEED", "3"))
        rows = run_table3(seed=seed, faults=profile)
        failures = [
            r.scenario.case_id
            for r in rows
            if not (r.consequence_reproduced and r.stealthy)
        ]
        assert failures == [], f"{profile}@seed={seed}: {failures}"
        violations = [
            v
            for r in rows
            for v in (r.baseline.invariant_violations or [])
            + (r.attacked.invariant_violations or [])
        ]
        assert violations == [], f"{profile}@seed={seed}: {violations}"
