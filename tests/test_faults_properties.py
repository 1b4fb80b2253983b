"""Property tests for the fault-injection layer.

Two guarantees, for *any* seed and profile:

* whatever the injector does to frames, the byte stream TCP hands the
  application (and therefore TLS) is identical to the no-fault run's —
  impairment may cost time, never bytes; and
* sharded campaigns are schedule-deterministic: a parallel sweep produces
  byte-for-byte the output of the serial one.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.simnet.scheduler import run_until
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantSuite
from repro.faults.profiles import get_profile
from repro.simnet.link import Lan
from repro.simnet.packet import EthernetFrame, IpPacket
from repro.simnet.scheduler import Simulator
from repro.tcp.stack import TcpStack


def _impaired_pair(profile_name: str | None, seed: int):
    """Two TCP stacks joined by a LAN that runs the given fault profile."""
    sim = Simulator(seed=seed)
    lan = Lan(sim)
    if profile_name is not None:
        FaultInjector(sim, get_profile(profile_name), seed=seed).attach(lan)
    suite = InvariantSuite(sim).install()

    class _Host:
        def __init__(self, ip, name):
            self.sim = sim
            self.ip = ip
            self.hostname = name
            self.ip_handler = None
            self.frame_taps = []
            self.nic = lan.attach(self._on_frame)

        def send_ip(self, packet):
            other = b_host if self is a_host else a_host
            self.nic.send(EthernetFrame(self.nic.mac, other.nic.mac, packet))

        def _on_frame(self, frame):
            if self.ip_handler and isinstance(frame.payload, IpPacket):
                if frame.payload.dst_ip == self.ip:
                    self.ip_handler(frame.payload)

    a_host = _Host("10.0.0.1", "a")
    b_host = _Host("10.0.0.2", "b")
    return sim, TcpStack(a_host), TcpStack(b_host), suite


def _transfer(profile_name: str | None, seed: int, chunks: list[bytes]):
    """Send chunks a->b over the (possibly impaired) link; return delivery."""
    sim, a, b, suite = _impaired_pair(profile_name, seed)
    received: list[bytes] = []
    b.listen(
        8883,
        lambda c: setattr(c.callbacks, "on_data", lambda cc, d: received.append(d)),
    )
    conn = a.connect("10.0.0.2", 8883)
    sim.run(5.0)
    # Some seeds lose the SYN or the SYN-ACK often enough that the
    # handshake is still retrying at 5 s; only an open connection sends.
    assert run_until(sim, lambda: conn.established, 60.0)
    for i, chunk in enumerate(chunks):
        sim.schedule(0.5 * i, conn.send, chunk)
    # Generous horizon: every loss pattern short of give-up repairs inside it.
    sim.run(180.0)
    return b"".join(received), suite


class TestByteStreamUnderImpairment:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        profile=st.sampled_from(["lossy", "bursty", "jittery", "chaotic"]),
        chunks=st.lists(
            st.binary(min_size=1, max_size=600), min_size=1, max_size=5
        ),
    )
    @example(seed=41, profile="bursty", chunks=[b"x"])
    def test_delivered_stream_identical_to_no_fault_run(self, seed, profile, chunks):
        impaired, suite = _transfer(profile, seed, chunks)
        ideal, _ = _transfer(None, seed, chunks)
        assert impaired == ideal == b"".join(chunks)
        assert suite.ok, suite.summary()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        chunks=st.lists(st.binary(min_size=1, max_size=600), min_size=1, max_size=4),
    )
    @example(seed=1219, chunks=[b"\x00"])
    def test_same_seed_same_impairment_schedule(self, seed, chunks):
        """Replays of a seeded run are byte- and stat-identical."""
        results = []
        for _ in range(2):
            sim, a, b, _suite = _impaired_pair("chaotic", seed)
            received: list[bytes] = []
            b.listen(
                8883,
                lambda c: setattr(
                    c.callbacks, "on_data", lambda cc, d: received.append(d)
                ),
            )
            conn = a.connect("10.0.0.2", 8883)
            sim.run(5.0)
            assert run_until(sim, lambda: conn.established, 60.0)
            for chunk in chunks:
                conn.send(chunk)
            sim.run(120.0)
            results.append((b"".join(received), dict(conn.stats)))
        assert results[0] == results[1]


def _row_fingerprint(row):
    return (
        row.scenario.case_id,
        row.consequence_reproduced,
        row.stealthy,
        sorted(row.baseline.metrics.items()),
        sorted(row.attacked.metrics.items()),
        row.attacked.fault_stats,
        row.attacked.invariant_violations,
    )


class TestSerialParallelEquivalence:
    def test_table3_sweep_identical_serial_and_parallel(self):
        from repro.core.attacks.scenarios import TABLE3_SCENARIOS
        from repro.experiments.table3 import run_table3
        from repro.parallel.runner import CampaignRunner

        cases = TABLE3_SCENARIOS[:3]
        serial = run_table3(
            seed=3, scenarios=cases, runner=CampaignRunner(jobs=1), faults="lossy"
        )
        parallel = run_table3(
            seed=3, scenarios=cases, runner=CampaignRunner(jobs=2), faults="lossy"
        )
        assert [_row_fingerprint(r) for r in serial] == [
            _row_fingerprint(r) for r in parallel
        ]

    def test_robustness_grid_identical_serial_and_parallel(self):
        from repro.core.attacks.scenarios import TABLE3_SCENARIOS
        from repro.experiments.robustness import run_robustness
        from repro.parallel.runner import CampaignRunner

        kwargs = dict(
            seed=3,
            loss_grid=(0.0, 0.03),
            jitter_grid=(0.0,),
            scenarios=TABLE3_SCENARIOS[:2],
        )
        assert (run_robustness(runner=CampaignRunner(jobs=1), **kwargs)
                == run_robustness(runner=CampaignRunner(jobs=2), **kwargs))


class TestRobustnessAcceptance:
    """The PR's acceptance bar: Table III holds at <=5% loss, invariants on."""

    def test_all_cases_succeed_at_five_percent_loss(self):
        from repro.experiments.table3 import run_table3

        rows = run_table3(seed=3, faults="loss=0.05")
        failures = [
            r.scenario.case_id
            for r in rows
            if not (r.consequence_reproduced and r.stealthy)
        ]
        assert failures == []
        for r in rows:
            assert r.baseline.invariant_violations == []
            assert r.attacked.invariant_violations == []
            assert r.attacked.fault_stats is not None
            assert r.attacked.fault_stats["frames_seen"] > 0
