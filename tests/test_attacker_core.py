"""Attacker substrate tests: spoofing, hijacking, fingerprinting, prediction."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.core.arp_spoofer import ArpSpoofer
from repro.core.attacker import PhantomDelayAttacker
from repro.core.fingerprint import (
    FingerprintDatabase,
    FlowObservation,
    _detect_keepalive,
    extract_observation,
)
from repro.core.hijacker import TcpHijacker
from repro.core.predictor import (
    CAUSE_EVENT_ACK,
    CAUSE_KEEPALIVE_REPLY,
    CAUSE_NONE,
    CAUSE_SERVER_LIVENESS,
    TimeoutBehavior,
    TimeoutPredictor,
)
from repro.core.primitives import EDelay
from repro.devices.profiles import CATALOGUE, Catalogue
from repro.simnet.host import Host
from repro.simnet.link import Lan
from repro.simnet.scheduler import Simulator
from repro.simnet.trace import FlowKey, PacketMeta
from repro.testbed import SmartHomeTestbed


@pytest.fixture
def home():
    tb = SmartHomeTestbed(seed=42)
    contact = tb.add_device("C2")
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    return tb, contact, tb.devices["h1"], attacker


class TestArpSpoofing:
    def test_poison_redirects_victim_cache(self, home):
        tb, _contact, hub, attacker = home
        genuine = hub.host.arp.lookup(tb.router.ip)
        attacker.interpose(hub.ip)
        tb.run(1.0)
        assert hub.host.arp.lookup(tb.router.ip) == attacker.host.mac
        assert tb.router.arp.lookup(hub.ip) == attacker.host.mac
        assert genuine != attacker.host.mac

    def test_repoison_survives_cache_expiry(self, home):
        tb, _contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(300.0)  # several ARP TTLs
        assert hub.host.arp.lookup(tb.router.ip) == attacker.host.mac

    def test_stop_allows_recovery(self, home):
        tb, _contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(1.0)
        attacker.spoofer.stop()
        tb.run(200.0)  # poison expires; genuine ARP re-learned on demand
        hub.client.send_event("probe")
        tb.run(2.0)
        assert hub.host.arp.lookup(tb.router.ip) == tb.router.mac

    def test_traffic_still_flows_through_attacker(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(1.0)
        before = attacker.hijacker.stats["forwarded"]
        contact.stimulate("open")
        tb.run(2.0)
        assert attacker.hijacker.stats["forwarded"] > before
        # ... and still reaches the cloud:
        assert tb.endpoints["smartthings"].events_from("c2")

    def test_repoison_resends_one_reply_per_target_in_fresh_frames(self, home):
        tb, _contact, hub, attacker = home
        seen = []
        hub.host.frame_taps.append(seen.append)
        attacker.interpose(hub.ip)
        tb.run(11.0)  # the initial poison plus two re-poison periods
        poison = [f for f in seen if f.src_mac == attacker.host.mac
                  and getattr(f.payload, "op", None) == "reply"]
        assert len(poison) == 3
        assert all(f.payload is poison[0].payload for f in poison)
        assert len({f.frame_id for f in poison}) == 3
        assert (poison[0].payload.sender_ip, poison[0].payload.target_ip) == (
            tb.router.ip, hub.ip)

    def test_discover_mac(self, home):
        tb, _contact, hub, attacker = home
        assert attacker.discover_mac(hub.ip) == hub.host.mac
        assert attacker.discover_mac("192.168.1.254") is None


class TestSpooferSchedule:
    """When re-poison frames leave, on a bare LAN with nothing else queued."""

    @staticmethod
    def _setup(net, spoofer_cls=ArpSpoofer):
        attacker = net.add_lan_host("attacker")
        device = net.add_lan_host("device")
        hub = net.add_lan_host("hub")
        sniffer = net.add_lan_host("sniffer", promiscuous=True)
        left = []

        def overhear(frame):
            payload = frame.payload
            if frame.src_mac == attacker.mac and getattr(payload, "op", "") == "reply":
                left.append((round(net.sim.now - net.lan.latency, 9), payload.target_ip))

        sniffer.frame_taps.append(overhear)
        spoofer = spoofer_cls(attacker)
        return spoofer, device, hub, left

    def test_repoison_instants(self, net):
        spoofer, device, hub, left = self._setup(net)
        router = net.router
        spoofer.poison_pair(device.ip, device.mac, router.ip, router.mac)
        net.sim.run_until(1.0)
        spoofer.start()
        net.sim.run_until(7.5)
        spoofer.poison_pair(hub.ip, hub.mac, router.ip, router.mac)  # while running
        net.sim.run_until(17.0)
        pair = [device.ip, router.ip]
        both = pair + [hub.ip, router.ip]
        expected = [(t, ip) for t in (1.0, 6.0) for ip in pair]
        expected += [(t, ip) for t in (7.5, 11.0, 16.0) for ip in both]
        assert left == expected
        assert spoofer.replies_sent == len(expected)

    def test_nothing_leaves_after_stop(self, net):
        spoofer, device, _hub, left = self._setup(net)
        router = net.router
        spoofer.poison_pair(device.ip, device.mac, router.ip, router.mac)
        spoofer.start()
        net.sim.run_until(7.0)
        spoofer.stop()
        net.sim.run_until(40.0)
        assert [t for t, _ in left] == [0.0, 0.0, 5.0, 5.0]
        assert net.sim.pending_events == 0

    def test_queued_override_does_not_outlive_stop(self, net):
        spoofer, device, _hub, left = self._setup(net)
        router = net.router
        spoofer.poison_pair(device.ip, device.mac, router.ip, router.mac)
        spoofer.start()
        net.sim.run_until(1.0)
        device._send_arp_request(router.ip)  # the victim re-ARPs the gateway
        net.sim.run_until(1.01)  # the spoofer has overheard it and queued poison
        spoofer.stop()
        net.sim.run_until(40.0)
        assert [t for t, _ in left] == [0.0, 0.0]
        assert spoofer.replies_sent == 2

    def test_stop_from_inside_a_poison_round(self, net):
        class StopsOnThirdRound(ArpSpoofer):
            rounds = 0

            def _poison_all(self):
                super()._poison_all()
                self.rounds += 1
                if self.rounds == 3:
                    self.stop()

        spoofer, device, _hub, left = self._setup(net, StopsOnThirdRound)
        router = net.router
        spoofer.poison_pair(device.ip, device.mac, router.ip, router.mac)
        spoofer.start()
        net.sim.run_until(40.0)
        assert [t for t, _ in left] == [0.0, 0.0, 5.0, 5.0, 10.0, 10.0]
        assert spoofer.rounds == 3
        assert net.sim.pending_events == 0


class TestHijackerHolds:
    def test_pass_through_is_transparent(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(1.0)
        contact.stimulate("open")
        tb.run(120.0)
        assert tb.alarms.silent

    def test_hold_triggers_on_exact_size_only(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=999)  # no such size
        contact.stimulate("open")
        tb.run(5.0)
        assert hold.triggered_at is None
        assert tb.endpoints["smartthings"].events_from("c2")  # delivered

    def test_hold_and_release_preserves_tls(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("open")
        tb.run(10.0)
        assert hold.holding and hold.held_count == 1
        assert not tb.endpoints["smartthings"].events_from("c2")
        attacker.hijacker.release(hold)
        tb.run(2.0)
        events = tb.endpoints["smartthings"].events_from("c2")
        assert len(events) == 1
        assert tb.alarms.silent

    def test_forged_ack_prevents_retransmission(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("open")
        tb.run(10.0)
        conn = hub.stack.connections()[0]
        assert conn.stats["retransmissions"] == 0
        assert hold.forged_acks >= 1

    def test_subsequent_messages_held_in_order(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("open")
        tb.run(1.0)
        contact.stimulate("closed")
        tb.run(1.0)
        assert hold.held_count == 2
        attacker.hijacker.release(hold)
        tb.run(2.0)
        names = [m.name for _, m in tb.endpoints["smartthings"].events_from("c2")]
        assert names == ["contact.open", "contact.closed"]

    def test_downlink_hold_delays_commands(self, home):
        tb, _contact, hub, attacker = home
        outlet = tb.add_device("P1")
        tb.settle(5.0)
        attacker.interpose(hub.ip)
        tb.run(5.0)
        hold = attacker.hijacker.hold_commands(hub.ip, trigger_size=336)
        tb.endpoints["smartthings"].send_command("p1", "on")
        tb.run(5.0)
        assert hold.holding
        assert outlet.attribute_value == "off"
        attacker.hijacker.release(hold)
        tb.run(2.0)
        assert outlet.attribute_value == "on"

    def test_cancel_untriggered_hold(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(1.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        attacker.hijacker.cancel(hold)
        contact.stimulate("open")
        tb.run(2.0)
        assert hold.triggered_at is None
        assert tb.endpoints["smartthings"].events_from("c2")

    def test_release_idempotent(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hold = attacker.hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("open")
        tb.run(2.0)
        attacker.hijacker.release(hold)
        attacker.hijacker.release(hold)
        tb.run(2.0)
        assert len(tb.endpoints["smartthings"].events_from("c2")) == 1

    def test_hold_armed_after_finished_holds_still_triggers(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(35.0)
        hijacker = attacker.hijacker
        hijacker.cancel(hijacker.hold_events(hub.ip, trigger_size=355))
        first = hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("open")
        tb.run(2.0)
        hijacker.release(first)
        tb.run(2.0)
        second = hijacker.hold_events(hub.ip, trigger_size=355)
        contact.stimulate("closed")
        tb.run(2.0)
        assert second.holding and second.held_count == 1
        hijacker.release(second)
        tb.run(2.0)
        names = [m.name for _, m in tb.endpoints["smartthings"].events_from("c2")]
        assert names == ["contact.open", "contact.closed"]

    def test_flow_events_record_lifecycle(self, home):
        tb, _contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(1.0)
        # Force a reconnect: stop and restart the hub's client.
        hub.client.stop()
        tb.run(5.0)
        hub.client.start()
        tb.run(5.0)
        kinds = {e.kind for e in attacker.hijacker.flow_events}
        assert "syn" in kinds and "fin" in kinds

    def test_last_delivery_tracking(self, home):
        tb, contact, hub, attacker = home
        attacker.interpose(hub.ip)
        tb.run(1.0)
        contact.stimulate("open")
        tb.run(2.0)
        last = attacker.hijacker.last_delivery_from(hub.ip)
        assert last is not None and last <= tb.now


class TestFingerprinting:
    def test_idle_observation_detects_keepalive(self, home):
        tb, _contact, hub, attacker = home
        attacker.interpose(hub.ip)
        attacker.capture.clear()
        tb.run(150.0)
        obs = extract_observation(attacker.capture, hub.ip, tb.internet.dns)
        assert len(obs) == 1
        assert obs[0].long_live
        assert obs[0].ka_wire_size == 40
        assert obs[0].ka_period == pytest.approx(31.0, abs=0.5)
        assert obs[0].server_domain == "api.smartthings.example"

    def test_database_covers_catalogue(self):
        db = FingerprintDatabase.from_catalogue()
        assert len(db.signatures) == len(CATALOGUE)
        assert isinstance(db.signatures, tuple)

    def test_deploys_share_one_database(self):
        first = PhantomDelayAttacker.deploy(SmartHomeTestbed(seed=1))
        second = PhantomDelayAttacker.deploy(SmartHomeTestbed(seed=2))
        assert first.database is second.database
        assert first.database is FingerprintDatabase.from_catalogue(CATALOGUE)

    def test_custom_catalogue_gets_its_own_database(self):
        slowed = dataclasses.replace(CATALOGUE.get("P2"), ka_period=99.0)
        custom = Catalogue([slowed if p.label == "P2" else p for p in CATALOGUE])
        attacker = PhantomDelayAttacker.deploy(SmartHomeTestbed(seed=1, catalogue=custom))
        default = FingerprintDatabase.from_catalogue()
        assert attacker.database is not default
        assert attacker.database is FingerprintDatabase.from_catalogue(custom)
        periods = {s.label: s.ka_period for s in attacker.database.signatures}
        assert periods["P2"] == 99.0
        assert {s.label: s.ka_period for s in default.signatures}["P2"] != 99.0
        # The memo holds its catalogues weakly: a dropped one is collected.
        collected = weakref.ref(custom)
        del attacker, custom
        gc.collect()
        assert collected() is None

    def test_observations_equal_a_rescan_per_flow(self):
        # extract_observation reads each flow's frames from one flows()
        # pass; the reference rescans the whole capture once per flow.
        tb = SmartHomeTestbed(seed=42)
        for label in ("C2", "P2", "C5"):
            tb.add_device(label)
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        device_ips = [tb.devices[label].ip for label in ("h1", "p2", "c5")]
        for ip in device_ips:
            attacker.interpose(ip)
        attacker.capture.clear()
        for value in ("open", "closed", "open", "closed"):
            tb.run(20.0)
            tb.devices["c5"].stimulate(value)  # a new session per event
        tb.run(100.0)
        capture = attacker.capture
        c5_flows = [k for k in capture.flows() if k.involves_ip(tb.devices["c5"].ip)]
        assert len(c5_flows) == 4
        for ip in device_ips:
            expected = _rescan_observations(capture, ip, tb.internet.dns)
            assert expected
            assert extract_observation(capture, ip, tb.internet.dns) == expected

    def test_match_identifies_smartthings_hub(self, home):
        tb, _contact, hub, attacker = home
        results = attacker.survey(150.0, [hub.ip])
        matches = results[hub.ip]
        assert matches
        assert matches[0].signature.label == "H1"


def _rescan_observations(capture, device_ip, dns):
    """extract_observation as a full rescan of the capture for every flow."""

    def key_of(ip, segment):
        return FlowKey.of(ip.src_ip, segment.src_port, ip.dst_ip, segment.dst_port)

    keys = []
    for _captured, ip, segment in capture.tcp_frames():
        key = key_of(ip, segment)
        if key.involves_ip(device_ip) and key not in keys:
            keys.append(key)
    observations = []
    for key in keys:
        uplink = [
            PacketMeta(captured.ts, len(segment.payload), True)
            for captured, ip, segment in capture.tcp_frames()
            if key_of(ip, segment) == key and segment.payload and ip.src_ip == device_ip
        ]
        if not uplink:
            continue
        sizes = {}
        for meta in uplink:
            sizes[meta.size] = sizes.get(meta.size, 0) + 1
        ka_size, ka_period = _detect_keepalive(uplink, 3)
        server_ip = key.other_ip(device_ip)
        observations.append(FlowObservation(
            device_ip=device_ip,
            server_ip=server_ip,
            server_domain=dns.reverse(server_ip),
            flow=key,
            long_live=ka_size is not None,
            ka_period=ka_period,
            ka_wire_size=ka_size,
            uplink_sizes=sizes,
        ))
    return observations


class TestPredictor:
    def _behavior(self, **kw):
        defaults = dict(
            long_live=True, ka_period=31.0, ka_strategy="on-idle", ka_timeout=16.0,
            event_timeout=None, command_timeout=None,
        )
        defaults.update(kw)
        return TimeoutBehavior(**defaults)

    def test_event_hold_on_idle_uses_server_liveness(self):
        predictor = TimeoutPredictor(self._behavior())
        prediction = predictor.event_hold_timeout(hold_start=100.0, last_delivered=100.0)
        assert prediction.at == pytest.approx(147.0)
        assert prediction.cause in (CAUSE_SERVER_LIVENESS, CAUSE_KEEPALIVE_REPLY)

    def test_event_hold_phase_shifts_prediction(self):
        predictor = TimeoutPredictor(self._behavior())
        late_phase = predictor.event_hold_timeout(hold_start=100.0, last_delivered=80.0)
        assert late_phase.at == pytest.approx(127.0)

    def test_unknown_phase_is_conservative(self):
        predictor = TimeoutPredictor(self._behavior())
        prediction = predictor.event_hold_timeout(hold_start=100.0, last_delivered=None)
        assert prediction.at == pytest.approx(116.0)  # grace only

    def test_event_ack_timeout_dominates(self):
        predictor = TimeoutPredictor(self._behavior(event_timeout=10.0))
        prediction = predictor.event_hold_timeout(hold_start=0.0, last_delivered=0.0)
        assert prediction.cause == CAUSE_EVENT_ACK
        assert prediction.at == 10.0

    def test_no_timeout_at_all(self):
        behavior = TimeoutBehavior(long_live=True, ka_period=None, ka_timeout=None)
        prediction = TimeoutPredictor(behavior).event_hold_timeout(0.0)
        assert prediction.cause == CAUSE_NONE
        assert not prediction.bounded

    def _bare_hijacker(self):
        sim = Simulator(seed=1)
        host = Host(sim, Lan(sim), ip="192.168.1.50", hostname="attacker",
                    gateway_ip="192.168.1.1")
        return sim, TcpHijacker(host)

    def _triggered_e_delay(self, behavior, margin, last_delivered=None):
        """An e-Delay whose hold triggers at t=100 s on a bare attacker host."""
        sim, hijacker = self._bare_hijacker()
        if last_delivered is not None:
            hijacker.last_payload_forwarded[("192.168.1.10", "34.0.0.1")] = last_delivered
        operation = EDelay(sim, hijacker, behavior, "192.168.1.10", margin=margin).arm()
        sim.run_until(100.0)
        operation.hold.on_triggered(operation.hold)
        return operation

    def test_max_safe_delay_applies_margin(self):
        operation = self._triggered_e_delay(self._behavior(), 2.0, last_delivered=100.0)
        assert operation.prediction.at == pytest.approx(147.0)
        assert operation.planned_release_at == pytest.approx(145.0)

    def test_max_safe_never_negative(self):
        operation = self._triggered_e_delay(self._behavior(event_timeout=1.0), 5.0)
        assert operation.prediction.at == pytest.approx(101.0)
        assert operation.planned_release_at == 100.0

    def test_command_hold_bounded_by_response_timeout(self):
        predictor = TimeoutPredictor(self._behavior(command_timeout=21.0))
        prediction = predictor.command_hold_timeout(hold_start=0.0, next_ka_send=100.0)
        assert prediction.at == 21.0

    def test_command_hold_bounded_by_ka_reply(self):
        predictor = TimeoutPredictor(self._behavior())
        prediction = predictor.command_hold_timeout(hold_start=0.0, next_ka_send=10.0)
        assert prediction.at == pytest.approx(26.0)
        assert prediction.cause == CAUSE_KEEPALIVE_REPLY

    def test_negative_margin_rejected(self):
        sim, hijacker = self._bare_hijacker()
        with pytest.raises(ValueError):
            EDelay(sim, hijacker, self._behavior(), "192.168.1.10", margin=-1.0)

    def test_behavior_from_profile_matches_windows(self):
        for label in ("H1", "L2", "HS3", "M7"):
            profile = CATALOGUE.get(label)
            behavior = TimeoutBehavior.from_profile(profile)
            assert behavior.event_delay_window() == profile.event_delay_window()
