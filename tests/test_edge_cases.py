"""Edge-case coverage across layers: error paths and rarely-hit branches."""

from __future__ import annotations

import pytest

from repro.core.attacker import PhantomDelayAttacker
from repro.core.hijacker import Hold
from repro.core.predictor import TimeoutBehavior
from repro.simnet.packet import IpPacket
from repro.tcp.stack import TcpStack
from repro.tls.session import GLOBAL_ESCROW, KeyEscrow, TlsSession, _plain_record
from repro.testbed import SmartHomeTestbed


class TestTlsSessionErrorPaths:
    def _client_server(self, net, escrow=None, server_escrow=None):
        escrow = escrow or KeyEscrow()
        device = net.add_lan_host("device")
        cloud = net.add_cloud_host("cloud")
        dev_stack, cloud_stack = TcpStack(device), TcpStack(cloud)
        servers = []

        def on_accept(conn):
            servers.append(
                TlsSession(conn, "server", escrow=server_escrow or escrow)
            )

        cloud_stack.listen(443, on_accept)
        conn = dev_stack.connect(cloud.ip, 443)
        client = TlsSession(conn, "client", escrow=escrow)
        return client, servers

    def test_escrow_mismatch_fails_handshake(self, net):
        # Server checks a different escrow: the token cannot be redeemed.
        client, servers = self._client_server(
            net, escrow=KeyEscrow(), server_escrow=KeyEscrow()
        )
        net.sim.run(5.0)
        assert not client.established
        assert servers and servers[0].closed

    def test_non_handshake_record_before_keys_is_fatal(self, net):
        escrow = KeyEscrow()
        cloud = net.add_cloud_host("cloud2")
        cloud_stack = TcpStack(cloud)
        servers = []
        cloud_stack.listen(443, lambda conn: servers.append(
            TlsSession(conn, "server", escrow=escrow)
        ))
        device = net.add_lan_host("dev2")
        stack = TcpStack(device)
        # Raw TCP client (no TLS session): send an application-type record
        # before any handshake.
        conn = stack.connect(cloud.ip, 443)
        net.sim.run(1.0)
        conn.send(_plain_record(23, b"premature"))
        net.sim.run(2.0)
        assert servers and servers[0].closed
        assert any("non-handshake" in a for a in servers[0].alerts_raised)

    def test_global_escrow_default(self, net):
        device = net.add_lan_host("d3")
        stack = TcpStack(device)
        conn = stack.connect("34.9.9.9", 443)
        session = TlsSession(conn, "client")
        assert session.escrow is GLOBAL_ESCROW


class TestRouterPaths:
    def test_lan_to_lan_hairpin_via_gateway(self, net):
        a = net.add_lan_host("a")
        b = net.add_lan_host("b")
        got = []
        b.ip_handler = got.append
        # Force the frame through the router (as a poisoned host would).
        from repro.simnet.packet import EthernetFrame

        net.sim.run(0.1)
        a.arp.learn(net.router.ip, net.router.mac, solicited=True)
        a.nic.send(
            EthernetFrame(a.mac, net.router.mac, IpPacket(a.ip, b.ip, b"hairpin"))
        )
        net.sim.run(1.0)
        assert [p.payload for p in got] == [b"hairpin"]

    def test_wan_packet_for_router_itself(self, net):
        got = []
        net.router.ip_handler = got.append
        cloud = net.add_cloud_host("c")
        cloud.send_ip(IpPacket(cloud.ip, net.router.ip, b"mgmt"))
        net.sim.run(1.0)
        assert len(got) == 1


class TestEndpointStaleHandling:
    def test_close_stale_on_reconnect_variant(self):
        """The 'fixed' endpoint closes the old session on reconnect instead
        of keeping it half-open."""
        tb = SmartHomeTestbed(seed=191, close_stale_on_reconnect=True)
        keypad = tb.add_device("HS3")
        endpoint = tb.endpoints["simplisafe"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(keypad.host.ip)
        tb.run(30.0)
        attacker.e_delay(
            keypad.host.ip, TimeoutBehavior.from_profile(keypad.profile)
        ).arm(duration=40.0, clamp=False, suppress_close=True)
        keypad.stimulate("code-entered")
        tb.run(30.0)  # device times out at 20 s, reconnects at 22 s
        assert endpoint.half_open_count("hs3") == 1  # old one was closed

    def test_unknown_device_connection_served_with_defaults(self, net):
        tb = SmartHomeTestbed(seed=193)
        endpoint = tb.endpoint("ring")
        # A device the endpoint never registered connects anyway.
        from repro.appproto.base import DeviceProtocolClient, ProtocolConfig

        host = tb.add_attacker_host("rogue")  # any LAN host will do
        stack = TcpStack(host)
        client = DeviceProtocolClient(
            stack=stack,
            device_id="rogue-1",
            server_ip=endpoint.host.ip,
            server_port=endpoint.port,
            config=ProtocolConfig(codec_name="http"),
            alarm_log=tb.alarms,
            escrow=tb.escrow,
        )
        client.start()
        tb.run(5.0)
        assert client.connected
        assert endpoint.orphan_sessions  # tracked but unregistered


class TestTestbedVariants:
    def test_ip_exhaustion_guarded(self):
        tb = SmartHomeTestbed(seed=197)
        tb._next_device_ip = 251
        with pytest.raises(RuntimeError):
            tb._allocate_lan_ip()

    def test_unknown_catalogue_label(self):
        tb = SmartHomeTestbed(seed=199)
        with pytest.raises(LookupError):
            tb.add_device("NOPE")


class TestHoldBookkeeping:
    def test_current_delay_and_matchers(self):
        hold = Hold(hold_id=1, device_ip="10.0.0.1", direction="uplink")
        assert hold.current_delay(100.0) == 0.0
        hold.triggered_at = 90.0
        assert hold.current_delay(100.0) == 10.0
        packet = IpPacket("10.0.0.1", "34.0.0.1", None)
        assert hold.matches_packet(packet)
        assert not hold.matches_packet(IpPacket("10.0.0.2", "34.0.0.1", None))

    def test_downlink_matcher_with_server_filter(self):
        hold = Hold(hold_id=2, device_ip="10.0.0.1", direction="downlink", server_ip="34.0.0.1")
        assert hold.matches_packet(IpPacket("34.0.0.1", "10.0.0.1", None))
        assert not hold.matches_packet(IpPacket("34.0.0.9", "10.0.0.1", None))
        assert not hold.matches_packet(IpPacket("10.0.0.1", "34.0.0.1", None))


class TestPrimitiveEdges:
    def test_cancel_before_trigger(self):
        tb = SmartHomeTestbed(seed=201)
        contact = tb.add_device("C2")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(5.0)
        primitive = attacker.e_delay(hub.ip, TimeoutBehavior.from_profile(hub.profile))
        operation = primitive.arm(trigger_size=355)
        primitive.cancel(operation)
        contact.stimulate("open")
        tb.run(3.0)
        assert operation.triggered_at is None
        assert operation.achieved_delay is None
        assert tb.endpoints["smartthings"].events_from("c2")

    def test_manual_release_of_timed_operation_is_safe(self):
        tb = SmartHomeTestbed(seed=203)
        contact = tb.add_device("C2")
        hub = tb.devices["h1"]
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(hub.ip)
        tb.run(35.0)
        primitive = attacker.e_delay(hub.ip, TimeoutBehavior.from_profile(hub.profile))
        operation = primitive.arm(duration=30.0, trigger_size=355)
        contact.stimulate("open")
        tb.run(3.0)
        primitive.release(operation)  # early manual release
        tb.run(40.0)  # the scheduled release later is a no-op
        assert operation.achieved_delay < 5.0
        assert len(tb.endpoints["smartthings"].events_from("c2")) == 1


class TestAutomationEdges:
    def test_rule_str_and_firing_detail(self):
        from repro.automation.dsl import parse_rule

        rule = parse_rule(
            "WHEN c1 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock"
        )
        text = str(rule)
        assert "when c1:contact.open" in text
        assert "pr1.presence == 'present'" in text

    def test_actions_taken_filter(self):
        from repro.automation.dsl import parse_rule
        from repro.automation.engine import AutomationEngine
        from repro.simnet.scheduler import Simulator

        sim = Simulator(seed=1)
        engine = AutomationEngine(sim, command_sink=lambda *a: None)
        engine.install_rule(parse_rule("WHEN a b.c THEN COMMAND d e", "r1"))
        engine.install_rule(parse_rule("WHEN a b.d THEN COMMAND d f", "r2"))
        engine.handle_event("a", "b.c", device_time=0.0)
        assert len(engine.actions_taken()) == 1
        assert len(engine.actions_taken("r1")) == 1
        assert engine.actions_taken("r2") == []
        assert len(engine.firings_of("r1")) == 1
