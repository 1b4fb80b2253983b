"""Unit tests for wire formats and the broadcast LAN."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simnet.link import Lan
from repro.simnet.packet import (
    ARP_BODY_BYTES,
    ArpPacket,
    BROADCAST_MAC,
    ETHERNET_HEADER_BYTES,
    EthernetFrame,
    IPV4_HEADER_BYTES,
    IpPacket,
    MacPool,
)
from repro.simnet.scheduler import Simulator
from repro.tcp.segment import TCP_HEADER_BYTES, TcpSegment
from repro.tls.record import HEADER_BYTES, MAC_BYTES, RecordWriter


class _DescendingMacs(MacPool):
    """Hands out MACs in *descending* order, so attach order != MAC order."""

    def __init__(self) -> None:
        super().__init__()
        self._next = 0xF0

    def allocate(self) -> str:
        self._next -= 1
        return f"02:00:00:00:00:{self._next:02x}"


class TestMacPool:
    def test_allocates_unique(self):
        pool = MacPool()
        macs = {pool.allocate() for _ in range(100)}
        assert len(macs) == 100

    def test_format(self):
        mac = MacPool().allocate()
        parts = mac.split(":")
        assert len(parts) == 6
        assert all(len(p) == 2 for p in parts)


class TestPacketSizes:
    def test_arp_size(self):
        arp = ArpPacket("request", "m1", "1.1.1.1", BROADCAST_MAC, "1.1.1.2")
        assert arp.byte_size() == ARP_BODY_BYTES

    def test_bad_arp_op(self):
        with pytest.raises(ValueError):
            ArpPacket("query", "m", "i", "m", "i")

    def test_ip_packet_size_with_bytes(self):
        packet = IpPacket("1.1.1.1", "2.2.2.2", b"x" * 40)
        assert packet.byte_size() == IPV4_HEADER_BYTES + 40

    def test_ip_packet_size_empty(self):
        assert IpPacket("a", "b", None).byte_size() == IPV4_HEADER_BYTES

    def test_frame_size_nests(self):
        frame = EthernetFrame("m1", "m2", IpPacket("a", "b", b"x" * 10))
        assert frame.byte_size() == ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + 10

    def test_frame_ids_unique(self):
        f1 = EthernetFrame("a", "b", None)
        f2 = EthernetFrame("a", "b", None)
        assert f1.frame_id != f2.frame_id

    def test_broadcast_flag(self):
        assert EthernetFrame("a", BROADCAST_MAC, None).is_broadcast
        assert not EthernetFrame("a", "b", None).is_broadcast

    def test_unsupported_payload_rejected(self):
        frame = EthernetFrame("a", "b", object())
        with pytest.raises(TypeError):
            frame.byte_size()

    @given(st.binary(max_size=2000))
    def test_ip_size_matches_payload(self, payload):
        assert IpPacket("a", "b", payload).byte_size() == IPV4_HEADER_BYTES + len(payload)


class TestLanDelivery:
    def _lan(self):
        sim = Simulator(seed=3)
        return sim, Lan(sim)

    def test_unicast_reaches_only_addressee(self):
        sim, lan = self._lan()
        got_a, got_b = [], []
        nic_a = lan.attach(got_a.append)
        lan.attach(got_b.append)
        sender = lan.attach(lambda f: None)
        sender.send(EthernetFrame(sender.mac, nic_a.mac, None))
        sim.run(1.0)
        assert len(got_a) == 1 and got_b == []

    def test_broadcast_reaches_all_but_sender(self):
        sim, lan = self._lan()
        received = {i: [] for i in range(3)}
        nics = [lan.attach(received[i].append) for i in range(3)]
        nics[0].send(EthernetFrame(nics[0].mac, BROADCAST_MAC, None))
        sim.run(1.0)
        assert received[0] == [] and len(received[1]) == 1 and len(received[2]) == 1

    def test_promiscuous_overhears_unicast(self):
        sim, lan = self._lan()
        sniffed = []
        nic_a = lan.attach(lambda f: None)
        nic_b = lan.attach(lambda f: None)
        lan.attach(sniffed.append, promiscuous=True)
        nic_a.send(EthernetFrame(nic_a.mac, nic_b.mac, None))
        sim.run(1.0)
        assert len(sniffed) == 1

    def test_promiscuous_addressee_gets_frame_once(self):
        sim, lan = self._lan()
        got = []
        nic_a = lan.attach(lambda f: None)
        nic_b = lan.attach(got.append, promiscuous=True)
        nic_a.send(EthernetFrame(nic_a.mac, nic_b.mac, None))
        sim.run(1.0)
        assert len(got) == 1

    def test_latency_applied(self):
        sim = Simulator(seed=3)
        lan = Lan(sim, latency=0.25)
        arrival = []
        nic_a = lan.attach(lambda f: None)
        nic_b = lan.attach(lambda f: arrival.append(sim.now))
        nic_a.send(EthernetFrame(nic_a.mac, nic_b.mac, None))
        sim.run(1.0)
        assert arrival == [0.25]

    def test_negative_latency_rejected(self):
        sim = Simulator(seed=3)
        with pytest.raises(ValueError):
            Lan(sim, latency=-1.0)

    def test_detached_nic_gets_nothing(self):
        sim, lan = self._lan()
        got = []
        nic_a = lan.attach(lambda f: None)
        nic_b = lan.attach(got.append)
        lan.detach(nic_b)
        nic_a.send(EthernetFrame(nic_a.mac, nic_b.mac, None))
        sim.run(1.0)
        assert got == []

    def test_detached_nic_cannot_send(self):
        sim, lan = self._lan()
        nic = lan.attach(lambda f: None)
        lan.detach(nic)
        with pytest.raises(RuntimeError):
            nic.send(EthernetFrame(nic.mac, "x", None))

    def test_unknown_destination_dropped(self):
        sim, lan = self._lan()
        nic = lan.attach(lambda f: None)
        nic.send(EthernetFrame(nic.mac, "00:00:00:00:00:99", None))
        sim.run(1.0)  # no exception, frame vanishes

    def test_traffic_counters(self):
        sim, lan = self._lan()
        nic_a = lan.attach(lambda f: None)
        nic_b = lan.attach(lambda f: None)
        frame = EthernetFrame(nic_a.mac, nic_b.mac, b"x" * 100)
        nic_a.send(frame)
        sim.run(1.0)
        assert lan.frames_transmitted == 1
        assert lan.bytes_transmitted == frame.byte_size()

    def test_nic_by_mac(self):
        sim, lan = self._lan()
        nic = lan.attach(lambda f: None)
        assert lan.nic_by_mac(nic.mac) is nic
        assert lan.nic_by_mac("nope") is None


class TestDeliveryOrder:
    """The recipient order every campaign digest depends on."""

    def test_broadcast_reaches_nics_in_mac_order(self):
        sim = Simulator(seed=3)
        lan = Lan(sim, mac_pool=_DescendingMacs())
        order = []
        nics = [lan.attach(lambda f, i=i: order.append(i)) for i in range(4)]
        sniffer = lan.attach(lambda f: order.append("sniffer"), promiscuous=True)
        sender = nics[1]
        sender.send(EthernetFrame(sender.mac, BROADCAST_MAC, None))
        sim.run(1.0)
        # MACs descend with attach order, so MAC order is reverse attach
        # order; every NIC but the sender hears the frame exactly once.
        assert order == ["sniffer", 3, 2, 0]
        assert sorted(n.mac for n in nics + [sniffer]) == [
            sniffer.mac, nics[3].mac, nics[2].mac, nics[1].mac, nics[0].mac]

    def test_promiscuous_nics_overhear_unicast_in_mac_order(self):
        sim = Simulator(seed=3)
        lan = Lan(sim, mac_pool=_DescendingMacs())
        order = []
        sender = lan.attach(lambda f: None)
        target = lan.attach(lambda f: order.append("target"))
        for name in ("first", "second", "third"):
            lan.attach(lambda f, name=name: order.append(name), promiscuous=True)
        sender.send(EthernetFrame(sender.mac, target.mac, None))
        sim.run(1.0)
        assert order == ["target", "third", "second", "first"]

    def test_nic_attached_in_handler_misses_frame_in_flight(self):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        late = []
        joined = []

        def attach_once(frame):
            if not joined:
                joined.append(lan.attach(late.append))

        sender = lan.attach(lambda f: None)
        lan.attach(attach_once)
        first = EthernetFrame(sender.mac, BROADCAST_MAC, None)
        second = EthernetFrame(sender.mac, BROADCAST_MAC, None)
        sender.send(first)
        sim.run(1.0)
        assert joined and late == []
        sender.send(second)
        sim.run(1.0)
        assert late == [second]

    def _sent_bytes(self, payload):
        sim = Simulator(seed=3)
        lan = Lan(sim)
        a = lan.attach(lambda f: None)
        b = lan.attach(lambda f: None)
        a.send(EthernetFrame(a.mac, b.mac, payload))
        sim.run(1.0)
        return lan.bytes_transmitted

    def test_bytes_transmitted_nests_arp(self):
        arp = ArpPacket("request", "m1", "1.1.1.1", BROADCAST_MAC, "1.1.1.2")
        assert self._sent_bytes(arp) == ETHERNET_HEADER_BYTES + ARP_BODY_BYTES

    def test_bytes_transmitted_nests_ip_tcp(self):
        segment = TcpSegment(1234, 443, seq=7, ack=9, payload=b"y" * 33)
        packet = IpPacket("10.0.0.1", "10.0.0.2", segment)
        assert self._sent_bytes(packet) == (
            ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + TCP_HEADER_BYTES + 33
        )

    @pytest.mark.parametrize("raw", [None, b"", b"q" * 17, bytearray(b"r" * 5)])
    def test_bytes_transmitted_counts_raw_payloads(self, raw):
        size = 0 if raw is None else len(raw)
        assert self._sent_bytes(raw) == ETHERNET_HEADER_BYTES + size
        assert self._sent_bytes(IpPacket("10.0.0.1", "10.0.0.2", raw)) == (
            ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + size
        )

    def test_unsized_payload_still_rejected_at_every_depth(self):
        with pytest.raises(TypeError):
            self._sent_bytes(object())
        with pytest.raises(TypeError):
            self._sent_bytes(IpPacket("10.0.0.1", "10.0.0.2", object()))

    def test_bytes_transmitted_nests_ip_tls_record(self):
        # A sized value inside an IP packet counts through its byte_size().
        tunnelled = IpPacket("10.9.0.1", "10.9.0.2", b"z" * 48)
        packet = IpPacket("10.0.0.1", "10.0.0.2", tunnelled)
        assert self._sent_bytes(packet) == (
            ETHERNET_HEADER_BYTES + 2 * IPV4_HEADER_BYTES + 48
        )
        # A sealed record riding in a TCP segment counts its wire bytes.
        sealed = RecordWriter(b"k" * 16, b"h" * 16).seal(23, b"p" * 20)
        segment = TcpSegment(1234, 443, seq=7, ack=9, payload=sealed)
        assert self._sent_bytes(IpPacket("10.0.0.1", "10.0.0.2", segment)) == (
            ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + TCP_HEADER_BYTES
            + HEADER_BYTES + 20 + MAC_BYTES
        )
