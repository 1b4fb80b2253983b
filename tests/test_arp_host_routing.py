"""ARP caches, host routing, the router, and the WAN."""

from __future__ import annotations

import pytest

from repro.simnet.arp import ArpCache
from repro.simnet.inet import DnsRegistry, Internet
from repro.simnet.packet import IpPacket


class TestArpCache:
    def test_learn_and_lookup(self, sim):
        cache = ArpCache(sim)
        assert cache.learn("10.0.0.1", "aa", solicited=True)
        assert cache.lookup("10.0.0.1") == "aa"

    def test_lookup_unknown(self, sim):
        assert ArpCache(sim).lookup("10.0.0.1") is None

    def test_ttl_expiry(self, sim):
        cache = ArpCache(sim, ttl=10.0)
        cache.learn("10.0.0.1", "aa", solicited=True)
        sim.run_until(11.0)
        assert cache.lookup("10.0.0.1") is None

    def test_entry_valid_before_ttl(self, sim):
        cache = ArpCache(sim, ttl=10.0)
        cache.learn("10.0.0.1", "aa", solicited=True)
        sim.run_until(9.0)
        assert cache.lookup("10.0.0.1") == "aa"

    def test_unsolicited_accepted_by_default(self, sim):
        cache = ArpCache(sim)
        assert cache.learn("10.0.0.1", "evil", solicited=False)
        assert cache.lookup("10.0.0.1") == "evil"

    def test_unsolicited_rejected_when_hardened(self, sim):
        cache = ArpCache(sim, accept_unsolicited=False)
        assert not cache.learn("10.0.0.1", "evil", solicited=False)
        assert cache.lookup("10.0.0.1") is None

    def test_refresh_restarts_ttl(self, sim):
        cache = ArpCache(sim, ttl=10.0)
        cache.learn("10.0.0.1", "aa", solicited=True)
        sim.run_until(8.0)
        assert cache.learn("10.0.0.1", "bb", solicited=False)
        sim.run_until(15.0)
        assert cache.lookup("10.0.0.1") == "bb"
        sim.run_until(18.5)
        assert cache.lookup("10.0.0.1") is None

    def test_solicited_overwrites(self, sim):
        cache = ArpCache(sim)
        cache.learn("10.0.0.1", "aa", solicited=True)
        cache.learn("10.0.0.1", "bb", solicited=True)
        assert cache.lookup("10.0.0.1") == "bb"

    def test_static_entry_never_overwritten(self, sim):
        cache = ArpCache(sim)
        cache.set_static("10.0.0.1", "real")
        assert not cache.learn("10.0.0.1", "evil", solicited=False)
        assert not cache.learn("10.0.0.1", "evil", solicited=True)
        assert cache.lookup("10.0.0.1") == "real"

    def test_static_entry_survives_ttl(self, sim):
        cache = ArpCache(sim, ttl=5.0)
        cache.set_static("10.0.0.1", "real")
        sim.run_until(100.0)
        assert cache.lookup("10.0.0.1") == "real"

    def test_outstanding_tracking(self, sim):
        cache = ArpCache(sim)
        cache.mark_requested("10.0.0.1")
        assert cache.is_outstanding("10.0.0.1")
        cache.clear_outstanding("10.0.0.1")
        assert not cache.is_outstanding("10.0.0.1")

    def test_snapshot_excludes_expired(self, sim):
        cache = ArpCache(sim, ttl=5.0)
        cache.learn("10.0.0.1", "aa", solicited=True)
        sim.run_until(6.0)
        cache.learn("10.0.0.2", "bb", solicited=True)
        assert cache.snapshot() == {"10.0.0.2": "bb"}


class TestHostRouting:
    def test_on_link_delivery_via_arp(self, net):
        a = net.add_lan_host("a")
        b = net.add_lan_host("b")
        got = []
        b.ip_handler = got.append
        a.send_ip(IpPacket(a.ip, b.ip, b"hello"))
        net.sim.run(1.0)
        assert len(got) == 1 and got[0].payload == b"hello"
        # The ARP exchange populated both caches.
        assert a.arp.lookup(b.ip) == b.mac
        assert b.arp.lookup(a.ip) == a.mac

    def test_multiple_packets_queue_during_arp(self, net):
        a = net.add_lan_host("a")
        b = net.add_lan_host("b")
        got = []
        b.ip_handler = got.append
        for i in range(5):
            a.send_ip(IpPacket(a.ip, b.ip, bytes([i])))
        net.sim.run(1.0)
        assert [p.payload for p in got] == [bytes([i]) for i in range(5)]

    def test_off_subnet_goes_via_gateway(self, net):
        a = net.add_lan_host("a")
        cloud = net.add_cloud_host("cloud")
        got = []
        cloud.ip_handler = got.append
        a.send_ip(IpPacket(a.ip, cloud.ip, b"up"))
        net.sim.run(1.0)
        assert len(got) == 1
        assert net.router.lan_to_wan_packets == 1

    def test_wan_to_lan_delivery(self, net):
        a = net.add_lan_host("a")
        cloud = net.add_cloud_host("cloud")
        got = []
        a.ip_handler = got.append
        cloud.send_ip(IpPacket(cloud.ip, a.ip, b"down"))
        net.sim.run(1.0)
        assert len(got) == 1
        assert net.router.wan_to_lan_packets == 1

    def test_no_gateway_raises(self, sim, net):
        from repro.simnet.host import Host

        orphan = Host(sim, net.lan, ip="192.168.1.200", hostname="orphan")
        with pytest.raises(RuntimeError):
            orphan.send_ip(IpPacket(orphan.ip, "8.8.8.8", b"x"))

    def test_foreign_ip_dropped_without_handler(self, net):
        a = net.add_lan_host("a")
        b = net.add_lan_host("b")
        # Frame addressed to b's MAC but carrying a stranger's IP.
        from repro.simnet.packet import EthernetFrame

        a.nic.send(EthernetFrame(a.mac, b.mac, IpPacket(a.ip, "192.168.1.99", b"x")))
        net.sim.run(1.0)  # silently dropped

    def test_foreign_ip_handler_invoked(self, net):
        a = net.add_lan_host("a")
        b = net.add_lan_host("b")
        captured = []
        b.foreign_ip_handler = lambda packet, frame: captured.append(packet)
        from repro.simnet.packet import EthernetFrame

        a.nic.send(EthernetFrame(a.mac, b.mac, IpPacket(a.ip, "192.168.1.99", b"x")))
        net.sim.run(1.0)
        assert len(captured) == 1

    def test_frame_taps_see_everything(self, net):
        a = net.add_lan_host("a")
        b = net.add_lan_host("b")
        tapped = []
        b.frame_taps.append(tapped.append)
        a.send_ip(IpPacket(a.ip, b.ip, b"x"))
        net.sim.run(1.0)
        assert len(tapped) >= 2  # ARP traffic + data frame


class TestInternet:
    def test_unknown_destination_dropped(self, sim):
        inet = Internet(sim)
        inet.send(IpPacket("1.1.1.1", "9.9.9.9", b"x"))
        sim.run(1.0)

    def test_duplicate_ip_rejected(self, sim):
        inet = Internet(sim)
        inet.attach("1.1.1.1", lambda p: None)
        with pytest.raises(ValueError):
            inet.attach("1.1.1.1", lambda p: None)

    def test_latency(self, sim):
        inet = Internet(sim, latency=0.5)
        times = []
        inet.attach("1.1.1.1", lambda p: times.append(sim.now))
        inet.send(IpPacket("2.2.2.2", "1.1.1.1", b"x"))
        sim.run(1.0)
        assert times == [0.5]

    def test_subnet_prefix_validation(self, sim):
        inet = Internet(sim)
        with pytest.raises(ValueError):
            inet.attach_subnet("192.168.1", lambda p: None)

    def test_exact_host_beats_subnet(self, sim):
        inet = Internet(sim)
        host_hits, subnet_hits = [], []
        inet.attach_subnet("10.0.0.", subnet_hits.append)
        inet.attach("10.0.0.5", host_hits.append)
        inet.send(IpPacket("1.1.1.1", "10.0.0.5", b"x"))
        inet.send(IpPacket("1.1.1.1", "10.0.0.6", b"y"))
        sim.run(1.0)
        assert len(host_hits) == 1 and len(subnet_hits) == 1


class TestDns:
    def test_resolve_and_reverse(self):
        dns = DnsRegistry()
        dns.register("iot.example", "1.2.3.4")
        assert dns.resolve("iot.example") == "1.2.3.4"
        assert dns.reverse("1.2.3.4") == "iot.example"

    def test_unknown_domain(self):
        with pytest.raises(LookupError):
            DnsRegistry().resolve("nope.example")

    def test_reverse_unknown_is_none(self):
        assert DnsRegistry().reverse("9.9.9.9") is None

    def test_conflicting_registration_rejected(self):
        dns = DnsRegistry()
        dns.register("a.example", "1.1.1.1")
        with pytest.raises(ValueError):
            dns.register("a.example", "2.2.2.2")

    def test_idempotent_registration_ok(self):
        dns = DnsRegistry()
        dns.register("a.example", "1.1.1.1")
        dns.register("a.example", "1.1.1.1")
        assert dns.domains() == ["a.example"]
