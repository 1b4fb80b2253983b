"""The attacker's capture keeps wire metadata, not frames.

A record is ``(ts, src_ip, src_port, dst_ip, dst_port, payload_size)`` for
each TCP segment the sniffing NIC sees.  These tests pin that the records
say what whole frames said, that the capture keeps no frame, packet or
segment alive, that its rolling bound evicts and counts, and that the
profiler reads one window at a time.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

from repro.core.attacker import PhantomDelayAttacker
from repro.core.fingerprint import extract_observation
from repro.experiments.table1 import make_command_trigger, make_event_trigger
from repro.simnet.packet import ArpPacket, EthernetFrame, IpPacket
from repro.simnet.scheduler import Simulator
from repro.simnet.trace import FlowKey, PacketCapture
from repro.tcp.segment import FLAGS_ACK_PSH, TcpSegment
from repro.testbed import SmartHomeTestbed

RECORD_TYPES = [float, str, int, str, int, int]


def _attacked_home(keep_frames: bool = False):
    """A hub and a contact sensor, interposed on, with one event sent.

    With ``keep_frames`` a second tap on the attacker's host keeps every
    ``(ts, frame)`` it sees, whole: the reference the records must match.
    """
    tb = SmartHomeTestbed(seed=42)
    contact = tb.add_device("C2")
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)
    frames: list[tuple[float, EthernetFrame]] = []
    if keep_frames:
        attacker.host.frame_taps.append(lambda frame: frames.append((tb.now, frame)))
    hub = tb.devices["h1"]
    attacker.interpose(hub.ip)
    tb.run(40.0)
    contact.stimulate("open")
    tb.run(40.0)
    return tb, hub, attacker, frames


class TestRecords:
    def test_records_equal_the_metadata_of_whole_frames(self):
        _tb, _hub, attacker, frames = _attacked_home(keep_frames=True)
        expected = []
        for ts, frame in frames:
            packet = frame.payload
            if type(packet) is IpPacket and type(packet.payload) is TcpSegment:
                segment = packet.payload
                expected.append((
                    ts, packet.src_ip, segment.src_port,
                    packet.dst_ip, segment.dst_port, len(segment.payload),
                ))
        records = attacker.capture.segments
        assert records == expected
        # ARP frames were seen and skipped; pure ACKs are kept.
        assert len(expected) < len(frames)
        assert any(size == 0 for *_, size in records)
        assert any(size > 0 for *_, size in records)
        keys = list(dict.fromkeys(FlowKey.of(*record[1:5]) for record in expected))
        assert list(attacker.capture.flows()) == keys

    def test_records_keep_no_frame_alive_and_escape_the_collector(self):
        tb, hub, attacker, _frames = _attacked_home()
        assert extract_observation(attacker.capture, hub.ip, tb.internet.dns)
        gc.collect()
        capture = attacker.capture
        assert capture.segments
        for record in capture.segments:
            assert type(record) is tuple
            assert [type(field) for field in record] == RECORD_TYPES
            assert not gc.is_tracked(record)
        # Walk everything the capture holds but its simulator.
        stack = [held for name, held in vars(capture).items() if name != "sim"]
        seen: set[int] = set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            assert type(obj) not in (EthernetFrame, IpPacket, TcpSegment)
            stack.extend(gc.get_referents(obj))


def _tcp_frame(src_port: int) -> EthernetFrame:
    segment = TcpSegment(src_port, 443, 1, 1, FLAGS_ACK_PSH, b"x" * src_port)
    return EthernetFrame("02:00:00:00:00:05", "02:00:00:00:00:01",
                         IpPacket("192.168.1.5", "52.1.2.3", segment))


class TestRollingBound:
    def test_overflow_evicts_the_oldest_half_and_counts_it(self):
        sim = Simulator()
        registry = sim.enable_observability().registry
        capture = PacketCapture(sim, max_frames=4)
        host = SimpleNamespace(frame_taps=[])
        capture.attach(host)
        (tap,) = host.frame_taps
        arp = ArpPacket("request", "02:00:00:00:00:05", "192.168.1.5",
                        "ff:ff:ff:ff:ff:ff", "192.168.1.1")
        for port in range(1, 8):
            tap(_tcp_frame(port))
            tap(EthernetFrame("02:00:00:00:00:05", "ff:ff:ff:ff:ff:ff", arp))
        # 4 fill the bound; the 5th and 7th each evict the oldest two.
        assert [record[2] for record in capture.segments] == [5, 6, 7]
        assert [record[5] for record in capture.segments] == [5, 6, 7]
        assert capture.dropped_frames == 4
        assert registry.value("capture", "dropped_frames") == 4
        capture.clear()
        assert capture.segments == [] and capture.dropped_frames == 0


class TestProfilerWindow:
    def test_capture_holds_only_the_last_keepalive_wait(self):
        tb = SmartHomeTestbed(seed=7)
        device = tb.add_device("H1")
        trigger_event = make_event_trigger(device, tb)
        trigger_command = make_command_trigger(device, tb)
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(device.uplink_ip)
        profiler = attacker.profiler_for(device.uplink_ip, trigger_event, trigger_command)
        wait_starts: list[float] = []
        wait = profiler._wait_for_keepalive

        def recorded_wait(*args, **kwargs):
            wait_starts.append(tb.now)
            return wait(*args, **kwargs)

        profiler._wait_for_keepalive = recorded_wait
        report = profiler.profile(trials=1)
        assert report.long_live and report.command_size is not None
        records = attacker.capture.segments
        assert records and wait_starts
        assert min(ts for ts, *_ in records) >= wait_starts[-1]
