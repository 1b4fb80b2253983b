"""The wire-value contract: the nine per-packet types are immutable values.

One frame object reaches the addressee and every promiscuous NIC, and the
hijacker queues and re-sends the packets it holds, so every receiver must
see exactly what was sent.  These tests pin that the types built per
packet stay frozen, equal and hashable by value, ``replace()``-able and
picklable, and that their constructors keep the dataclass's signature,
defaults and validation.  They also pin what :func:`repro.values.value`
refuses to decorate.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
from dataclasses import FrozenInstanceError, InitVar, KW_ONLY, field, replace

import pytest

from repro.appproto.messages import EVENT, IoTMessage
from repro.cache.keys import PICKLE_PROTOCOL
from repro.core.hijacker import EVENT_SYN, FlowEvent
from repro.simnet.packet import ArpPacket, EthernetFrame, IpPacket
from repro.simnet.trace import CapturedFrame, FlowKey, PacketMeta
from repro.tcp.segment import FLAGS_ACK_PSH, TcpSegment
from repro.values import value

DEVICE_MAC = "02:00:00:00:00:05"
ROUTER_MAC = "02:00:00:00:00:01"
DEVICE_IP = "192.168.1.5"
SERVER_IP = "52.1.2.3"


def _segment() -> TcpSegment:
    return TcpSegment(50123, 443, 1000, 2000, FLAGS_ACK_PSH, b"\x17\x03\x03")


def _packet() -> IpPacket:
    return IpPacket(DEVICE_IP, SERVER_IP, _segment())


def _frame() -> EthernetFrame:
    return EthernetFrame(DEVICE_MAC, ROUTER_MAC, _packet(), frame_id=41)


#: Each builder makes a new instance equal to the previous one's.
BUILDERS = {
    EthernetFrame: _frame,
    ArpPacket: lambda: ArpPacket("reply", DEVICE_MAC, "192.168.1.1", ROUTER_MAC, DEVICE_IP),
    IpPacket: _packet,
    CapturedFrame: lambda: CapturedFrame(12.5, _frame()),
    FlowKey: lambda: FlowKey.of(DEVICE_IP, 50123, SERVER_IP, 443),
    PacketMeta: lambda: PacketMeta(12.5, 83, True),
    TcpSegment: _segment,
    IoTMessage: lambda: IoTMessage(
        EVENT, "motion", {"active": True}, msg_id=9, device_time=3.0, device_id="cam-1"
    ),
    FlowEvent: lambda: FlowEvent(
        12.5, FlowKey.of(DEVICE_IP, 50123, SERVER_IP, 443), EVENT_SYN, DEVICE_IP
    ),
}

#: The constructor parameters of each type, as the stock frozen dataclass
#: declared them before the types became slotted values.
SIGNATURES = {
    EthernetFrame: ["src_mac", "dst_mac", "payload", "frame_id"],
    ArpPacket: ["op", "sender_mac", "sender_ip", "target_mac", "target_ip"],
    IpPacket: ["src_ip", "dst_ip", "payload", "ttl"],
    CapturedFrame: ["ts", "frame"],
    FlowKey: ["ip_a", "port_a", "ip_b", "port_b"],
    PacketMeta: ["ts", "size", "from_device"],
    TcpSegment: ["src_port", "dst_port", "seq", "ack", "flags", "payload", "window"],
    IoTMessage: ["kind", "name", "data", "msg_id", "device_time", "device_id"],
    FlowEvent: ["ts", "flow", "kind", "from_ip"],
}

TYPES = list(BUILDERS)


def _ids(cls: type) -> str:
    return cls.__name__


class TestImmutable:
    @pytest.mark.parametrize("cls", TYPES, ids=_ids)
    def test_assigning_or_deleting_any_field_raises(self, cls):
        obj = BUILDERS[cls]()
        for f in dataclasses.fields(obj):
            before = getattr(obj, f.name)
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, before)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, f.name)
            assert getattr(obj, f.name) is before

    @pytest.mark.parametrize("cls", TYPES, ids=_ids)
    def test_no_instance_dict(self, cls):
        assert not hasattr(BUILDERS[cls](), "__dict__")


class TestValueSemantics:
    @pytest.mark.parametrize("cls", TYPES, ids=_ids)
    def test_equal_arguments_build_equal_values(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        assert a is not b
        assert a == b
        assert repr(a) == repr(b)
        if cls is IoTMessage:
            # Its ``data`` dict keeps a message unhashable.
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: "x"}[b] == "x"

    def test_flow_key_is_one_key_for_both_directions(self):
        up = FlowKey.of(DEVICE_IP, 50123, SERVER_IP, 443)
        down = FlowKey.of(SERVER_IP, 443, DEVICE_IP, 50123)
        assert up == down and hash(up) == hash(down)
        flows = {up: ["syn"]}
        flows.setdefault(down, []).append("fin")
        assert flows == {up: ["syn", "fin"]}
        assert FlowKey.of(DEVICE_IP, 50124, SERVER_IP, 443) not in flows

    @pytest.mark.parametrize("cls", TYPES, ids=_ids)
    def test_pickle_round_trip(self, cls):
        obj = BUILDERS[cls]()
        back = pickle.loads(pickle.dumps(obj, protocol=PICKLE_PROTOCOL))
        assert type(back) is cls
        assert back == obj
        with pytest.raises(FrozenInstanceError):
            setattr(back, dataclasses.fields(back)[0].name, None)


class TestReplace:
    def test_replace_down_a_frame_packet_segment_chain(self):
        # The fault injector's corruption path rebuilds a frame this way.
        frame = _frame()
        packet = frame.payload
        segment = packet.payload
        mangled = replace(
            frame, payload=replace(packet, payload=replace(segment, payload=b"\x97\x03\x03"))
        )
        assert mangled.frame_id == frame.frame_id
        assert mangled.payload.payload.payload == b"\x97\x03\x03"
        assert mangled.payload.payload.flags is segment.flags
        assert mangled != frame
        assert frame.payload.payload.payload == b"\x17\x03\x03"

    def test_replace_runs_post_init_again(self):
        # Direct construction is checked beside each type's other tests.
        with pytest.raises(ValueError, match="unknown TCP flags"):
            replace(_segment(), flags=frozenset({"URG"}))
        with pytest.raises(ValueError, match="bad ARP op"):
            replace(BUILDERS[ArpPacket](), op="announce")
        with pytest.raises(ValueError, match="unknown message kind"):
            replace(BUILDERS[IoTMessage](), kind="gossip")


class TestConstructors:
    def test_default_factories_draw_once_per_instance(self):
        f1 = EthernetFrame(DEVICE_MAC, ROUTER_MAC, None)
        f2 = EthernetFrame(DEVICE_MAC, ROUTER_MAC, None)
        assert f2.frame_id == f1.frame_id + 1
        m1, m2 = IoTMessage(EVENT), IoTMessage(EVENT)
        assert m2.msg_id == m1.msg_id + 1
        assert m1.data == {} and m1.data is not m2.data
        assert TcpSegment(1, 2, 0, 0).flags == frozenset()

    def test_default_factories_skipped_when_argument_given(self):
        drawn = EthernetFrame(DEVICE_MAC, ROUTER_MAC, None).frame_id
        assert EthernetFrame(DEVICE_MAC, ROUTER_MAC, None, frame_id=5).frame_id == 5
        assert EthernetFrame(DEVICE_MAC, ROUTER_MAC, None).frame_id == drawn + 1
        before = IoTMessage(EVENT).msg_id
        data = {"k": 1}
        given = IoTMessage(EVENT, data=data, msg_id=77)
        assert given.msg_id == 77 and given.data is data
        assert IoTMessage(EVENT).msg_id == before + 1

    def test_plain_defaults(self):
        assert IpPacket(DEVICE_IP, SERVER_IP, None).ttl == 64
        segment = TcpSegment(1, 2, 0, 0)
        assert (segment.payload, segment.window) == (b"", 65535)
        message = IoTMessage(EVENT)
        assert (message.name, message.device_time, message.device_id) == ("", 0.0, "")

    @pytest.mark.parametrize("cls", TYPES, ids=_ids)
    def test_each_field_holds_its_argument(self, cls):
        given = {f.name: getattr(BUILDERS[cls](), f.name) for f in dataclasses.fields(cls)}
        for obj in (cls(**given), cls(*given.values())):
            assert all(getattr(obj, name) is arg for name, arg in given.items())

    @pytest.mark.parametrize("cls", TYPES, ids=_ids)
    def test_signature_matches_the_dataclass(self, cls):
        params = inspect.signature(cls).parameters
        assert list(params) == SIGNATURES[cls]
        assert [f.name for f in dataclasses.fields(cls)] == SIGNATURES[cls]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
        assert cls.__match_args__ == tuple(SIGNATURES[cls])


class TestDecoratorRefusals:
    def test_init_var_refused(self):
        with pytest.raises(TypeError, match="plain, default and default_factory"):

            @value
            class WithInitVar:
                a: int
                scale: InitVar[int] = 1

    def test_init_false_refused(self):
        with pytest.raises(TypeError, match="plain, default and default_factory"):

            @value
            class WithDerived:
                a: int
                b: int = field(init=False, default=0)

    def test_kw_only_field_refused(self):
        with pytest.raises(TypeError, match="plain, default and default_factory"):

            @value
            class WithKwOnlyField:
                a: int
                b: int = field(kw_only=True, default=0)

    def test_kw_only_marker_refused(self):
        with pytest.raises(TypeError, match="plain, default and default_factory"):

            @value
            class WithKwOnlyMarker:
                a: int
                _: KW_ONLY
                b: int = 0

    def test_dataclass_base_refused(self):
        @dataclasses.dataclass(frozen=True)
        class Base:
            a: int

        with pytest.raises(TypeError, match="cannot extend a dataclass"):

            @value
            class Derived(Base):
                b: int = 0

    def test_supported_forms_build_a_frozen_slotted_value(self):
        seen = []

        @value
        class Sample:
            a: int
            b: str = "x"
            c: list = field(default_factory=list)

            def __post_init__(self) -> None:
                seen.append(self.a)

        s = Sample(1)
        assert (s.a, s.b, s.c) == (1, "x", []) and seen == [1]
        assert Sample(1, "y", [2]) == Sample(a=1, b="y", c=[2])
        assert Sample.__slots__ == ("a", "b", "c")
        with pytest.raises(FrozenInstanceError):
            s.a = 2
        assert replace(s, a=3).a == 3 and seen == [1, 1, 1, 3]
