"""IoT message model and wire-dialect codec tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.appproto.codecs import CODECS, HapCodec, HttpCodec, MqttCodec, codec_by_name
from repro.appproto.keepalive import FIXED, KeepAlivePolicy, ON_IDLE
from repro.appproto.messages import (
    COMMAND,
    COMMAND_ACK,
    COMPACT_KINDS,
    CONNACK,
    CONNECT,
    EVENT,
    EVENT_ACK,
    IoTMessage,
    KEEPALIVE,
    KEEPALIVE_ACK,
    MessageDecodeError,
    decode_body,
    decode_compact,
    encode_body,
    encode_compact,
    is_compact,
)


class TestMessageModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            IoTMessage(kind="telemetry")

    def test_msg_ids_unique(self, mqtt_pair):
        # Ids come from the home's own simulator: unique within the home,
        # numbered from 1 whatever ran earlier in the process.
        mqtt_pair.start_and_settle()
        sent = [mqtt_pair.client.send_event(name) for name in ("a", "b", "c")]
        mqtt_pair.sim.run(2.0)
        ids = [m.msg_id for m in sent]
        assert ids == sorted(set(ids)) and ids[0] > 1  # the CONNECT took 1
        assert [m.msg_id for _, m in mqtt_pair.events] == ids
        assert IoTMessage(kind=EVENT).msg_id == 0

    def test_ack_kind_mapping(self):
        assert IoTMessage(kind=EVENT).ack_kind() == EVENT_ACK
        assert IoTMessage(kind=COMMAND).ack_kind() == COMMAND_ACK
        assert IoTMessage(kind=KEEPALIVE).ack_kind() == KEEPALIVE_ACK
        assert IoTMessage(kind=CONNECT).ack_kind() == CONNACK

    def test_ack_has_no_ack(self):
        with pytest.raises(ValueError):
            IoTMessage(kind=EVENT_ACK).ack_kind()

    def test_make_ack_echoes_id(self):
        msg = IoTMessage(kind=EVENT, name="contact.open", device_id="c1")
        ack = msg.make_ack(device_time=5.0)
        assert ack.msg_id == msg.msg_id
        assert ack.kind == EVENT_ACK
        assert ack.device_id == "c1"


class TestBodyEncoding:
    def test_roundtrip(self):
        msg = IoTMessage(kind=EVENT, name="motion.active", data={"v": 1}, device_time=2.5, device_id="m1")
        out = decode_body(encode_body(msg))
        assert out.kind == EVENT and out.name == "motion.active"
        assert out.data == {"v": 1} and out.device_time == 2.5 and out.device_id == "m1"

    def test_padding_reaches_exact_size(self):
        msg = IoTMessage(kind=EVENT, name="e", device_id="d")
        body = encode_body(msg, pad_to=500)
        assert len(body) == 500
        assert decode_body(body).name == "e"

    def test_padding_smaller_than_natural_ignored(self):
        msg = IoTMessage(kind=EVENT, name="e", device_id="d")
        natural = encode_body(msg)
        assert encode_body(msg, pad_to=5) == natural

    def test_garbage_rejected(self):
        with pytest.raises(MessageDecodeError):
            decode_body(b"\xff\xfe not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(MessageDecodeError):
            decode_body(b'{"k": "event"}')

    @given(
        st.sampled_from([EVENT, COMMAND, CONNECT]),
        st.text(min_size=0, max_size=30).filter(lambda s: "\x00" not in s),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, kind, name, device_time):
        msg = IoTMessage(kind=kind, name=name, device_time=device_time, device_id="x")
        out = decode_body(encode_body(msg, pad_to=400))
        assert (out.kind, out.name, out.device_time) == (kind, name, device_time)


class TestCompactFrames:
    def test_roundtrip(self):
        msg = IoTMessage(kind=KEEPALIVE, device_time=42.5, device_id="hub-1")
        out = decode_compact(encode_compact(msg))
        assert out.kind == KEEPALIVE
        assert out.msg_id == msg.msg_id
        assert out.device_time == 42.5
        assert out.device_id == "hub-1"

    def test_is_compact(self):
        msg = IoTMessage(kind=KEEPALIVE_ACK, device_id="h")
        assert is_compact(encode_compact(msg))
        assert not is_compact(encode_body(IoTMessage(kind=EVENT)))
        assert not is_compact(b"")

    def test_fixed_size_given_same_device(self):
        sizes = {
            len(encode_compact(IoTMessage(kind=KEEPALIVE, device_time=t, device_id="h1")))
            for t in (0.0, 1.5, 999999.125)
        }
        assert len(sizes) == 1  # no float-repr drift: wire sizes are stable

    def test_padding(self):
        msg = IoTMessage(kind=CONNACK, device_id="h1")
        body = encode_compact(msg, pad_to=60)
        assert len(body) == 60
        assert decode_compact(body).kind == CONNACK

    def test_truncated_rejected(self):
        with pytest.raises(MessageDecodeError):
            decode_compact(b"\xc0\x01")

    def test_every_compact_kind_roundtrips(self):
        for kind in COMPACT_KINDS:
            msg = IoTMessage(kind=kind, device_id="d")
            assert decode_compact(encode_compact(msg)).kind == kind


class TestCodecs:
    @pytest.mark.parametrize("name", ["mqtt", "http", "hap"])
    def test_event_roundtrip(self, name):
        codec = codec_by_name(name)
        msg = IoTMessage(kind=EVENT, name="contact.open", data={"value": "open"}, device_id="c1")
        out = codec.decode(codec.encode(msg))
        assert out.kind == EVENT and out.name == "contact.open"

    @pytest.mark.parametrize("name", ["mqtt", "http", "hap"])
    @pytest.mark.parametrize("kind", [EVENT, COMMAND, CONNECT])
    @pytest.mark.parametrize("size", [200, 512, 1453])
    def test_pad_to_exact(self, name, kind, size):
        codec = codec_by_name(name)
        msg = IoTMessage(kind=kind, name="n", device_id="dev")
        assert len(codec.encode(msg, pad_to=size)) == size

    @pytest.mark.parametrize("name", ["mqtt", "http", "hap"])
    def test_compact_kinds_bypass_framing(self, name):
        codec = codec_by_name(name)
        msg = IoTMessage(kind=KEEPALIVE, device_id="h1")
        wire = codec.encode(msg, pad_to=27)
        assert is_compact(wire)
        assert len(wire) == 27
        assert codec.decode(wire).kind == KEEPALIVE

    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            codec_by_name("coap")

    def test_mqtt_packet_type_nibble(self):
        codec = MqttCodec()
        wire = codec.encode(IoTMessage(kind=EVENT, name="e", device_id="d"))
        assert wire[0] >> 4 == 3  # PUBLISH

    def test_mqtt_varint_roundtrip(self):
        for n in (0, 1, 127, 128, 16383, 16384, 2097151):
            data = MqttCodec._varint(n)
            value, offset = MqttCodec._read_varint(b"\x00" + data, 1)
            assert value == n and offset == 1 + len(data)

    def test_mqtt_truncated_rejected(self):
        codec = MqttCodec()
        wire = codec.encode(IoTMessage(kind=EVENT, name="e", device_id="d"))
        with pytest.raises(MessageDecodeError):
            codec.decode(wire[: len(wire) // 2])

    def test_mqtt_type_body_mismatch_rejected(self):
        codec = MqttCodec()
        wire = bytearray(codec.encode(IoTMessage(kind=EVENT, name="e", device_id="d")))
        wire[0] = 14 << 4  # claim DISCONNECT
        with pytest.raises(MessageDecodeError):
            codec.decode(bytes(wire))

    def test_http_request_line(self):
        codec = HttpCodec()
        wire = codec.encode(IoTMessage(kind=EVENT, name="e", device_id="d"))
        assert wire.startswith(b"POST /event HTTP/1.1\r\n")

    def test_http_response_for_acks_is_json_free_path(self):
        # Non-compact response kinds don't exist today (all acks are
        # compact), but DISCONNECT uses the request framing:
        codec = HttpCodec()
        wire = codec.encode(IoTMessage(kind="disconnect", name="bye", device_id="d"))
        assert wire.startswith(b"POST /bye HTTP/1.1\r\n")

    def test_http_missing_terminator_rejected(self):
        with pytest.raises(MessageDecodeError):
            HttpCodec().decode(b"POST / HTTP/1.1")

    def test_hap_event_uses_event_framing(self):
        codec = HapCodec()
        wire = codec.encode(IoTMessage(kind=EVENT, name="motion.active", device_id="d"))
        assert wire.startswith(b"EVENT/1.0 200 OK\r\n")

    def test_hap_non_event_uses_http_framing(self):
        codec = HapCodec()
        wire = codec.encode(IoTMessage(kind=CONNECT, name="connect", device_id="d"))
        assert wire.startswith(b"POST /session HTTP/1.1\r\n")

    @given(st.sampled_from(sorted(CODECS)), st.integers(150, 2000))
    @settings(max_examples=60)
    def test_pad_exactness_property(self, name, size):
        codec = codec_by_name(name)
        msg = IoTMessage(kind=EVENT, name="attribute.value", data={"value": "x"}, device_id="dev-123")
        wire = codec.encode(msg, pad_to=size)
        assert len(wire) == size
        assert codec.decode(wire).name == "attribute.value"


class TestKeepAlivePolicy:
    def test_valid(self):
        policy = KeepAlivePolicy(period=30.0, strategy=ON_IDLE)
        assert policy.resets_on_activity

    def test_fixed_does_not_reset(self):
        assert not KeepAlivePolicy(period=120.0, strategy=FIXED).resets_on_activity

    def test_bad_period(self):
        with pytest.raises(ValueError):
            KeepAlivePolicy(period=0.0)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            KeepAlivePolicy(period=10.0, strategy="sometimes")

    def test_describe(self):
        assert KeepAlivePolicy(period=31.0).describe() == "31s/on-idle"
