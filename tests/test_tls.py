"""TLS record layer and session tests: integrity without timeliness."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.tls.errors import HandshakeError, MacVerificationError, RecordFormatError
from repro.tls.record import (
    CONTENT_ALERT,
    CONTENT_APPLICATION,
    CONTENT_HANDSHAKE,
    HEADER_BYTES,
    MAC_BYTES,
    MAX_RECORD_LENGTH,
    MAX_RECORD_PAYLOAD,
    RecordReader,
    RecordWriter,
    _RECORD_MEMO,
    _keystream,
    derive_keys,
    memo_stats,
    reset_memo,
)
from repro.simnet.scheduler import run_until
from repro.tls.session import KeyEscrow, RECORD_OVERHEAD, TlsSession
from repro.tcp.stack import TcpStack


def _channel(master=b"m" * 32):
    writer = RecordWriter(*derive_keys(master, "client"))
    reader = RecordReader(*derive_keys(master, "server"))
    # reader must read what the *client* writes
    reader = RecordReader(*derive_keys(master, "client"))
    return writer, reader


class TestRecordLayer:
    def test_roundtrip(self):
        writer, reader = _channel()
        wire = writer.seal(CONTENT_APPLICATION, b"hello")
        records = reader.feed(wire)
        assert records == [(CONTENT_APPLICATION, b"hello")]

    def test_wire_size_is_plaintext_plus_overhead(self):
        writer, _ = _channel()
        wire = writer.seal(CONTENT_APPLICATION, b"x" * 100)
        assert len(wire) == 100 + HEADER_BYTES + MAC_BYTES

    def test_multiple_records_in_order(self):
        writer, reader = _channel()
        wire = b"".join(writer.seal(CONTENT_APPLICATION, bytes([i])) for i in range(5))
        records = reader.feed(wire)
        assert [p for _, p in records] == [bytes([i]) for i in range(5)]

    def test_partial_feed_buffers(self):
        writer, reader = _channel()
        wire = writer.seal(CONTENT_APPLICATION, b"split")
        assert reader.feed(wire[:3]) == []
        assert reader.feed(wire[3:]) == [(CONTENT_APPLICATION, b"split")]

    def test_ciphertext_differs_from_plaintext(self):
        writer, _ = _channel()
        wire = writer.seal(CONTENT_APPLICATION, b"secret-payload")
        assert b"secret-payload" not in wire

    def test_same_plaintext_different_ciphertext_per_seq(self):
        writer, _ = _channel()
        w1 = writer.seal(CONTENT_APPLICATION, b"same")
        w2 = writer.seal(CONTENT_APPLICATION, b"same")
        assert w1[HEADER_BYTES:] != w2[HEADER_BYTES:]

    def test_corrupted_byte_fails_mac(self):
        writer, reader = _channel()
        wire = bytearray(writer.seal(CONTENT_APPLICATION, b"data"))
        wire[HEADER_BYTES] ^= 0x01
        with pytest.raises(MacVerificationError):
            reader.feed(bytes(wire))

    def test_corrupted_mac_fails(self):
        writer, reader = _channel()
        wire = bytearray(writer.seal(CONTENT_APPLICATION, b"data"))
        wire[-1] ^= 0x01
        with pytest.raises(MacVerificationError):
            reader.feed(bytes(wire))

    def test_replayed_record_fails(self):
        writer, reader = _channel()
        wire = writer.seal(CONTENT_APPLICATION, b"once")
        reader.feed(wire)
        with pytest.raises(MacVerificationError):
            reader.feed(wire)  # same bytes, but reader seq advanced

    def test_dropped_record_fails_on_next(self):
        writer, reader = _channel()
        _lost = writer.seal(CONTENT_APPLICATION, b"lost")
        kept = writer.seal(CONTENT_APPLICATION, b"kept")
        with pytest.raises(MacVerificationError):
            reader.feed(kept)

    def test_reordered_records_fail(self):
        writer, reader = _channel()
        first = writer.seal(CONTENT_APPLICATION, b"first")
        second = writer.seal(CONTENT_APPLICATION, b"second")
        with pytest.raises(MacVerificationError):
            reader.feed(second + first)

    def test_delayed_but_ordered_records_verify(self):
        # The paper's whole point: arbitrary delay, same order -> silence.
        writer, reader = _channel()
        batch = [writer.seal(CONTENT_APPLICATION, bytes([i])) for i in range(10)]
        out = []
        for wire in batch:  # "released" long after sealing, in order
            out.extend(reader.feed(wire))
        assert [p for _, p in out] == [bytes([i]) for i in range(10)]

    def test_wrong_key_fails(self):
        writer, _ = _channel(master=b"a" * 32)
        reader = RecordReader(*derive_keys(b"b" * 32, "client"))
        with pytest.raises(MacVerificationError):
            reader.feed(writer.seal(CONTENT_APPLICATION, b"x"))

    def test_oversized_plaintext_rejected(self):
        writer, _ = _channel()
        with pytest.raises(ValueError):
            writer.seal(CONTENT_APPLICATION, b"x" * (2**14 + 1))

    def test_bad_version_rejected(self):
        _, reader = _channel()
        with pytest.raises(RecordFormatError):
            reader.feed(b"\x17\x01\x01\x00\x20" + b"x" * 32)

    def test_corrupted_length_rejected_at_once(self):
        # The fault injector's bit flip on the length's high byte: the
        # reader must not wait for 32 KiB that no sealed record carries.
        writer, reader = _channel()
        wire = bytearray(writer.seal(CONTENT_APPLICATION, b"x" * 20))
        wire[3] ^= 0x80
        followers = b"".join(
            writer.seal(CONTENT_APPLICATION, b"y" * 20) for _ in range(5)
        )
        with pytest.raises(RecordFormatError, match="overflow"):
            reader.feed(bytes(wire) + followers)
        assert reader.seq == 0
        assert reader._buffer == bytes(wire) + followers

    def test_length_bound_is_the_largest_sealed_record(self):
        header = bytes([CONTENT_APPLICATION]) + b"\x03\x03"
        _, reader = _channel()
        assert reader.feed(header + MAX_RECORD_LENGTH.to_bytes(2, "big")) == []
        _, reader = _channel()
        with pytest.raises(RecordFormatError, match="overflow"):
            reader.feed(header + (MAX_RECORD_LENGTH + 1).to_bytes(2, "big"))
        _, reader = _channel()
        with pytest.raises(RecordFormatError, match="too short"):
            reader.feed(header + (MAC_BYTES - 1).to_bytes(2, "big"))
        writer, reader = _channel()
        plaintext = bytes(range(256)) * (MAX_RECORD_PAYLOAD // 256)
        wire = writer.seal(CONTENT_APPLICATION, plaintext)
        assert int.from_bytes(wire[3:5], "big") == MAX_RECORD_LENGTH
        assert reader.feed(wire) == [(CONTENT_APPLICATION, plaintext)]

    def test_direction_keys_differ(self):
        client_enc, client_mac = derive_keys(b"m" * 32, "client")
        server_enc, server_mac = derive_keys(b"m" * 32, "server")
        assert client_enc != server_enc and client_mac != server_mac

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            derive_keys(b"m" * 32, "middlebox")

    @given(st.lists(st.binary(min_size=0, max_size=500), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_roundtrip_any_payloads(self, payloads):
        writer, reader = _channel()
        out = []
        for payload in payloads:
            out.extend(reader.feed(writer.seal(CONTENT_APPLICATION, payload)))
        assert [p for _, p in out] == payloads

    @given(st.binary(min_size=1, max_size=300), st.data())
    @settings(max_examples=50)
    def test_roundtrip_under_arbitrary_chunking(self, payload, data):
        writer, reader = _channel()
        wire = writer.seal(CONTENT_APPLICATION, payload)
        out = []
        i = 0
        while i < len(wire):
            step = data.draw(st.integers(1, len(wire) - i))
            out.extend(reader.feed(wire[i : i + step]))
            i += step
        assert out == [(CONTENT_APPLICATION, payload)]


class TestKeystream:
    """The keystream hashed from a digest primed once per direction."""

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 300])
    def test_primed_keystream_matches_textbook_blocks(self, length):
        enc_key, _ = derive_keys(b"m" * 32, "client")
        seq = 2**40 + 7
        textbook = b"".join(
            hashlib.sha256(
                enc_key + seq.to_bytes(8, "big") + block.to_bytes(4, "big")
            ).digest()
            for block in range(10)
        )[:length]
        primed = hashlib.sha256(enc_key)
        assert _keystream(primed, seq, length) == textbook
        # Each block hashes a copy: the primed digest is never consumed.
        assert _keystream(primed, seq, length) == textbook
        assert primed.digest() == hashlib.sha256(enc_key).digest()

    def test_reader_opens_cold_records_with_its_own_primed_digest(self):
        writer, reader = _channel()
        plaintexts = [b"", b"a", b"b" * 33, b"c" * 300]
        wires = [writer.seal(CONTENT_APPLICATION, p) for p in plaintexts]
        reset_memo()  # the reader derives every keystream itself
        try:
            assert reader.feed(b"".join(wires)) == [
                (CONTENT_APPLICATION, p) for p in plaintexts
            ]
            assert memo_stats() == {"record_hits": 0, "record_misses": 4}
        finally:
            reset_memo()


class TestWireBytes:
    """``seal``'s bytes, computed here with hashlib and hmac alone."""

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 300, 2**14])
    @pytest.mark.parametrize("seq", [0, 2**40 + 7])
    @pytest.mark.parametrize("mac_key_len", [16, 32, 100])  # 100 > 64: HMAC hashes the key
    def test_seal_is_header_ciphertext_mac(self, size, seq, mac_key_len):
        enc_key = hashlib.sha256(b"enc").digest()
        mac_key = bytes(range(mac_key_len))
        plaintext = bytes((7 * i + 3) & 0xFF for i in range(size))
        keystream = b"".join(
            hashlib.sha256(
                enc_key + seq.to_bytes(8, "big") + block.to_bytes(4, "big")
            ).digest()
            for block in range((size + 31) // 32)
        )[:size]
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
        for content_type in (CONTENT_HANDSHAKE, CONTENT_APPLICATION, CONTENT_ALERT):
            header = bytes([content_type]) + b"\x03\x03"
            mac = hmac.new(
                mac_key,
                seq.to_bytes(8, "big") + header + size.to_bytes(2, "big") + ciphertext,
                hashlib.sha256,
            ).digest()[:MAC_BYTES]
            expected = header + (size + MAC_BYTES).to_bytes(2, "big") + ciphertext + mac
            for warm in (False, True):
                reset_memo()
                if warm:  # an identical writer already published this record
                    twin = RecordWriter(enc_key, mac_key)
                    twin.seq = seq
                    twin.seal(content_type, plaintext)
                writer = RecordWriter(enc_key, mac_key)
                writer.seq = seq
                assert writer.seal(content_type, plaintext) == expected
                assert writer.seq == seq + 1
                if not warm:
                    reset_memo()  # the reader recomputes the MAC and keystream
                reader = RecordReader(enc_key, mac_key)
                reader.seq = seq
                assert reader.feed(expected) == [(content_type, plaintext)]
                hits = int(warm)
                assert memo_stats() == {"record_hits": hits, "record_misses": 1 - hits}
        reset_memo()


class TestKeyEscrow:
    def test_register_redeem(self):
        escrow = KeyEscrow()
        escrow.register(b"t" * 16, b"s" * 32)
        assert escrow.redeem(b"t" * 16) == b"s" * 32

    def test_unknown_token(self):
        with pytest.raises(HandshakeError):
            KeyEscrow().redeem(b"?" * 16)

    def test_token_collision(self):
        escrow = KeyEscrow()
        escrow.register(b"t" * 16, b"a" * 32)
        with pytest.raises(HandshakeError):
            escrow.register(b"t" * 16, b"b" * 32)


def _tls_pair(net):
    from repro.tls.session import KeyEscrow

    escrow = KeyEscrow()
    device = net.add_lan_host("device")
    cloud = net.add_cloud_host("cloud")
    dev_stack, cloud_stack = TcpStack(device), TcpStack(cloud)
    server_sessions, server_msgs = [], []

    def on_accept(conn):
        server_sessions.append(
            TlsSession(conn, "server", escrow=escrow,
                       on_message=lambda s, m: server_msgs.append(m))
        )

    cloud_stack.listen(443, on_accept)
    client_msgs = []
    conn = dev_stack.connect(cloud.ip, 443)
    client = TlsSession(conn, "client", escrow=escrow,
                        on_message=lambda s, m: client_msgs.append(m))
    return client, server_sessions, server_msgs, client_msgs


class TestTlsSession:
    def test_handshake_establishes_both(self, net):
        client, servers, _, _ = _tls_pair(net)
        net.sim.run(2.0)
        assert client.established and servers[0].established

    def test_pre_handshake_sends_are_queued(self, net):
        client, _, server_msgs, _ = _tls_pair(net)
        client.send_message(b"early")
        net.sim.run(2.0)
        assert server_msgs == [b"early"]

    def test_bidirectional_messages(self, net):
        client, servers, server_msgs, client_msgs = _tls_pair(net)
        net.sim.run(2.0)
        client.send_message(b"up")
        net.sim.run(1.0)
        servers[0].send_message(b"down")
        net.sim.run(1.0)
        assert server_msgs == [b"up"] and client_msgs == [b"down"]

    def test_message_boundaries_preserved(self, net):
        client, _, server_msgs, _ = _tls_pair(net)
        net.sim.run(2.0)
        for i in range(4):
            client.send_message(bytes([i]) * (i + 1))
        net.sim.run(1.0)
        assert server_msgs == [bytes([i]) * (i + 1) for i in range(4)]

    def test_wire_size_helper(self, net):
        client, _, _, _ = _tls_pair(net)
        assert client.wire_size(100) == 100 + RECORD_OVERHEAD

    def test_close_propagates(self, net):
        client, servers, _, _ = _tls_pair(net)
        net.sim.run(2.0)
        closed = []
        servers[0].on_closed = lambda s, r: closed.append(r)
        client.close()
        net.sim.run(5.0)
        assert client.closed and servers[0].closed
        assert closed

    def test_send_after_close_rejected(self, net):
        client, _, _, _ = _tls_pair(net)
        net.sim.run(2.0)
        client.close()
        with pytest.raises(RuntimeError):
            client.send_message(b"late")

    def test_corrupted_record_length_raises_an_alert(self, net):
        # One bit flipped in the length's high byte past the FCS: the
        # server must alert, not buffer this and every later record.
        client, servers, server_msgs, _ = _tls_pair(net)
        net.sim.run(2.0)
        send = client.conn.send

        def flip_length_high_bit(data):
            mangled = bytearray(data)
            mangled[3] ^= 0x80
            send(bytes(mangled))

        client.conn.send = flip_length_high_bit
        client.send_message(b"first")
        del client.conn.send
        for _ in range(5):
            client.send_message(b"later")
        net.sim.run(1.0)
        server = servers[0]
        assert server_msgs == []
        assert len(server.alerts_raised) == 1
        assert "overflow" in server.alerts_raised[0]
        assert server.closed

    @staticmethod
    def _mangle_hello(session, offset, mangle):
        """Apply ``mangle`` to one byte of the next thing ``session`` sends."""
        send = session.conn.send

        def mangle_hello(data):
            del session.conn.send
            mangled = bytearray(data)
            mangled[offset] = mangle(mangled[offset])
            send(bytes(mangled))

        session.conn.send = mangle_hello

    def _assert_client_hello_alert(self, net, offset, mangle, message):
        # The server must alert at the header, not wait for a body that
        # never comes while neither side is established or closed.
        client, servers, _, _ = _tls_pair(net)
        self._mangle_hello(client, offset, mangle)
        net.sim.run(2.0)
        server = servers[0]
        assert len(server.alerts_raised) == 1
        assert message in server.alerts_raised[0]
        assert server.closed and not server.established
        assert client.closed and not client.established

    def _assert_server_hello_alert(self, net, offset, mangle, message):
        # A mangled ServerHello header must not establish the client.
        client, servers, _, _ = _tls_pair(net)
        run_until(net.sim, lambda: bool(servers), 2.0)
        self._mangle_hello(servers[0], offset, mangle)
        net.sim.run(2.0)
        assert len(client.alerts_raised) == 1
        assert message in client.alerts_raised[0]
        assert client.closed and not client.established

    @pytest.mark.parametrize(
        "offset,mangle",
        [(3, lambda b: b ^ 0x80), (4, lambda b: b + 1)],
        ids=["high-bit-flip", "low-byte-plus-one"],
    )
    def test_corrupted_client_hello_length_raises_an_alert(self, net, offset, mangle):
        self._assert_client_hello_alert(net, offset, mangle, "handshake length")

    @pytest.mark.parametrize(
        "offset,mangle",
        [(1, lambda b: b ^ 0x80), (2, lambda b: b ^ 0x80), (2, lambda b: b ^ 0x01)],
        ids=["major-high-bit-flip", "minor-high-bit-flip", "minor-low-bit-flip"],
    )
    def test_corrupted_client_hello_version_raises_an_alert(self, net, offset, mangle):
        self._assert_client_hello_alert(net, offset, mangle, "handshake version")

    def test_short_server_hello_raises_an_alert(self, net):
        # A ServerHello whose length reads one byte short must not establish
        # the client and hand the hello's last byte to the record reader.
        self._assert_server_hello_alert(net, 4, lambda b: b - 1, "handshake length")

    def test_server_hello_version_flip_raises_an_alert(self, net):
        self._assert_server_hello_alert(net, 2, lambda b: b ^ 0x01, "handshake version")

    def test_bad_role_rejected(self, net):
        device = net.add_lan_host("d2")
        stack = TcpStack(device)
        conn = stack.connect("34.9.9.9", 443)
        with pytest.raises(ValueError):
            TlsSession(conn, "peer")


class TestEncodeMemo:
    """The shared writer/reader encode memo: fast path, never a trust path."""

    def setup_method(self):
        reset_memo()

    def teardown_method(self):
        reset_memo()

    def test_reader_hits_what_writer_published(self):
        writer, reader = _channel()
        n = 8
        wire = b"".join(
            writer.seal(CONTENT_APPLICATION, bytes([i]) * 20) for i in range(n)
        )
        assert reader.feed(wire) == [
            (CONTENT_APPLICATION, bytes([i]) * 20) for i in range(n)
        ]
        # The writer publishes each record once; the reader pops every one.
        assert memo_stats() == {"record_hits": n, "record_misses": 0}
        assert not _RECORD_MEMO.cache

    def test_tampered_record_still_rejected_with_warm_memo(self):
        writer, reader = _channel()
        wire = bytearray(writer.seal(CONTENT_APPLICATION, b"integrity matters"))
        wire[HEADER_BYTES + 2] ^= 0x01  # flip one ciphertext bit
        with pytest.raises(MacVerificationError):
            reader.feed(bytes(wire))
        # The mangled ciphertext changed the memo key, so the check was an
        # honest recompute, not a stale hit.
        assert memo_stats() == {"record_hits": 0, "record_misses": 1}

    def test_replay_rejected_after_memo_consumed(self):
        writer, reader = _channel()
        wire = writer.seal(CONTENT_APPLICATION, b"once only")
        assert reader.feed(wire) == [(CONTENT_APPLICATION, b"once only")]
        # Pop-on-hit: the memo entry is gone, and the reader's seq moved,
        # so the replayed copy recomputes against seq=1 and fails.
        with pytest.raises(MacVerificationError):
            reader.feed(wire)

    def test_memo_is_bounded(self):
        writer, reader = _channel()
        assert _RECORD_MEMO.max_entries == 512
        wires = [
            writer.seal(CONTENT_APPLICATION, b"undelivered")
            for _ in range(_RECORD_MEMO.max_entries + 100)
        ]
        assert len(_RECORD_MEMO.cache) == _RECORD_MEMO.max_entries
        # FIFO: the oldest 100 were evicted and open by recomputation.
        assert len(reader.feed(b"".join(wires))) == len(wires)
        assert memo_stats() == {"record_hits": 512, "record_misses": 100}

    def test_sealed_bytes_identical_cold_and_warm(self):
        payloads = [bytes([i]) * (i + 1) for i in range(6)]
        warm_writer, warm_reader = _channel()
        warm = []
        for p in payloads:
            wire = warm_writer.seal(CONTENT_APPLICATION, p)
            warm_reader.feed(wire)  # keeps the memo cycling hit/put
            warm.append(wire)
        reset_memo()
        cold_writer, _ = _channel()
        cold = []
        for p in payloads:
            cold.append(cold_writer.seal(CONTENT_APPLICATION, p))
            reset_memo()  # force every computation from scratch
        assert warm == cold

    def test_reset_memo_clears_state_and_counters(self):
        writer, reader = _channel()
        reader.feed(writer.seal(CONTENT_APPLICATION, b"x"))
        writer.seal(CONTENT_APPLICATION, b"y")
        assert memo_stats() == {"record_hits": 1, "record_misses": 0}
        assert len(_RECORD_MEMO.cache) == 1
        reset_memo()
        assert memo_stats() == {"record_hits": 0, "record_misses": 0}
        assert not _RECORD_MEMO.cache
