"""TCP substrate tests: handshake, transfer, timers, and teardown."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simnet.link import Lan
from repro.simnet.packet import EthernetFrame, IpPacket
from repro.simnet.scheduler import Simulator
from repro.tcp.connection import (
    CLOSED,
    ESTABLISHED,
    REASON_KEEPALIVE_TIMEOUT,
    REASON_REMOTE_CLOSE,
    REASON_RESET,
    REASON_RETRANSMIT_TIMEOUT,
    SYN_SENT,
    TcpCallbacks,
    TcpConfig,
)
from repro.tcp.segment import TcpSegment, make_segment, seq_add, seq_leq, seq_lt
from repro.tcp.stack import TcpStack


class TestSegment:
    def test_flags_validation(self):
        with pytest.raises(ValueError):
            make_segment(1, 2, 0, 0, "BOGUS")

    def test_flag_predicates(self):
        seg = make_segment(1, 2, 0, 0, "SYN", "ACK")
        assert seg.syn and seg.ack_flag and not seg.fin and not seg.rst

    def test_seq_space_counts_payload_and_flags(self):
        assert make_segment(1, 2, 0, 0, payload=b"abc").seq_space == 3
        assert make_segment(1, 2, 0, 0, "SYN").seq_space == 1
        assert make_segment(1, 2, 0, 0, "FIN", "ACK").seq_space == 1
        assert make_segment(1, 2, 0, 0, "ACK").seq_space == 0

    def test_byte_size(self):
        assert make_segment(1, 2, 0, 0, payload=b"x" * 10).byte_size() == 30

    def test_seq_wraparound(self):
        assert seq_add(2**32 - 1, 2) == 1

    def test_seq_lt_basic(self):
        assert seq_lt(1, 2)
        assert not seq_lt(2, 1)
        assert not seq_lt(5, 5)

    def test_seq_lt_wraparound(self):
        assert seq_lt(2**32 - 10, 5)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2**20))
    def test_seq_lt_after_add(self, base, delta):
        assert seq_lt(base, seq_add(base, delta))

    @given(st.integers(0, 2**32 - 1))
    def test_seq_leq_reflexive(self, a):
        assert seq_leq(a, a)

    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(
            st.integers(-(2**33), 2**33),
            # the half-window boundary and the wrap-around
            st.sampled_from([0, 1, -1, 2**31 - 1, 2**31, 2**31 + 1, -(2**31),
                             2**32 - 1, 2**32, -(2**32) + 1]),
        ),
    )
    def test_mask_helpers_match_modular_definitions(self, a, delta):
        modulus = 2**32
        b = (a + delta) % modulus
        assert seq_add(a, delta) == b
        for x, y in ((a, b), (b, a)):
            gap = (y - x) % modulus
            lt = gap != 0 and gap < modulus // 2
            assert seq_lt(x, y) == lt
            assert seq_leq(x, y) == (x == y or lt)

    @given(st.integers(0, 2**32 - 1))
    def test_half_window_apart_is_neither_before_nor_after(self, a):
        b = seq_add(a, 2**31)
        assert (b - a) % 2**32 == 2**31
        assert not seq_lt(a, b) and not seq_lt(b, a)
        assert not seq_leq(a, b) and not seq_leq(b, a)


def _wire_pair(seed=5, loss_filter=None):
    """Two stacks joined by a LAN, with optional frame dropping."""
    sim = Simulator(seed=seed)
    lan = Lan(sim)

    class _Medium(Lan):
        pass

    class _Host:
        def __init__(self, ip, name):
            self.sim = sim
            self.ip = ip
            self.hostname = name
            self.ip_handler = None
            self.frame_taps = []
            self.nic = lan.attach(self._on_frame)

        def send_ip(self, packet):
            if loss_filter is not None and loss_filter(packet):
                return
            other = b_host if self is a_host else a_host
            self.nic.send(EthernetFrame(self.nic.mac, other.nic.mac, packet))

        def _on_frame(self, frame):
            if self.ip_handler and isinstance(frame.payload, IpPacket):
                if frame.payload.dst_ip == self.ip:
                    self.ip_handler(frame.payload)

    a_host = _Host("10.0.0.1", "a")
    b_host = _Host("10.0.0.2", "b")
    return sim, TcpStack(a_host), TcpStack(b_host)


class TestHandshakeAndTransfer:
    def test_three_way_handshake(self):
        sim, a, b = _wire_pair()
        accepted = []
        b.listen(80, accepted.append)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        assert conn.state == ESTABLISHED
        assert accepted and accepted[0].state == ESTABLISHED

    def test_on_connected_callback(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        fired = []
        conn = a.connect("10.0.0.2", 80, callbacks=TcpCallbacks(on_connected=lambda c: fired.append(c)))
        sim.run(1.0)
        assert fired == [conn]

    def test_data_both_directions(self):
        sim, a, b = _wire_pair()
        server_rx, client_rx = [], []
        server_conn = []

        def on_accept(conn):
            server_conn.append(conn)
            conn.callbacks.on_data = lambda c, d: server_rx.append(d)

        b.listen(80, on_accept)
        conn = a.connect("10.0.0.2", 80, callbacks=TcpCallbacks(on_data=lambda c, d: client_rx.append(d)))
        sim.run(1.0)
        conn.send(b"ping")
        sim.run(1.0)
        server_conn[0].send(b"pong")
        sim.run(1.0)
        assert server_rx == [b"ping"] and client_rx == [b"pong"]

    def test_large_payload_segmented_and_reassembled(self):
        sim, a, b = _wire_pair()
        received = []
        b.listen(80, lambda c: setattr(c.callbacks, "on_data", lambda cc, d: received.append(d)))
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        blob = bytes(range(256)) * 20  # 5120 bytes > 3 x MSS
        conn.send(blob)
        sim.run(2.0)
        assert b"".join(received) == blob
        assert len(received) > 1  # actually segmented

    def test_send_before_established_rejected(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect("10.0.0.2", 80)
        with pytest.raises(RuntimeError):
            conn.send(b"too-early")

    def test_empty_send_is_noop(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        before = conn.stats["segments_sent"]
        conn.send(b"")
        assert conn.stats["segments_sent"] == before

    def test_connect_to_closed_port_times_out(self):
        sim, a, b = _wire_pair()
        closed = []
        conn = a.connect(
            "10.0.0.2", 81,
            callbacks=TcpCallbacks(on_closed=lambda c, r: closed.append(r)),
            config=TcpConfig(max_retransmits=2, rto_initial=0.5),
        )
        sim.run(30.0)
        assert closed == [REASON_RETRANSMIT_TIMEOUT]
        assert conn.state == CLOSED


class TestRetransmission:
    def test_lost_data_retransmitted(self):
        drop = {"count": 0}

        def loss(packet):
            seg = packet.payload
            # Drop the first data segment once.
            if isinstance(seg, TcpSegment) and seg.payload and drop["count"] == 0:
                drop["count"] += 1
                return True
            return False

        sim, a, b = _wire_pair(loss_filter=loss)
        received = []
        b.listen(80, lambda c: setattr(c.callbacks, "on_data", lambda cc, d: received.append(d)))
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        conn.send(b"important")
        sim.run(10.0)
        assert received == [b"important"]
        assert conn.stats["retransmissions"] >= 1

    def test_retransmission_exhaustion_kills_connection(self):
        def loss(packet):
            seg = packet.payload
            return isinstance(seg, TcpSegment) and bool(seg.payload)

        sim, a, b = _wire_pair(loss_filter=loss)
        closed = []
        b.listen(80, lambda c: None)
        conn = a.connect(
            "10.0.0.2", 80,
            callbacks=TcpCallbacks(on_closed=lambda c, r: closed.append(r)),
            config=TcpConfig(max_retransmits=3, rto_initial=0.5),
        )
        sim.run(1.0)
        conn.send(b"doomed")
        sim.run(60.0)
        assert closed == [REASON_RETRANSMIT_TIMEOUT]

    def test_ack_cancels_retransmission(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        conn.send(b"data")
        sim.run(30.0)
        assert conn.stats["retransmissions"] == 0

    def test_out_of_order_buffered(self):
        sim, a, b = _wire_pair()
        received = []
        server = []

        def on_accept(conn):
            server.append(conn)
            conn.callbacks.on_data = lambda c, d: received.append(d)

        b.listen(80, on_accept)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        # Inject segments out of order directly into the server connection.
        srv = server[0]
        base = srv.rcv_nxt
        seg2 = make_segment(conn.local_port, 80, seq_add(base, 3), srv.snd_nxt, "ACK", payload=b"def")
        seg1 = make_segment(conn.local_port, 80, base, srv.snd_nxt, "ACK", payload=b"abc")
        srv.on_segment(seg2)
        assert received == []  # held out of order
        srv.on_segment(seg1)
        assert b"".join(received) == b"abcdef"

    def test_duplicate_data_reacked_not_redelivered(self):
        sim, a, b = _wire_pair()
        received = []
        server = []

        def on_accept(conn):
            server.append(conn)
            conn.callbacks.on_data = lambda c, d: received.append(d)

        b.listen(80, on_accept)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        srv = server[0]
        seg = make_segment(conn.local_port, 80, srv.rcv_nxt, srv.snd_nxt, "ACK", payload=b"x")
        srv.on_segment(seg)
        srv.on_segment(seg)  # duplicate
        assert received == [b"x"]
        assert srv.stats["duplicate_acks_sent"] >= 1


class TestKeepAlive:
    def test_probes_sent_when_idle(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect(
            "10.0.0.2", 80,
            config=TcpConfig(keepalive_idle=5.0, keepalive_probe_interval=1.0),
        )
        sim.run(20.0)
        assert conn.stats["keepalive_probes"] >= 1
        assert conn.state == ESTABLISHED  # peer answers probes

    def test_unanswered_probes_abort(self):
        # Drop every pure-ACK reply from the server so probes go unanswered.
        def loss(packet):
            seg = packet.payload
            return (
                isinstance(seg, TcpSegment)
                and seg.src_port == 80
                and not seg.payload
                and not seg.syn
                and not seg.fin
                and not seg.rst
            )

        sim, a, b = _wire_pair(loss_filter=loss)
        closed = []
        b.listen(80, lambda c: None)
        conn = a.connect(
            "10.0.0.2", 80,
            callbacks=TcpCallbacks(on_closed=lambda c, r: closed.append(r)),
            config=TcpConfig(
                keepalive_idle=3.0, keepalive_probe_interval=1.0, keepalive_probe_count=3
            ),
        )
        sim.run(1.0)
        conn.send(b"warm-up")
        sim.run(60.0)
        assert REASON_KEEPALIVE_TIMEOUT in closed

    def test_keepalive_disabled(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect(
            "10.0.0.2", 80, config=TcpConfig(keepalive_enabled=False)
        )
        sim.run(300.0)
        assert conn.stats["keepalive_probes"] == 0


class TestTeardown:
    def test_orderly_close_both_sides(self):
        sim, a, b = _wire_pair()
        server = []
        reasons_a, reasons_b = [], []

        def on_accept(conn):
            server.append(conn)
            conn.callbacks.on_closed = lambda c, r: reasons_b.append(r)

        b.listen(80, on_accept)
        conn = a.connect(
            "10.0.0.2", 80, callbacks=TcpCallbacks(on_closed=lambda c, r: reasons_a.append(r))
        )
        sim.run(1.0)
        conn.send(b"bye")
        sim.run(1.0)
        conn.close()
        sim.run(10.0)
        assert conn.state == CLOSED and server[0].state == CLOSED
        assert reasons_b == [REASON_REMOTE_CLOSE]

    def test_close_flushes_pending_data_first(self):
        sim, a, b = _wire_pair()
        received = []
        b.listen(80, lambda c: setattr(c.callbacks, "on_data", lambda cc, d: received.append(d)))
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        conn.send(b"last-words")
        conn.close()  # immediately after send
        sim.run(10.0)
        assert received == [b"last-words"]

    def test_abort_sends_rst(self):
        sim, a, b = _wire_pair()
        server = []
        reasons_b = []

        def on_accept(conn):
            server.append(conn)
            conn.callbacks.on_closed = lambda c, r: reasons_b.append(r)

        b.listen(80, on_accept)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        conn.abort()
        sim.run(1.0)
        assert server[0].state == CLOSED
        assert reasons_b == [REASON_RESET]

    def test_send_after_close_rejected(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send(b"late")

    def test_syn_ack_after_close_is_reset(self):
        # RFC 793: CLOSE in SYN-SENT deletes the connection, so the late
        # SYN-ACK is answered with RST and the application never sees a
        # connection it already closed.
        sim, a, b = _wire_pair()
        server = []
        reasons_b = []

        def on_accept(conn):
            server.append(conn)
            conn.callbacks.on_closed = lambda c, r: reasons_b.append(r)

        b.listen(80, on_accept)
        connected, reasons_a = [], []
        conn = a.connect("10.0.0.2", 80, callbacks=TcpCallbacks(
            on_connected=connected.append,
            on_closed=lambda c, r: reasons_a.append(r),
        ))
        assert conn.state == SYN_SENT
        conn.close()
        sim.run(10.0)
        assert connected == []
        assert conn.state == CLOSED
        assert len(reasons_a) == 1
        assert server[0].state == CLOSED
        assert reasons_b == [REASON_RESET]
        assert a.connection_count() == 0

    def test_double_close_is_noop(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        conn.close()
        conn.close()
        sim.run(10.0)
        assert conn.state == CLOSED


class TestStack:
    def test_duplicate_listen_rejected(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        with pytest.raises(ValueError):
            b.listen(80, lambda c: None)

    def test_ephemeral_ports_unique(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        ports = {a.connect("10.0.0.2", 80).local_port for _ in range(5)}
        assert len(ports) == 5

    def test_stray_segments_counted(self):
        sim, a, b = _wire_pair()
        # No listener: the SYN is dropped and counted.
        a.connect("10.0.0.2", 9999, config=TcpConfig(max_retransmits=0, rto_initial=0.5))
        sim.run(5.0)
        assert b.segments_dropped >= 1

    def test_connection_table_cleaned_after_close(self):
        sim, a, b = _wire_pair()
        b.listen(80, lambda c: None)
        conn = a.connect("10.0.0.2", 80)
        sim.run(1.0)
        assert a.connection_count() == 1
        conn.close()
        sim.run(10.0)
        assert a.connection_count() == 0
