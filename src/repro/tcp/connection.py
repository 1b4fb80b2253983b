"""TCP connection state machine.

This implements the parts of TCP the paper's analysis rests on
(Section IV-A1):

* a **retransmission timer** with exponential backoff — if every attempt
  fails the connection is torn down and the upper layer is notified of the
  timeout;
* a **keep-alive timer** — after an idle period, probe segments are sent and
  unanswered probes kill the connection;
* cleartext, forgeable **acknowledgements** — the crucial weakness: an ACK
  is valid if its numbers are right, with no cryptographic binding to the
  payload it acknowledges.

The attack works because a middle-box that immediately ACKs data and answers
probes silences both timers while delivering nothing.

Both timers are watchdogs that traffic keeps pushing back: every ACK that
leaves data in flight re-arms the retransmission timer, and every segment
from the peer re-arms the keep-alive timer.  They are re-armed with
:meth:`~repro.simnet.scheduler.Simulator.restart`, which moves a pending
deadline later in place instead of cancelling one timer and allocating
another per segment.  The per-segment path reads the segment's flag set
directly, sends module-constant flag sets, and does its sequence arithmetic
as inline 32-bit masks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..simnet.trace import FlowKey
from .segment import (
    DEFAULT_MSS,
    FLAGS_ACK,
    FLAGS_ACK_PSH,
    FLAGS_FIN_ACK,
    FLAGS_RST_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    SEQ_HALF,
    SEQ_MASK,
    TcpSegment,
    seq_add,
)

if TYPE_CHECKING:  # pragma: no cover
    from .stack import TcpStack

# Connection states (RFC 793 subset).
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
CLOSING = "CLOSING"
TIME_WAIT = "TIME_WAIT"

#: States in which the peer's segments carry ACKs and data for us.
_SYNCHRONISED = frozenset(
    {ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT, CLOSING, LAST_ACK}
)

# Close / failure reasons surfaced to the application layer.
REASON_LOCAL_CLOSE = "local-close"
REASON_REMOTE_CLOSE = "remote-close"
REASON_RESET = "reset"
REASON_RETRANSMIT_TIMEOUT = "retransmission-timeout"
REASON_KEEPALIVE_TIMEOUT = "keepalive-timeout"


@dataclass
class TcpConfig:
    """Tunable timer behaviour of one endpoint's TCP."""

    mss: int = DEFAULT_MSS
    rto_initial: float = 1.0
    rto_max: float = 60.0
    rto_backoff: float = 2.0
    max_retransmits: int = 6
    keepalive_enabled: bool = True
    #: Idle time before the first keep-alive probe.  Real stacks default to
    #: 7200 s; embedded IoT stacks configure far shorter values.
    keepalive_idle: float = 60.0
    keepalive_probe_interval: float = 10.0
    keepalive_probe_count: int = 5
    time_wait: float = 2.0
    #: Pure duplicate ACKs that trigger a fast retransmit (RFC 5681).
    dup_ack_threshold: int = 3
    #: Out-of-order reassembly buffer cap, in segments.  Embedded stacks
    #: have small fixed buffers; overflow discards the segment, which the
    #: peer's retransmission timer repairs.
    ooo_limit: int = 64


@dataclass
class TcpCallbacks:
    """Application-layer hooks; all optional."""

    on_connected: Callable[["TcpConnection"], None] | None = None
    on_data: Callable[["TcpConnection", bytes], None] | None = None
    on_closed: Callable[["TcpConnection", str], None] | None = None


@dataclass
class _Unacked:
    segment: TcpSegment
    #: Sequence number just past the segment: acknowledged once ack >= end.
    end: int
    retransmits: int = 0


class TcpConnection:
    """One endpoint of a TCP connection."""

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_ip: str,
        remote_port: int,
        config: TcpConfig | None = None,
        callbacks: TcpCallbacks | None = None,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config or TcpConfig()
        self.callbacks = callbacks or TcpCallbacks()

        self.state = CLOSED
        self.iss = self.sim.rng.randrange(0, 2**32)
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.rcv_nxt = 0

        self._send_queue: list[bytes] = []
        self._unacked: list[_Unacked] = []
        self._ooo: dict[int, TcpSegment] = {}
        self._dup_acks = 0
        self._retx_timer = None
        self._keepalive_timer = None
        # Hot timer labels, interned once: retransmit and keep-alive timers
        # are re-armed per segment, and building a fresh f-string each time
        # dominated the arm cost (and defeated the scheduler's label
        # interning, which only dedupes identical objects cheaply).
        self._retx_label = sys.intern(f"tcp-retx:{local_port}")
        self._ka_label = sys.intern(f"tcp-ka:{local_port}")
        self._probes_outstanding = 0
        self._fin_sent = False
        self._fin_queued = False
        self._closed_notified = False
        self._last_unsolicited_ack = float("-inf")

        # Observability counters used by tests and the evaluation harness.
        self.stats: dict[str, int] = {
            "segments_sent": 0,
            "segments_received": 0,
            "bytes_sent": 0,
            "bytes_delivered": 0,
            "retransmissions": 0,
            "fast_retransmits": 0,
            "keepalive_probes": 0,
            "duplicate_acks_sent": 0,
            "ooo_buffered": 0,
            "ooo_discarded": 0,
        }

    # ------------------------------------------------------------- identity

    @property
    def local_ip(self) -> str:
        return self.stack.host.ip

    @property
    def key(self) -> tuple[int, str, int]:
        return (self.local_port, self.remote_ip, self.remote_port)

    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    def flow_label(self) -> str:
        """Canonical flow identifier, matching capture/hijacker reporting."""
        return FlowKey.of(
            self.local_ip, self.local_port, self.remote_ip, self.remote_port
        ).label()

    @property
    def is_open(self) -> bool:
        return self.state not in (CLOSED, TIME_WAIT, LISTEN)

    # ----------------------------------------------------------- public API

    def open_active(self) -> None:
        """Client side: send SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"cannot connect from state {self.state}")
        self.state = SYN_SENT
        self._transmit(self._make_segment(FLAGS_SYN), reliable=True)

    def open_passive_syn(self, syn: TcpSegment) -> None:
        """Server side: a listener saw a SYN for us."""
        self.rcv_nxt = seq_add(syn.seq, 1)
        self.state = SYN_RCVD
        self._transmit(self._make_segment(FLAGS_SYN_ACK), reliable=True)

    def send(self, data: bytes) -> None:
        """Queue application bytes for in-order reliable delivery."""
        if not data:
            return
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise RuntimeError(f"cannot send in state {self.state}")
        if self._fin_queued or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        # The one copy: ``bytes`` of a bytes object is that object, and a
        # slice spanning a whole bytes object is the object itself.
        data = bytes(data)
        mss = self.config.mss
        segments = 0
        for off in range(0, len(data), mss):
            self._transmit(
                self._make_segment(FLAGS_ACK_PSH, data[off : off + mss]), reliable=True
            )
            segments += 1
        self.stats["bytes_sent"] += len(data)
        inv = self.sim.invariants
        if inv is not None:
            inv.on_tcp_send(self, data)
        obs = self.sim.obs
        if obs.enabled and obs.tracer.current is not None:
            # Child of whatever message span is ambient (TLS seal path).
            obs.tracer.event(
                "tcp", "send", flow=self.flow_label(), bytes=len(data), segments=segments
            )

    def close(self) -> None:
        """Orderly close: send FIN once in-flight data is acknowledged."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, FIN_WAIT_1, FIN_WAIT_2, CLOSING):
            return
        self._fin_queued = True
        self._maybe_send_fin()

    def abort(self, reason: str = REASON_LOCAL_CLOSE) -> None:
        """Hard teardown: emit RST and drop all state."""
        if self.state == CLOSED:
            return
        rst = self._make_segment(FLAGS_RST_ACK)
        self._emit(rst)
        self._enter_closed(reason)

    # --------------------------------------------------------- segment path

    def on_segment(self, segment: TcpSegment) -> None:
        """Entry point from the stack demux."""
        state = self.state
        if state == CLOSED:
            return
        self.stats["segments_received"] += 1
        flags = segment.flags

        if "RST" in flags:
            if state != SYN_SENT or "ACK" in flags:
                self._enter_closed(REASON_RESET, notify_peer=False)
            return

        if state == SYN_SENT:
            self._on_segment_syn_sent(segment)
            return
        if state == SYN_RCVD and "ACK" in flags and "SYN" not in flags:
            if segment.ack == seq_add(self.iss, 1):
                self._handle_ack(segment.ack)
                self.state = ESTABLISHED
                self._arm_keepalive()
                self._notify_connected()
                state = self.state
                # fall through: the handshake ACK may carry data

        # Any traffic from the peer proves the path is alive.
        self._probes_outstanding = 0
        if state in _SYNCHRONISED:
            payload = segment.payload
            fin = "FIN" in flags
            if "ACK" in flags:
                pure_ack = not (payload or fin or "SYN" in flags)
                self._handle_ack(segment.ack, pure_ack=pure_ack)
            if payload or fin:
                self._handle_receive(segment)
            elif "SYN" not in flags and segment.seq != self.rcv_nxt:
                # Payload-less segment outside the expected sequence — a
                # keep-alive probe (seq one below the window), or a probe
                # from a sender whose data is in flight elsewhere.  RFC 793
                # requires acknowledging unacceptable segments; throttle so
                # two desynchronised peers cannot enter a dup-ACK storm.
                if self.sim.now - self._last_unsolicited_ack >= 0.5:
                    self._last_unsolicited_ack = self.sim.now
                    self._send_ack(duplicate=True)
            self._arm_keepalive()

    def _on_segment_syn_sent(self, segment: TcpSegment) -> None:
        if segment.syn and segment.ack_flag and segment.ack == seq_add(self.iss, 1):
            if self._fin_queued:
                # close() in SYN_SENT deletes the connection (RFC 793): a
                # SYN-ACK that arrives afterwards is refused, not connected.
                self.abort()
                return
            self.rcv_nxt = seq_add(segment.seq, 1)
            self._handle_ack(segment.ack)
            self.state = ESTABLISHED
            self._send_ack()
            self._arm_keepalive()
            self._notify_connected()

    # ------------------------------------------------------------ ACK logic

    def _handle_ack(self, ack: int, pure_ack: bool = False) -> None:
        snd_una = self.snd_una
        # Acceptable when snd_una < ack <= snd_nxt (seq_lt and seq_leq).
        if not (
            0 < ((ack - snd_una) & SEQ_MASK) < SEQ_HALF
            and ((self.snd_nxt - ack) & SEQ_MASK) < SEQ_HALF
        ):
            # A pure ACK that re-asserts snd_una while data is in flight is
            # a duplicate ACK: the receiver got something out of order.
            # Forged hold ACKs *advance* snd_una, so they never count here.
            if pure_ack and ack == snd_una and self._unacked:
                self._dup_acks += 1
                if self._dup_acks >= self.config.dup_ack_threshold:
                    self._fast_retransmit()
            return
        self._dup_acks = 0
        self.snd_una = ack
        still_unacked: list[_Unacked] = []
        for entry in self._unacked:
            if ((ack - entry.end) & SEQ_MASK) >= SEQ_HALF:  # not seq_leq(end, ack)
                still_unacked.append(entry)
        self._unacked = still_unacked
        if still_unacked:
            self._arm_retx_timer(self.config.rto_initial)
        else:
            self._cancel_retx_timer()
        if self._fin_sent and ack == self.snd_nxt:
            self._on_fin_acked()
        self._maybe_send_fin()

    def _on_fin_acked(self) -> None:
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._enter_closed(REASON_LOCAL_CLOSE, notify_peer=False)

    # -------------------------------------------------------- receive logic

    def _handle_receive(self, segment: TcpSegment) -> None:
        seq = segment.seq
        rcv_nxt = self.rcv_nxt
        if (not segment.payload and seq == (rcv_nxt - 1) & SEQ_MASK) or (
            0 < ((rcv_nxt - seq) & SEQ_MASK) < SEQ_HALF
        ):
            # A keep-alive probe (seq one below the expected next byte), or
            # old data / a retransmission we already have (seq_lt(seq,
            # rcv_nxt)): re-ACK it.
            self._send_ack(duplicate=True)
            return
        if seq != rcv_nxt:
            # Out of order: buffer and re-assert our expectation.  The
            # buffer is bounded like an embedded stack's; on overflow the
            # segment is discarded and repaired by peer retransmission.
            if seq in self._ooo or len(self._ooo) < self.config.ooo_limit:
                self._ooo[seq] = segment
                self.stats["ooo_buffered"] += 1
            else:
                self.stats["ooo_discarded"] += 1
            self._send_ack(duplicate=True)
            return
        self._accept_in_order(segment)
        # Drain any now-contiguous out-of-order segments.
        while self.rcv_nxt in self._ooo:
            self._accept_in_order(self._ooo.pop(self.rcv_nxt))
        self._send_ack()

    def _accept_in_order(self, segment: TcpSegment) -> None:
        payload = segment.payload
        if payload:
            self.rcv_nxt = (self.rcv_nxt + len(payload)) & SEQ_MASK
            self.stats["bytes_delivered"] += len(payload)
            inv = self.sim.invariants
            if inv is not None:
                inv.on_tcp_deliver(self, payload)
            if self.callbacks.on_data is not None:
                self.callbacks.on_data(self, payload)
        if "FIN" in segment.flags:
            self.rcv_nxt = (self.rcv_nxt + 1) & SEQ_MASK
            self._on_fin_received()

    def _on_fin_received(self) -> None:
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
            self._notify_closed(REASON_REMOTE_CLOSE)
            # Mirror the close: most IoT stacks immediately FIN back.
            self.close()
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()

    # ----------------------------------------------------------- FIN sending

    def _maybe_send_fin(self) -> None:
        if not self._fin_queued or self._fin_sent or self._unacked:
            return
        self._fin_sent = True
        self._fin_queued = False
        if self.state in (ESTABLISHED, SYN_RCVD):
            self.state = FIN_WAIT_1
        elif self.state == CLOSE_WAIT:
            self.state = LAST_ACK
        self._transmit(self._make_segment(FLAGS_FIN_ACK), reliable=True)

    # ------------------------------------------------------------- transmit

    def _make_segment(self, flags: frozenset[str], payload: bytes = b"") -> TcpSegment:
        """A segment at ``snd_nxt``; ``flags`` is one of the ``FLAGS_*`` sets."""
        return TcpSegment(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, flags, payload
        )

    def _transmit(self, segment: TcpSegment, reliable: bool) -> None:
        if reliable:
            flags = segment.flags
            # seq_space: payload bytes, plus one each for SYN and FIN.
            space = len(segment.payload) + ("SYN" in flags) + ("FIN" in flags)
            self.snd_nxt = (self.snd_nxt + space) & SEQ_MASK
            self._unacked.append(_Unacked(segment, (segment.seq + space) & SEQ_MASK))
            timer = self._retx_timer
            if timer is None or not timer.active:
                self._arm_retx_timer(self.config.rto_initial)
        self._emit(segment)

    def _emit(self, segment: TcpSegment) -> None:
        self.stats["segments_sent"] += 1
        self.stack.send_segment(self, segment)

    def _send_ack(self, duplicate: bool = False) -> None:
        if duplicate:
            self.stats["duplicate_acks_sent"] += 1
        self._emit(self._make_segment(FLAGS_ACK))

    # ------------------------------------------------------ retransmission

    def _arm_retx_timer(self, rto: float) -> None:
        self._retx_timer = self.sim.restart(
            self._retx_timer, rto, self._on_retx_timeout, rto, label=self._retx_label
        )

    def _cancel_retx_timer(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def _fast_retransmit(self) -> None:
        """Resend the oldest unacked segment after repeated duplicate ACKs.

        Loss recovery without waiting out the RTO (RFC 5681's signal); the
        backoff schedule and the give-up counter are untouched so the
        retransmission-timeout clock the paper measures keeps its meaning.
        """
        self._dup_acks = 0
        oldest = self._unacked[0]
        self.stats["fast_retransmits"] += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("tcp", "fast_retransmits").inc()
        self._emit(oldest.segment)

    def _on_retx_timeout(self, current_rto: float) -> None:
        self._retx_timer = None
        if not self._unacked or self.state == CLOSED:
            return
        oldest = self._unacked[0]
        if oldest.retransmits >= self.config.max_retransmits:
            # All attempts exhausted: terminate and tell the upper layer.
            self.abort(REASON_RETRANSMIT_TIMEOUT)
            return
        oldest.retransmits += 1
        self.stats["retransmissions"] += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("tcp", "retransmissions").inc()
            # `waited` is the RTO that elapsed before this retransmission —
            # the raw material of the delay attribution's TCP component.
            obs.tracer.event(
                "tcp",
                "retx",
                flow=self.flow_label(),
                seq=oldest.segment.seq,
                attempt=oldest.retransmits,
                waited=current_rto,
            )
        self._emit(oldest.segment)
        next_rto = min(current_rto * self.config.rto_backoff, self.config.rto_max)
        # Paper: "random backoff intervals" — jitter the doubling slightly.
        next_rto *= 1.0 + self.sim.rng.uniform(-0.1, 0.1)
        self._arm_retx_timer(next_rto)

    # ---------------------------------------------------------- keep-alive

    def _arm_keepalive(self) -> None:
        if not self.config.keepalive_enabled:
            return
        self._keepalive_timer = self.sim.restart(
            self._keepalive_timer,
            self.config.keepalive_idle,
            self._on_keepalive_idle,
            label=self._ka_label,
        )

    def _on_keepalive_idle(self) -> None:
        self._keepalive_timer = None
        if self.state != ESTABLISHED:
            return
        if self._probes_outstanding >= self.config.keepalive_probe_count:
            self.abort(REASON_KEEPALIVE_TIMEOUT)
            return
        self._probes_outstanding += 1
        self.stats["keepalive_probes"] += 1
        probe = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq_add(self.snd_nxt, -1),
            ack=self.rcv_nxt,
            flags=FLAGS_ACK,
        )
        self._emit(probe)
        self._keepalive_timer = self.sim.schedule(
            self.config.keepalive_probe_interval,
            self._on_keepalive_idle,
            label=self._ka_label,
        )

    # ------------------------------------------------------------- teardown

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self.sim.schedule(
            self.config.time_wait,
            self._enter_closed,
            REASON_LOCAL_CLOSE,
            False,
            label="tcp-time-wait",
        )
        self._notify_closed(REASON_LOCAL_CLOSE)

    def _enter_closed(self, reason: str, notify_peer: bool = True) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("tcp", "closes", reason=reason).inc()
        self._cancel_retx_timer()
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None
        self._unacked.clear()
        self._ooo.clear()
        self.stack.forget(self)
        self._notify_closed(reason)

    # ---------------------------------------------------------- app signals

    def _notify_connected(self) -> None:
        if self.callbacks.on_connected is not None:
            self.callbacks.on_connected(self)

    def _notify_closed(self, reason: str) -> None:
        if self._closed_notified:
            return
        self._closed_notified = True
        if self.callbacks.on_closed is not None:
            self.callbacks.on_closed(self, reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TcpConnection({self.local_ip}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} {self.state})"
        )
