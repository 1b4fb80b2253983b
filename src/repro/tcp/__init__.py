"""Simulated TCP: segments, the connection state machine, and the stack.

The stack lives in :mod:`repro.tcp.stack` and is imported from there.  It
sits on :mod:`repro.simnet`'s hosts, while ``simnet`` sizes and recognises
TCP frames by :class:`TcpSegment`; re-exporting the stack here would make
every import of :mod:`repro.tcp.segment` load ``simnet`` first, a cycle.
"""

from .connection import (
    CLOSED,
    CLOSE_WAIT,
    ESTABLISHED,
    FIN_WAIT_1,
    FIN_WAIT_2,
    LAST_ACK,
    LISTEN,
    REASON_KEEPALIVE_TIMEOUT,
    REASON_LOCAL_CLOSE,
    REASON_REMOTE_CLOSE,
    REASON_RESET,
    REASON_RETRANSMIT_TIMEOUT,
    SYN_RCVD,
    SYN_SENT,
    TIME_WAIT,
    TcpCallbacks,
    TcpConfig,
    TcpConnection,
)
from .segment import DEFAULT_MSS, TCP_HEADER_BYTES, TcpSegment, make_segment, seq_add, seq_leq, seq_lt

__all__ = [
    "CLOSED",
    "CLOSE_WAIT",
    "DEFAULT_MSS",
    "ESTABLISHED",
    "FIN_WAIT_1",
    "FIN_WAIT_2",
    "LAST_ACK",
    "LISTEN",
    "REASON_KEEPALIVE_TIMEOUT",
    "REASON_LOCAL_CLOSE",
    "REASON_REMOTE_CLOSE",
    "REASON_RESET",
    "REASON_RETRANSMIT_TIMEOUT",
    "SYN_RCVD",
    "SYN_SENT",
    "TCP_HEADER_BYTES",
    "TIME_WAIT",
    "TcpCallbacks",
    "TcpConfig",
    "TcpConnection",
    "TcpSegment",
    "make_segment",
    "seq_add",
    "seq_leq",
    "seq_lt",
]
