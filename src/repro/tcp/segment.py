"""TCP segment format.

Segments carry real 32-bit sequence/acknowledgement numbers and genuine
payload bytes.  The hijacker (:mod:`repro.core.hijacker`) reads and forges
*headers only* — exactly what an on-path attacker can do against a
TLS-protected session, since TCP headers are cleartext while payloads are
TLS records it cannot alter.
"""

from __future__ import annotations

from dataclasses import field

from ..values import value

TCP_HEADER_BYTES = 20
SEQ_MODULUS = 2**32
#: ``x & SEQ_MASK`` is ``x % SEQ_MODULUS`` for any int, negatives included.
SEQ_MASK = SEQ_MODULUS - 1
#: Half the sequence space: ``b`` is after ``a`` when ``b - a`` (mod 2**32)
#: is below this.
SEQ_HALF = SEQ_MODULUS // 2

#: Default maximum segment size used by the stack.
DEFAULT_MSS = 1460

#: The flags a segment may carry, and the flag sets the stack sends, built
#: once so the per-segment path allocates no frozenset.
TCP_FLAGS = frozenset({"SYN", "ACK", "FIN", "RST", "PSH"})
FLAGS_SYN = frozenset({"SYN"})
FLAGS_SYN_ACK = frozenset({"SYN", "ACK"})
FLAGS_ACK = frozenset({"ACK"})
FLAGS_ACK_PSH = frozenset({"ACK", "PSH"})
FLAGS_FIN_ACK = frozenset({"FIN", "ACK"})
FLAGS_RST_ACK = frozenset({"RST", "ACK"})


# The helpers below take 32-bit sequence numbers (0 <= n < 2**32).


def seq_add(seq: int, delta: int) -> int:
    return (seq + delta) & SEQ_MASK


def seq_lt(a: int, b: int) -> bool:
    """Modular 'a strictly before b' comparison (RFC 793 style)."""
    return 0 < ((b - a) & SEQ_MASK) < SEQ_HALF


def seq_leq(a: int, b: int) -> bool:
    return ((b - a) & SEQ_MASK) < SEQ_HALF


@value
class TcpSegment:
    """One TCP segment; flags are a frozenset of {SYN, ACK, FIN, RST, PSH}."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: frozenset[str] = field(default_factory=frozenset)
    payload: bytes = b""
    window: int = 65535

    def __post_init__(self) -> None:
        if not self.flags <= TCP_FLAGS:
            raise ValueError(f"unknown TCP flags: {self.flags - TCP_FLAGS}")

    # -- convenience predicates -------------------------------------------

    @property
    def syn(self) -> bool:
        return "SYN" in self.flags

    @property
    def ack_flag(self) -> bool:
        return "ACK" in self.flags

    @property
    def fin(self) -> bool:
        return "FIN" in self.flags

    @property
    def rst(self) -> bool:
        return "RST" in self.flags

    @property
    def payload_size(self) -> int:
        return len(self.payload)

    @property
    def seq_space(self) -> int:
        """Sequence-number space consumed (payload plus SYN/FIN)."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    def byte_size(self) -> int:
        return TCP_HEADER_BYTES + len(self.payload)

    def describe(self) -> str:
        flag_str = ",".join(sorted(self.flags)) or "-"
        return (
            f"TCP {self.src_port}->{self.dst_port} [{flag_str}] "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)}"
        )


def make_segment(
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    *flags: str,
    payload: bytes = b"",
) -> TcpSegment:
    """Terse constructor used heavily by tests and the hijacker."""
    return TcpSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=frozenset(flags),
        payload=payload,
    )
