"""TLS session: simulated handshake plus protected message exchange.

**Key exchange model.**  Real deployments establish session keys via a key
exchange the on-path attacker cannot solve.  We simulate that with a
:class:`KeyEscrow`: the client generates a fresh master secret, registers it
under an opaque token, and the handshake carries only the token.  Legitimate
endpoints redeem the token from the escrow; attacker code in
:mod:`repro.core` never touches the escrow — it sees only bytes on the wire.
(DESIGN.md documents this substitution.)

**Timeouts.**  Deliberately, there are none here: TLS provides integrity and
confidentiality but no timeliness — the decoupling at the heart of the
paper.  Any liveness checking must come from TCP below (forgeable) or the
application above (what the paper measures).

**Performance.**  Every record a session seals or opens goes through the
shared record memo in :mod:`repro.tls.record`: the writer publishes each
record's MAC and plaintext under the (seq-keyed) inputs of the reader's
check, and the peer's reader pops the entry and compares the MAC instead
of recomputing the HMAC and keystream — halving per-record crypto for
the keep-alive traffic that dominates a simulated day (see "Event-core
performance" in docs/API.md).  The memo is a fast path, never a trust
path: tampering, replay, or reordering changes a memo key component and
falls back to an honest recompute that still raises
:class:`~repro.tls.errors.MacVerificationError`.
"""

from __future__ import annotations

import struct
from typing import Callable, TYPE_CHECKING

from ..tcp.connection import TcpConnection
from .errors import HandshakeError, MacVerificationError, RecordFormatError
from .record import (
    CONTENT_ALERT,
    CONTENT_APPLICATION,
    CONTENT_HANDSHAKE,
    HEADER_BYTES,
    MAC_BYTES,
    RecordReader,
    RecordWriter,
    TLS_VERSION,
    derive_keys,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: Per-message wire overhead: record header + truncated HMAC.
RECORD_OVERHEAD = HEADER_BYTES + MAC_BYTES

_CLIENT_HELLO = b"CHLO"
_SERVER_HELLO = b"SHLO"
_TOKEN_BYTES = 16


class KeyEscrow:
    """Out-of-band stand-in for the key exchange (see module docstring)."""

    def __init__(self) -> None:
        self._secrets: dict[bytes, bytes] = {}

    def register(self, token: bytes, master_secret: bytes) -> None:
        if token in self._secrets:
            raise HandshakeError("token collision in key escrow")
        self._secrets[token] = master_secret

    def redeem(self, token: bytes) -> bytes:
        try:
            return self._secrets[token]
        except KeyError:
            raise HandshakeError("unknown handshake token") from None


#: Default escrow shared by all sessions in a simulation unless overridden.
GLOBAL_ESCROW = KeyEscrow()


def _plain_record(content_type: int, body: bytes) -> bytes:
    return struct.pack("!B2sH", content_type, TLS_VERSION, len(body)) + body


class TlsSession:
    """One endpoint of a TLS-protected TCP connection.

    Message boundaries are preserved: one ``send_message`` becomes exactly
    one record, so observed wire sizes are ``len(message) +
    RECORD_OVERHEAD`` — the invariant the traffic fingerprinting relies on.
    """

    def __init__(
        self,
        conn: TcpConnection,
        role: str,
        escrow: KeyEscrow | None = None,
        on_established: Callable[["TlsSession"], None] | None = None,
        on_message: Callable[["TlsSession", bytes], None] | None = None,
        on_closed: Callable[["TlsSession", str], None] | None = None,
    ) -> None:
        if role not in ("client", "server"):
            raise ValueError(f"bad role: {role}")
        self.conn = conn
        self.sim: "Simulator" = conn.sim
        self.role = role
        self.escrow = escrow or GLOBAL_ESCROW
        self.on_established = on_established
        self.on_message = on_message
        self.on_closed = on_closed

        self.established = False
        self.closed = False
        self.close_reason: str | None = None
        self.alerts_raised: list[str] = []
        self._writer: RecordWriter | None = None
        self._reader: RecordReader | None = None
        self._plain_buffer = bytearray()
        self._pending_sends: list[tuple[int, bytes]] = []

        conn.callbacks.on_connected = self._on_tcp_connected
        conn.callbacks.on_data = self._on_tcp_data
        conn.callbacks.on_closed = self._on_tcp_closed
        if conn.established and role == "client":
            self._start_client_handshake()

    # ------------------------------------------------------------ handshake

    def _on_tcp_connected(self, conn: TcpConnection) -> None:
        if self.role == "client":
            self._start_client_handshake()

    def _start_client_handshake(self) -> None:
        rng = self.sim.rng
        master = bytes(rng.getrandbits(8) for _ in range(32))
        token = bytes(rng.getrandbits(8) for _ in range(_TOKEN_BYTES))
        self.escrow.register(token, master)
        self._install_keys(master)
        self.conn.send(_plain_record(CONTENT_HANDSHAKE, _CLIENT_HELLO + token))

    def _install_keys(self, master: bytes) -> None:
        write_role = self.role
        read_role = "server" if self.role == "client" else "client"
        self._writer = RecordWriter(*derive_keys(master, write_role))
        self._reader = RecordReader(*derive_keys(master, read_role))

    def _handle_handshake(self, body: bytes) -> None:
        kind, token = body[:4], body[4:]
        if self.role == "server" and kind == _CLIENT_HELLO:
            master = self.escrow.redeem(token)
            self._install_keys(master)
            self.conn.send(_plain_record(CONTENT_HANDSHAKE, _SERVER_HELLO + token))
            self._mark_established()
        elif self.role == "client" and kind == _SERVER_HELLO:
            self._mark_established()
        else:
            raise HandshakeError(f"unexpected handshake message {kind!r} for {self.role}")

    def _mark_established(self) -> None:
        self.established = True
        if self.on_established is not None:
            self.on_established(self)
        pending, self._pending_sends = self._pending_sends, []
        for content_type, payload in pending:
            self._seal_and_send(content_type, payload)

    # ----------------------------------------------------------------- send

    def send_message(self, payload: bytes) -> None:
        """Protect and send one application message as one record."""
        if self.closed:
            raise RuntimeError("TLS session is closed")
        if not self.established:
            self._pending_sends.append((CONTENT_APPLICATION, payload))
            return
        self._seal_and_send(CONTENT_APPLICATION, payload)

    def _seal_and_send(self, content_type: int, payload: bytes) -> None:
        assert self._writer is not None
        record = self._writer.seal(content_type, payload)
        obs = self.sim.obs
        if obs.enabled and content_type == CONTENT_APPLICATION:
            obs.registry.counter("tls", "records_sealed", role=self.role).inc()
            if obs.tracer.current is not None:
                # Child of the ambient message span (appproto dispatch).
                obs.tracer.event("tls", "record", role=self.role, size=len(record))
        self.conn.send(record)

    def wire_size(self, payload_len: int) -> int:
        """Wire bytes one message of ``payload_len`` occupies (record only)."""
        return payload_len + RECORD_OVERHEAD

    # -------------------------------------------------------------- receive

    def _on_tcp_data(self, conn: TcpConnection, data: bytes) -> None:
        if self.closed:
            return
        if not self.established:
            self._feed_plain(data)
            return
        try:
            assert self._reader is not None
            records = self._reader.feed(data)
        except (MacVerificationError, RecordFormatError) as exc:
            self._fatal_alert(str(exc))
            return
        for content_type, plaintext in records:
            self._dispatch(content_type, plaintext)

    def _feed_plain(self, data: bytes) -> None:
        """Parse plaintext handshake records before keys are active."""
        self._plain_buffer += data
        while len(self._plain_buffer) >= HEADER_BYTES:
            content_type, version, length = struct.unpack(
                "!B2sH", bytes(self._plain_buffer[:HEADER_BYTES])
            )
            if len(self._plain_buffer) < HEADER_BYTES + length:
                return
            body = bytes(self._plain_buffer[HEADER_BYTES : HEADER_BYTES + length])
            del self._plain_buffer[: HEADER_BYTES + length]
            if content_type != CONTENT_HANDSHAKE:
                self._fatal_alert("non-handshake record before keys established")
                return
            try:
                self._handle_handshake(body)
            except HandshakeError as exc:
                self._fatal_alert(str(exc))
                return
            if self.established:
                # Remaining buffered bytes are protected records.
                rest = bytes(self._plain_buffer)
                self._plain_buffer.clear()
                if rest:
                    self._on_tcp_data(self.conn, rest)
                return

    def _dispatch(self, content_type: int, plaintext: bytes) -> None:
        if content_type == CONTENT_APPLICATION:
            if self.on_message is not None:
                self.on_message(self, plaintext)
        elif content_type == CONTENT_ALERT:
            self._close(f"tls-alert-received:{plaintext.decode(errors='replace')}")
        elif content_type == CONTENT_HANDSHAKE:
            # Renegotiation is out of scope; ignore quietly.
            pass

    # ------------------------------------------------------------- teardown

    def _fatal_alert(self, description: str) -> None:
        """Integrity violation: alert the peer and kill the session.

        This is the loud failure the phantom-delay attacker avoids by never
        touching record bytes or ordering.
        """
        self.alerts_raised.append(description)
        obs = self.sim.obs
        if obs.enabled:
            obs.registry.counter("tls", "integrity_alerts", role=self.role).inc()
        inv = self.sim.invariants
        if inv is not None:
            inv.on_tls_alert(
                f"{self.role}@{self.conn.flow_label()}", description
            )
        if self.conn.is_open and self.conn.established and self._writer is not None:
            # Our *reader* is desynchronised but our writer is not, so the
            # peer can still verify a sealed alert.
            try:
                self._seal_and_send(CONTENT_ALERT, description.encode()[:200])
            except RuntimeError:
                pass
        self._close(f"tls-alert-sent:{description}")
        self.conn.abort("tls-integrity-failure")

    def close(self) -> None:
        """Orderly application-initiated close."""
        self._close("local-close")
        self.conn.close()

    def _on_tcp_closed(self, conn: TcpConnection, reason: str) -> None:
        self._close(f"tcp:{reason}")

    def _close(self, reason: str) -> None:
        if self.closed:
            return
        self.closed = True
        self.close_reason = reason
        if self.on_closed is not None:
            self.on_closed(self, reason)
