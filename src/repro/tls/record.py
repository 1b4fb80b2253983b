"""TLS record layer: framing, keystream encryption, and HMAC protection.

The reproduction keeps the two properties the paper's analysis needs, with
real cryptographic checks rather than trust:

1. **Integrity + ordering.**  Each direction keeps an implicit 64-bit
   sequence number; the record MAC is ``HMAC-SHA256(mac_key, seq || header ||
   ciphertext)``.  Forging, modifying, replaying, dropping, or reordering a
   record makes verification fail at the receiver (a
   :class:`~repro.tls.errors.MacVerificationError`), which in the sessions
   above triggers a fatal alert.  Crucially there is **no timestamp** and
   **no timeliness check** — a record held for an hour verifies perfectly.

2. **Confidentiality.**  Payloads are XORed with a per-record keystream
   derived from the encryption key and sequence number.  The on-path
   attacker handles ciphertext only; fingerprinting works from lengths.

A header whose length field exceeds :data:`MAX_RECORD_PAYLOAD` plus the
MAC is rejected at once with a
:class:`~repro.tls.errors.RecordFormatError`, as TLS does with
``record_overflow``, so a mangled length cannot stall the reader.

**Cost.**  Both ends of a simulated session live in one process.  The
writer seals each record once and publishes ``(mac, plaintext)`` to one
shared record memo under every input of the reader's check and
decryption; an honest record then costs its reader one dictionary pop and
one MAC comparison.  Each direction keys its HMAC and its keystream hash
once and copies them per record, and the reader parses headers in place
from the bytes TCP delivered, buffering only a partial tail.

This mirrors a TLS 1.2 AEAD cipher suite closely enough for every behaviour
the paper exercises.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from .errors import MacVerificationError, RecordFormatError

# Record content types (TLS registry values).
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION = 23
CONTENT_ALERT = 21

TLS_VERSION = b"\x03\x03"  # TLS 1.2
MAC_BYTES = 16
HEADER_BYTES = 5
MAX_RECORD_PAYLOAD = 2**14
#: The largest length a sealed record's header can carry.
MAX_RECORD_LENGTH = MAX_RECORD_PAYLOAD + MAC_BYTES

#: Record header: content type, version, length of what follows.
_HEADER = struct.Struct("!B2sH")
#: The MAC's input up to the ciphertext: seq, then the header with the
#: ciphertext's length.
_MAC_PREFIX = struct.Struct("!QB2sH")


def derive_keys(master_secret: bytes, role: str) -> tuple[bytes, bytes]:
    """Derive (encryption_key, mac_key) for the writer identified by role."""
    if role not in ("client", "server"):
        raise ValueError(f"bad role: {role}")
    enc = hashlib.sha256(master_secret + role.encode() + b":enc").digest()
    mac = hashlib.sha256(master_secret + role.encode() + b":mac").digest()
    return enc, mac


class _Memo:
    """Bounded memo of sealed records, shared by every writer and reader.

    Both endpoints of a simulated session live in one process, so the
    reader would recompute, over byte-identical inputs, the MAC and the
    keystream its peer's writer just computed.  The writer stores
    ``(mac, plaintext)`` under ``(enc_key, mac_key, seq, content_type,
    ciphertext)``: every input of the reader's check and decryption, the
    **sequence number** included.  So an entry is exactly what the
    reader would recompute for that key.

    The reader still compares the entry's MAC with the one on the wire.
    Entries are popped when consumed (each record is opened exactly once;
    a replay, a drop, a reorder or a tampered record changes the key and
    is recomputed from scratch, so verification failures are never
    masked) and evicted FIFO past ``max_entries`` so records that were
    sealed but never delivered cannot grow the memo without bound.
    """

    __slots__ = ("cache", "max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 512) -> None:
        self.cache: dict = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def take(self, key):
        """Pop and return the memoised value, or None on a miss."""
        value = self.cache.pop(key, None)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        cache = self.cache
        if len(cache) >= self.max_entries:
            del cache[next(iter(cache))]
        cache[key] = value

    def clear(self) -> None:
        self.cache.clear()
        self.hits = 0
        self.misses = 0


#: ``(enc_key, mac_key, seq, content_type, ciphertext) -> (mac, plaintext)``.
_RECORD_MEMO = _Memo()


def memo_stats() -> dict[str, int]:
    """The reader's hit/miss counters on the shared record memo (see docs/API.md)."""
    return {
        "record_hits": _RECORD_MEMO.hits,
        "record_misses": _RECORD_MEMO.misses,
    }


def reset_memo() -> None:
    """Drop all memoised TLS state and zero the counters (test isolation)."""
    _RECORD_MEMO.clear()


def _keystream(primed: "hashlib._Hash", seq: int, length: int) -> bytes:
    """Deterministic per-record keystream (counter-mode style).

    Block ``i`` is ``sha256(enc_key || seq || i)`` as 8- and 4-byte big-endian
    integers.  ``primed`` is ``sha256(enc_key)``, hashed once per direction;
    each block copies it and hashes only the counter bytes.
    """
    prefix = seq.to_bytes(8, "big")
    blocks = []
    for block in range((length + 31) // 32):
        digest = primed.copy()
        digest.update(prefix + block.to_bytes(4, "big"))
        blocks.append(digest.digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, keystream: bytes) -> bytes:
    """XOR ``data`` with ``keystream`` (same length) via big-int arithmetic."""
    size = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(size, "big")


def _record_mac(primed: hmac.HMAC, seq: int, content_type: int, ciphertext: bytes) -> bytes:
    """Truncated ``HMAC-SHA256(mac_key, seq || header || ciphertext)``.

    ``primed`` is ``hmac.new(mac_key, digestmod=sha256)``, keyed once per
    direction; each record copies it.
    """
    digest = primed.copy()
    digest.update(
        _MAC_PREFIX.pack(seq, content_type, TLS_VERSION, len(ciphertext)) + ciphertext
    )
    return digest.digest()[:MAC_BYTES]


class RecordWriter:
    """Seals plaintext into records for one direction of a session."""

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._keystream_hash = hashlib.sha256(enc_key)
        self._mac_key = mac_key
        self._mac_hash = hmac.new(mac_key, digestmod=hashlib.sha256)
        self.seq = 0

    def seal(self, content_type: int, plaintext: bytes) -> bytes:
        """Encrypt + MAC + frame one record; advances the sequence number.

        The MAC and plaintext are published to the shared record memo so
        the peer's :class:`RecordReader` can open the record without
        recomputing either.
        """
        length = len(plaintext)
        if length > MAX_RECORD_PAYLOAD:
            raise ValueError("plaintext exceeds maximum record size")
        seq = self.seq
        ciphertext = _xor(plaintext, _keystream(self._keystream_hash, seq, length))
        mac = _record_mac(self._mac_hash, seq, content_type, ciphertext)
        _RECORD_MEMO.put(
            (self._enc_key, self._mac_key, seq, content_type, ciphertext), (mac, plaintext)
        )
        self.seq = seq + 1
        return _HEADER.pack(content_type, TLS_VERSION, length + MAC_BYTES) + ciphertext + mac


class RecordReader:
    """Parses, verifies, and opens records for one direction of a session."""

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._keystream_hash = hashlib.sha256(enc_key)
        self._mac_key = mac_key
        self._mac_hash = hmac.new(mac_key, digestmod=hashlib.sha256)
        self.seq = 0
        #: The partial record left over from the last delivery.
        self._buffer = b""

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Append stream bytes; return all complete (type, plaintext) records.

        Raises :class:`MacVerificationError` when a record fails integrity or
        sequencing — which, because the sequence number is implicit, is also
        what drops, replays, and reorders look like — and
        :class:`RecordFormatError` for a header no sealed record carries.
        Either way the records before the bad one have been consumed; a
        malformed header stays buffered, a record that failed its MAC does
        not.
        """
        if self._buffer:
            data = self._buffer + data
        size = len(data)
        start = 0
        out: list[tuple[int, bytes]] = []
        try:
            while size - start >= HEADER_BYTES:
                content_type, version, length = _HEADER.unpack_from(data, start)
                if version != TLS_VERSION:
                    raise RecordFormatError(f"bad record version: {version!r}")
                if length < MAC_BYTES:
                    raise RecordFormatError(f"record too short for MAC: {length}")
                if length > MAX_RECORD_LENGTH:
                    raise RecordFormatError(
                        f"record overflow: length {length} > {MAX_RECORD_LENGTH}"
                    )
                end = start + HEADER_BYTES + length
                if end > size:
                    break
                mac_at = end - MAC_BYTES
                ciphertext = data[start + HEADER_BYTES : mac_at]
                mac = data[mac_at:end]
                start = end
                out.append(self._open(content_type, ciphertext, mac))
        finally:
            self._buffer = data[start:]
        return out

    def _open(self, content_type: int, ciphertext: bytes, mac: bytes) -> tuple[int, bytes]:
        # A memo hit is the record exactly as the peer sealed it at this
        # seq; any tampering, replay, or reordering changes the key and
        # recomputes the HMAC from scratch — then fails the comparison.
        seq = self.seq
        entry = _RECORD_MEMO.take(
            (self._enc_key, self._mac_key, seq, content_type, ciphertext)
        )
        if entry is None:
            expected = _record_mac(self._mac_hash, seq, content_type, ciphertext)
        else:
            expected, plaintext = entry
        if not hmac.compare_digest(expected, mac):
            raise MacVerificationError(
                f"record MAC mismatch at seq={seq} "
                "(forged, modified, replayed, dropped, or reordered data)"
            )
        if entry is None:
            plaintext = _xor(ciphertext, _keystream(self._keystream_hash, seq, len(ciphertext)))
        self.seq = seq + 1
        return content_type, plaintext
