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

This mirrors a TLS 1.2 AEAD cipher suite closely enough for every behaviour
the paper exercises.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from ..values import value
from .errors import MacVerificationError, RecordFormatError

# Record content types (TLS registry values).
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION = 23
CONTENT_ALERT = 21

TLS_VERSION = b"\x03\x03"  # TLS 1.2
MAC_BYTES = 16
HEADER_BYTES = 5
MAX_RECORD_PAYLOAD = 2**14


@value
class TlsRecord:
    """A parsed (still encrypted) record."""

    content_type: int
    ciphertext: bytes
    mac: bytes

    def byte_size(self) -> int:
        return HEADER_BYTES + len(self.ciphertext) + len(self.mac)


def derive_keys(master_secret: bytes, role: str) -> tuple[bytes, bytes]:
    """Derive (encryption_key, mac_key) for the writer identified by role."""
    if role not in ("client", "server"):
        raise ValueError(f"bad role: {role}")
    enc = hashlib.sha256(master_secret + role.encode() + b":enc").digest()
    mac = hashlib.sha256(master_secret + role.encode() + b":mac").digest()
    return enc, mac


class _Memo:
    """Bounded pair memo for crypto shared between a writer and a reader.

    Both endpoints of a simulated session live in one process, so every
    keystream and record MAC is computed twice: once by the sealing
    :class:`RecordWriter` and once more — over byte-identical inputs — by
    the verifying :class:`RecordReader`.  The memo stores the writer-side
    result keyed on the full input (the key material, the **sequence
    number** the keystream/MAC is derived from, and the data) so the
    reader's recomputation is a dictionary hit.

    Entries are popped when consumed (each record is opened exactly once;
    a replay or a tampered record changes the key and recomputes from
    scratch, so verification failures are never masked) and evicted FIFO
    past ``max_entries`` so records that were sealed but never delivered
    cannot grow the memo without bound.
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


#: Keystream memo: ``(enc_key, seq, length) -> keystream bytes``.
_KEYSTREAM_MEMO = _Memo()
#: Record-MAC memo: ``(mac_key, seq, content_type, ciphertext) -> mac``.
_MAC_MEMO = _Memo()


def memo_stats() -> dict[str, int]:
    """Hit/miss counters for the shared TLS encode memos (see docs/API.md)."""
    return {
        "keystream_hits": _KEYSTREAM_MEMO.hits,
        "keystream_misses": _KEYSTREAM_MEMO.misses,
        "mac_hits": _MAC_MEMO.hits,
        "mac_misses": _MAC_MEMO.misses,
    }


def reset_memo() -> None:
    """Drop all memoised TLS state and zero the counters (test isolation)."""
    _KEYSTREAM_MEMO.clear()
    _MAC_MEMO.clear()


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


def _mac_input(seq: int, content_type: int, ciphertext: bytes) -> bytes:
    header = struct.pack("!B2sH", content_type, TLS_VERSION, len(ciphertext))
    return seq.to_bytes(8, "big") + header + ciphertext


def _record_mac(mac_key: bytes, seq: int, content_type: int, ciphertext: bytes) -> bytes:
    """Truncated record HMAC, memoised between sealing and verification.

    The memo key carries every HMAC input, so a hit is byte-for-byte the
    value a recomputation would produce; any difference in the record a
    verifier sees (tampered ciphertext, shifted seq, altered type) misses
    the memo and is recomputed honestly — and then fails comparison.
    """
    key = (mac_key, seq, content_type, ciphertext)
    mac = _MAC_MEMO.take(key)
    if mac is None:
        mac = hmac.new(
            mac_key, _mac_input(seq, content_type, ciphertext), hashlib.sha256
        ).digest()[:MAC_BYTES]
        _MAC_MEMO.put(key, mac)
    return mac


class RecordWriter:
    """Seals plaintext into records for one direction of a session."""

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._keystream_hash = hashlib.sha256(enc_key)
        self._mac_key = mac_key
        self.seq = 0

    def seal(self, content_type: int, plaintext: bytes) -> bytes:
        """Encrypt + MAC + frame one record; advances the sequence number.

        The keystream and MAC are published to the shared memos so the
        peer's :class:`RecordReader` — which must derive byte-identical
        values from the same (key, seq) inputs — reuses them instead of
        recomputing the hashes.
        """
        if len(plaintext) > MAX_RECORD_PAYLOAD:
            raise ValueError("plaintext exceeds maximum record size")
        seq = self.seq
        length = len(plaintext)
        ks_key = (self._enc_key, seq, length)
        keystream = _KEYSTREAM_MEMO.take(ks_key)
        if keystream is None:
            keystream = _keystream(self._keystream_hash, seq, length)
        _KEYSTREAM_MEMO.put(ks_key, keystream)
        ciphertext = _xor(plaintext, keystream)
        mac = _record_mac(self._mac_key, seq, content_type, ciphertext)
        self.seq += 1
        header = struct.pack("!B2sH", content_type, TLS_VERSION, len(ciphertext) + MAC_BYTES)
        return header + ciphertext + mac


class RecordReader:
    """Parses, verifies, and opens records for one direction of a session."""

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._keystream_hash = hashlib.sha256(enc_key)
        self._mac_key = mac_key
        self.seq = 0
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Append stream bytes; return all complete (type, plaintext) records.

        Raises :class:`MacVerificationError` when a record fails integrity or
        sequencing — which, because the sequence number is implicit, is also
        what drops, replays, and reorders look like.
        """
        self._buffer += data
        out: list[tuple[int, bytes]] = []
        while True:
            record = self._try_parse()
            if record is None:
                break
            out.append(self._open(record))
        return out

    def _try_parse(self) -> TlsRecord | None:
        if len(self._buffer) < HEADER_BYTES:
            return None
        content_type, version, length = struct.unpack("!B2sH", bytes(self._buffer[:HEADER_BYTES]))
        if version != TLS_VERSION:
            raise RecordFormatError(f"bad record version: {version!r}")
        if length < MAC_BYTES:
            raise RecordFormatError(f"record too short for MAC: {length}")
        if len(self._buffer) < HEADER_BYTES + length:
            return None
        body = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
        del self._buffer[: HEADER_BYTES + length]
        return TlsRecord(content_type, body[:-MAC_BYTES], body[-MAC_BYTES:])

    def _open(self, record: TlsRecord) -> tuple[int, bytes]:
        # Memo hit when the record is exactly what the peer sealed at this
        # seq; any tampering, replay, or reordering changes an input and
        # recomputes the HMAC from scratch — then fails the comparison.
        expected = _record_mac(
            self._mac_key, self.seq, record.content_type, record.ciphertext
        )
        if not hmac.compare_digest(expected, record.mac):
            raise MacVerificationError(
                f"record MAC mismatch at seq={self.seq} "
                "(forged, modified, replayed, dropped, or reordered data)"
            )
        length = len(record.ciphertext)
        keystream = _KEYSTREAM_MEMO.take((self._enc_key, self.seq, length))
        if keystream is None:
            keystream = _keystream(self._keystream_hash, self.seq, length)
        plaintext = _xor(record.ciphertext, keystream)
        self.seq += 1
        return record.content_type, plaintext
