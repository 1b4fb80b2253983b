"""The record layer against a reference copy of the two-memo implementation.

``RecordWriter`` and ``RecordReader`` below are the record layer as it was
before it kept one shared record memo and parsed records in place: two
pop-on-consume memos (keystreams and MACs), a ``bytearray`` stream buffer
and a parsed ``TlsRecord`` per record.  The one addition to the copy is the
length bound the reader now enforces (``record_overflow``).  Hypothesis
drives both with the same records, chunking, memo state and at most one
fault, and they must agree on every feed's records, on the exception and
where it is raised, and on the reader's final ``seq`` and buffered bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct

from hypothesis import given, settings, strategies as st

from repro.tls import record
from repro.tls.errors import MacVerificationError, RecordFormatError, TlsError
from repro.tls.record import (
    CONTENT_ALERT,
    CONTENT_APPLICATION,
    CONTENT_HANDSHAKE,
    HEADER_BYTES,
    MAC_BYTES,
    MAX_RECORD_PAYLOAD,
    TLS_VERSION,
    derive_keys,
)
from repro.values import value

# ------------------------------------------------------------- reference


@value
class TlsRecord:
    """A parsed (still encrypted) record."""

    content_type: int
    ciphertext: bytes
    mac: bytes


class _Memo:
    __slots__ = ("cache", "max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 512) -> None:
        self.cache: dict = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def take(self, key):
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


_KEYSTREAM_MEMO = _Memo()
_MAC_MEMO = _Memo()


def _keystream(primed, seq: int, length: int) -> bytes:
    prefix = seq.to_bytes(8, "big")
    blocks = []
    for block in range((length + 31) // 32):
        digest = primed.copy()
        digest.update(prefix + block.to_bytes(4, "big"))
        blocks.append(digest.digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, keystream: bytes) -> bytes:
    size = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(size, "big")


def _mac_input(seq: int, content_type: int, ciphertext: bytes) -> bytes:
    header = struct.pack("!B2sH", content_type, TLS_VERSION, len(ciphertext))
    return seq.to_bytes(8, "big") + header + ciphertext


def _record_mac(mac_key: bytes, seq: int, content_type: int, ciphertext: bytes) -> bytes:
    key = (mac_key, seq, content_type, ciphertext)
    mac = _MAC_MEMO.take(key)
    if mac is None:
        mac = hmac.new(
            mac_key, _mac_input(seq, content_type, ciphertext), hashlib.sha256
        ).digest()[:MAC_BYTES]
        _MAC_MEMO.put(key, mac)
    return mac


class RecordWriter:
    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._keystream_hash = hashlib.sha256(enc_key)
        self._mac_key = mac_key
        self.seq = 0

    def seal(self, content_type: int, plaintext: bytes) -> bytes:
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
    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._keystream_hash = hashlib.sha256(enc_key)
        self._mac_key = mac_key
        self.seq = 0
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
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
        if length > MAX_RECORD_PAYLOAD + MAC_BYTES:  # the one addition
            raise RecordFormatError(f"record overflow: {length}")
        if len(self._buffer) < HEADER_BYTES + length:
            return None
        body = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
        del self._buffer[: HEADER_BYTES + length]
        return TlsRecord(content_type, body[:-MAC_BYTES], body[-MAC_BYTES:])

    def _open(self, record: TlsRecord) -> tuple[int, bytes]:
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


# ------------------------------------------------------------ the property

_CONTENT_TYPES = (CONTENT_HANDSHAKE, CONTENT_APPLICATION, CONTENT_ALERT)


@st.composite
def _plaintexts(draw) -> bytes:
    """Mostly short plaintexts, sometimes a full-size record.  The full size
    is expanded from a drawn seed: Hypothesis cannot draw 16 KiB directly."""
    if draw(st.integers(0, 7)) == 0:
        return random.Random(draw(st.integers(0, 2**32))).randbytes(MAX_RECORD_PAYLOAD)
    return draw(st.binary(max_size=300))


_RECORDS = st.lists(st.tuples(st.sampled_from(_CONTENT_TYPES), _plaintexts()), max_size=6)


def _fault(data, wires: list[bytes]) -> list[bytes]:
    """At most one fault on the sealed records: a flipped byte, or a
    dropped, duplicated or swapped record."""
    kinds = ["none"]
    if wires:
        kinds += ["flip", "drop", "duplicate"]
    if len(wires) > 1:
        kinds.append("swap")
    kind = data.draw(st.sampled_from(kinds), label="fault")
    if kind == "none":
        return wires
    if kind == "flip":
        # Any byte of one record, its header as often as the rest.
        i = data.draw(st.integers(0, len(wires) - 1), label="flip record")
        wire = bytearray(wires[i])
        at = data.draw(
            st.one_of(st.integers(0, HEADER_BYTES - 1), st.integers(0, len(wire) - 1)),
            label="flip at",
        )
        # 0x80 is the mask the fault injector's corrupt mode flips.
        wire[at] ^= data.draw(st.one_of(st.just(0x80), st.integers(1, 255)), label="flip mask")
        return wires[:i] + [bytes(wire)] + wires[i + 1 :]
    if kind == "swap":
        i = data.draw(st.integers(0, len(wires) - 2), label="swap at")
        return wires[:i] + [wires[i + 1], wires[i]] + wires[i + 2 :]
    i = data.draw(st.integers(0, len(wires) - 1), label=f"{kind} at")
    if kind == "drop":
        return wires[:i] + wires[i + 1 :]
    return wires[: i + 1] + [wires[i]] + wires[i + 1 :]


def _chunks(data, stream: bytes) -> list[bytes]:
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8), label="cuts"))
    bounds = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _drive(reader, chunks: list[bytes]) -> list:
    """Each feed's records, up to and including the first exception's class."""
    outcomes: list = []
    for chunk in chunks:
        try:
            outcomes.append(reader.feed(chunk))
        except TlsError as exc:
            outcomes.append(type(exc))
            break
    return outcomes


class TestAgainstReference:
    @given(_RECORDS, st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_reference(self, records, warm, data):
        record.reset_memo()
        _KEYSTREAM_MEMO.clear()
        _MAC_MEMO.clear()
        keys = derive_keys(b"r" * 32, "client")
        writer, ref_writer = record.RecordWriter(*keys), RecordWriter(*keys)
        wires = [writer.seal(ct, plaintext) for ct, plaintext in records]
        assert wires == [ref_writer.seal(ct, plaintext) for ct, plaintext in records]
        if not warm:
            record.reset_memo()
            _KEYSTREAM_MEMO.clear()
            _MAC_MEMO.clear()
        chunks = _chunks(data, b"".join(_fault(data, wires)))

        reader, ref_reader = record.RecordReader(*keys), RecordReader(*keys)
        outcomes = _drive(reader, chunks)
        assert outcomes == _drive(ref_reader, chunks)
        assert reader.seq == ref_reader.seq
        assert bytes(reader._buffer) == bytes(ref_reader._buffer)
        if b"".join(chunks) == b"".join(wires):
            assert [r for out in outcomes for r in out] == records
        record.reset_memo()
