"""Simulated TLS: record protection decoupled from any timeout detection."""

from .errors import (
    HandshakeError,
    MacVerificationError,
    RecordFormatError,
    TlsError,
)
from .record import (
    CONTENT_ALERT,
    CONTENT_APPLICATION,
    CONTENT_HANDSHAKE,
    HEADER_BYTES,
    MAC_BYTES,
    MAX_RECORD_PAYLOAD,
    RecordReader,
    RecordWriter,
    derive_keys,
)
from .session import GLOBAL_ESCROW, KeyEscrow, RECORD_OVERHEAD, TlsSession

__all__ = [
    "CONTENT_ALERT",
    "CONTENT_APPLICATION",
    "CONTENT_HANDSHAKE",
    "GLOBAL_ESCROW",
    "HEADER_BYTES",
    "HandshakeError",
    "KeyEscrow",
    "MAC_BYTES",
    "MAX_RECORD_PAYLOAD",
    "MacVerificationError",
    "RECORD_OVERHEAD",
    "RecordFormatError",
    "RecordReader",
    "RecordWriter",
    "TlsError",
    "TlsSession",
    "derive_keys",
]
