"""TLS failure types.

A phantom-delay attacker must never trip these: the whole point of the
attack is that holding and releasing records *in order* keeps the record
layer silent, while any forge / modify / drop / reorder attempt raises one
of the errors below and tears the session down with a fatal alert
(Clarification I in the paper).
"""

from __future__ import annotations


class TlsError(Exception):
    """Base class for all TLS-layer failures."""


class HandshakeError(TlsError):
    """The simulated key exchange could not complete."""


class RecordFormatError(TlsError):
    """A record could not be parsed from the byte stream."""


class MacVerificationError(TlsError):
    """Record MAC did not verify — data was forged or modified in flight."""
