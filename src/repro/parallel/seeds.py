"""Deterministic seed derivation for campaign units.

A parallel campaign must produce *exactly* the rows a serial run produces,
in the same order, no matter how its work lands on workers.  The only way
to guarantee that is to make every unit's seed (a fleet home, a search
program, a Table III spec, a fault injector's stream) a pure function of
the campaign's base seed and the unit's identity — never of submission
order, worker id, or wall clock.

``derive_seed`` hashes ``(base_seed, shard_key)`` with BLAKE2b, which is
stable across Python versions, platforms, and process boundaries (unlike
``hash()``, which is salted per process).  The derived seeds are
effectively independent 63-bit streams: two shards of the same campaign
never share one, and changing the base seed re-rolls all of them.
"""

from __future__ import annotations

import hashlib

#: Derived seeds are confined to 63 bits so they stay positive and fit the
#: platform ``Py_ssize_t`` everywhere ``random.Random`` is seeded from them.
_SEED_MASK = (1 << 63) - 1


def derive_seed(base_seed: int, shard_key: str) -> int:
    """A stable seed for ``shard_key`` under ``base_seed``.

    The mapping is part of the campaign-reproducibility contract: refactors
    must not reshuffle it, or every recorded table regenerated with a given
    ``--seed`` silently changes.  ``tests/test_parallel.py`` pins known
    values for exactly that reason.
    """
    material = f"{base_seed}\x1f{shard_key}".encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") & _SEED_MASK
