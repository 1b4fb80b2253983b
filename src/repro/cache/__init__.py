"""Content-addressed campaign cache: re-run nothing the code already ran.

Public surface:

* :class:`CampaignCache` — the disk store: ``key_for`` / ``get`` / ``put``
  plus the ``stats`` / ``verify`` / ``gc`` maintenance surface behind
  ``phantom-delay cache``;
* :func:`resolve_cache` — normalises the ``cache=`` argument a
  :class:`~repro.parallel.CampaignRunner` accepts (``True`` → default
  store, ``False``/``None`` → off, instance → itself);
* :func:`code_fingerprint` / :func:`canonical` / :func:`digest` — the key
  derivation, pinned by golden digests in ``tests/test_cache.py``.

See ``docs/API.md`` for the keying rules and invalidation model.
"""

from .keys import KEY_SCHEMA, canonical, code_fingerprint, digest, qualified_name
from .store import (
    CACHE_DIR_ENV,
    CacheKey,
    CacheLookup,
    CampaignCache,
    VerifyOutcome,
    default_cache_dir,
    resolve_cache,
)

__all__ = [
    "CACHE_DIR_ENV",
    "KEY_SCHEMA",
    "CacheKey",
    "CacheLookup",
    "CampaignCache",
    "VerifyOutcome",
    "canonical",
    "code_fingerprint",
    "default_cache_dir",
    "digest",
    "qualified_name",
    "resolve_cache",
]
