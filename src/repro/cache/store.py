"""Disk-backed, content-addressed result cache for campaign shards.

Every campaign shard is a pure function of ``(fn, kwargs, seed)`` under a
given source tree, so its result can be reused for free: a warm
``phantom-delay all`` should cost file reads, not thousands of simulated
hours.  :class:`CampaignCache` stores one JSONL file per shard under
``~/.cache/repro-phantom-delay/`` (override with ``REPRO_CACHE_DIR``):

* line 1 — plain-JSON provenance: key digests, code fingerprint, repro
  version, wall seconds of the original run, creation timestamp, and a
  digest of the result payload (what ``cache verify`` re-checks);
* line 2 — the payload: the pickled result plus the pickled ``(fn,
  kwargs)`` call, base64-wrapped so the file stays line-oriented.

Robustness rules: entries are written atomically (temp file +
``os.replace``) so a crash can never leave a half-entry; a corrupted or
unreadable entry is a *miss*, never an exception; an entry written by a
different source tree is *stale* and is overwritten on the next put.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from ..parallel.seeds import derive_seed
from .keys import (
    KEY_SCHEMA,
    PICKLE_PROTOCOL,
    canonical,
    code_fingerprint,
    digest,
    qualified_name,
)

#: Environment override for the cache location (tests point it at a tmpdir).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-phantom-delay"


def write_atomically(path: str | os.PathLike, text: str) -> Path:
    """Write ``text`` to ``path`` so a reader sees the old file or the new.

    The text lands in a temp file beside ``path`` (``.<name>-*.tmp``) that
    ``os.replace`` moves over it; on any failure the temp file is removed
    and whatever ``path`` held is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return target


@dataclass(frozen=True)
class CacheKey:
    """Identity of one shard's cache entry."""

    fn: str
    shard_key: str
    seed: int | None
    logical: str  # digest of (fn, kwargs, seed) — names the entry file
    fingerprint: str  # digest of the src/repro tree the result must match


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of a :meth:`CampaignCache.get`."""

    status: str  # "hit" | "miss" | "stale"
    result: Any = None
    #: The shard's :class:`~repro.obs.telemetry.ShardTelemetry` as captured
    #: on the original run, so a warm campaign replays metrics
    #: byte-identically.  ``None`` for entries written before telemetry
    #: existed — the shard result still hits.
    telemetry: Any = None

    @property
    def hit(self) -> bool:
        return self.status == "hit"

    @property
    def stale(self) -> bool:
        return self.status == "stale"


@dataclass
class VerifyOutcome:
    """One re-executed entry from ``cache verify``."""

    logical: str
    fn: str
    shard_key: str
    ok: bool
    detail: str = ""


class CampaignCache:
    """Content-addressed store keyed by (fn, kwargs, seed, code fingerprint).

    One instance is cheap (the code fingerprint is computed once per
    process) and safe to share across runners; all methods tolerate
    concurrent writers because entries are immutable-once-replaced.
    """

    def __init__(self, root: str | Path | None = None,
                 fingerprint: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()

    @property
    def shard_dir(self) -> Path:
        return self.root / "shards"

    # ---------------------------------------------------------------- keys

    def key_for(self, shard: Any, base_seed: int) -> CacheKey:
        """The cache identity of one :class:`~repro.parallel.runner.Shard`.

        The seed is resolved exactly as the runner resolves it (explicit,
        else derived from ``(base_seed, shard.key)``; ``None`` when the
        shard takes no seed), and a ``faults`` kwarg is normalised through
        :func:`~repro.faults.profiles.resolve_profile` so a spec string
        and its equivalent profile share an entry.
        """
        seed: int | None = None
        if shard.pass_seed:
            seed = shard.seed if shard.seed is not None else derive_seed(
                base_seed, shard.key
            )
        kwargs = dict(shard.kwargs)
        if "faults" in kwargs and kwargs["faults"] is not None:
            from ..faults.profiles import resolve_profile

            kwargs["faults"] = resolve_profile(kwargs["faults"])
        fn = qualified_name(shard.fn)
        logical = digest(
            fn.encode(),
            canonical(kwargs),
            b"" if seed is None else b"%d" % seed,
        )
        return CacheKey(
            fn=fn,
            shard_key=shard.key,
            seed=seed,
            logical=logical,
            fingerprint=self.fingerprint,
        )

    def _path(self, logical: str) -> Path:
        return self.shard_dir / f"{logical}.jsonl"

    # -------------------------------------------------------------- lookup

    def get(self, key: CacheKey) -> CacheLookup:
        """Hit, miss, or stale — never raises on a damaged entry."""
        path = self._path(key.logical)
        try:
            with open(path) as fh:
                provenance = json.loads(fh.readline())
                payload = json.loads(fh.readline())
            if provenance.get("schema") != KEY_SCHEMA:
                return CacheLookup("miss")
            if provenance.get("logical") != key.logical:
                return CacheLookup("miss")
            if provenance.get("fingerprint") != key.fingerprint:
                return CacheLookup("stale")
            result = pickle.loads(base64.b64decode(payload["result"]))
        except FileNotFoundError:
            return CacheLookup("miss")
        except Exception:
            # Torn write, disk damage, an unpicklable edit: a cache must
            # degrade to a re-run, never take the campaign down.
            return CacheLookup("miss")
        telemetry = None
        telemetry_b64 = payload.get("telemetry")
        if telemetry_b64 is not None:
            try:
                telemetry = pickle.loads(base64.b64decode(telemetry_b64))
            except Exception:
                telemetry = None  # result is intact; telemetry degrades alone
        return CacheLookup("hit", result, telemetry=telemetry)

    def put(self, key: CacheKey, result: Any, wall_seconds: float,
            call: tuple[Callable[..., Any], dict[str, Any]] | None = None,
            telemetry: Any = None) -> None:
        """Store one shard result atomically; replaces any stale entry.

        ``telemetry`` is the shard's deterministic
        :class:`~repro.obs.telemetry.ShardTelemetry`; it rides in the
        payload so warm runs replay the captured metrics exactly.
        """
        from .. import __version__

        result_blob = pickle.dumps(result, protocol=PICKLE_PROTOCOL)
        payload: dict[str, Any] = {
            "result": base64.b64encode(result_blob).decode("ascii"),
        }
        if call is not None:
            call_blob = pickle.dumps(call, protocol=PICKLE_PROTOCOL)
            payload["call"] = base64.b64encode(call_blob).decode("ascii")
        if telemetry is not None:
            telemetry_blob = pickle.dumps(telemetry, protocol=PICKLE_PROTOCOL)
            payload["telemetry"] = base64.b64encode(telemetry_blob).decode("ascii")
        provenance = {
            "schema": KEY_SCHEMA,
            "logical": key.logical,
            "fn": key.fn,
            "shard_key": key.shard_key,
            "seed": key.seed,
            "fingerprint": key.fingerprint,
            "repro_version": __version__,
            "wall_seconds": round(wall_seconds, 6),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "result_digest": digest(result_blob),
        }
        blob = json.dumps(provenance) + "\n" + json.dumps(payload) + "\n"
        write_atomically(self._path(key.logical), blob)

    # ---------------------------------------------------------- maintenance

    def _iter_entries(self) -> Iterator[tuple[Path, dict[str, Any] | None]]:
        """Every entry file with its provenance (None when unparseable)."""
        if not self.shard_dir.is_dir():
            return
        for path in sorted(self.shard_dir.glob("*.jsonl")):
            try:
                with open(path) as fh:
                    provenance = json.loads(fh.readline())
                if not isinstance(provenance, dict):
                    provenance = None
            except Exception:
                provenance = None
            yield path, provenance

    def stats(self) -> dict[str, Any]:
        """On-disk accounting for ``phantom-delay cache stats``."""
        entries = fresh = stale = corrupt = 0
        total_bytes = 0
        saved_seconds = 0.0
        oldest: str | None = None
        newest: str | None = None
        for path, provenance in self._iter_entries():
            entries += 1
            total_bytes += path.stat().st_size
            if provenance is None:
                corrupt += 1
                continue
            if provenance.get("fingerprint") == self.fingerprint:
                fresh += 1
                saved_seconds += float(provenance.get("wall_seconds") or 0.0)
            else:
                stale += 1
            created = provenance.get("created_at")
            if created:
                oldest = created if oldest is None else min(oldest, created)
                newest = created if newest is None else max(newest, created)
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "entries": entries,
            "fresh": fresh,
            "stale": stale,
            "corrupt": corrupt,
            "bytes": total_bytes,
            "replayable_seconds": round(saved_seconds, 3),
            "oldest": oldest,
            "newest": newest,
        }

    def verify(self, sample: int = 3, seed: int = 0) -> list[VerifyOutcome]:
        """Re-run a seeded sample of fresh entries and diff the results.

        The entry's own pickled ``(fn, kwargs)`` call is replayed and the
        re-computed result digest compared against the stored one — a
        mismatch means either non-determinism or cache corruption, both of
        which must surface loudly.  Entries stored without a call payload
        (or from another source tree) are skipped.

        The sample is drawn with ``random.Random(seed)`` across *all*
        fresh entries (deterministic for a given seed and store content),
        not taken from the head of the directory listing — iteration order
        is sorted by digest, so "the first ``sample`` entries" would be
        the same few entries re-verified forever while the rest of the
        store never got checked.  Vary ``seed`` to walk the store.
        """
        import random

        candidates = [
            (path, provenance)
            for path, provenance in self._iter_entries()
            if provenance is not None
            and provenance.get("fingerprint") == self.fingerprint
        ]
        if 0 <= sample < len(candidates):
            candidates = random.Random(seed).sample(candidates, sample)
            candidates.sort(key=lambda item: item[0])  # stable output order
        outcomes: list[VerifyOutcome] = []
        for path, provenance in candidates:
            logical = provenance.get("logical", path.stem)
            try:
                with open(path) as fh:
                    fh.readline()
                    payload = json.loads(fh.readline())
                call_b64 = payload.get("call")
                if call_b64 is None:
                    continue
                fn, kwargs = pickle.loads(base64.b64decode(call_b64))
                rerun = fn(**kwargs)
                rerun_digest = digest(pickle.dumps(rerun, protocol=PICKLE_PROTOCOL))
                ok = rerun_digest == provenance.get("result_digest")
                detail = "" if ok else (
                    f"result drifted: {rerun_digest} != {provenance.get('result_digest')}"
                )
            except Exception as exc:  # damaged entry: report, don't crash
                ok, detail = False, f"replay failed: {exc!r}"
            outcomes.append(
                VerifyOutcome(
                    logical=logical,
                    fn=provenance.get("fn", "?"),
                    shard_key=provenance.get("shard_key", "?"),
                    ok=ok,
                    detail=detail,
                )
            )
        return outcomes

    def gc(self, everything: bool = False) -> tuple[int, int, int]:
        """Drop stale/corrupt entries (or all of them).

        Returns ``(removed, kept, failed)``.  ``failed`` counts entries
        whose ``unlink`` raised :class:`OSError`: they are still on disk
        but were *meant* to go, so folding them into "kept" (as this
        method once did) silently masked undeletable entries — callers
        must surface them, not re-report them as healthy.
        """
        removed = kept = failed = 0
        for path, provenance in self._iter_entries():
            drop = everything or provenance is None or (
                provenance.get("fingerprint") != self.fingerprint
            )
            if drop:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    failed += 1
            else:
                kept += 1
        return removed, kept, failed


def resolve_cache(cache: "CampaignCache | bool | None") -> CampaignCache | None:
    """Normalise the ``cache=`` argument accepted across the stack.

    ``True`` builds the default on-disk cache, ``False``/``None`` disables
    caching, and an existing :class:`CampaignCache` passes through — the
    same shape as :func:`~repro.faults.profiles.resolve_profile`.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return CampaignCache()
    return cache
