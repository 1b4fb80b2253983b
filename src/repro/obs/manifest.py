"""Run manifests: one JSONL artifact per campaign, diffable and loadable.

A campaign that ran is a campaign that can be audited: the manifest records
*what* ran (campaign, seed, jobs, fault profile, cache fingerprint, git
describe), *what it measured* (the campaign's merged metrics, one record
per metric, and its delay summaries), and *how each shard behaved*
(wall/CPU seconds, peak RSS, cache hit, in-process replay after a worker
failure).  The file is line-oriented JSON with a
schema-versioned header, written atomically, and loads back through
:meth:`RunManifest.load` for ``phantom-delay observe report|diff`` and
``repro.analysis``.

The metric records are the determinism contract: for the same campaign and
seed they are byte-identical for every ``jobs`` value, warm or cold, so
``diff`` of two equivalent runs reports zero drift while timing rows are
surfaced as context, never as drift.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..cache.store import default_cache_dir, write_atomically
from .metrics import MetricsRegistry
from .telemetry import ShardTelemetry

#: Bump when the manifest layout changes; loaders reject newer schemas.
MANIFEST_SCHEMA = 1

#: Environment override for where auto-named manifests land.
MANIFEST_DIR_ENV = "REPRO_MANIFEST_DIR"


@functools.cache
def git_describe() -> str:
    """Best-effort code identity (``unknown`` outside a git repo).

    Asked once per process: the code a process runs cannot change under it.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else "unknown"


def manifest_dir() -> Path:
    """Where auto-named campaign manifests are written.

    Defaults next to the campaign cache so test isolation of
    ``REPRO_CACHE_DIR`` isolates manifests too.
    """
    env = os.environ.get(MANIFEST_DIR_ENV)
    if env:
        return Path(env)
    return default_cache_dir() / "manifests"


def manifest_path_for(campaign: str, override: str | os.PathLike | None = None) -> Path:
    """The deterministic manifest path of one campaign."""
    if override is not None:
        return Path(override)
    return manifest_dir() / f"{campaign}.jsonl"


@dataclass(frozen=True)
class ShardRow:
    """One shard's account in the manifest."""

    index: int
    key: str
    seed: int | None
    cached: bool = False
    replayed: bool = False
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_kb: int = 0
    events: int = 0

    def to_record(self) -> dict[str, Any]:
        return {
            "record": "shard",
            "index": self.index,
            "key": self.key,
            "seed": self.seed,
            "cached": self.cached,
            "replayed": self.replayed,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "events": self.events,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ShardRow":
        return cls(
            index=record["index"],
            key=record["key"],
            seed=record.get("seed"),
            cached=record.get("cached", False),
            replayed=record.get("replayed", False),
            wall_seconds=record.get("wall_seconds", 0.0),
            cpu_seconds=record.get("cpu_seconds", 0.0),
            peak_rss_kb=record.get("peak_rss_kb", 0),
            events=record.get("events", 0),
        )

    @classmethod
    def from_telemetry(cls, index: int, key: str, seed: int | None,
                       telemetry: ShardTelemetry | None) -> "ShardRow":
        if telemetry is None:
            return cls(index=index, key=key, seed=seed)
        usage = telemetry.usage
        return cls(
            index=index,
            key=key,
            seed=seed,
            cached=telemetry.cached,
            replayed=telemetry.replayed,
            wall_seconds=usage.wall_seconds if usage else 0.0,
            cpu_seconds=usage.cpu_seconds if usage else 0.0,
            peak_rss_kb=usage.peak_rss_kb if usage else 0,
            events=telemetry.events_processed(),
        )


@dataclass
class RunManifest:
    """In-memory form of one campaign manifest."""

    header: dict[str, Any]
    metrics: tuple[dict[str, Any], ...] = ()
    shards: tuple[ShardRow, ...] = ()
    attribution: tuple[dict[str, Any], ...] = ()

    # ------------------------------------------------------------- building

    @classmethod
    def build(
        cls,
        campaign: str,
        seed: int,
        jobs: int,
        metrics: MetricsRegistry,
        shard_rows: tuple[ShardRow, ...],
        fault_profile: str | None = None,
        cache_fingerprint: str | None = None,
        wall_seconds: float = 0.0,
    ) -> "RunManifest":
        header = {
            "record": "header",
            "schema": MANIFEST_SCHEMA,
            "campaign": campaign,
            "seed": seed,
            "jobs": jobs,
            "shards": len(shard_rows),
            "cached_shards": sum(1 for r in shard_rows if r.cached),
            "replayed_shards": sum(1 for r in shard_rows if r.replayed),
            "fault_profile": fault_profile,
            "cache_fingerprint": cache_fingerprint,
            "git_describe": git_describe(),
            "wall_seconds": round(wall_seconds, 6),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        records = tuple(metrics.snapshot())
        return cls(
            header=header,
            metrics=records,
            shards=shard_rows,
            attribution=delay_attribution_summary(records),
        )

    # ---------------------------------------------------------------- views

    @property
    def campaign(self) -> str:
        return self.header.get("campaign", "?")

    def metric_index(self) -> dict[tuple[str, str, tuple[tuple[str, str], ...]],
                                   dict[str, Any]]:
        return {
            (r["component"], r["name"], tuple(sorted(r.get("labels", {}).items()))): r
            for r in self.metrics
        }

    # ----------------------------------------------------------------- I/O

    def records(self) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = [self.header]
        out.extend({"record": "metric", **r} for r in self.metrics)
        out.extend(row.to_record() for row in self.shards)
        if self.attribution:
            out.append({"record": "attribution", "summaries": list(self.attribution)})
        return out

    def write(self, path: str | os.PathLike) -> Path:
        """Write the manifest atomically (see :func:`write_atomically`)."""
        blob = "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records())
        return write_atomically(path, blob)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunManifest":
        """Read a manifest back; record kinds it does not know are skipped."""
        header: dict[str, Any] | None = None
        metrics: list[dict[str, Any]] = []
        shards: list[ShardRow] = []
        attribution: tuple[dict[str, Any], ...] = ()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("record")
                if kind == "header":
                    if record.get("schema", 0) > MANIFEST_SCHEMA:
                        raise ValueError(
                            f"manifest schema {record.get('schema')} is newer than "
                            f"supported ({MANIFEST_SCHEMA}); upgrade the tooling"
                        )
                    header = record
                elif kind == "metric":
                    metrics.append({k: v for k, v in record.items() if k != "record"})
                elif kind == "shard":
                    shards.append(ShardRow.from_record(record))
                elif kind == "attribution":
                    attribution = tuple(record.get("summaries", ()))
        if header is None:
            raise ValueError(f"not a campaign manifest (no header record): {path}")
        return cls(
            header=header,
            metrics=tuple(metrics),
            shards=tuple(shards),
            attribution=attribution,
        )


# -------------------------------------------------------------- derivations


def delay_attribution_summary(
    records: Iterable[dict[str, Any]],
) -> tuple[dict[str, Any], ...]:
    """Campaign-level delay summaries, from harvested result metrics.

    Every numeric result metric whose name mentions delay/hold/window is a
    measured phantom-delay quantity; the summary carries its count, mean,
    and extrema so two manifests can be diffed for attribution drift.
    """
    out = []
    for record in records:
        if record["component"] != "campaign" or record["name"] != "result_metric":
            continue
        metric = dict(record.get("labels", {})).get("metric", "")
        lowered = metric.lower()
        if not any(word in lowered for word in ("delay", "hold", "window", "release")):
            continue
        out.append({
            "metric": metric,
            "count": record["count"],
            "mean": record["mean"],
            "min": record["min"],
            "max": record["max"],
        })
    return tuple(out)


# --------------------------------------------------------------------- diff


@dataclass
class ManifestDiff:
    """Outcome of diffing two manifests (``a`` = reference, ``b`` = new)."""

    a: RunManifest
    b: RunManifest
    metric_drift: list[dict[str, Any]] = field(default_factory=list)
    attribution_deltas: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the deterministic sections agree exactly."""
        return not self.metric_drift and not self.attribution_deltas


#: Fields compared per metric kind; every one is merge-order independent.
_COMPARED_FIELDS = {
    "counter": ("value",),
    "gauge": ("value", "high_water"),
    "histogram": ("count", "min", "max", "p50", "p95", "p99"),
}


def diff_manifests(a: RunManifest, b: RunManifest) -> ManifestDiff:
    """Compare the deterministic sections of two manifests.

    Metric drift covers counts, values, and quantiles; attribution deltas
    cover the per-metric delay summaries.  Shard-row timing differences and
    cached/replayed flags are reported as notes — they describe *how* a run
    executed, not *what* it measured.
    """
    diff = ManifestDiff(a=a, b=b)
    index_a, index_b = a.metric_index(), b.metric_index()
    for key in sorted(set(index_a) | set(index_b)):
        rec_a, rec_b = index_a.get(key), index_b.get(key)
        component, name, labels = key
        label_str = ",".join(f"{k}={v}" for k, v in labels)
        if rec_a is None or rec_b is None:
            diff.metric_drift.append({
                "metric": f"{component}/{name}" + (f"[{label_str}]" if label_str else ""),
                "field": "presence",
                "a": None if rec_a is None else "present",
                "b": None if rec_b is None else "present",
            })
            continue
        for fieldname in _COMPARED_FIELDS.get(rec_a["kind"], ()):
            va, vb = rec_a.get(fieldname), rec_b.get(fieldname)
            if va != vb:
                diff.metric_drift.append({
                    "metric": f"{component}/{name}"
                              + (f"[{label_str}]" if label_str else ""),
                    "field": fieldname,
                    "a": va,
                    "b": vb,
                })
    attr_a = {entry["metric"]: entry for entry in a.attribution}
    attr_b = {entry["metric"]: entry for entry in b.attribution}
    for metric in sorted(set(attr_a) | set(attr_b)):
        ea, eb = attr_a.get(metric), attr_b.get(metric)
        if ea is None or eb is None or any(
            ea.get(f) != eb.get(f) for f in ("count", "mean", "min", "max")
        ):
            diff.attribution_deltas.append({"metric": metric, "a": ea, "b": eb})
    if len(a.shards) != len(b.shards):
        diff.notes.append(
            f"shard count differs: {len(a.shards)} vs {len(b.shards)}"
        )
    replayed_a = sum(1 for r in a.shards if r.replayed)
    replayed_b = sum(1 for r in b.shards if r.replayed)
    if replayed_a != replayed_b:
        diff.notes.append(
            f"degraded-run difference: {replayed_a} vs {replayed_b} shard(s) "
            "replayed in-process after worker failures"
        )
    cached_a = sum(1 for r in a.shards if r.cached)
    cached_b = sum(1 for r in b.shards if r.cached)
    if cached_a != cached_b:
        diff.notes.append(
            f"cache usage differs: {cached_a} vs {cached_b} shard(s) from cache"
        )
    return diff
