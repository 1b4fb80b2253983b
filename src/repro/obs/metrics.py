"""Metrics substrate: counters, gauges, and streaming histograms.

The registry gives every layer of the reproduction one uniform way to
account for what it did — frames forwarded, segments retransmitted, alarms
raised, timer firing latencies — keyed by ``(component, name, labels)``.
Histograms are *streaming*: quantiles (p50/p95/p99) come from
logarithmically-bucketed counts, so recording a sample is O(1) and memory
stays bounded no matter how long a campaign runs.  The relative error of a
reported quantile is bounded by the bucket growth factor (default 5%).

Everything here is deliberately free of simulation imports: a registry
pickles as it is, which is how a shard's metrics cross the process pool
and land in the campaign cache, and its :meth:`MetricsRegistry.snapshot`
records are what a run manifest and ``export_jsonl`` write for offline
analysis (mirroring how TAPInspector-style rule checkers consume
structured event records rather than live state).
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from ..cache.store import write_atomically

#: Canonical identity of one metric: (component, name, sorted label pairs).
MetricKey = tuple[str, str, tuple[tuple[str, str], ...]]


def _make_key(component: str, name: str, labels: dict[str, str]) -> MetricKey:
    return (component, name, tuple(sorted(labels.items())))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("key", "value")
    kind = "counter"

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold another shard's count in: counts of disjoint runs add."""
        self.value += other.value

    def summary(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (queue depth, live session count, ...)."""

    __slots__ = ("key", "value", "high_water")
    kind = "gauge"

    def __init__(self, key: MetricKey) -> None:
        self.key = key
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def merge(self, other: "Gauge") -> None:
        """Fold another shard's gauge in.

        Instantaneous values of disjoint shards add (each shard's queue
        depth contributes to the campaign's); high-water marks take the
        max, since the shards never coexisted in one process.
        """
        self.value += other.value
        self.high_water = max(self.high_water, other.high_water)

    def summary(self) -> dict[str, Any]:
        return {"value": self.value, "high_water": self.high_water}


class StreamingHistogram:
    """Quantile sketch over log-spaced buckets; no samples are stored.

    A sample ``v`` lands in bucket ``floor(log(v) / log(growth))``; the
    representative value reported for a bucket is the geometric mean of its
    bounds, so any quantile is accurate to within ``growth`` relative error
    (±5% at the default).  Zero and sub-``floor`` samples are counted in a
    dedicated zero bucket — timer latencies of exactly 0 are common in a
    discrete-event simulator and must not vanish.
    """

    __slots__ = ("key", "buckets", "zero_count", "count", "total", "min", "max",
                 "_log_growth", "growth")
    kind = "histogram"

    #: Samples below this are indistinguishable from zero (1 µs of sim time).
    FLOOR = 1e-6

    def __init__(self, key: MetricKey, growth: float = 1.05) -> None:
        self.key = key
        self.growth = growth
        self._log_growth = math.log(growth)
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.FLOOR:
            self.zero_count += 1
            return
        # floor, not int(): truncation would merge the two buckets around
        # 1.0 (negative logs round toward zero) and double their error.
        idx = math.floor(math.log(value) / self._log_growth)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], to within the bucket precision."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        rank = q * (self.count - 1) + 1  # 1-based rank, nearest-rank style
        if rank <= self.zero_count:
            return self._clamp(0.0)
        seen = self.zero_count
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                lo = self.growth ** idx
                # Geometric bucket midpoint, clamped: the midpoint of the
                # min or max observation's bucket can fall outside the
                # observed range, and a quantile must never do that.
                return self._clamp(lo * math.sqrt(self.growth))
        return self.max

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram's buckets in (exact, order-independent).

        Bucket counts, the zero bucket, ``count``, ``min``, and ``max``
        combine exactly, so any quantile of the merged sketch is the same
        no matter how many shards contributed or in which order they were
        merged.  ``total`` is a float sum, so ``mean`` is merge-order
        sensitive only in its last bits; campaign merges therefore always
        fold in shard-index order.  Growth factors must match — resampling
        between bucket bases would silently widen the error bound.
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with different growth factors: "
                f"{self.growth} != {other.growth}"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # ------------------------------------------------------- serialisation

    def state(self) -> dict[str, Any]:
        return {
            "growth": self.growth,
            "buckets": {str(k): v for k, v in self.buckets.items()},
            "zero_count": self.zero_count,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


Metric = Counter | Gauge | StreamingHistogram


class MetricsRegistry:
    """All metrics of one simulation run, keyed by (component, name, labels).

    ``counter`` / ``gauge`` / ``histogram`` get-or-create, so instrumentation
    sites never need registration boilerplate.  Hot paths should hold on to
    the returned handle instead of re-looking it up per event.
    """

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def _get_or_create(self, cls: type, component: str, name: str,
                       labels: dict[str, str]) -> Any:
        key = _make_key(component, name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key} already registered as {metric.kind}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, component: str, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, component, name, labels)

    def gauge(self, component: str, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, component, name, labels)

    def histogram(self, component: str, name: str, **labels: str) -> StreamingHistogram:
        return self._get_or_create(StreamingHistogram, component, name, labels)

    # ------------------------------------------------------------ queries

    def get(self, component: str, name: str, **labels: str) -> Metric | None:
        return self._metrics.get(_make_key(component, name, labels))

    def find(self, component: str | None = None, name: str | None = None) -> list[Metric]:
        return [
            m
            for key, m in sorted(self._metrics.items())
            if (component is None or key[0] == component)
            and (name is None or key[1] == name)
        ]

    def value(self, component: str, name: str, **labels: str) -> float:
        """Counter/gauge value (0 when the metric was never touched)."""
        metric = self.get(component, name, **labels)
        if metric is None:
            return 0
        if isinstance(metric, StreamingHistogram):
            return metric.count
        return metric.value

    # ------------------------------------------------------------- merging

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's metrics into this one, key by key.

        Metrics present in both registries combine by kind (counters add,
        gauges add value / max high-water, histograms add buckets); metrics
        only in ``other`` are created here.  A key registered with a
        different kind raises ``TypeError`` — silent coercion would corrupt
        campaign roll-ups.
        """
        for key, metric in sorted(other._metrics.items()):
            component, name, labels = key
            mine = self._get_or_create(type(metric), component, name, dict(labels))
            mine.merge(metric)
        return self

    # --------------------------------------------------------- snapshotting

    def snapshot(self) -> list[dict[str, Any]]:
        """All metrics as plain records, sorted by key for determinism."""
        out = []
        for key, metric in sorted(self._metrics.items()):
            component, name, labels = key
            record: dict[str, Any] = {
                "component": component,
                "name": name,
                "labels": dict(labels),
                "kind": metric.kind,
            }
            record.update(metric.summary())
            if isinstance(metric, StreamingHistogram):
                record["state"] = metric.state()
            elif isinstance(metric, Gauge):
                record["high_water"] = metric.high_water
            out.append(record)
        return out

    def export_jsonl(self, path: str) -> int:
        """Write a snapshot as JSON lines, atomically; returns the count.

        Serialisation happens before the destination is touched and the
        blob lands through :func:`~repro.cache.store.write_atomically`, so
        a crash mid-export never truncates an existing snapshot.
        """
        records = self.snapshot()
        write_atomically(path, "".join(json.dumps(r) + "\n" for r in records))
        return len(records)

    # ------------------------------------------------------------ rendering

    def render_table(self, component: str | None = None) -> str:
        """Human-readable metrics table (the ``repro observe`` output)."""
        from ..analysis.reporting import TextTable

        table = TextTable(
            ["Component", "Metric", "Labels", "Kind", "Value", "p50", "p95", "p99"],
            title="Metrics",
        )
        for key, metric in sorted(self._metrics.items()):
            comp, name, labels = key
            if component is not None and comp != component:
                continue
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            if isinstance(metric, StreamingHistogram):
                table.add_row(
                    comp, name, label_str, metric.kind,
                    f"n={metric.count}",
                    f"{metric.quantile(0.50):.4f}",
                    f"{metric.quantile(0.95):.4f}",
                    f"{metric.quantile(0.99):.4f}",
                )
            else:
                value = metric.value
                shown = f"{value:g}"
                table.add_row(comp, name, label_str, metric.kind, shown, "", "", "")
        return table.render()
