"""Cross-layer observability: metrics, causal tracing, scheduler profiling.

The measurement substrate for the reproduction.  Three pieces:

* :class:`MetricsRegistry` — counters, gauges, and streaming histograms
  keyed by ``(component, name, labels)``;
* :class:`Tracer` — span-style causal tracing on simulated-clock time, able
  to reconstruct one delayed message end-to-end across every layer;
* :class:`SimObserver` / :class:`SchedulerProfiler` — injectable scheduler
  profiling (events/sec by timer label, queue depth, firing latency).

Each :class:`~repro.simnet.scheduler.Simulator` carries a disabled
:class:`Observability` facade; call ``sim.enable_observability()`` (or pass
``observe=True`` to :class:`~repro.testbed.SmartHomeTestbed`) to turn the
whole substrate on for a run.
"""

from .attribution import DelayAttribution, attribute_delay, link_hold_spans
from .manifest import ManifestDiff, RunManifest, ShardRow, diff_manifests, git_describe
from .metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from .observer import Observability, SchedulerProfiler, SimObserver
from .telemetry import ShardTelemetry, ShardUsage, capture
from .tracing import Span, Tracer, render_span_tree

__all__ = [
    "Counter",
    "DelayAttribution",
    "Gauge",
    "ManifestDiff",
    "MetricsRegistry",
    "Observability",
    "RunManifest",
    "SchedulerProfiler",
    "ShardRow",
    "ShardTelemetry",
    "ShardUsage",
    "SimObserver",
    "Span",
    "StreamingHistogram",
    "Tracer",
    "attribute_delay",
    "capture",
    "diff_manifests",
    "git_describe",
    "link_hold_spans",
    "render_span_tree",
]
