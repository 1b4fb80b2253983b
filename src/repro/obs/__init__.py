"""Cross-layer observability: metrics, causal tracing, scheduler profiling.

The measurement substrate for the reproduction.  Three pieces:

* :mod:`repro.obs.metrics` — counters, gauges, and streaming histograms
  in a :class:`~repro.obs.metrics.MetricsRegistry`, keyed by
  ``(component, name, labels)``;
* :mod:`repro.obs.tracing` — span-style causal tracing on simulated-clock
  time, able to reconstruct one delayed message end-to-end across every
  layer;
* :mod:`repro.obs.observer` — injectable scheduler profiling (events/sec
  by timer label, queue depth, firing latency).

Each :class:`~repro.simnet.scheduler.Simulator` carries a disabled
:class:`~repro.obs.observer.Observability` facade; call
``sim.enable_observability()`` (or pass ``observe=True`` to
:class:`~repro.testbed.SmartHomeTestbed`) to turn the whole substrate on
for a run.
"""
