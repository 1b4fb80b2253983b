"""Per-layer accounting of a cProfile run over the ``repro`` package.

The benchmark traces from the outside: it profiles one CLI campaign with
:mod:`cProfile` and folds every profiled function into the layer its
source file belongs to.  Nothing inside the program is instrumented, so
the same attribution works on any version of the package.

Layers follow the package's own module layout:

========== ==========================================================
scheduler  ``simnet/scheduler.py``, ``simnet/clock.py``: the event core
simnet     the rest of ``simnet``: link, host, packet, ARP, router
tcp        ``tcp``
tls        ``tls``
appproto   ``appproto``: keep-alives, codecs, message timeouts
devices    ``devices``
cloud      ``cloud``: endpoints, integrations, notifications
automation ``automation``: the TAP rule engine
core       ``core``: the attacker (ARP spoofing, hijacking, holds)
faults     ``faults``: LAN impairment and invariant audits
obs        ``obs``: metrics, tracing, telemetry capture
campaign   everything else: CLI, experiment drivers, fleet, search,
           parallel runner, cache, testbed wiring
========== ==========================================================

Code outside the package (the standard library, builtins such as
``isinstance``) has no layer of its own: its time is charged to the
layers that called it, by the time each caller spent in it.  So
``typing`` protocol checks made from ``simnet.packet`` count as simnet
time, which is where an optimisation would have to remove them.

For each layer the trace reports three numbers per campaign:

``self_ms``  time spent in the layer's own code, children excluded;
``calls``    Python function calls executed in the layer's code;
``entries``  calls that crossed into the layer from another layer, i.e.
             the spans a tracer placed at layer boundaries would record.

Call counts repeat exactly from run to run for a deterministic
campaign; the times carry the profiler's overhead, which grows with the
call count, so compare them between versions, not with untraced runs.
"""

from __future__ import annotations

import os
from typing import Any

LAYERS = (
    "scheduler", "simnet", "tcp", "tls", "appproto", "devices", "cloud",
    "automation", "core", "faults", "obs", "campaign",
)

#: Modules that form a layer of their own inside a package.
_MODULE_LAYER = {
    ("simnet", "scheduler"): "scheduler",
    ("simnet", "clock"): "scheduler",
}

#: Packages that are a layer; every other package is ``campaign``.
_PACKAGE_LAYER = {
    name: name for name in (
        "simnet", "tcp", "tls", "appproto", "devices", "cloud",
        "automation", "core", "faults", "obs",
    )
}

#: Where a function reached from no profiled caller is charged: the
#: campaign's entry point and the profiler's own stop call.
_ROOT_LAYER = "campaign"


class LayerMap:
    """Maps a source file name to its layer, or ``None`` outside repro."""

    def __init__(self, package_dir: str) -> None:
        self._prefix = os.path.join(os.path.realpath(package_dir), "")
        self._memo: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        try:
            return self._memo[filename]
        except KeyError:
            pass
        layer = None
        path = os.path.realpath(filename) if filename.endswith(".py") else ""
        if path.startswith(self._prefix):
            parts = path[len(self._prefix):].split(os.sep)
            if len(parts) == 1:
                layer = "campaign"
            else:
                package, module = parts[0], parts[1].removesuffix(".py")
                layer = (_MODULE_LAYER.get((package, module))
                         or _PACKAGE_LAYER.get(package, "campaign"))
        self._memo[filename] = layer
        return layer


def attribute(stats: dict[Any, tuple], layer_of: LayerMap) -> dict[str, dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer totals.

    ``stats`` maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each calling function to that
    edge's own ``(nc, cc, tt, ct)`` (the call counts swap places: that is
    the layout :mod:`cProfile` hands ``pstats``).  Returns ``{layer:
    {"self_s", "calls", "entries"}}`` for every layer in :data:`LAYERS`.
    """
    own = {func: layer_of(func[0]) for func in stats}
    shares_memo: dict[Any, dict[str, float]] = {}

    def shares(func: Any, visiting: set) -> dict[str, float]:
        """Which layers a function works for, by the calls each made."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        if func in visiting or func not in stats:
            return {}
        visiting.add(func)
        weights: dict[str, float] = {}
        for caller, edge in sorted(stats[func][4].items()):
            for caller_layer, share in shares(caller, visiting).items():
                weights[caller_layer] = weights.get(caller_layer, 0.0) + edge[0] * share
        visiting.discard(func)
        total = sum(weights.values())
        result = ({name: w / total for name, w in weights.items()}
                  if total else {_ROOT_LAYER: 1.0})
        shares_memo[func] = result
        return result

    out = {name: {"self_s": 0.0, "calls": 0.0, "entries": 0.0} for name in LAYERS}
    # Sorted walks: a cycle among outside functions is cut where the walk
    # meets it, so the order must not depend on the profiler's hashing.
    for func, (_cc, nc, tt, _ct, callers) in sorted(stats.items()):
        layer = own[func]
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            for caller, edge in callers.items():
                for caller_layer, share in shares(caller, set()).items():
                    if caller_layer != layer:
                        out[layer]["entries"] += edge[0] * share
            if not callers:
                out[layer]["entries"] += nc
            continue
        if not callers:
            out[_ROOT_LAYER]["self_s"] += tt
            continue
        # Charge a function outside the package to its callers' layers,
        # by the time each caller edge spent in it.
        for caller, edge in callers.items():
            for caller_layer, share in shares(caller, set()).items():
                out[caller_layer]["self_s"] += edge[2] * share
    for totals in out.values():
        totals["entries"] = round(totals["entries"])
        totals["calls"] = round(totals["calls"])
    return out


def render(layers: dict[str, dict[str, float]]) -> str:
    """A plain-text table of one campaign's per-layer account."""
    total = sum(v["self_s"] for v in layers.values()) or 1.0
    lines = [f"{'layer':<11} {'self ms':>10} {'share':>7} {'calls':>10} {'entries':>9}"]
    for name in LAYERS:
        v = layers[name]
        lines.append(
            f"{name:<11} {v['self_s'] * 1e3:>10.1f} {v['self_s'] / total:>7.1%} "
            f"{v['calls']:>10.0f} {v['entries']:>9.0f}"
        )
    return "\n".join(lines)
