"""Plain-text table rendering for the experiment harness.

The benches regenerate the paper's tables as fixed-width text so the
"same rows the paper reports" requirement is met on any terminal; no
plotting dependencies are needed.
"""

from __future__ import annotations

import math
from typing import Any


def fmt_seconds(value: float | None, precision: int = 1) -> str:
    """Render a timeout/delay value the way the paper's tables do."""
    if value is None:
        return "∞"
    if isinstance(value, float) and math.isinf(value):
        return "∞"
    return f"{value:.{precision}f}s"


def fmt_window(window: tuple[float, float] | None, precision: int = 0) -> str:
    """Render a delay window like the paper's ``[60s, 180s]``."""
    if window is None:
        return "-"
    lo, hi = window
    if math.isinf(hi):
        return "∞"
    if abs(hi - lo) < 0.5:
        return fmt_seconds(hi, precision)
    return f"[{fmt_seconds(lo, precision)}, {fmt_seconds(hi, precision)}]"


def fmt_bool(value: Any) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


class TextTable:
    """Minimal fixed-width table builder."""

    def __init__(self, headers: list[str], title: str = "") -> None:
        self.title = title
        self.headers = headers
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def render_manifest(manifest: Any) -> str:
    """Human-readable account of one campaign run manifest.

    ``manifest`` is a :class:`repro.obs.manifest.RunManifest`; imported by
    duck type so this module keeps zero dependencies on ``repro.obs``.
    """
    header = manifest.header
    out: list[str] = []
    info = TextTable(["Field", "Value"],
                     title=f"Campaign manifest — {header.get('campaign', '?')}")
    for field in ("schema", "seed", "jobs", "shards", "cached_shards",
                  "replayed_shards", "fault_profile", "cache_fingerprint",
                  "git_describe", "wall_seconds", "created_at"):
        value = header.get(field)
        if value is not None:
            info.add_row(field.replace("_", " "), value)
    out.append(info.render())

    if manifest.shards:
        rows = TextTable(
            ["#", "Shard", "Seed", "Cached", "Replayed", "Stored", "Wall",
             "CPU", "Peak RSS", "Events"],
            title="Per-shard execution",
        )
        for row in manifest.shards:
            rows.add_row(
                row.index,
                row.key,
                "-" if row.seed is None else row.seed,
                fmt_bool(row.cached),
                fmt_bool(row.replayed),
                fmt_bool(row.stored),
                f"{row.wall_seconds:.3f}s",
                f"{row.cpu_seconds:.3f}s",
                f"{row.peak_rss_kb / 1024:.1f} MiB" if row.peak_rss_kb else "-",
                row.events or "-",
            )
        out.append("")
        out.append(rows.render())

    if manifest.attribution:
        attr = TextTable(["Delay metric", "Count", "Mean", "Min", "Max"],
                         title="Delay attribution summaries")
        for entry in manifest.attribution:
            attr.add_row(
                entry["metric"], entry["count"], f"{entry['mean']:.2f}s",
                f"{entry['min']:.2f}s", f"{entry['max']:.2f}s",
            )
        out.append("")
        out.append(attr.render())

    counters = [r for r in manifest.metrics if r.get("kind") == "counter"]
    if counters:
        table = TextTable(["Metric", "Value"], title="Merged counters")
        for record in counters:
            labels = ",".join(f"{k}={v}" for k, v in sorted(
                record.get("labels", {}).items()))
            name = f"{record['component']}/{record['name']}"
            if labels:
                name += f"[{labels}]"
            table.add_row(name, int(record["value"]))
        out.append("")
        out.append(table.render())
    return "\n".join(out)


def render_manifest_diff(diff: Any) -> str:
    """Render a :class:`repro.obs.manifest.ManifestDiff` for the CLI."""
    a, b = diff.a.header, diff.b.header
    out = [
        f"manifest diff: {a.get('campaign', '?')} "
        f"(seed {a.get('seed')}, jobs {a.get('jobs')}) vs "
        f"{b.get('campaign', '?')} (seed {b.get('seed')}, jobs {b.get('jobs')})",
    ]
    if diff.metric_drift:
        table = TextTable(["Metric", "Field", "A", "B"],
                          title=f"Metric drift ({len(diff.metric_drift)})")
        for entry in diff.metric_drift:
            table.add_row(entry["metric"], entry["field"],
                          entry["a"], entry["b"])
        out.append(table.render())
    if diff.attribution_deltas:
        table = TextTable(["Delay metric", "A", "B"],
                          title=f"Attribution deltas ({len(diff.attribution_deltas)})")
        for entry in diff.attribution_deltas:

            def _fmt(side: dict | None) -> str:
                if side is None:
                    return "absent"
                return (f"n={side.get('count')} mean={side.get('mean'):.2f}s "
                        f"[{side.get('min'):.2f}s, {side.get('max'):.2f}s]")

            table.add_row(entry["metric"], _fmt(entry["a"]), _fmt(entry["b"]))
        out.append(table.render())
    for note in diff.notes:
        out.append(f"note: {note}")
    out.append(
        "result: zero drift — deterministic sections identical"
        if diff.clean else
        "result: DRIFT — the runs measured different campaigns"
    )
    return "\n".join(out)
