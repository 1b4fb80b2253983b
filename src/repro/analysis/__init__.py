"""Reporting, metrics, and timeline analysis for the experiment harness."""

from .reporting import (
    TextTable,
    fmt_bool,
    fmt_seconds,
    fmt_window,
    render_manifest,
    render_manifest_diff,
)
from .timeline import (
    TimelineEntry,
    build_timeline,
    build_timeline_from_trace,
    ordering_violations,
    render_timeline,
    render_timeline_from_trace,
)

__all__ = [
    "TextTable",
    "TimelineEntry",
    "build_timeline",
    "build_timeline_from_trace",
    "fmt_bool",
    "fmt_seconds",
    "fmt_window",
    "ordering_violations",
    "render_manifest",
    "render_manifest_diff",
    "render_timeline",
    "render_timeline_from_trace",
]
