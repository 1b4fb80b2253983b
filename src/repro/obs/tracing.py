"""Causal span tracing across the protocol stack.

A phantom-delay attack is a *timing* phenomenon that crosses every layer:
sensor stimulus → application-protocol encode → TLS record → TCP segments →
(attacker hold → release) → cloud delivery → automation rule fire.  The
:class:`Tracer` records each of those steps as a :class:`Span` stamped with
simulated-clock time, so one delayed smoke alert can be reconstructed
end-to-end as a span tree and its delay *attributed* (see
:mod:`repro.obs.attribution`) to the attacker's hold vs. TCP retransmission
vs. ordinary transit latency.

Causality propagates two ways:

* **ambient context** — the tracer keeps a stack of open spans; a span
  started while another is current becomes its child.  This covers every
  synchronous call chain (device stimulate → protocol client → TLS → TCP).
* **message binding** — asynchronous hops (LAN frames in flight, cloud-to-
  cloud relays) break the ambient chain, so layers that can see a message's
  ``msg_id`` re-attach to the message's span via :meth:`Tracer.bind_message`
  / :meth:`Tracer.message_span`.  The attacker's hold cannot see inside TLS
  and records flow-keyed spans instead; :mod:`repro.obs.attribution` links
  those into the tree by flow and time overlap.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator


@dataclass
class Span:
    """One timed operation (or punctual event, when ``end == start``)."""

    span_id: int
    trace_id: int
    parent_id: int | None
    component: str
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    @property
    def punctual(self) -> bool:
        return self.end == self.start

    def to_record(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "component": self.component,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Span":
        return cls(
            span_id=record["span_id"],
            trace_id=record["trace_id"],
            parent_id=record["parent_id"],
            component=record["component"],
            name=record["name"],
            start=record["start"],
            end=record["end"],
            attrs=dict(record.get("attrs", {})),
        )


class Tracer:
    """Span recorder bound to one simulator's clock."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._stack: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._message_spans: dict[int, Span] = {}

    # -------------------------------------------------------------- recording

    @property
    def current(self) -> Span | None:
        """Innermost open span of the active synchronous call chain."""
        return self._stack[-1] if self._stack else None

    def start_span(
        self,
        component: str,
        name: str,
        parent: Span | None = None,
        new_trace: bool = False,
        **attrs: Any,
    ) -> Span:
        """Open a span; its parent defaults to the current ambient span."""
        if parent is None and not new_trace:
            parent = self.current
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = next(self._trace_ids)
            parent_id = None
        span = Span(
            span_id=next(self._span_ids),
            trace_id=trace_id,
            parent_id=parent_id,
            component=component,
            name=name,
            start=self.sim.now,
            attrs=attrs,
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end_span(self, span: Span, **attrs: Any) -> None:
        if span.end is None:
            span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)

    def event(
        self, component: str, name: str, parent: Span | None = None, **attrs: Any
    ) -> Span:
        """Record a punctual span (start == end == now)."""
        span = self.start_span(component, name, parent=parent, **attrs)
        span.end = span.start
        return span

    @contextmanager
    def span(
        self,
        component: str,
        name: str,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a span and make it ambient for the enclosed call chain."""
        opened = self.start_span(component, name, parent=parent, **attrs)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            self._stack.pop()
            self.end_span(opened)

    @contextmanager
    def ambient(self, span: Span) -> Iterator[Span]:
        """Re-enter an existing span's context without re-timing it."""
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    # ----------------------------------------------------- message bindings

    def bind_message(self, msg_id: int, span: Span) -> None:
        """Attach a message id to its span, bridging asynchronous hops."""
        self._message_spans[msg_id] = span

    def message_span(self, msg_id: int) -> Span | None:
        return self._message_spans.get(msg_id)

    # --------------------------------------------------------------- queries

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def trace(self, trace_id: int) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # ------------------------------------------------------------- rendering

    def render_tree(self, trace_id: int) -> str:
        """ASCII span tree of one trace, children indented under parents."""
        spans = self.trace(trace_id)
        return render_span_tree(spans)

    # --------------------------------------------------------- serialisation

    def export_jsonl(self, path: str) -> int:
        """Dump every span as JSON lines; returns the number written."""
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(s.to_record()) + "\n" for s in self.spans))
        return len(self.spans)

    @staticmethod
    def import_jsonl(path: str) -> list[Span]:
        """Load spans exported by :meth:`export_jsonl` (no simulator needed)."""
        spans: list[Span] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    spans.append(Span.from_record(json.loads(line)))
        return spans


def render_span_tree(spans: list[Span]) -> str:
    """Render a list of spans (one or more traces) as an indented tree."""
    by_parent: dict[int | None, list[Span]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        # Spans whose parent is outside this slice render as roots.
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        if span.end is None:
            timing = f"@{span.start:.3f}s (open)"
        elif span.punctual:
            timing = f"@{span.start:.3f}s"
        else:
            timing = f"@{span.start:.3f}s +{span.duration:.3f}s"
        attrs = ""
        if span.attrs:
            shown = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            attrs = f"  [{shown}]"
        lines.append(f"{'  ' * depth}{span.component}/{span.name} {timing}{attrs}")
        for child in by_parent.get(span.span_id, []):
            emit(child, depth + 1)

    for root in by_parent.get(None, []):
        emit(root, 0)
    return "\n".join(lines)
