"""Per-query distributed tracing across the two-cloud protocol stack.

A *trace* is one query's end-to-end timeline; a *span* is one timed
operation inside it (a protocol round, a phase, a daemon-side handler
dispatch).  Spans nest through a :mod:`contextvars` context variable, so the
instrumentation composes naturally with the scheduler's worker threads and
with the daemon's per-connection serving threads.

Design constraints, in order:

1. **Free when off.**  ``span()`` costs a single contextvar read when no
   trace is active and returns a shared no-op context manager.  Protocol
   hot loops can therefore be instrumented unconditionally.
2. **Distributed stitching.**  ``current_wire_context()`` returns the
   ``[trace_id, span_id]`` pair the transport layer rides inside the wire
   envelope; the receiving daemon calls ``remote_span()`` so its spans
   carry the same trace id and parent them under the originating span.  Finished spans accumulate in a
   bounded per-trace collector; ``take()`` drains a trace's spans so C1
   can merge C2's into one report.
3. **JSON-able.**  A finished span serialises to a flat dict of
   primitives — it crosses the wire inside the existing codec and lands
   in ``SkNNRunReport.trace`` payloads untouched.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "Span",
    "Tracer",
    "current_wire_context",
    "get_tracer",
    "new_trace_id",
    "span",
    "trace",
]

# A runaway trace (e.g. a span leak in a long-lived daemon) must not grow
# without bound; 4096 spans is far beyond any real query's round count.
MAX_SPANS_PER_TRACE = 4096
MAX_TRACKED_TRACES = 64

_ID_COUNTER_LOCK = threading.Lock()
_ID_COUNTER = 0


def _new_id(bits: int = 64) -> str:
    """A unique hex id: urandom entropy plus a process-local counter so
    ids stay unique even under a seeded/monkeypatched ``os.urandom``."""
    global _ID_COUNTER
    with _ID_COUNTER_LOCK:
        _ID_COUNTER += 1
        counter = _ID_COUNTER
    raw = int.from_bytes(os.urandom(bits // 8), "big")
    raw ^= counter * 0x9E3779B97F4A7C15
    return format(raw & ((1 << bits) - 1), f"0{bits // 4}x")


def new_trace_id() -> str:
    return _new_id(128)


@dataclass
class Span:
    """One timed operation inside a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    party: str
    start: float
    duration: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    def as_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "party": self.party,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            party=str(payload.get("party", "")),
            start=float(payload.get("start", 0.0)),
            duration=float(payload.get("duration", 0.0)),
            attributes=dict(payload.get("attributes") or {}),
        )


@dataclass(frozen=True)
class _Context:
    """The active trace position for the current thread of execution."""

    trace_id: str
    span_id: str
    party: str


_CURRENT: contextvars.ContextVar[_Context | None] = contextvars.ContextVar(
    "repro_trace_context", default=None)


class _NoopSpan:
    """Shared do-nothing context manager returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set_attribute(self, name: str, value: Any) -> None:
        return None

    span_id = ""
    trace_id = ""


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span into the tracer's collector."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, context: _Context,
                 party: str | None, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(
            name=name,
            trace_id=context.trace_id,
            span_id=_new_id(64),
            parent_id=context.span_id or None,
            party=party or context.party,
            start=0.0,
            attributes=attributes,
        )
        self._token: contextvars.Token | None = None

    @property
    def span_id(self) -> str:
        return self._span.span_id

    @property
    def trace_id(self) -> str:
        return self._span.trace_id

    def set_attribute(self, name: str, value: Any) -> None:
        self._span.attributes[name] = value

    def __enter__(self) -> "_ActiveSpan":
        self._token = _CURRENT.set(_Context(
            self._span.trace_id, self._span.span_id, self._span.party))
        self._span.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.duration = time.time() - self._span.start
        if exc_type is not None:
            self._span.attributes["error"] = exc_type.__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
        self._tracer._record(self._span)


class Tracer:
    """Creates spans and collects finished ones, keyed by trace id."""

    def __init__(self, party: str = "") -> None:
        self.party = party
        self._lock = threading.Lock()
        self._finished: dict[str, list[Span]] = {}
        self._order: list[str] = []

    # -- span creation ---------------------------------------------------------
    def span(self, name: str, party: str | None = None,
             **attributes: Any):
        """A child span of the ambient context, or a no-op without one."""
        context = _CURRENT.get()
        if context is None:
            return _NOOP_SPAN
        return _ActiveSpan(self, name, context, party, attributes)

    def trace(self, name: str, trace_id: str | None = None,
              party: str | None = None, **attributes: Any) -> _ActiveSpan:
        """Start a new trace rooted at ``name`` (always records; on exit
        the previous — usually empty — ambient context is restored, so
        traces never leak across queries)."""
        root_context = _Context(trace_id or new_trace_id(), "",
                                party or self.party)
        return _ActiveSpan(self, name, root_context, party, attributes)

    def remote_span(self, name: str,
                    wire_context: Sequence[str] | None,
                    party: str | None = None, **attributes: Any):
        """A span parented under a context received over the wire; no-op
        when the frame carried no trace context."""
        if not wire_context:
            return _NOOP_SPAN
        context = _Context(str(wire_context[0]), str(wire_context[1]),
                           party or self.party)
        return _ActiveSpan(self, name, context, party, attributes)

    # -- collection ------------------------------------------------------------
    def _record(self, span: Span) -> None:
        with self._lock:
            spans = self._finished.get(span.trace_id)
            if spans is None:
                if len(self._order) >= MAX_TRACKED_TRACES:
                    evicted = self._order.pop(0)
                    self._finished.pop(evicted, None)
                spans = self._finished[span.trace_id] = []
                self._order.append(span.trace_id)
            if len(spans) < MAX_SPANS_PER_TRACE:
                spans.append(span)

    def take(self, trace_id: str) -> list[Span]:
        """Drain and return the finished spans of one trace."""
        with self._lock:
            if trace_id in self._finished:
                self._order.remove(trace_id)
            return self._finished.pop(trace_id, [])

    def pending_traces(self) -> int:
        with self._lock:
            return len(self._finished)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, party: str | None = None, **attributes: Any):
    """Module-level shorthand: a child span on the default tracer."""
    return _TRACER.span(name, party=party, **attributes)


def trace(name: str, trace_id: str | None = None, party: str | None = None,
          **attributes: Any) -> _ActiveSpan:
    """Module-level shorthand: start a trace on the default tracer."""
    return _TRACER.trace(name, trace_id=trace_id, party=party, **attributes)


def current_wire_context() -> list[str] | None:
    """``[trace_id, span_id]`` to stamp on outgoing wire envelopes, or
    ``None`` when no trace is active (the common case)."""
    context = _CURRENT.get()
    if context is None:
        return None
    return [context.trace_id, context.span_id]


def trace_payload(trace_id: str,
                  spans: Sequence[Span | Mapping[str, Any]]) -> dict:
    """The JSON-able ``report.trace`` structure: spans sorted by start."""
    rows = [item.as_payload() if isinstance(item, Span) else dict(item)
            for item in spans]
    rows.sort(key=lambda row: row.get("start", 0.0))
    return {"trace_id": trace_id, "spans": rows}
