"""Structured JSON logging and the slow-query log.

``configure_json_logging()`` installs a formatter that emits one JSON
object per line with the timestamp, level, logger name, message, the
active trace/query id (pulled from the ambient trace context so call
sites never thread it through), and any ``extra=`` fields.

:class:`SlowQueryLog` records queries whose wall time exceeds a
configurable threshold: each entry is logged as JSON at WARNING level and
kept in a bounded in-memory ring so ``transport.stats`` / ``repro stats``
can show the most recent offenders.
"""

from __future__ import annotations

import collections
import json
import logging
import threading
import time
from typing import Any, Mapping

from repro.telemetry import tracing

__all__ = ["JsonLogFormatter", "SlowQueryLog", "configure_json_logging"]

# logging.LogRecord attributes that are plumbing, not user payload.
_RESERVED = frozenset(vars(logging.makeLogRecord({}))) | {"message"}


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line, trace-aware."""

    def format(self, record: logging.LogRecord) -> str:
        entry: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        context = tracing.current_wire_context()
        if context is not None:
            entry["trace_id"] = context[0]
        for name, value in record.__dict__.items():
            if name not in _RESERVED and not name.startswith("_"):
                entry[name] = value
        if record.exc_info and record.exc_info[0] is not None:
            entry["exception"] = self.formatException(record.exc_info)
        return json.dumps(entry, default=str, separators=(",", ":"))


def configure_json_logging(level: int | str = logging.INFO,
                           logger: logging.Logger | None = None,
                           stream: Any = None) -> logging.Handler:
    """Attach a JSON-formatting stream handler (idempotent per logger)."""
    target = logger if logger is not None else logging.getLogger("repro")
    for handler in target.handlers:
        if getattr(handler, "_repro_json", False):
            target.setLevel(level)
            return handler
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter())
    handler._repro_json = True  # type: ignore[attr-defined]
    target.addHandler(handler)
    target.setLevel(level)
    return handler


class SlowQueryLog:
    """Bounded record of queries slower than ``threshold_seconds``.

    ``observe()`` is called once per finished query; entries above the
    threshold are logged (JSON, WARNING) and retained for introspection.
    A threshold of ``None`` disables the log entirely.
    """

    def __init__(self, threshold_seconds: float | None = 1.0,
                 capacity: int = 32,
                 logger: logging.Logger | None = None) -> None:
        self.threshold_seconds = threshold_seconds
        self._entries: collections.deque[dict] = collections.deque(
            maxlen=capacity)
        self._lock = threading.Lock()
        self._logger = logger or logging.getLogger("repro.telemetry.slow")
        self.total_slow = 0

    def observe(self, wall_time_seconds: float, protocol: str = "",
                trace_id: str | None = None,
                **details: Any) -> bool:
        """Record one query; returns True when it crossed the threshold."""
        if (self.threshold_seconds is None
                or wall_time_seconds < self.threshold_seconds):
            return False
        entry = {
            "ts": round(time.time(), 6),
            "wall_time_seconds": round(wall_time_seconds, 6),
            "threshold_seconds": self.threshold_seconds,
            "protocol": protocol,
        }
        if trace_id:
            entry["trace_id"] = trace_id
        entry.update(details)
        with self._lock:
            self._entries.append(entry)
            self.total_slow += 1
        self._logger.warning("slow query: %.3fs %s", wall_time_seconds,
                             protocol, extra={"slow_query": entry})
        return True

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "total_slow": self.total_slow,
                "recent": list(self._entries),
            }
