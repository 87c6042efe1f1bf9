"""Typed, labelled, lock-safe metrics with Prometheus text exposition.

The registry is deliberately small: three instrument types (counter, gauge,
histogram), each a *family* keyed by a label tuple, all guarded by per-family
locks so concurrent protocol threads can increment without torn updates.

Two usage patterns:

* **Push** — hot-path code calls ``registry.counter("name", "help").inc()``.
  ``counter()`` is idempotent: repeated calls return the existing family, so
  call sites never coordinate declaration order.
* **Pull** — state that already lives elsewhere (pool fill levels, mailbox
  depth, key operation counters) registers a *collector* callback which is
  invoked only at scrape time, keeping the hot path untouched.

Exposition follows the Prometheus text format (``# HELP`` / ``# TYPE``
comments, ``name{label="value"} 1234`` samples, ``_bucket``/``_sum``/
``_count`` series for histograms) so any Prometheus-compatible scraper can
consume ``/metrics`` directly.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "get_registry",
    "reset_registry",
]

# Latency-oriented default buckets: 1ms .. 60s, roughly x2.5 per step.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

LabelValues = tuple[str, ...]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(names: Sequence[str], values: LabelValues,
                   extra: Sequence[tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(names, values)]
    pairs += [f'{name}="{_escape_label_value(value)}"'
              for name, value in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Family:
    """Base for one named metric family holding per-label-set children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: dict[LabelValues, object] = {}

    def labels(self, *values: str, **kwargs: str):
        """The child instrument for one concrete label-value tuple."""
        if kwargs:
            if values:
                raise ValueError("pass labels positionally or by name, "
                                 "not both")
            values = tuple(kwargs[name] for name in self.label_names)
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {key}")
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def _new_child(self):
        raise NotImplementedError

    def _samples(self) -> list[tuple[str, str, float]]:
        """``(suffix, label_block, value)`` rows for exposition."""
        raise NotImplementedError

    def snapshot(self) -> dict:
        raise NotImplementedError

    def _items(self) -> list[tuple[LabelValues, object]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Family):
    """Monotonically increasing count (queries served, rounds, bytes)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    @property
    def value(self) -> float:
        """Sum over every label combination (convenience for tests)."""
        return sum(child.value for _, child in self._items())

    def _samples(self) -> list[tuple[str, str, float]]:
        return [("", _render_labels(self.label_names, values), child.value)
                for values, child in self._items()]

    def snapshot(self) -> dict:
        return {",".join(values) or "": child.value
                for values, child in self._items()}


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Family):
    """A value that can go up and down (queue depth, pool fill level)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    @property
    def value(self) -> float:
        children = self._items()
        return children[0][1].value if len(children) == 1 else \
            sum(child.value for _, child in children)

    def _samples(self) -> list[tuple[str, str, float]]:
        return [("", _render_labels(self.label_names, values), child.value)
                for values, child in self._items()]

    def snapshot(self) -> dict:
        return {",".join(values) or "": child.value
                for values, child in self._items()}


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf bucket last
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.total += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def state(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self.counts), self.total, self.count


def bucket_quantile(buckets: Sequence[float], counts: Sequence[int],
                    count: int, q: float) -> float:
    """Estimate the ``q`` quantile from cumulative histogram buckets.

    Linear interpolation within the containing bucket, the same estimate
    Prometheus' ``histogram_quantile`` produces: the first bucket
    interpolates from 0, and observations landing in the ``+Inf`` bucket
    report the highest finite bound (the best available lower bound).
    """
    if count <= 0:
        return 0.0
    target = q * count
    bounds = list(buckets) + [float("inf")]
    cumulative = 0.0
    lower = 0.0
    for bound, bucket_count in zip(bounds, counts):
        if bucket_count > 0 and cumulative + bucket_count >= target:
            if bound == float("inf"):
                return lower
            fraction = (target - cumulative) / bucket_count
            return lower + (bound - lower) * fraction
        cumulative += bucket_count
        if bound != float("inf"):
            lower = bound
    return lower


class Histogram(_Family):
    """Distribution of observations (query latency, batch seconds)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)

    def _samples(self) -> list[tuple[str, str, float]]:
        rows: list[tuple[str, str, float]] = []
        for values, child in self._items():
            counts, total, count = child.state()
            cumulative = 0
            for bound, bucket_count in zip(
                    list(self.buckets) + [float("inf")], counts):
                cumulative += bucket_count
                rows.append(("_bucket", _render_labels(
                    self.label_names, values,
                    extra=[("le", _format_value(bound))]), cumulative))
            rows.append(("_sum", _render_labels(self.label_names, values),
                         total))
            rows.append(("_count", _render_labels(self.label_names, values),
                         count))
        return rows

    def snapshot(self) -> dict:
        out = {}
        for values, child in self._items():
            counts, total, count = child.state()
            out[",".join(values) or ""] = {
                "count": count, "sum": total,
                "mean": (total / count) if count else 0.0,
                "p50": bucket_quantile(self.buckets, counts, count, 0.50),
                "p95": bucket_quantile(self.buckets, counts, count, 0.95),
                "p99": bucket_quantile(self.buckets, counts, count, 0.99),
            }
        return out


class MetricsRegistry:
    """A named collection of metric families plus pull-collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    registers the family, later calls return it (and reject a conflicting
    re-registration with a different type or label set — a programming
    error worth failing loudly on).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- declaration -----------------------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str,
                       label_names: Sequence[str], **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (type(family) is not cls
                        or family.label_names != tuple(label_names)):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}")
                return family
            family = cls(name, help_text, label_names, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label_names)

    def histogram(self, name: str, help_text: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, label_names,
                                   buckets=buckets)

    def add_collector(
            self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at scrape time to refresh pull-style
        metrics (gauges mirroring external state)."""
        with self._lock:
            self._collectors.append(collect)

    def remove_collector(
            self, collect: Callable[["MetricsRegistry"], None]) -> None:
        with self._lock:
            if collect in self._collectors:
                self._collectors.remove(collect)

    # -- exposition ------------------------------------------------------------
    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            try:
                collect(self)
            except Exception:  # a broken collector must not break scraping
                continue

    def families(self) -> Iterable[_Family]:
        with self._lock:
            return [family for _, family in sorted(self._families.items())]

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        self._run_collectors()
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for suffix, label_block, value in family._samples():
                lines.append(f"{family.name}{suffix}{label_block} "
                             f"{_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, dict]:
        """JSON-able ``{family: {type, help, values}}`` view."""
        self._run_collectors()
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "values": family.snapshot(),
            }
            for family in self.families()
        }


_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the global registry with a fresh one (test isolation)."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = MetricsRegistry()
        return _REGISTRY
