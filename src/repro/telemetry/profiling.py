"""Phase-level cost attribution and low-overhead continuous profiling.

Two complementary instruments live here, both built for the "where does the
SkNN hot path spend its time" question that the ROADMAP's perf waves (CRT
decryption, packing, native powmod, pre-filtering) depend on:

* :class:`CostLedger` + :func:`cost_scope` — a **deterministic** ledger that
  attributes Paillier operation counts (encryptions, decryptions, scalar-mul
  exponentiations, homomorphic additions, pool hits) and wall time to named
  protocol phases, per party.  Scopes nest (``scan/SSED/SM``) and attribution
  is *exclusive*: each bucket owns exactly the counter deltas and clock time
  observed while it was the innermost scope, so the flat bucket sums equal
  the total deltas over the ledger window — the invariant the acceptance
  tests pin down.  Like tracing spans, an un-armed ``cost_scope`` costs one
  contextvar read and returns a shared no-op.

* :class:`SamplingProfiler` — a **statistical** stack sampler
  (:func:`sys._current_frames` at ~100 Hz from a daemon thread) accumulating
  collapsed-stack counts in the flamegraph.pl text format
  (``frame;frame;leaf count``).  Cheap enough to leave always-on behind
  ``repro party --profile``; scraped via ``/profile?seconds=N`` on the
  metrics listener or the ``transport.profile`` control tag.

The ledger's clock and the sampler's clock/frame source are injectable, so
the unit tests drive both deterministically.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from os.path import basename
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.telemetry import metrics as _metrics

__all__ = [
    "CostLedger",
    "SamplingProfiler",
    "cost_scope",
    "record_phase_metrics",
    "wrap_span",
]

#: Paillier operation names, in the order reports print them.
OP_NAMES = ("encryptions", "decryptions", "exponentiations",
            "homomorphic_additions")

#: bucket for work observed inside the ledger window but outside any scope
#: (setup, result assembly).
OTHER_PHASE = "other"


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------

_ACTIVE_LEDGER: contextvars.ContextVar["CostLedger | None"] = (
    contextvars.ContextVar("repro_cost_ledger", default=None))


class _NoopScope:
    """Shared do-nothing context manager returned when no ledger is armed."""

    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP_SCOPE = _NoopScope()


class _CostScope:
    """Context manager charging one phase while it is the innermost scope."""

    __slots__ = ("_ledger", "_phase", "_party")

    def __init__(self, ledger: "CostLedger", phase: str,
                 party: str | None) -> None:
        self._ledger = ledger
        self._phase = phase
        self._party = party

    def __enter__(self) -> "_CostScope":
        self._ledger._push(self._phase, self._party)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._ledger._pop()


class _Activation:
    """Context manager binding a ledger to the current execution context."""

    __slots__ = ("_ledger", "_token")

    def __init__(self, ledger: "CostLedger") -> None:
        self._ledger = ledger
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "CostLedger":
        self._ledger._resume()
        self._token = _ACTIVE_LEDGER.set(self._ledger)
        return self._ledger

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _ACTIVE_LEDGER.reset(self._token)
            self._token = None
        self._ledger._suspend()


class _SpanWithCost:
    """A tracing span and a cost scope entered/exited as one unit.

    Forwards the span ids so call sites built for plain spans keep working.
    """

    __slots__ = ("_span", "_scope")

    def __init__(self, span: Any, scope: _CostScope) -> None:
        self._span = span
        self._scope = scope

    def __enter__(self) -> "_SpanWithCost":
        self._scope.__enter__()
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self._span.__exit__(*exc_info)
        finally:
            self._scope.__exit__(*exc_info)

    @property
    def span_id(self) -> str:
        return getattr(self._span, "span_id", "")

    @property
    def trace_id(self) -> str:
        return getattr(self._span, "trace_id", "")


class CostLedger:
    """Attributes counter deltas and wall time to nested phase scopes.

    Args:
        sources: counter-like objects exposing ``snapshot() -> {op: count}``
            (e.g. :class:`~repro.crypto.paillier.OperationCounter`); their
            per-op values are summed into one running total.
        extras: named callables sampled alongside the counters (e.g.
            ``{"pool_hits": engine.pool_hit_total}``); resolved at snapshot
            time so engines attached after construction still count.
        party: default attribution party for scopes that do not override it.
        clock: monotonic time source (injectable for deterministic tests).

    Attribution is exclusive: on every scope transition the deltas since the
    previous transition are charged to the scope that was innermost *before*
    the transition.  Deltas observed while no scope is open — including the
    window before :meth:`activate` and between daemon handler dispatches —
    land in the ``"other"`` bucket (operations always; seconds only while
    the ledger is activated, so a daemon's idle time never counts).
    Consequently ``sum(bucket ops) == counter deltas over the window``
    exactly, and ``sum(bucket seconds) == activated wall time``.
    """

    def __init__(self, sources: Sequence[Any] = (),
                 extras: Mapping[str, Callable[[], float]] | None = None,
                 party: str = "C1",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.party = party
        self._sources = list(sources)
        self._extras = dict(extras or {})
        self._clock = clock
        self._lock = threading.Lock()
        #: (path, party) -> [seconds, {op: count}]
        self._buckets: dict[tuple[str, str], list] = {}
        self._stack: list[tuple[str, str]] = []
        self._last_ops = self._snapshot()
        self._last_time = clock()
        self._active = False

    @classmethod
    def for_setting(cls, setting: Any, party: str = "C1",
                    clock: Callable[[], float] = time.perf_counter
                    ) -> "CostLedger":
        """A ledger over a two-party setting's key counters and engine pools.

        The one reader of Paillier counters that measures a run: every
        report's ``stats`` is a projection of the rows this ledger returns
        (:meth:`~repro.network.stats.ProtocolRunStats.from_cost_rows`).

        In the serial runtime both parties' keys (and thus all four op
        counters) are local; on a C1 daemon the remote private key carries
        an always-zero counter, so only C1-local work is ledgered here and
        C2's rows arrive through the ``telemetry.collect`` exchange.

        When the calling thread has an active *counting scope* (a daemon
        running pipelined queries wraps each query thread in one, see
        :func:`repro.crypto.paillier.counting_scope`), the scope counter is
        the sole source: the shared key counters mix every in-flight
        query's operations, while the scope tees off exactly this thread's.
        Without one the counters live on the shared key objects, so
        operations other threads perform meanwhile (sessions encrypting
        queries while a batch executes) land in this window too.
        """
        from repro.crypto import paillier as _paillier

        scope = _paillier.active_counting_scope()
        sources = ([scope] if scope is not None else
                   [setting.public_key.counter,
                    setting.decryptor.private_key.counter])
        parties = (setting.evaluator, setting.decryptor)

        def pool_hits() -> int:
            return sum(each.engine.pool_hit_total() for each in parties
                       if each.engine is not None)

        return cls(sources, extras={"pool_hits": pool_hits}, party=party,
                   clock=clock)

    # -- sampling --------------------------------------------------------------
    def _snapshot(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for source in self._sources:
            for op, value in source.snapshot().items():
                totals[op] = totals.get(op, 0) + value
        for name, sample in self._extras.items():
            try:
                totals[name] = totals.get(name, 0) + sample()
            except Exception:
                continue  # a broken extra must never break a query
        return totals

    def _charge(self, key: tuple[str, str], seconds: float,
                deltas: dict[str, float]) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = [0.0, {}]
        bucket[0] += seconds
        ops = bucket[1]
        for op, delta in deltas.items():
            if delta:
                ops[op] = ops.get(op, 0) + delta

    def _flush_locked(self, charge_time: bool = True) -> None:
        """Charge everything since the last transition to the current top."""
        now = self._clock()
        current = self._snapshot()
        deltas = {op: current[op] - self._last_ops.get(op, 0)
                  for op in current
                  if current[op] != self._last_ops.get(op, 0)}
        key = self._stack[-1] if self._stack else (OTHER_PHASE, self.party)
        elapsed = (now - self._last_time) if charge_time else 0.0
        if elapsed or deltas:
            self._charge(key, elapsed, deltas)
        self._last_ops = current
        self._last_time = now

    # -- scope stack (called by _CostScope) ------------------------------------
    def _push(self, phase: str, party: str | None) -> None:
        with self._lock:
            self._flush_locked(charge_time=self._active)
            if self._stack:
                parent_path, parent_party = self._stack[-1]
                path = f"{parent_path}/{phase}"
                owner = party or parent_party
            else:
                path = phase
                owner = party or self.party
            self._stack.append((path, owner))

    def _pop(self) -> None:
        with self._lock:
            self._flush_locked(charge_time=self._active)
            if self._stack:
                self._stack.pop()

    # -- activation ------------------------------------------------------------
    def activate(self) -> _Activation:
        """Bind this ledger to the calling context (``with`` statement).

        Reentrant across dispatches: a daemon activates one per-trace ledger
        around every handler it runs for that trace; operations performed
        between activations are still counted (into ``"other"``) but the
        idle wall time between them is not.
        """
        return _Activation(self)

    def _resume(self) -> None:
        with self._lock:
            # Operations since the last transition happened outside any
            # scope; the elapsed idle time is deliberately dropped.
            self._flush_locked(charge_time=False)
            self._active = True

    def _suspend(self) -> None:
        with self._lock:
            self._flush_locked(charge_time=True)
            self._active = False

    # -- results ---------------------------------------------------------------
    def finish(self) -> list[dict[str, Any]]:
        """Close the window and return the per-phase rollup rows.

        Rows are ``{"phase", "party", "seconds", "ops"}`` dictionaries with
        nested scopes rolled up into their outermost phase, sorted by
        descending seconds.  Trailing counter deltas (operations after the
        last deactivation) are charged to ``"other"`` first, so the rows'
        op totals equal the full counter deltas since construction.
        """
        with self._lock:
            self._flush_locked(charge_time=self._active)
            self._active = False
        return self.breakdown()

    def breakdown(self) -> list[dict[str, Any]]:
        """The rollup rows accumulated so far (see :meth:`finish`)."""
        merged: dict[tuple[str, str], list] = {}
        with self._lock:
            items = [(key, bucket[0], dict(bucket[1]))
                     for key, bucket in self._buckets.items()]
        for (path, party), seconds, ops in items:
            root = path.split("/", 1)[0]
            bucket = merged.setdefault((root, party), [0.0, {}])
            bucket[0] += seconds
            for op, count in ops.items():
                bucket[1][op] = bucket[1].get(op, 0) + count
        rows = [
            {"phase": phase, "party": party, "seconds": seconds, "ops": ops}
            for (phase, party), (seconds, ops) in merged.items()
            if seconds > 1e-9 or any(ops.values())
        ]
        rows.sort(key=lambda row: -row["seconds"])
        return rows


def cost_scope(phase: str, party: str | None = None):
    """A phase scope on the ambient ledger, or a shared no-op without one."""
    ledger = _ACTIVE_LEDGER.get()
    if ledger is None:
        return _NOOP_SCOPE
    return _CostScope(ledger, phase, party)


def wrap_span(span: Any, phase: str, party: str | None = None):
    """Pair a tracing span with a cost scope when a ledger is armed.

    Returns ``span`` unchanged otherwise, so instrumented hot paths pay one
    contextvar read and nothing else when profiling is off.
    """
    ledger = _ACTIVE_LEDGER.get()
    if ledger is None:
        return span
    return _SpanWithCost(span, _CostScope(ledger, phase, party))


def record_phase_metrics(rows: Iterable[Mapping[str, Any]],
                         registry: _metrics.MetricsRegistry | None = None
                         ) -> None:
    """Export ledger rollup rows as ``repro_phase_*`` metric families."""
    registry = registry if registry is not None else _metrics.get_registry()
    seconds = registry.histogram(
        "repro_phase_seconds",
        "Wall time attributed to each protocol phase by the cost ledger.",
        ("phase", "party"))
    ops = registry.counter(
        "repro_phase_ops_total",
        "Paillier operations (and pool hits) attributed to each phase.",
        ("phase", "party", "op"))
    for row in rows:
        seconds.observe(row["seconds"], phase=row["phase"],
                        party=row["party"])
        for op, count in row["ops"].items():
            if count > 0:
                ops.inc(count, phase=row["phase"], party=row["party"], op=op)


def phase_seconds_of(rows: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Per-phase seconds summed across parties (``report.phase_seconds``)."""
    out: dict[str, float] = {}
    for row in rows:
        out[row["phase"]] = out.get(row["phase"], 0.0) + row["seconds"]
    return out


def format_cost_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Aligned text rendering of rollup rows (CLI / smoke scripts)."""
    if not rows:
        return "(no cost attribution recorded)\n"
    header = (f"{'phase':<12} {'party':<5} {'seconds':>9} "
              f"{'enc':>7} {'dec':>7} {'exp':>7} {'add':>8} {'pool':>6}")
    lines = [header, "-" * len(header)]
    for row in rows:
        ops = row["ops"]
        lines.append(
            f"{row['phase']:<12} {row['party']:<5} {row['seconds']:>9.4f} "
            f"{int(ops.get('encryptions', 0)):>7} "
            f"{int(ops.get('decryptions', 0)):>7} "
            f"{int(ops.get('exponentiations', 0)):>7} "
            f"{int(ops.get('homomorphic_additions', 0)):>8} "
            f"{int(ops.get('pool_hits', 0)):>6}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------

class SamplingProfiler:
    """A low-overhead statistical stack sampler with collapsed-stack output.

    A daemon thread wakes every ``interval`` seconds, snapshots every
    thread's Python stack via :func:`sys._current_frames` (its own thread
    excluded) and increments one counter per collapsed stack.  The
    accumulated counts render in the flamegraph.pl text format, one
    ``frame;frame;leaf count`` line per distinct stack — pipe the output of
    ``/profile`` straight into ``flamegraph.pl``.

    ``frames`` and ``clock`` are injectable so tests can drive
    :meth:`sample_once` with handcrafted frames and a fake clock.
    """

    def __init__(self, interval: float = 0.01, max_depth: int = 64,
                 frames: Callable[[], Mapping[int, Any]] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.max_depth = max_depth
        self._frames = frames if frames is not None else sys._current_frames
        self._clock = clock
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # -- sampling --------------------------------------------------------------
    def _collapse(self, frame: Any) -> str:
        parts: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            parts.append(f"{basename(code.co_filename)}:{code.co_name}")
            frame = frame.f_back
            depth += 1
        parts.reverse()  # root first, leaf last — the flamegraph convention
        return ";".join(parts)

    def sample_once(self, frames: Mapping[int, Any] | None = None,
                    skip_thread: int | None = None) -> int:
        """Record one sample of every thread's stack; returns stacks seen."""
        snapshot = frames if frames is not None else self._frames()
        collapsed = [self._collapse(frame)
                     for thread_id, frame in snapshot.items()
                     if thread_id != skip_thread]
        with self._lock:
            self._samples += 1
            for stack in collapsed:
                if stack:
                    self._counts[stack] = self._counts.get(stack, 0) + 1
        return len(collapsed)

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            try:
                self.sample_once(skip_thread=own)
            except Exception:  # sampling must never take the process down
                continue

    # -- lifecycle -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is None:
            self._stop.clear()
            self._started_at = self._clock()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- output ----------------------------------------------------------------
    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def snapshot_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._samples = 0

    def collapsed(self, since: Mapping[str, int] | None = None) -> str:
        """The accumulated stacks (optionally minus a prior snapshot)."""
        current = self.snapshot_counts()
        if since:
            current = {stack: count - since.get(stack, 0)
                       for stack, count in current.items()
                       if count - since.get(stack, 0) > 0}
        lines = [f"{stack} {count}" for stack, count in
                 sorted(current.items(), key=lambda item: -item[1])]
        return "\n".join(lines) + ("\n" if lines else "")

    def collect_window(self, seconds: float) -> str:
        """Collapsed stacks observed over the next ``seconds`` (blocking).

        Requires the sampler to be running; callers without an armed
        profiler use :func:`profile_window` which spins up an ephemeral one.
        """
        before = self.snapshot_counts()
        time.sleep(max(seconds, 0.0))
        return self.collapsed(since=before)


def profile_window(profiler: SamplingProfiler | None, seconds: float,
                   max_seconds: float = 60.0) -> dict[str, Any]:
    """One profile scrape: collapsed stacks over a bounded window.

    Uses the armed ``profiler`` when one is running, otherwise arms an
    ephemeral sampler just for the window — ``/profile`` therefore works on
    every daemon, armed or not.
    """
    window = min(max(float(seconds), 0.05), max_seconds)
    if profiler is not None and profiler.running:
        text = profiler.collect_window(window)
        armed = True
        interval = profiler.interval
    else:
        with SamplingProfiler() as ephemeral:
            time.sleep(window)
            text = ephemeral.collapsed()
        armed = False
        interval = 0.01
    return {"collapsed": text, "seconds": window, "armed": armed,
            "interval": interval,
            "samples": sum(int(line.rsplit(" ", 1)[1])
                           for line in text.splitlines() if " " in line)}
