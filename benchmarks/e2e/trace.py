"""In-memory spans recorded *from outside* the program.

The benchmark owns its tracing: spans are opened around calls into each
module's public functions, either explicitly (``with tracer.span(...)`` in
the load generator) or by :func:`instrument`, which wraps the public
callables listed in :data:`TARGETS` for the duration of a traced run.  No
file under ``src/`` knows about any of this.

A :class:`Span` is ``(id, parent, query, name, thread, start, end)``.
Nesting is per thread, so the spans of one query form a tree rooted at the load
generator's ``loadgen.query`` span, and a span's *self time* is its
duration minus its direct children's.  By construction the self times of a
query's tree sum to the root's duration, which is the latency Bob observed.
Work the program does on other threads (the scheduler's serving thread)
records its own roots with no query id.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, NamedTuple

__all__ = ["Span", "Tracer", "TARGETS", "instrument"]

#: ``span name -> "module:Class.method"`` — the public entry points of each
#: layer that a traced run wraps.  Names are ``<module>.<function>``.
TARGETS: dict[str, str] = {
    "core.roles.encrypt_database":
        "repro.core.roles:DataOwner.encrypt_database",
    "core.roles.encrypt_query": "repro.core.roles:QueryClient.encrypt_query",
    "core.roles.reconstruct": "repro.core.roles:QueryClient.reconstruct",
    "core.sknn.run_with_report":
        "repro.core.sknn_base:SkNNProtocol.run_with_report",
    "core.parallel.pool_map": "repro.core.parallel:PersistentWorkerPool.map",
    "crypto.paillier.encrypt_batch":
        "repro.crypto.paillier:PaillierPublicKey.encrypt_batch",
    "crypto.paillier.scalar_mul_batch":
        "repro.crypto.paillier:PaillierPublicKey.scalar_mul_batch",
    "crypto.paillier.add_batch":
        "repro.crypto.paillier:PaillierPublicKey.add_batch",
    "crypto.paillier.decrypt_batch":
        "repro.crypto.paillier:PaillierPrivateKey.decrypt_residue_batch",
    "crypto.precompute.warm": "repro.crypto.precompute:PrecomputeEngine.warm",
    "crypto.precompute.take_masks":
        "repro.crypto.precompute:PrecomputeEngine.take_masks",
    "network.channel.send": "repro.network.channel:DuplexChannel.send",
    "network.channel.receive": "repro.network.channel:DuplexChannel.receive",
    "protocols.sm.run_batch":
        "repro.protocols.sm:SecureMultiplication.run_batch",
    "protocols.sm.run_square_batch":
        "repro.protocols.sm:SecureMultiplication.run_square_batch",
    "protocols.ssed.run_many":
        "repro.protocols.ssed:SecureSquaredEuclideanDistance.run_many",
    "service.scheduler.submit": "repro.service.scheduler:QueryServer.submit",
    "service.scheduler.result": "repro.service.scheduler:PendingQuery.result",
    "service.sharding.answer_batch":
        "repro.service.sharding:ShardedCloud.answer_batch",
    "service.sharding.scatter":
        "repro.service.sharding:ShardedCloud.scatter_distances",
    "transport.client.query": "repro.transport.client:RemoteCloud.query",
    "transport.client.request": "repro.transport.client:DaemonClient.request",
    "transport.supervisor.spawn":
        "repro.transport.supervisor:LocalSupervisor.start",
    "transport.supervisor.provision":
        "repro.transport.supervisor:LocalSupervisor.provision_from_owner",
    "transport.wire.encode": "repro.transport.wire:WireCodec.encode_message",
    "transport.wire.decode": "repro.transport.wire:WireCodec.decode_message",
}


class Span(NamedTuple):
    """One timed call; ``parent`` and ``query`` tie it into a query's tree."""

    id: int
    parent: int | None
    query: str | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while :attr:`enabled`; a disabled tracer costs one
    attribute read per wrapped call."""

    def __init__(self) -> None:
        self.enabled = False
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, query: str | None = None) -> Iterator[None]:
        """Record one span; children opened on this thread nest under it
        and inherit its query id."""
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent, parent_query = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        query = query if query is not None else parent_query
        stack.append((span_id, query))
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL; no lock on the hot path.
            self._spans.append(Span(span_id, parent, query, name,
                                    threading.get_ident(), started, ended))

    # -- analysis -------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``."""
        return [span.duration for span in self._spans if span.name == name]

    def self_times(self) -> dict[int, float]:
        """``{span id: duration minus direct children's durations}``."""
        own = {span.id: span.duration for span in self._spans}
        for span in self._spans:
            if span.parent in own:
                own[span.parent] -= span.duration
        return own

    def per_query(self) -> dict[str, dict[str, Any]]:
        """Per query id: root duration, summed self time, self time by name."""
        own = self.self_times()
        queries: dict[str, dict[str, Any]] = defaultdict(
            lambda: {"root_s": 0.0, "self_sum_s": 0.0,
                     "self_by_name_s": defaultdict(float)})
        for span in self._spans:
            if span.query is None:
                continue
            entry = queries[span.query]
            if span.parent is None:
                entry["root_s"] = span.duration
            entry["self_sum_s"] += own[span.id]
            entry["self_by_name_s"][span.name] += own[span.id]
        return queries

    def write(self, path: Path, **header: Any) -> None:
        """Dump every span (with self time) and the per-query sums."""
        own = self.self_times()
        payload = dict(header)
        payload["queries"] = {
            query: {"root_s": entry["root_s"],
                    "self_sum_s": entry["self_sum_s"],
                    "self_by_name_s": dict(entry["self_by_name_s"])}
            for query, entry in self.per_query().items()}
        payload["spans"] = [dict(span._asdict(), self_s=own[span.id])
                            for span in self._spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every callable in :data:`TARGETS` with a span; undo on exit."""
    originals: list[tuple[type, str, Any]] = []

    def wrap(name: str, function):
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            with tracer.span(name):
                return function(*args, **kwargs)
        traced.__wrapped__ = function
        return traced

    try:
        for name, target in TARGETS.items():
            module_name, _, qualified = target.partition(":")
            class_name, _, attribute = qualified.partition(".")
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(name, original))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)
