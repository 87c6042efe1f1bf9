"""Idempotent request execution: replay caches keyed by client-chosen ids.

The retry layer (:mod:`repro.resilience.policy`) may resend a request whose
first attempt actually *succeeded* — the reply frame was lost, not the work.
Re-executing such a request would double-consume single-use state: a
precompute-pool entry, a one-shot share in the C2 mailbox, a delivery id.
:class:`ReplyCache` makes re-execution safe by memoizing the reply under the
client-chosen idempotency key:

* a **duplicate** of a completed request returns the recorded reply without
  re-running the handler;
* a duplicate of a request still **in flight** joins it — the second thread
  blocks (bounded by its deadline) until the first finishes, then shares its
  reply, implementing "re-attach to an in-flight query";
* a **failed** attempt leaves no record, so the retry genuinely re-runs.

The cache is bounded: completed entries are evicted FIFO once ``capacity``
is exceeded, which bounds a daemon's memory under a client that never reuses
ids (the normal case — ids are fresh per logical query, reused only by its
retries, which arrive promptly or never).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from repro.exceptions import DeadlineExceeded
from repro.resilience.durability import Journal
from repro.telemetry import metrics as _metrics

__all__ = ["ReplyCache"]


class _Entry:
    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None


class ReplyCache:
    """Bounded memo of request replies keyed by client idempotency ids.

    With a :class:`~repro.resilience.durability.Journal`, completed replies
    survive a restart: the journal is replayed when the cache is built,
    every completion and ``clear()`` (a new provisioning epoch) is journaled
    before it becomes visible to waiters, and after a SIGKILL the same query
    id replays the recorded answer with zero re-execution.
    """

    def __init__(self, capacity: int = 64, name: str = "replies",
                 journal: Journal | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._condition = threading.Condition()
        self.replays = 0  # duplicates served from the cache (incl. joins)
        self._journal = journal
        for record in journal.open() if journal is not None else ():
            if isinstance(record, dict):
                self._apply(record)
        #: completed replies brought back by journal replay
        self.recovered = len(self._entries)

    def run(self, key: str | None, compute: Callable[[], Any],
            timeout: float | None = None) -> Any:
        """Execute ``compute`` exactly once per ``key``; replay its reply.

        ``key=None`` disables idempotency (legacy clients): the handler runs
        unconditionally.  ``timeout`` bounds how long a duplicate waits for
        an in-flight original before raising :class:`DeadlineExceeded`.
        """
        if key is None:
            return compute()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                entry = self._entries.get(key)
                if entry is None:
                    entry = _Entry()
                    self._entries[key] = entry
                    break  # we own the computation
                if entry.done:
                    self.replays += 1
                    self._count_replay()
                    return entry.value
                # Original attempt still running: join it.
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise DeadlineExceeded(
                        f"request {key!r} still in flight after "
                        f"{timeout:.1f}s")
                if not self._condition.wait(remaining):
                    raise DeadlineExceeded(
                        f"request {key!r} still in flight after "
                        f"{timeout:.1f}s")
        try:
            value = compute()
            with self._condition:
                if self._entries.get(key) is entry:  # not wiped by clear()
                    self._transition({"op": "reply", "key": key,
                                      "value": value})
                self._condition.notify_all()
        except BaseException:
            # Failures are not memoized: a retry must re-run the handler.
            # (A failed journal append counts as a failure too — a reply
            # that could not be made durable is never served from memory.)
            with self._condition:
                if self._entries.get(key) is entry:
                    del self._entries[key]
                self._condition.notify_all()
            raise
        return value

    # -- transitions (caller locks; journal replay shares _apply) -----------
    def _transition(self, record: dict[str, Any]) -> None:
        """Journal ``record``, apply it, then compact from the new state."""
        if self._journal is not None:
            self._journal.append(record)
        self._apply(record)
        if self._journal is not None:
            self._journal.compact(self._live_records)

    def _apply(self, record: dict[str, Any]) -> None:
        operation = record.get("op")
        if operation == "clear":
            self._entries.clear()
        elif operation == "reply" and isinstance(record.get("key"), str):
            entry = self._entries.setdefault(record["key"], _Entry())
            entry.done = True
            entry.value = record.get("value")
            self._evict_completed()

    def _live_records(self) -> list[dict[str, Any]]:
        return [{"op": "reply", "key": key, "value": entry.value}
                for key, entry in self._entries.items() if entry.done]

    def _count_replay(self) -> None:
        _metrics.get_registry().counter(
            "repro_replayed_replies_total",
            "Duplicate idempotent requests served from the reply cache.",
            ("cache",)).inc(cache=self.name)

    def _evict_completed(self) -> None:
        """Drop oldest *completed* entries beyond capacity (caller locks)."""
        if len(self._entries) <= self.capacity:
            return
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.done:
                del self._entries[key]
                if len(self._entries) <= self.capacity:
                    return

    def clear(self) -> None:
        """Forget everything (a new provisioning epoch began)."""
        with self._condition:
            self._transition({"op": "clear"})
            self._condition.notify_all()

    def close(self) -> None:
        """Close the journal handle (entries stay on disk for replay)."""
        if self._journal is not None:
            self._journal.close()

    @property
    def journal_records(self) -> int:
        """Records currently in the journal file (0 without a journal)."""
        return self._journal.records if self._journal is not None else 0

    def __len__(self) -> int:
        with self._condition:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._condition:
            entry = self._entries.get(key)
            return entry is not None and entry.done
