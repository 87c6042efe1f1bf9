"""Deadlines and idempotent-retry policy for the distributed runtime.

Two small primitives shared by every layer that talks to a remote process:

* :class:`Deadline` — an absolute point in monotonic time.  Blocking calls
  receive a deadline instead of a per-call timeout so that a multi-step
  operation (connect, send, await reply, fetch share) shares one overall
  bound: the sum of the steps can never exceed it.
* :class:`RetryPolicy` + :func:`retry_call` — bounded retries with
  exponential backoff and deterministic (seedable) jitter.  Only *retriable*
  failures are retried: the typed transport errors
  (:class:`~repro.exceptions.DeadlineExceeded`,
  :class:`~repro.exceptions.PeerUnavailable`,
  :class:`~repro.exceptions.ServiceUnavailable`) carry ``retriable = True``;
  everything else (protocol bugs, configuration errors) propagates on the
  first attempt.

Every retry is counted in the process-wide telemetry registry under
``repro_retries_total{op}`` so operators can see a degraded link before it
becomes an outage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, TypeVar

from repro.exceptions import DeadlineExceeded, ReproError
from repro.telemetry import metrics as _metrics

__all__ = ["Deadline", "RetryPolicy", "retry_call", "is_retriable"]

T = TypeVar("T")


def is_retriable(error: BaseException) -> bool:
    """Whether ``error`` is a transient failure a retry may cure."""
    return bool(getattr(error, "retriable", False))


class Deadline:
    """An absolute point in monotonic time shared by a multi-step operation.

    ``Deadline(None)`` never expires, so call sites can thread one object
    through unconditionally.
    """

    __slots__ = ("_expires_at", "seconds")

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._expires_at = (None if seconds is None
                            else time.monotonic() + seconds)

    @property
    def expires_at(self) -> float | None:
        """Monotonic timestamp this deadline expires at (``None`` = never)."""
        return self._expires_at

    def remaining(self) -> float | None:
        """Seconds left (may be negative); ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def require(self, operation: str) -> float | None:
        """Remaining seconds, raising :class:`DeadlineExceeded` when spent."""
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                f"{operation} exceeded its {self.seconds:.3f}s deadline")
        return remaining

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Deadline(remaining={self.remaining()})"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Args:
        max_attempts: total attempts including the first one.
        base_delay_seconds: backoff before the first retry.
        multiplier: growth factor per retry.
        max_delay_seconds: cap on any single backoff sleep.
        jitter: fraction of the computed delay randomized away (``0.5``
            means the sleep is uniform in ``[0.5*d, d]``).  Jitter draws
            come from the ``rng`` passed to :func:`retry_call`, so seeded
            tests get bit-reproducible schedules.
    """

    max_attempts: int = 4
    base_delay_seconds: float = 0.05
    multiplier: float = 2.0
    max_delay_seconds: float = 2.0
    jitter: float = 0.5

    def backoff_seconds(self, retry_index: int,
                        rng: Random | None = None) -> float:
        """Sleep before retry number ``retry_index`` (0-based)."""
        delay = min(self.base_delay_seconds * (self.multiplier ** retry_index),
                    self.max_delay_seconds)
        if self.jitter > 0 and rng is not None:
            delay *= 1.0 - self.jitter * rng.random()
        return delay

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt: failures propagate immediately."""
        return cls(max_attempts=1)


def retry_call(operation: Callable[[], T], policy: RetryPolicy,
               op: str = "call", rng: Random | None = None,
               deadline: Deadline | None = None,
               on_retry: Callable[[BaseException, int], Any] | None = None,
               ) -> T:
    """Run ``operation`` under ``policy``, retrying retriable failures.

    Args:
        operation: zero-argument callable; must be idempotent (the caller
            is responsible for replay keys — see
            :mod:`repro.resilience.idempotency`).
        policy: attempt/backoff schedule.
        op: label for the ``repro_retries_total`` counter.
        rng: jitter source (seedable for deterministic tests).
        deadline: overall bound across all attempts *and* backoff sleeps;
            when it would expire mid-backoff the last error is re-raised
            instead of sleeping past it.
        on_retry: observer invoked as ``on_retry(error, retry_index)``
            before each backoff sleep (used to re-establish connections or
            re-provision a restarted daemon between attempts).
    """
    retries = _metrics.get_registry().counter(
        "repro_retries_total",
        "Retried operations against a remote party, by operation.", ("op",))
    last_error: BaseException | None = None
    for attempt in range(max(1, policy.max_attempts)):
        if deadline is not None and deadline.expired():
            break
        try:
            return operation()
        except ReproError as error:
            if not is_retriable(error):
                raise
            last_error = error
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.backoff_seconds(attempt, rng)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None and remaining <= delay:
                    break  # sleeping would outlive the deadline
            retries.inc(op=op)
            if on_retry is not None:
                on_retry(error, attempt)
            if delay > 0:
                time.sleep(delay)
    assert last_error is not None
    raise last_error
