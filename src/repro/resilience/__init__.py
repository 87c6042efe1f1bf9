"""Fault tolerance for the distributed runtime.

The paper's protocol assumes C1 and C2 never fail and every message
arrives; ``repro.resilience`` is the layer that removes that assumption
from the deployed system:

* :mod:`repro.resilience.policy` — :class:`Deadline` (absolute bounds on
  every blocking operation) and :class:`RetryPolicy`/:func:`retry_call`
  (bounded exponential backoff with seedable jitter, retrying only typed
  *retriable* failures).
* :mod:`repro.resilience.idempotency` — :class:`ReplyCache`, the replay
  memo that makes retried ``transport.query``/``transport.fetch_share``
  requests safe: a duplicate never re-consumes single-use pool entries or
  mailbox shares, and a duplicate of an in-flight request re-attaches to it.
  Given a :class:`Journal`, its completed replies survive a restart.
* :mod:`repro.resilience.durability` — crash-consistent persistence:
  atomic CRC-checked snapshots (tmp + fsync + rename), the append-only
  :class:`Journal` with replay-on-open and torn-tail repair, and the
  crash-point injection harness
  (:func:`arm_crash_point` / ``REPRO_CRASH_POINT``) that proves the
  atomicity guarantees under SIGKILL at every boundary.
* :mod:`repro.resilience.health` — control-plane liveness probes gating
  supervisor restarts.
* :mod:`repro.resilience.chaos` — the deterministic fault-injection
  harness (:class:`ChaosSchedule`, :class:`ChaosProxy`) behind
  ``tests/integration/test_chaos.py`` and the CI ``chaos-smoke`` step.

Every resilience event — retries, reconnects, deadline hits, restarts,
injected faults — is counted in the :mod:`repro.telemetry` registry
(``repro_retries_total``, ``repro_reconnects_total``,
``repro_deadline_hits_total``, ``repro_daemon_restarts_total``,
``repro_chaos_faults_total``) and surfaced by ``repro stats``.
"""

from repro.resilience.chaos import ChaosProxy, ChaosSchedule
from repro.resilience.durability import (
    CrashPointFired,
    Journal,
    arm_crash_point,
    crash_point,
    disarm_crash_points,
    read_snapshot,
    write_snapshot,
)
from repro.resilience.health import probe_daemon, wait_until_healthy
from repro.resilience.idempotency import ReplyCache
from repro.resilience.policy import Deadline, RetryPolicy, is_retriable, retry_call

__all__ = [
    "ChaosProxy",
    "ChaosSchedule",
    "CrashPointFired",
    "Deadline",
    "Journal",
    "ReplyCache",
    "RetryPolicy",
    "arm_crash_point",
    "crash_point",
    "disarm_crash_points",
    "is_retriable",
    "probe_daemon",
    "read_snapshot",
    "retry_call",
    "wait_until_healthy",
    "write_snapshot",
]
