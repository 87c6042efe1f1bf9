"""Deterministic fault injection for the distributed runtime.

Two tools, both driven by a seeded :class:`ChaosSchedule` so every failure
scenario is bit-reproducible:

* :class:`ChaosSchedule` — maps a frame index to a fault action (``drop``,
  ``delay``, ``duplicate``, ``truncate``, ``corrupt``, ``reset``).  Faults
  are confined to a finite window of frame indices, so a retrying client is
  guaranteed to eventually see a clean run — chaos tests terminate.
* :class:`ChaosProxy` — a real TCP proxy that sits between two daemons (or
  between Bob and a daemon), parses the length-prefixed frame stream, and
  applies the schedule to individual frames: dropping them on the floor,
  delaying, duplicating, truncating mid-body (which poisons the stream and
  forces a reconnect), flipping payload bytes (which the wire codec rejects)
  or resetting the connection.  The proxy keeps accepting connections, so
  reconnect-and-retry layers dial straight back through it.

Every injected fault is counted under ``repro_chaos_faults_total{action}``
and appended to :attr:`ChaosProxy.events` — the chaos log the CI smoke step
uploads as an artifact.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.exceptions import ChannelError
from repro.telemetry import metrics as _metrics
from repro.transport.framing import (
    recv_frame,
    send_frame,
    setup_stream_socket,
)

__all__ = ["ChaosSchedule", "ChaosProxy"]

#: fault actions a schedule may assign to a frame index
ACTIONS = ("drop", "delay", "duplicate", "truncate", "corrupt", "reset")


@dataclass(frozen=True)
class ChaosSchedule:
    """Deterministic frame-index -> fault-action plan.

    Instances are plain data (frozen, comparable), so a test can assert the
    exact plan a seed produces.  ``action_for(index)`` is the single lookup
    the injection points use.
    """

    drops: frozenset = frozenset()
    delays: frozenset = frozenset()
    duplicates: frozenset = frozenset()
    truncates: frozenset = frozenset()
    corrupts: frozenset = frozenset()
    resets: frozenset = frozenset()
    delay_seconds: float = 0.05

    @classmethod
    def from_seed(cls, seed: int, window: int = 64, drops: int = 0,
                  delays: int = 0, duplicates: int = 0, truncates: int = 0,
                  corrupts: int = 0, resets: int = 0,
                  delay_seconds: float = 0.05,
                  first_frame: int = 0) -> "ChaosSchedule":
        """Draw distinct fault indices from ``[first_frame, first_frame +
        window)`` with a seeded RNG.  Faults never extend past the window,
        so retried operations eventually run clean."""
        rng = Random(seed)
        total = drops + delays + duplicates + truncates + corrupts + resets
        if total > window:
            raise ValueError(f"{total} faults do not fit in a {window}-frame "
                             f"window")
        indices = rng.sample(range(first_frame, first_frame + window), total)
        cursor = 0
        buckets = []
        for count in (drops, delays, duplicates, truncates, corrupts, resets):
            buckets.append(frozenset(indices[cursor:cursor + count]))
            cursor += count
        return cls(drops=buckets[0], delays=buckets[1], duplicates=buckets[2],
                   truncates=buckets[3], corrupts=buckets[4],
                   resets=buckets[5], delay_seconds=delay_seconds)

    @classmethod
    def clean(cls) -> "ChaosSchedule":
        """A schedule that never injects anything (pass-through)."""
        return cls()

    def action_for(self, index: int) -> str | None:
        if index in self.drops:
            return "drop"
        if index in self.delays:
            return "delay"
        if index in self.duplicates:
            return "duplicate"
        if index in self.truncates:
            return "truncate"
        if index in self.corrupts:
            return "corrupt"
        if index in self.resets:
            return "reset"
        return None


def _count_fault(action: str, where: str) -> None:
    _metrics.get_registry().counter(
        "repro_chaos_faults_total",
        "Faults injected by the chaos harness.", ("action", "where")).inc(
            action=action, where=where)


def _corrupt_payload(payload: Any, truncate: bool = False) -> Any:
    """A deterministically damaged copy of ``payload``."""
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return payload ^ 1
    if isinstance(payload, (list, tuple)):
        if truncate and len(payload) > 0:
            return type(payload)(payload[:-1])
        if payload:
            damaged = list(payload)
            damaged[0] = _corrupt_payload(damaged[0], truncate=truncate)
            return type(payload)(damaged)
        return payload
    if isinstance(payload, str):
        return payload + "\x00"
    return payload


class _ProxyLink:
    """One accepted client connection paired with its upstream dial."""

    def __init__(self, downstream: socket.socket,
                 upstream: socket.socket) -> None:
        self.downstream = downstream
        self.upstream = upstream
        self._closed = False
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for sock in (self.downstream, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """Frame-aware TCP proxy injecting a seeded fault schedule.

    Args:
        target: ``(host, port)`` the proxy forwards to.
        forward: schedule applied to frames flowing client -> target.
        backward: schedule applied to frames flowing target -> client
            (defaults to clean).
        label: tag for the chaos log and metrics.

    Frame indices count *per direction across all connections*, so a
    schedule windowed to the first N frames is exhausted even when faults
    force reconnects — the retrying system converges to a clean run.
    """

    def __init__(self, target: tuple[str, int],
                 forward: ChaosSchedule | None = None,
                 backward: ChaosSchedule | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 label: str = "proxy") -> None:
        self.target = target
        self.schedules = {"forward": forward or ChaosSchedule.clean(),
                          "backward": backward or ChaosSchedule.clean()}
        self.label = label
        self.events: list[dict[str, Any]] = []
        self._counters = {"forward": 0, "backward": 0}
        self._counter_lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._links: set[_ProxyLink] = set()
        self._links_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    def start(self) -> "ChaosProxy":
        thread = threading.Thread(target=self._accept_loop,
                                  name="chaos-proxy-accept", daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                break
            try:
                # Both legs get the product's socket setup, so a faulted
                # run's latencies are the schedule's, not Nagle's.
                setup_stream_socket(downstream)
                upstream = setup_stream_socket(
                    socket.create_connection(self.target, timeout=10))
            except OSError:
                downstream.close()
                continue
            link = _ProxyLink(downstream, upstream)
            with self._links_lock:
                self._links.add(link)
            for direction, src, dst in (("forward", downstream, upstream),
                                        ("backward", upstream, downstream)):
                pump = threading.Thread(
                    target=self._pump, args=(link, direction, src, dst),
                    name=f"chaos-proxy-{direction}", daemon=True)
                pump.start()
                self._threads.append(pump)

    def _next_index(self, direction: str) -> int:
        with self._counter_lock:
            index = self._counters[direction]
            self._counters[direction] = index + 1
            return index

    def _record(self, direction: str, index: int, action: str,
                size: int) -> None:
        self.events.append({"direction": direction, "frame": index,
                            "action": action, "bytes": size})
        _count_fault(action, self.label)

    def _pump(self, link: _ProxyLink, direction: str, src: socket.socket,
              dst: socket.socket) -> None:
        schedule = self.schedules[direction]
        try:
            while not self._stop.is_set():
                body = recv_frame(src)
                if body is None:
                    break
                index = self._next_index(direction)
                action = schedule.action_for(index)
                if action is None:
                    send_frame(dst, body)
                    continue
                self._record(direction, index, action, len(body))
                if action == "drop":
                    continue
                if action == "delay":
                    time.sleep(schedule.delay_seconds)
                    send_frame(dst, body)
                elif action == "duplicate":
                    send_frame(dst, body)
                    send_frame(dst, body)
                elif action == "corrupt":
                    # Flip bits mid-body: framing stays intact, decoding
                    # fails on the receiving side.
                    damaged = bytearray(body)
                    damaged[len(damaged) // 2] ^= 0xFF
                    send_frame(dst, bytes(damaged))
                elif action == "truncate":
                    # Advertise the full length but stop mid-body and kill
                    # the stream: the receiver sees a framing error.
                    header = len(body).to_bytes(4, "big")
                    dst.sendall(header + body[: max(1, len(body) // 2)])
                    break
                elif action == "reset":
                    break
        except (ChannelError, OSError):
            pass
        finally:
            link.close()
            with self._links_lock:
                self._links.discard(link)

    def close(self) -> None:
        """Stop accepting, sever every live link, join the pump threads."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._links_lock:
            links = list(self._links)
        for link in links:
            link.close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
