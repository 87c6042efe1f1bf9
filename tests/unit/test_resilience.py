"""Unit tests for the resilience layer: deadlines, retries, idempotency,
health probes and the chaos harness."""

from __future__ import annotations

import socket
import threading
import time
from random import Random

import pytest

from repro.exceptions import (
    ChannelError,
    DeadlineExceeded,
    PeerUnavailable,
    QueryError,
    ServiceUnavailable,
)
from repro.resilience import (
    ChaosProxy,
    ChaosSchedule,
    Deadline,
    ReplyCache,
    RetryPolicy,
    is_retriable,
    probe_daemon,
    retry_call,
    wait_until_healthy,
)
from repro.telemetry import metrics as telemetry_metrics
from repro.transport.daemon import C2Daemon, ShareMailbox
from repro.transport.framing import deadline_at, recv_frame, send_frame
from repro.transport.wire import WireCodec
from tests.conftest import socket_channel_pair


def counter_total(name: str) -> float:
    entry = telemetry_metrics.get_registry().snapshot().get(name)
    if not entry:
        return 0.0
    return sum(entry["values"].values())


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------

class TestErrorTaxonomy:
    def test_transport_errors_are_retriable_channel_errors(self):
        assert issubclass(DeadlineExceeded, ChannelError)
        assert issubclass(PeerUnavailable, ChannelError)
        assert is_retriable(DeadlineExceeded("x"))
        assert is_retriable(PeerUnavailable("x"))
        assert is_retriable(ServiceUnavailable("x"))

    def test_protocol_errors_are_not_retriable(self):
        assert not is_retriable(ChannelError("x"))
        assert not is_retriable(QueryError("x"))
        assert not is_retriable(ValueError("x"))

    def test_service_unavailable_carries_retry_hint(self):
        error = ServiceUnavailable("busy", retry_after_seconds=2.5)
        assert error.retry_after_seconds == 2.5


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        assert deadline.require("op") is None

    def test_bounded_deadline_expires(self):
        deadline = Deadline(0.01)
        assert deadline.remaining() <= 0.01
        time.sleep(0.02)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="op exceeded"):
            deadline.require("op")

    def test_deadline_at_converts_timeout(self):
        assert deadline_at(None) is None
        absolute = deadline_at(5.0)
        assert absolute > time.monotonic()


# ---------------------------------------------------------------------------
# RetryPolicy / retry_call
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_seconds=0.1, multiplier=2.0,
                             max_delay_seconds=0.3, jitter=0.0)
        delays = [policy.backoff_seconds(i) for i in range(4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_under_a_seed(self):
        policy = RetryPolicy(jitter=0.5)
        first = [policy.backoff_seconds(i, Random(7)) for i in range(3)]
        second = [policy.backoff_seconds(i, Random(7)) for i in range(3)]
        assert first == second

    def test_retry_call_retries_only_retriable_errors(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise PeerUnavailable("down")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay_seconds=0.0,
                             jitter=0.0)
        assert retry_call(flaky, policy, op="unit") == "ok"
        assert len(attempts) == 3

    def test_retry_call_propagates_non_retriable_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise QueryError("bad k")

        with pytest.raises(QueryError):
            retry_call(broken, RetryPolicy(max_attempts=5,
                                           base_delay_seconds=0.0))
        assert len(attempts) == 1

    def test_retry_call_exhausts_attempts(self):
        def always_down():
            raise PeerUnavailable("down")

        with pytest.raises(PeerUnavailable):
            retry_call(always_down,
                       RetryPolicy(max_attempts=3, base_delay_seconds=0.0),
                       op="unit-exhaust")

    def test_retry_call_counts_retries(self):
        before = counter_total("repro_retries_total")

        def flaky(state=[0]):
            state[0] += 1
            if state[0] == 1:
                raise DeadlineExceeded("slow")
            return state[0]

        retry_call(flaky, RetryPolicy(max_attempts=2, base_delay_seconds=0.0))
        assert counter_total("repro_retries_total") == before + 1

    def test_retry_call_respects_deadline(self):
        started = time.monotonic()

        def always_down():
            raise PeerUnavailable("down")

        with pytest.raises(PeerUnavailable):
            retry_call(always_down,
                       RetryPolicy(max_attempts=100,
                                   base_delay_seconds=0.05, jitter=0.0),
                       deadline=Deadline(0.15))
        assert time.monotonic() - started < 1.0

    def test_on_retry_hook_runs_between_attempts(self):
        seen = []

        def flaky(state=[0]):
            state[0] += 1
            if state[0] < 2:
                raise PeerUnavailable("down")
            return "ok"

        retry_call(flaky, RetryPolicy(max_attempts=3, base_delay_seconds=0.0),
                   on_retry=lambda error, attempt: seen.append(
                       (type(error).__name__, attempt)))
        assert seen == [("PeerUnavailable", 0)]

    def test_none_policy_is_single_attempt(self):
        assert RetryPolicy.none().max_attempts == 1


# ---------------------------------------------------------------------------
# ReplyCache
# ---------------------------------------------------------------------------

class TestReplyCache:
    def test_duplicate_key_replays_without_recompute(self):
        cache = ReplyCache(name="unit")
        calls = []
        compute = lambda: calls.append(1) or {"answer": 42}
        first = cache.run("q1", compute)
        second = cache.run("q1", compute)
        assert first == second == {"answer": 42}
        assert len(calls) == 1
        assert cache.replays == 1

    def test_none_key_disables_idempotency(self):
        cache = ReplyCache(name="unit")
        calls = []
        cache.run(None, lambda: calls.append(1))
        cache.run(None, lambda: calls.append(1))
        assert len(calls) == 2

    def test_failed_attempt_is_not_memoized(self):
        cache = ReplyCache(name="unit")
        state = [0]

        def sometimes():
            state[0] += 1
            if state[0] == 1:
                raise PeerUnavailable("first attempt dies")
            return "second"

        with pytest.raises(PeerUnavailable):
            cache.run("q1", sometimes)
        assert cache.run("q1", sometimes) == "second"
        assert state[0] == 2

    def test_in_flight_duplicate_joins_the_original(self):
        cache = ReplyCache(name="unit")
        release = threading.Event()
        results = []

        def slow():
            release.wait(5.0)
            return "shared"

        owner = threading.Thread(
            target=lambda: results.append(cache.run("q", slow)))
        owner.start()
        time.sleep(0.05)  # let the owner claim the entry
        joiner = threading.Thread(
            target=lambda: results.append(
                cache.run("q", lambda: "never runs", timeout=5.0)))
        joiner.start()
        release.set()
        owner.join(5.0)
        joiner.join(5.0)
        assert results == ["shared", "shared"]

    def test_in_flight_join_times_out(self):
        cache = ReplyCache(name="unit")
        release = threading.Event()
        owner = threading.Thread(
            target=lambda: cache.run("q", lambda: release.wait(5.0)))
        owner.start()
        time.sleep(0.05)
        with pytest.raises(DeadlineExceeded, match="still in flight"):
            cache.run("q", lambda: "x", timeout=0.1)
        release.set()
        owner.join(5.0)

    def test_capacity_bounds_completed_entries(self):
        cache = ReplyCache(capacity=4, name="unit")
        for i in range(10):
            cache.run(f"q{i}", lambda i=i: i)
        assert len(cache) <= 4
        # the newest entry survives eviction
        assert "q9" in cache

    def test_clear_forgets_replies(self):
        cache = ReplyCache(name="unit")
        cache.run("q", lambda: "old epoch")
        cache.clear()
        assert cache.run("q", lambda: "new epoch") == "new epoch"

    def test_hammer_joins_and_evictions_never_run_a_key_concurrently(self):
        """Stress the join + FIFO-eviction paths from many threads at once.

        Eight workers fire replays at eight keys through a capacity-4 cache,
        so joins (duplicate of an in-flight key) and evictions (completed
        entries pushed out FIFO) interleave constantly.  The invariant: two
        computations for the same key never overlap in time — a duplicate
        either joins the in-flight original or, post-eviction, starts a new
        computation strictly after the previous one finished.
        """
        cache = ReplyCache(capacity=4, name="hammer")
        keys = [f"q{index}" for index in range(8)]
        in_flight: dict[str, int] = {key: 0 for key in keys}
        generations: dict[str, int] = {key: 0 for key in keys}
        state_lock = threading.Lock()
        violations: list[str] = []
        errors: list[BaseException] = []

        def compute(key: str):
            with state_lock:
                in_flight[key] += 1
                if in_flight[key] > 1:
                    violations.append(key)
                generations[key] += 1
                generation = generations[key]
            time.sleep(0.001)  # widen the window so overlaps would show
            with state_lock:
                in_flight[key] -= 1
            return (key, generation)

        def worker(seed: int) -> None:
            rng = Random(seed)
            try:
                for _ in range(40):
                    key = rng.choice(keys)
                    value = cache.run(key, lambda key=key: compute(key),
                                      timeout=10.0)
                    assert value[0] == key  # never another key's reply
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert not violations, (
            f"concurrent computations observed for keys {set(violations)}")
        assert len(cache) <= 4  # FIFO eviction kept the memo bounded


# ---------------------------------------------------------------------------
# ShareMailbox idempotency
# ---------------------------------------------------------------------------

class TestShareMailbox:
    def test_fetch_without_token_stays_single_use(self):
        mailbox = ShareMailbox()
        mailbox.put(7, [[1, 2]])
        assert mailbox.fetch(7, timeout=0.1) == [[1, 2]]
        with pytest.raises(ChannelError, match="no share filed"):
            mailbox.fetch(7, timeout=0.05)

    def test_fetch_timeout_is_a_typed_deadline(self):
        mailbox = ShareMailbox()
        with pytest.raises(DeadlineExceeded, match="no share filed"):
            mailbox.fetch(99, timeout=0.05)

    def test_same_token_replays_the_delivered_share(self):
        mailbox = ShareMailbox()
        mailbox.put(7, [[1, 2]])
        first = mailbox.fetch(7, timeout=0.1, attempt="q-a-1")
        replay = mailbox.fetch(7, timeout=0.1, attempt="q-a-1")
        assert first == replay == [[1, 2]]
        assert len(mailbox) == 0  # still consumed exactly once

    def test_different_token_is_refused(self):
        mailbox = ShareMailbox()
        mailbox.put(7, [[1, 2]])
        mailbox.fetch(7, timeout=0.1, attempt="q-a-1")
        with pytest.raises(DeadlineExceeded, match="no share filed"):
            mailbox.fetch(7, timeout=0.05, attempt="q-b-1")

    def test_tokenless_refetch_after_token_fetch_is_refused(self):
        mailbox = ShareMailbox()
        mailbox.put(7, [[1, 2]])
        mailbox.fetch(7, timeout=0.1, attempt="q-a-1")
        with pytest.raises(ChannelError, match="no share filed"):
            mailbox.fetch(7, timeout=0.05)

    def test_clear_drops_the_replay_memo(self):
        mailbox = ShareMailbox()
        mailbox.put(7, [[1, 2]])
        mailbox.fetch(7, timeout=0.1, attempt="q-a-1")
        mailbox.clear()
        with pytest.raises(DeadlineExceeded):
            mailbox.fetch(7, timeout=0.05, attempt="q-a-1")

    def test_memo_is_bounded(self):
        mailbox = ShareMailbox()
        for i in range(ShareMailbox.DELIVERED_MEMO + 5):
            mailbox.put(i, [[i]])
            mailbox.fetch(i, timeout=0.1, attempt=f"q-{i}")
        with pytest.raises(DeadlineExceeded):
            mailbox.fetch(0, timeout=0.05, attempt="q-0")  # evicted
        last = ShareMailbox.DELIVERED_MEMO + 4
        assert mailbox.fetch(last, timeout=0.1,
                             attempt=f"q-{last}") == [[last]]


# ---------------------------------------------------------------------------
# Framing + socket-channel deadlines
# ---------------------------------------------------------------------------

class TestFramingDeadlines:
    def test_recv_frame_times_out_on_a_silent_peer(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(DeadlineExceeded, match="no frame within"):
                recv_frame(left, deadline=deadline_at(0.1))
        finally:
            left.close()
            right.close()

    def test_recv_frame_deadline_spans_header_and_body(self):
        left, right = socket.socketpair()
        try:
            right.sendall((100).to_bytes(4, "big") + b"partial")
            with pytest.raises(DeadlineExceeded):
                recv_frame(left, deadline=deadline_at(0.1))
        finally:
            left.close()
            right.close()

    def test_closed_socket_raises_peer_unavailable(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(PeerUnavailable, match="send failed"):
                send_frame(left, b"body")
        finally:
            right.close()

    def test_clean_roundtrip_with_deadline(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, b"hello", deadline=deadline_at(1.0))
            assert recv_frame(right, deadline=deadline_at(1.0)) == b"hello"
            # the deadline is disarmed afterwards
            assert right.gettimeout() is None
        finally:
            left.close()
            right.close()


class TestTcpChannelDeadlines:
    """Deadlines on the socket channel (a MuxChannel default context)."""

    def _channel_pair(self, io_deadline=None):
        return socket_channel_pair(WireCodec(), io_deadline=io_deadline)

    def test_receive_hits_io_deadline(self):
        c1, c2 = self._channel_pair(io_deadline=0.1)
        try:
            before = counter_total("repro_deadline_hits_total")
            with pytest.raises(DeadlineExceeded):
                c1.receive("C1")
            assert counter_total("repro_deadline_hits_total") == before + 1
        finally:
            c1.connection.close()
            c2.connection.close()

    def test_peer_close_is_typed(self):
        c1, c2 = self._channel_pair()
        c2.connection.close()
        try:
            with pytest.raises(PeerUnavailable, match="connection to C2"):
                c1.receive("C1")
        finally:
            c1.connection.close()

    def test_next_tag_timeout_is_opt_in(self):
        c1, c2 = self._channel_pair(io_deadline=0.1)
        try:
            c2.send("C2", {"x": 1}, tag="step.1")
            # io_deadline does not bound the idle dispatch wait, but an
            # explicit timeout does; a queued frame returns immediately.
            assert c1.next_tag(timeout=1.0) == "step.1"
            assert c1.receive("C1", expected_tag="step.1") == {"x": 1}
            with pytest.raises(DeadlineExceeded):
                c1.next_tag(timeout=0.05)
        finally:
            c1.connection.close()
            c2.connection.close()


# ---------------------------------------------------------------------------
# Health probes
# ---------------------------------------------------------------------------

class TestHealth:
    def test_probe_refused_connection_is_peer_unavailable(self):
        # Bind-then-close guarantees a dead port.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()[:2]
        placeholder.close()
        with pytest.raises(PeerUnavailable, match="not accepting"):
            probe_daemon(address, timeout=0.5)

    def test_wait_until_healthy_times_out(self):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()[:2]
        placeholder.close()
        with pytest.raises(DeadlineExceeded, match="did not become healthy"):
            wait_until_healthy(address, timeout=0.3, interval=0.05)

    def test_probe_live_daemon(self):
        daemon = C2Daemon(port=0)
        daemon.start()
        try:
            payload = probe_daemon((daemon.host, daemon.port), timeout=5.0)
            assert payload["role"] == "c2"
            assert payload["provisioned"] is False
            assert payload["uptime_seconds"] >= 0
            healthy = wait_until_healthy((daemon.host, daemon.port),
                                         timeout=5.0)
            assert healthy["role"] == "c2"
        finally:
            daemon.close()


# ---------------------------------------------------------------------------
# Chaos schedule + proxy
# ---------------------------------------------------------------------------

class TestChaosSchedule:
    def test_from_seed_is_deterministic(self):
        a = ChaosSchedule.from_seed(7, window=32, drops=2, corrupts=1)
        b = ChaosSchedule.from_seed(7, window=32, drops=2, corrupts=1)
        assert a == b
        assert len(a.drops) + len(a.corrupts) == 3

    def test_fault_indices_stay_in_window(self):
        schedule = ChaosSchedule.from_seed(3, window=16, drops=4, resets=2,
                                           first_frame=10)
        indices = (schedule.drops | schedule.resets)
        assert all(10 <= index < 26 for index in indices)

    def test_overfull_window_is_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            ChaosSchedule.from_seed(1, window=2, drops=3)

    def test_clean_schedule_never_fires(self):
        schedule = ChaosSchedule.clean()
        assert all(schedule.action_for(i) is None for i in range(100))


class _EchoServer:
    """Minimal frame echo endpoint to exercise the proxy."""

    def __init__(self):
        self.listener = socket.socket()
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.address = self.listener.getsockname()[:2]
        self._threads = []
        self._accept = threading.Thread(target=self._loop, daemon=True)
        self._accept.start()

    def _loop(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._echo, args=(sock,),
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def _echo(self, sock):
        try:
            while True:
                body = recv_frame(sock)
                if body is None:
                    return
                send_frame(sock, body)
        except ChannelError:
            return
        finally:
            sock.close()

    def close(self):
        self.listener.close()


class TestChaosProxy:
    def test_clean_proxy_passes_frames_through(self):
        server = _EchoServer()
        with ChaosProxy(server.address) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            try:
                send_frame(sock, b"ping")
                assert recv_frame(sock, deadline=deadline_at(5.0)) == b"ping"
            finally:
                sock.close()
        server.close()

    def test_dropped_frame_forces_a_deadline(self):
        server = _EchoServer()
        schedule = ChaosSchedule(drops=frozenset({0}))
        with ChaosProxy(server.address, forward=schedule) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            try:
                send_frame(sock, b"lost")
                with pytest.raises(DeadlineExceeded):
                    recv_frame(sock, deadline=deadline_at(0.3))
                # the window is exhausted: the next frame survives
                send_frame(sock, b"kept")
                assert recv_frame(sock, deadline=deadline_at(5.0)) == b"kept"
            finally:
                sock.close()
            assert proxy.events[0]["action"] == "drop"
        server.close()

    def test_reset_kills_the_connection_but_reconnect_works(self):
        server = _EchoServer()
        schedule = ChaosSchedule(resets=frozenset({0}))
        with ChaosProxy(server.address, forward=schedule) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            try:
                send_frame(sock, b"boom")
                assert recv_frame(sock, deadline=deadline_at(2.0)) is None
            finally:
                sock.close()
            # frame counters persist across connections: index 1 is clean
            retry = socket.create_connection(proxy.address, timeout=5)
            try:
                send_frame(retry, b"again")
                assert recv_frame(retry,
                                  deadline=deadline_at(5.0)) == b"again"
            finally:
                retry.close()
        server.close()

    def test_corrupt_flips_bytes(self):
        server = _EchoServer()
        schedule = ChaosSchedule(corrupts=frozenset({0}))
        with ChaosProxy(server.address, forward=schedule) as proxy:
            sock = socket.create_connection(proxy.address, timeout=5)
            try:
                send_frame(sock, b"abcd")
                echoed = recv_frame(sock, deadline=deadline_at(5.0))
                assert echoed != b"abcd" and len(echoed) == 4
            finally:
                sock.close()
        server.close()
