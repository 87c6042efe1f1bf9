"""Property-based tests for the resilience layer's idempotency guarantees.

The retry layer may replay any request an arbitrary number of times, in any
interleaving, and the system must behave as if each logical operation ran
exactly once: a duplicated query never re-runs the (counter-incrementing)
crypto work, a replayed ``fetch_share`` never yields a second share, and
single-use mailbox semantics survive every retry schedule Hypothesis can
invent.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tests.property.conftest import cached_keypair
from repro.exceptions import ChannelError, DeadlineExceeded, PeerUnavailable
from repro.resilience import ReplyCache, RetryPolicy, durability, retry_call
from repro.resilience.durability import Journal
from repro.transport.daemon import ShareMailbox

# A "schedule" is the order the client replays request keys in, duplicates
# and all — exactly what a retrying DaemonClient can generate.
key_schedules = st.lists(
    st.sampled_from(["q-a", "q-b", "q-c", "q-d"]), min_size=1, max_size=24)


@given(schedule=key_schedules)
def test_reply_cache_computes_each_key_exactly_once(schedule):
    cache = ReplyCache(name="prop")
    calls: dict[str, int] = {}

    def run(key):
        def compute():
            calls[key] = calls.get(key, 0) + 1
            return ("reply", key, calls[key])
        return cache.run(key, compute)

    results = {key: run(key) for key in schedule}
    for key in schedule:
        assert calls[key] == 1
        # every replay observed the first attempt's reply verbatim
        assert run(key) == results[key] == ("reply", key, 1)


@given(schedule=key_schedules)
def test_duplicated_queries_never_double_increment_paillier_counters(schedule):
    """A replayed transport.query must not redo encryption work."""
    public_key = cached_keypair(bits=128).public_key
    cache = ReplyCache(name="prop-crypto")
    before = public_key.counter.snapshot()["encryptions"]

    for key in schedule:
        cache.run(key, lambda: public_key.encrypt(7, rng=Random(1)))

    performed = public_key.counter.snapshot()["encryptions"] - before
    assert performed == len(set(schedule))


@given(
    delivery_ids=st.lists(st.integers(min_value=0, max_value=5),
                          min_size=1, max_size=6, unique=True),
    replays=st.lists(st.integers(min_value=0, max_value=7),
                     min_size=0, max_size=16),
)
def test_mailbox_token_replays_never_yield_a_second_share(delivery_ids,
                                                          replays):
    """Per delivery id: one tokened fetch consumes the share, replays of the
    same token read the memo, and the mailbox never re-delivers."""
    mailbox = ShareMailbox()
    shares = {}
    for delivery_id in delivery_ids:
        shares[delivery_id] = [[delivery_id, delivery_id + 1]]
        mailbox.put(delivery_id, shares[delivery_id])

    delivered = {}
    for delivery_id in delivery_ids:
        delivered[delivery_id] = mailbox.fetch(
            delivery_id, timeout=0.1, attempt=f"q-{delivery_id}")
        assert delivered[delivery_id] == shares[delivery_id]
    assert len(mailbox) == 0

    for replay_index in replays:
        delivery_id = delivery_ids[replay_index % len(delivery_ids)]
        again = mailbox.fetch(delivery_id, timeout=0.05,
                              attempt=f"q-{delivery_id}")
        assert again == delivered[delivery_id]
    assert len(mailbox) == 0


@given(delivery_id=st.integers(min_value=0, max_value=100),
       foreign_tokens=st.lists(st.text(alphabet="xyz", min_size=1,
                                       max_size=4),
                               min_size=1, max_size=4))
def test_mailbox_single_use_survives_foreign_tokens(delivery_id,
                                                    foreign_tokens):
    """Only the token that consumed a share may replay it; every other
    token (and the token-less path) is told the share does not exist."""
    mailbox = ShareMailbox()
    mailbox.put(delivery_id, [[1]])
    mailbox.fetch(delivery_id, timeout=0.1, attempt="owner")
    for token in foreign_tokens:
        with pytest.raises(ChannelError, match="no share filed"):
            mailbox.fetch(delivery_id, timeout=0.01, attempt=token)
    with pytest.raises(ChannelError, match="no share filed"):
        mailbox.fetch(delivery_id, timeout=0.01)
    # the rightful owner can still replay after all those rejections
    assert mailbox.fetch(delivery_id, timeout=0.1,
                         attempt="owner") == [[1]]


@given(failures=st.integers(min_value=0, max_value=6),
       max_attempts=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**16))
def test_retry_call_attempt_count_is_bounded(failures, max_attempts, seed):
    """Exactly ``min(failures + 1, max_attempts)`` attempts run, never more."""
    attempts = []

    def operation():
        attempts.append(1)
        if len(attempts) <= failures:
            raise PeerUnavailable("transient")
        return "done"

    policy = RetryPolicy(max_attempts=max_attempts, base_delay_seconds=0.0,
                         jitter=0.5)
    expected_attempts = min(failures + 1, max_attempts)
    if failures >= max_attempts:
        with pytest.raises(PeerUnavailable):
            retry_call(operation, policy, rng=Random(seed), op="prop")
    else:
        assert retry_call(operation, policy, rng=Random(seed),
                          op="prop") == "done"
    assert len(attempts) == expected_attempts


@given(retry_index=st.integers(min_value=0, max_value=12),
       seed=st.integers(min_value=0, max_value=2**16))
def test_backoff_is_bounded_and_deterministic(retry_index, seed):
    policy = RetryPolicy(base_delay_seconds=0.05, multiplier=2.0,
                         max_delay_seconds=2.0, jitter=0.5)
    delay = policy.backoff_seconds(retry_index, Random(seed))
    assert 0 <= delay <= policy.max_delay_seconds
    nominal = min(policy.base_delay_seconds * 2.0 ** retry_index,
                  policy.max_delay_seconds)
    assert delay >= nominal * (1.0 - policy.jitter) - 1e-12
    assert delay == policy.backoff_seconds(retry_index, Random(seed))


@given(keys=st.lists(st.integers(min_value=0, max_value=50),
                     min_size=1, max_size=40))
def test_reply_cache_capacity_is_respected(keys):
    cache = ReplyCache(capacity=8, name="prop-bound")
    for key in keys:
        cache.run(f"k{key}", lambda key=key: key)
    assert len(cache) <= 8


@given(schedule=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                         min_size=1, max_size=40),
       capacity=st.integers(min_value=1, max_value=4))
def test_completed_reply_is_replayed_or_evicted_never_recomputed(schedule,
                                                                 capacity):
    """The durability contract of the reply memo, under every schedule:
    while a completed reply is still cached it is replayed verbatim — a
    recompute can only ever follow a FIFO eviction, and the memo never
    exceeds its capacity."""
    cache = ReplyCache(capacity=capacity, name="prop-evict")
    computes: dict[str, int] = {}
    last: dict[str, tuple] = {}
    for key in schedule:
        was_cached = key in cache  # membership counts completed entries only

        def compute(key=key):
            computes[key] = computes.get(key, 0) + 1
            return (key, computes[key])

        result = cache.run(key, compute)
        if was_cached:
            # replayed: the recorded reply, bit-identical, no recompute
            assert result == last[key]
        else:
            # evicted (or fresh): a recompute is expected and observable
            assert result == (key, computes[key])
        last[key] = result
        assert len(cache) <= capacity


def test_retried_fetch_after_timeout_still_single_use():
    """A fetch that timed out (share arrived late) then retried with the
    same token delivers exactly once."""
    mailbox = ShareMailbox()
    with pytest.raises(DeadlineExceeded):
        mailbox.fetch(3, timeout=0.05, attempt="q-late")
    mailbox.put(3, [[9]])
    assert mailbox.fetch(3, timeout=0.1, attempt="q-late") == [[9]]
    assert mailbox.fetch(3, timeout=0.1, attempt="q-late") == [[9]]
    assert len(mailbox) == 0


# -- the journaled stores agree with their in-memory selves ------------------
# Each journaled store is closed and rebuilt from its journal at random
# points, with the compaction bound patched low so rewrites happen often; the
# state it recovers must equal that of the same class built without a
# journal that saw the same operations.

delivery_ids = st.integers(min_value=0, max_value=2)
mailbox_operations = st.lists(st.one_of(
    st.tuples(st.just("put"), delivery_ids, st.integers(0, 99)),
    st.tuples(st.just("fetch"), delivery_ids,
              st.sampled_from([None, "t-1", "t-2"])),
    st.tuples(st.just("adopt_epoch"), st.sampled_from([None, "e-1", "e-2"])),
    st.just(("clear",)),
    st.just(("reopen",)),
), max_size=40)


def mailbox_state(mailbox):
    return (dict(mailbox._shares), list(mailbox._delivered.items()),
            mailbox._epoch)


def fetch_outcome(mailbox, delivery_id, attempt):
    try:
        return mailbox.fetch(delivery_id, timeout=0, attempt=attempt)
    except DeadlineExceeded:
        return "refused"


@settings(max_examples=150)
@given(operations=mailbox_operations,
       compact_every=st.integers(min_value=2, max_value=4))
def test_journaled_mailbox_agrees_with_the_in_memory_one(operations,
                                                         compact_every):
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(durability, "COMPACT_EVERY", compact_every), \
            mock.patch.object(ShareMailbox, "DELIVERED_MEMO", 3):
        path = Path(directory) / "mailbox.journal"
        memory = ShareMailbox()
        journaled = ShareMailbox(Journal(path, name="mailbox"))
        for operation, *arguments in operations + [("reopen",)]:
            if operation == "reopen":
                journaled.close()
                journaled = ShareMailbox(Journal(path, name="mailbox"))
                assert mailbox_state(journaled) == mailbox_state(memory)
            elif operation == "put":
                delivery_id, value = arguments
                for mailbox in (memory, journaled):
                    mailbox.put(delivery_id, [[value]])
            elif operation == "fetch":
                assert (fetch_outcome(journaled, *arguments)
                        == fetch_outcome(memory, *arguments))
            elif operation == "adopt_epoch":
                assert (journaled.adopt_epoch(*arguments)
                        == memory.adopt_epoch(*arguments))
            else:
                memory.clear()
                journaled.clear()
        journaled.close()


cache_operations = st.lists(st.one_of(
    st.tuples(st.just("run"), st.sampled_from(["q-a", "q-b", "q-c", "q-d"]),
              st.integers(0, 99)),
    st.just(("clear",)),
    st.just(("reopen",)),
), max_size=40)


def completed_replies(cache):
    return [(key, entry.value) for key, entry in cache._entries.items()
            if entry.done]


@settings(max_examples=150)
@given(operations=cache_operations,
       compact_every=st.integers(min_value=2, max_value=4))
def test_journaled_reply_cache_agrees_with_the_in_memory_one(operations,
                                                             compact_every):
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(durability, "COMPACT_EVERY", compact_every):
        path = Path(directory) / "replies.journal"

        def journaled_cache():
            return ReplyCache(capacity=3, name="prop-journal",
                              journal=Journal(path, name="prop-journal"))

        memory = ReplyCache(capacity=3, name="prop-memory")
        journaled = journaled_cache()
        for operation, *arguments in operations + [("reopen",)]:
            if operation == "reopen":
                journaled.close()
                journaled = journaled_cache()
                assert completed_replies(journaled) == completed_replies(
                    memory)
            elif operation == "run":
                key, value = arguments
                assert (journaled.run(key, lambda: value)
                        == memory.run(key, lambda: value))
            else:
                memory.clear()
                journaled.clear()
        journaled.close()
