"""Unit tests for crash-consistent persistence (repro.resilience.durability).

Covers the two primitives — atomic CRC-checked snapshots and the
append-only journal with torn-tail repair — plus their daemon-state
consumers, a :class:`~repro.resilience.idempotency.ReplyCache` and a
:class:`~repro.transport.daemon.ShareMailbox` built with a journal, and the
in-process (``raise`` mode) half of the crash-point harness.  The subprocess SIGKILL
half lives in ``tests/integration/test_crash_points.py``.
"""

from __future__ import annotations

import json
import threading
import zlib

import pytest

from repro.exceptions import CorruptStateError, DeadlineExceeded
from repro.resilience import durability
from repro.resilience.durability import (
    CRASH_POINTS,
    CrashPointFired,
    Journal,
    arm_crash_point,
    atomic_write_bytes,
    crash_point,
    disarm_crash_points,
    read_snapshot,
    write_snapshot,
)
from repro.resilience.idempotency import ReplyCache
from repro.transport.daemon import ShareMailbox


def journaled_cache(path, capacity=64, name="replies"):
    return ReplyCache(capacity=capacity, name=name,
                      journal=Journal(path, name=name))


def journaled_mailbox(path):
    return ShareMailbox(Journal(path, name="mailbox"))


@pytest.fixture(autouse=True)
def _disarm():
    yield
    disarm_crash_points()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

class TestSnapshots:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"role": "c1", "n": [1, 2, 3]})
        assert read_snapshot(path, "manifest") == {"role": "c1",
                                                   "n": [1, 2, 3]}

    def test_missing_file_reads_as_none(self, tmp_path):
        assert read_snapshot(tmp_path / "absent.json", "manifest") is None

    def test_overwrite_replaces_whole_document(self, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"v": 1})
        write_snapshot(path, "manifest", {"v": 2})
        assert read_snapshot(path, "manifest") == {"v": 2}

    def test_wrong_kind_is_corrupt(self, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"v": 1})
        with pytest.raises(CorruptStateError, match="other-kind"):
            read_snapshot(path, "other-kind")

    def test_truncated_file_is_corrupt_not_a_crash(self, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"v": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptStateError, match="torn snapshot"):
            read_snapshot(path, "manifest")

    def test_bit_flip_fails_the_crc(self, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"role": "c1"})
        document = json.loads(path.read_text())
        document["payload"] = document["payload"].replace("c1", "c2")
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptStateError, match="CRC"):
            read_snapshot(path, "manifest")

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"v": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_write_fsyncs_the_file_and_its_directory(self, tmp_path,
                                                     monkeypatch):
        synced = []
        real_fsync = durability.os.fsync
        monkeypatch.setattr(durability.os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        write_snapshot(tmp_path / "state.json", "manifest", {"v": 1})
        assert len(synced) == 2  # the temp file's data, then the rename


# ---------------------------------------------------------------------------
# Crash points (raise mode; kill mode is exercised via subprocesses)
# ---------------------------------------------------------------------------

class TestCrashPoints:
    def test_unarmed_is_a_no_op(self):
        crash_point("snapshot.pre_rename")  # nothing armed: returns

    def test_armed_point_fires_once(self):
        arm_crash_point("snapshot.pre_rename")
        with pytest.raises(CrashPointFired, match="snapshot.pre_rename"):
            crash_point("snapshot.pre_rename")
        crash_point("snapshot.pre_rename")  # disarmed after firing

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="crash mode"):
            arm_crash_point("snapshot.pre_rename", mode="segfault")

    def test_fired_is_not_an_ordinary_exception(self):
        # SIGKILL semantics: `except Exception` recovery must not catch it.
        assert not issubclass(CrashPointFired, Exception)

    @pytest.mark.parametrize("point", [p for p in CRASH_POINTS
                                       if p.startswith("snapshot.")])
    def test_crash_during_write_preserves_the_old_snapshot(self, tmp_path,
                                                           point):
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"v": "old"})
        arm_crash_point(point)
        with pytest.raises(CrashPointFired):
            write_snapshot(path, "manifest", {"v": "new"})
        # Atomicity: the reader sees the complete old document.
        assert read_snapshot(path, "manifest") == {"v": "old"}

    def test_crash_after_rename_boundary_publishes_the_new_one(self, tmp_path):
        # pre_rename is the last boundary; past it the rename is the commit
        # point, so a non-crashing write publishes the new document whole.
        path = tmp_path / "state.json"
        write_snapshot(path, "manifest", {"v": "old"})
        write_snapshot(path, "manifest", {"v": "new"})
        assert read_snapshot(path, "manifest") == {"v": "new"}


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

def open_journal(path, **kwargs):
    journal = Journal(path, name="test", **kwargs)
    records = journal.open()
    return journal, records


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, records = open_journal(path)
        assert records == []
        journal.append({"op": "put", "id": 1})
        journal.append({"op": "take", "id": 1, "attempt": "t-1"})
        journal.close()

        reopened, records = open_journal(path)
        assert records == [{"op": "put", "id": 1},
                           {"op": "take", "id": 1, "attempt": "t-1"}]
        assert reopened.records == 2
        reopened.close()

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        journal, _ = open_journal(tmp_path / "ops.journal")
        synced = []
        real_fsync = durability.os.fsync
        monkeypatch.setattr(durability.os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        for index in range(3):
            journal.append({"op": "put", "id": index})
            assert len(synced) == index + 1
        journal.close()

    def test_append_after_replay_continues_the_log(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        journal.append({"n": 1})
        journal.close()
        journal, _ = open_journal(path)
        journal.append({"n": 2})
        journal.close()
        _, records = open_journal(path)
        assert records == [{"n": 1}, {"n": 2}]

    def test_torn_tail_is_truncated_and_survivors_replay(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        journal.append({"n": 1})
        journal.append({"n": 2})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # tear the final record mid-line

        reopened, records = open_journal(path)
        assert records == [{"n": 1}]
        # the torn bytes are physically gone: a later append starts clean
        reopened.append({"n": 3})
        reopened.close()
        _, records = open_journal(path)
        assert records == [{"n": 1}, {"n": 3}]

    def test_bad_crc_tail_is_discarded(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        journal.append({"n": 1})
        journal.close()
        body = json.dumps({"n": 2}, separators=(",", ":")).encode()
        bad = format(zlib.crc32(body) ^ 0xFF, "08x").encode()
        with open(path, "ab") as handle:
            handle.write(bad + b" " + body + b"\n")
        _, records = open_journal(path)
        assert records == [{"n": 1}]

    def test_intact_records_after_damage_raise_corrupt(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        journal.append({"n": 1})
        journal.append({"n": 2})
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # damage the FIRST record: an intact record follows it, which a
        # single crash cannot produce — this is corruption, not a torn tail
        path.write_bytes(b"deadbeef" + lines[0][8:] + lines[1])
        with pytest.raises(CorruptStateError, match="corrupt"):
            open_journal(path)

    def test_rewrite_compacts_atomically(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        for n in range(10):
            journal.append({"n": n})
        journal.rewrite([{"n": 8}, {"n": 9}])
        assert journal.records == 2
        journal.append({"n": 10})
        journal.close()
        _, records = open_journal(path)
        assert records == [{"n": 8}, {"n": 9}, {"n": 10}]

    def test_crash_mid_compaction_keeps_the_full_log(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        journal.append({"n": 1})
        journal.append({"n": 2})
        arm_crash_point("snapshot.pre_rename")  # rewrite uses the snapshot path
        with pytest.raises(CrashPointFired):
            journal.rewrite([{"n": 2}])
        _, records = open_journal(path)
        assert records == [{"n": 1}, {"n": 2}]

    def test_crash_pre_fsync_loses_at_most_the_last_append(self, tmp_path):
        path = tmp_path / "ops.journal"
        journal, _ = open_journal(path)
        journal.append({"n": 1})
        arm_crash_point("journal.pre_fsync")
        with pytest.raises(CrashPointFired):
            journal.append({"n": 2})
        journal.close()
        _, records = open_journal(path)
        # the flushed-but-unfsynced record may or may not survive a real
        # power cut; after a process crash the prefix must always replay
        assert records[0] == {"n": 1}
        assert len(records) <= 2


# ---------------------------------------------------------------------------
# ReplyCache with a journal
# ---------------------------------------------------------------------------

class TestDurableReplyCache:
    def test_completed_reply_survives_reopen(self, tmp_path):
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit")
        assert cache.run("q-1", lambda: {"answer": 7}) == {"answer": 7}
        cache.close()

        revived = journaled_cache(path, name="unit")
        assert revived.recovered == 1
        ran = []
        assert revived.run("q-1", lambda: ran.append(1)) == {"answer": 7}
        assert not ran  # zero re-execution
        revived.close()

    def test_clear_is_journaled(self, tmp_path):
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit")
        cache.run("q-1", lambda: "old epoch")
        cache.clear()
        cache.close()
        revived = journaled_cache(path, name="unit")
        assert revived.recovered == 0
        assert revived.run("q-1", lambda: "new epoch") == "new epoch"
        revived.close()

    def test_journal_compacts_to_live_entries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(durability, "COMPACT_EVERY", 8)
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit", capacity=4)
        for index in range(20):
            cache.run(f"q-{index}", lambda index=index: index)
        assert cache.journal_records <= 9  # bounded by compaction, not 20
        cache.close()
        revived = journaled_cache(path, name="unit", capacity=4)
        assert revived.recovered <= 4
        assert revived.run("q-19", lambda: "recomputed") == 19
        revived.close()

    def test_failed_journal_append_fails_the_query(self, tmp_path):
        # A reply that could not be made durable must not be served from
        # memory: the attempt fails and a retry re-runs the computation.
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit")
        arm_crash_point("journal.pre_fsync")
        with pytest.raises(CrashPointFired):
            cache.run("q-1", lambda: "value")
        assert cache.run("q-1", lambda: "retried") == "retried"
        cache.close()

    def test_failed_reply_leaves_nothing_to_replay(self, tmp_path):
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit")

        def broken():
            raise ValueError("handler failed")

        with pytest.raises(ValueError):
            cache.run("q-1", broken)
        assert cache.journal_records == 0
        cache.close()
        revived = journaled_cache(path, name="unit")
        assert revived.recovered == 0
        assert revived.run("q-1", lambda: "retried") == "retried"
        revived.close()

    def test_reply_finishing_after_clear_is_not_journaled(self, tmp_path):
        # A query in flight across a new provisioning epoch must not put
        # its old-epoch reply back into the cache, in memory or on disk.
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit")
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            assert release.wait(5)
            return "old epoch"

        worker = threading.Thread(target=cache.run, args=("q-1", slow))
        worker.start()
        assert started.wait(5)
        cache.clear()
        release.set()
        worker.join(5)
        assert not worker.is_alive()
        assert "q-1" not in cache
        cache.close()
        revived = journaled_cache(path, name="unit")
        assert revived.recovered == 0
        revived.close()

    def test_reply_that_triggers_compaction_survives_reopen(
            self, tmp_path, monkeypatch):
        # The 5th completion pushes the journal over the bound; the
        # rewrite must already hold that reply.
        monkeypatch.setattr(durability, "COMPACT_EVERY", 4)
        path = tmp_path / "replies.journal"
        cache = journaled_cache(path, name="unit")
        for index in range(5):
            cache.run(f"q-{index}", lambda index=index: index)
        cache.close()
        revived = journaled_cache(path, name="unit")
        assert revived.recovered == 5
        assert revived.run("q-4", lambda: "recomputed") == 4
        revived.close()


# ---------------------------------------------------------------------------
# ShareMailbox with a journal
# ---------------------------------------------------------------------------

class TestDurableShareMailbox:
    def test_pending_delivery_survives_reopen(self, tmp_path):
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        mailbox.put(3, [[10, 11]])
        mailbox.close()

        revived = journaled_mailbox(path)
        assert revived.recovered == 1
        assert revived.fetch(3, timeout=0.5, attempt="t-1") == [[10, 11]]
        revived.close()

    def test_attempt_memo_survives_reopen(self, tmp_path):
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        mailbox.put(3, [[10, 11]])
        first = mailbox.fetch(3, timeout=0.5, attempt="t-1")
        mailbox.close()

        revived = journaled_mailbox(path)
        # the retried fetch (same attempt token) replays bit-identically
        assert revived.fetch(3, timeout=0.5, attempt="t-1") == first
        revived.close()

    def test_epoch_adoption_is_journaled(self, tmp_path):
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        assert mailbox.adopt_epoch("epoch-a") is False  # first hello: wipe
        mailbox.put(1, [[5]])
        mailbox.close()

        revived = journaled_mailbox(path)
        # same C1 process re-dials after a C2 restart: state is kept
        assert revived.adopt_epoch("epoch-a") is True
        assert revived.fetch(1, timeout=0.5, attempt="t") == [[5]]
        # a *restarted* C1 presents a fresh epoch: delivery ids recycle,
        # so everything must be wiped
        assert revived.adopt_epoch("epoch-b") is False
        assert len(revived) == 0
        revived.close()

    def test_clear_wipes_disk_state_too(self, tmp_path):
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        mailbox.put(1, [[5]])
        mailbox.clear()
        mailbox.close()
        revived = journaled_mailbox(path)
        assert revived.recovered == 0
        revived.close()

    def test_failed_journal_append_files_no_share(self, tmp_path):
        # A share that could not be made durable is never handed out.
        mailbox = journaled_mailbox(tmp_path / "mailbox.journal")
        arm_crash_point("journal.pre_fsync")
        with pytest.raises(CrashPointFired):
            mailbox.put(1, [[5]])
        assert len(mailbox) == 0
        with pytest.raises(DeadlineExceeded):
            mailbox.fetch(1, timeout=0)
        mailbox.close()

    def test_failed_journal_append_on_take_keeps_the_share(self, tmp_path):
        # A take that could not be made durable consumes nothing: the
        # share stays pending for the retried fetch.
        mailbox = journaled_mailbox(tmp_path / "mailbox.journal")
        mailbox.put(1, [[5]])
        arm_crash_point("journal.pre_fsync")
        with pytest.raises(CrashPointFired):
            mailbox.fetch(1, timeout=0, attempt="t-1")
        assert len(mailbox) == 1
        assert mailbox.fetch(1, timeout=0, attempt="t-1") == [[5]]
        mailbox.close()

    def test_journal_compacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(durability, "COMPACT_EVERY", 6)
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        for delivery_id in range(12):
            mailbox.put(delivery_id, [[delivery_id]])
            mailbox.fetch(delivery_id, timeout=0.5,
                          attempt=f"t-{delivery_id}")
        assert mailbox.journal_records <= 2 * mailbox.DELIVERED_MEMO + 8
        mailbox.close()
        revived = journaled_mailbox(path)
        # the newest memos still replay after compaction + reopen
        assert revived.fetch(11, timeout=0.5, attempt="t-11") == [[11]]
        revived.close()

    def test_share_that_triggers_compaction_survives_reopen(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(durability, "COMPACT_EVERY", 4)
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        for delivery_id in range(5):
            mailbox.put(delivery_id, [[delivery_id]])
        mailbox.close()
        revived = journaled_mailbox(path)
        assert len(revived) == 5
        assert revived.fetch(4, timeout=0) == [[4]]
        revived.close()

    def test_share_past_the_default_bound_survives_reopen(self, tmp_path):
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        last = durability.COMPACT_EVERY
        for delivery_id in range(last + 1):
            mailbox.put(delivery_id, [[delivery_id]])
        mailbox.close()
        revived = journaled_mailbox(path)
        assert len(revived) == last + 1
        assert revived.fetch(last, timeout=0) == [[last]]
        revived.close()

    def test_live_state_over_the_bound_is_not_rewritten_per_put(
            self, tmp_path, monkeypatch):
        # 700 unfetched shares: past 512 the live state alone is over the
        # bound, and rewriting it on every put would make 188 rewrites.
        rewrites = []
        rewrite = Journal.rewrite

        def counting_rewrite(journal, records):
            rewrites.append(len(records))
            rewrite(journal, records)

        monkeypatch.setattr(Journal, "rewrite", counting_rewrite)
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        for delivery_id in range(700):
            mailbox.put(delivery_id, [[delivery_id]])
        assert len(rewrites) <= 2
        assert mailbox.journal_records <= 700
        mailbox.close()
        revived = journaled_mailbox(path)
        assert len(revived) == 700
        assert revived.fetch(699, timeout=0) == [[699]]
        revived.close()

    def test_pending_shares_are_bounded_and_drops_replay(self, tmp_path,
                                                         monkeypatch):
        # Bob clients that never fetch: past the bound each put drops the
        # oldest pending share, journaled, so memory, journal and replay
        # all stay at the bound.
        monkeypatch.setattr(ShareMailbox, "PENDING_SHARES", 512)
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        for delivery_id in range(700):
            mailbox.put(delivery_id, [[delivery_id]])
        assert len(mailbox) == 512
        assert mailbox.dropped == 700 - 512
        assert mailbox.journal_records <= 2 * durability.COMPACT_EVERY + 2
        pending = list(mailbox._shares.items())
        assert [delivery_id for delivery_id, _ in pending] \
            == list(range(700 - 512, 700))
        mailbox.close()
        revived = journaled_mailbox(path)
        assert list(revived._shares.items()) == pending
        assert revived.dropped == 0
        # a dropped id fails like an id that was never filed
        with pytest.raises(DeadlineExceeded):
            revived.fetch(0, timeout=0)
        with pytest.raises(DeadlineExceeded):
            revived.fetch(10_000, timeout=0)
        assert revived.fetch(699, timeout=0) == [[699]]
        revived.close()

    def test_share_taken_at_compaction_stays_taken(self, tmp_path,
                                                   monkeypatch):
        # Four puts fill the journal to the bound; the take is the record
        # that triggers the rewrite, which must already show it consumed.
        monkeypatch.setattr(durability, "COMPACT_EVERY", 4)
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        for delivery_id in range(4):
            mailbox.put(delivery_id, [[delivery_id]])
        assert mailbox.fetch(0, timeout=0, attempt="t-0") == [[0]]
        mailbox.close()
        revived = journaled_mailbox(path)
        assert len(revived) == 3
        assert revived.fetch(0, timeout=0, attempt="t-0") == [[0]]
        with pytest.raises(DeadlineExceeded):
            revived.fetch(0, timeout=0, attempt="t-other")
        revived.close()

    def test_compaction_keeps_a_memo_and_a_pending_share_of_one_id(
            self, tmp_path, monkeypatch):
        # A memo replays as put + take; written after a pending share of
        # the same id, that take would consume the pending share.
        monkeypatch.setattr(durability, "COMPACT_EVERY", 2)
        path = tmp_path / "mailbox.journal"
        mailbox = journaled_mailbox(path)
        mailbox.put(7, [[1]])
        mailbox.fetch(7, timeout=0, attempt="t-1")
        mailbox.put(7, [[2]])
        mailbox.close()
        revived = journaled_mailbox(path)
        assert revived.fetch(7, timeout=0, attempt="t-1") == [[1]]
        assert revived.fetch(7, timeout=0) == [[2]]
        revived.close()
