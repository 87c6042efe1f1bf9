"""Crash-consistent persistence for daemon state that must survive SIGKILL.

Two primitives, both CRC-checked and fsync-bounded, plus the crash-point
injection machinery that proves their atomicity:

* **Snapshots** — :func:`write_snapshot` writes a whole versioned JSON
  document through the classic tmp-file + fsync + rename sequence, so a
  reader (:func:`read_snapshot`) only ever observes the old document or the
  new one, never a torn mix.  Used for write-rarely state: the per-daemon
  provision manifest and compacted journals.
* **Journals** — :class:`Journal` is an append-only operation log, one
  CRC32-framed JSON record per line, fsynced per append.  ``open()``
  replays every intact record and truncates a torn tail (the one record a
  crash between ``write`` and ``fsync`` may leave half-written), so replay
  after SIGKILL recovers exactly the prefix that was made durable.  Used
  for write-often state: C2's share mailbox
  (:class:`~repro.transport.daemon.ShareMailbox`) and C1's reply cache
  (:class:`~repro.resilience.idempotency.ReplyCache`) each take an optional
  journal, journal every transition before it becomes visible, and replay
  it when they are built.

**Crash points** let tests kill the process (or raise) at the exact
boundaries that distinguish a correct implementation from a lucky one:
after the data is written but before fsync, after fsync, and before the
rename.  Arm them programmatically (:func:`arm_crash_point`) for in-process
tests or through ``REPRO_CRASH_POINT=<name>[:raise|kill]`` for subprocess
daemons; each armed point fires once.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import CorruptStateError
from repro.telemetry import metrics as _metrics

__all__ = [
    "CrashPointFired",
    "arm_crash_point",
    "disarm_crash_points",
    "crash_point",
    "atomic_write_bytes",
    "write_snapshot",
    "read_snapshot",
    "Journal",
]

#: snapshot/journal format version, bumped on incompatible layout changes
STATE_FORMAT = 1

#: every crash boundary the harness can arm (kept in one place so the test
#: suite can iterate over all of them)
CRASH_POINTS = (
    "snapshot.pre_fsync",
    "snapshot.post_fsync",
    "snapshot.pre_rename",
    "journal.pre_fsync",
    "journal.post_fsync",
)

#: a journal is rewritten to its store's live state once more records than
#: this (and than that live state) were appended since its last rewrite,
#: bounding disk usage by live state, not query count
COMPACT_EVERY = 512


# ---------------------------------------------------------------------------
# Crash-point injection
# ---------------------------------------------------------------------------

class CrashPointFired(BaseException):
    """An armed crash point fired in ``raise`` mode.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    recovery paths cannot swallow it — like the SIGKILL it simulates, it
    unwinds everything.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"crash point {name!r} fired")
        self.name = name


_armed: dict[str, str] = {}
_armed_lock = threading.Lock()


def _load_env_crash_points() -> None:
    """Arm crash points from ``REPRO_CRASH_POINT`` (subprocess harness).

    Format: comma-separated ``name`` or ``name:mode`` entries, mode one of
    ``raise`` (default) or ``kill`` (SIGKILL self — a real crash).
    """
    spec = os.environ.get("REPRO_CRASH_POINT", "")
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, mode = entry.partition(":")
        arm_crash_point(name, mode or "raise")


def arm_crash_point(name: str, mode: str = "raise") -> None:
    """Arm one crash point; it fires (once) at the next crossing."""
    if mode not in ("raise", "kill"):
        raise ValueError(f"unknown crash mode {mode!r}")
    with _armed_lock:
        _armed[name] = mode


def disarm_crash_points() -> None:
    """Disarm everything (test teardown)."""
    with _armed_lock:
        _armed.clear()


def crash_point(name: str) -> None:
    """Fire if ``name`` is armed: raise :class:`CrashPointFired` or SIGKILL."""
    if not _armed:
        return
    with _armed_lock:
        mode = _armed.pop(name, None)
    if mode is None:
        return
    if mode == "kill":  # pragma: no cover - the process dies here
        os.kill(os.getpid(), signal.SIGKILL)
    raise CrashPointFired(name)


_load_env_crash_points()


# ---------------------------------------------------------------------------
# Atomic snapshots
# ---------------------------------------------------------------------------

def _crc(data: bytes) -> str:
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


def _fsync_directory(directory: Path) -> None:
    """Make a rename durable (best effort on platforms without dir fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. Windows
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically (tmp + fsync + rename).

    A crash at any boundary leaves either the old file or the new one —
    never a torn mix: the data is fully written and fsynced in a sibling
    temp file before a single ``rename`` makes it visible, and the
    directory entry is fsynced after so the rename itself survives power
    loss.  The three ``crash_point`` crossings let the harness prove it.
    """
    target = Path(path)
    temporary = target.with_name(target.name + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        crash_point("snapshot.pre_fsync")
        os.fsync(handle.fileno())
    crash_point("snapshot.post_fsync")
    crash_point("snapshot.pre_rename")
    os.replace(temporary, target)
    _fsync_directory(target.parent)


def write_snapshot(path: str | Path, kind: str, payload: Any) -> None:
    """Atomically persist one versioned, CRC-checked JSON document."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    document = {
        "kind": kind,
        "format": STATE_FORMAT,
        "crc": _crc(body.encode("utf-8")),
        "payload": body,
    }
    atomic_write_bytes(path, json.dumps(document).encode("utf-8"))


def read_snapshot(path: str | Path, kind: str) -> Any | None:
    """Load a :func:`write_snapshot` document; ``None`` when absent.

    A torn, truncated or bit-flipped file raises the typed
    :class:`~repro.exceptions.CorruptStateError` so the caller can reject
    the state (and start fresh) instead of crashing on a decode error deep
    inside recovery.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CorruptStateError(f"unreadable snapshot {target}: {exc}")
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptStateError(f"torn snapshot {target}: {exc}")
    if (not isinstance(document, dict) or document.get("kind") != kind
            or document.get("format") != STATE_FORMAT):
        raise CorruptStateError(
            f"{target} is not a version-{STATE_FORMAT} {kind!r} snapshot")
    body = document.get("payload")
    if (not isinstance(body, str)
            or document.get("crc") != _crc(body.encode("utf-8"))):
        raise CorruptStateError(f"snapshot {target} failed its CRC check")
    return json.loads(body)


# ---------------------------------------------------------------------------
# Append-only journal
# ---------------------------------------------------------------------------

def _journal_records_counter():
    return _metrics.get_registry().counter(
        "repro_journal_records_total",
        "Durability-journal records appended, replayed or discarded.",
        ("journal", "event"))


class Journal:
    """Append-only operation log with CRC-framed records and torn-tail repair.

    Each record is one line, ``<crc32-hex> <compact-json>\\n``, fsynced per
    append.  ``open()`` replays the longest intact prefix: the first record
    with a bad CRC, unparsable JSON or a missing newline terminates replay
    and everything from there on is truncated away, because a single crash
    can only tear the *last* append.  Anything else (a bad record followed
    by good ones) is not a crash artifact but corruption, and raises
    :class:`~repro.exceptions.CorruptStateError`.
    """

    def __init__(self, path: str | Path, name: str = "journal") -> None:
        self.path = Path(path)
        self.name = name
        self.records = 0  # records currently in the file
        self._rewritten = 0  # of which the last rewrite wrote
        self._handle = None
        self._lock = threading.Lock()

    # -- replay ------------------------------------------------------------
    def open(self) -> list[Any]:
        """Replay the journal and position the append handle; returns records."""
        records, good_bytes, tail = self._scan()
        if tail:
            counter = _journal_records_counter()
            counter.inc(journal=self.name, event="discarded")
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        if records:
            _journal_records_counter().inc(len(records), journal=self.name,
                                           event="replayed")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        self.records, self._rewritten = len(records), 0
        return records

    def _scan(self) -> tuple[list[Any], int, bool]:
        """Parse the file; returns (records, intact byte count, torn tail?)."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0, False
        records: list[Any] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                return records, offset, True  # torn tail: no terminator
            line = raw[offset:newline]
            space = line.find(b" ")
            if space != 8:
                break
            crc, body = line[:8], line[8 + 1:]
            if crc.decode("ascii", "replace") != _crc(body):
                break
            try:
                records.append(json.loads(body.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            offset = newline + 1
        else:
            return records, offset, False
        # A bad framed line mid-file: only the *final* record may legally be
        # torn by a crash.  Anything intact after the bad line means the file
        # was corrupted, not crash-truncated.
        rest = raw[offset:]
        if b"\n" in rest.rstrip(b"\n"):
            raise CorruptStateError(
                f"journal {self.path} is corrupt at byte {offset} "
                f"(intact records follow a damaged one)")
        return records, offset, True

    # -- appending ---------------------------------------------------------
    def append(self, record: Any) -> None:
        """Durably append one record (write -> fsync, crash-point bounded)."""
        body = json.dumps(record, separators=(",", ":")).encode("utf-8")
        line = _crc(body).encode("ascii") + b" " + body + b"\n"
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
            self._handle.write(line)
            self._handle.flush()
            crash_point("journal.pre_fsync")
            os.fsync(self._handle.fileno())
            crash_point("journal.post_fsync")
            self.records += 1
        _journal_records_counter().inc(journal=self.name, event="appended")

    def rewrite(self, records: list[Any]) -> None:
        """Compact: atomically replace the file with just ``records``."""
        lines = bytearray()
        for record in records:
            body = json.dumps(record, separators=(",", ":")).encode("utf-8")
            lines += _crc(body).encode("ascii") + b" " + body + b"\n"
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            atomic_write_bytes(self.path, bytes(lines))
            self._handle = open(self.path, "ab")
            self.records = self._rewritten = len(records)

    def compact(self, live: Callable[[], list[Any]]) -> None:
        """Rewrite to ``live()`` once more than :data:`COMPACT_EVERY` records
        were appended since the last rewrite (or since :meth:`open`).

        A store calls this after applying a transition, so ``live()``
        already includes the record that pushed the journal over the bound.
        The appends must also outnumber what the last rewrite wrote: a
        rewrite costs its live state, so a live state above the bound (a
        mailbox of unfetched shares) is rewritten after as many appends
        again, never on every transition — amortized O(1) per append.
        """
        appended = self.records - self._rewritten
        if appended > max(COMPACT_EVERY, self._rewritten):
            self.rewrite(live())

    def close(self) -> None:
        """Release the append handle (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
