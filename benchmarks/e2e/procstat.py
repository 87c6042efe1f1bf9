"""CPU time and peak memory of a process tree, read from ``/proc``.

The daemon workloads spend most of their time in *other* processes (party
daemons, pool workers), so ``time.process_time`` of the runner is blind to
them.  ``/proc/<pid>/stat`` carries each process's own and its reaped
children's CPU ticks; summing ``utime+stime+cutime+cstime`` over the live
tree counts every descendant exactly once, dead or alive.
"""

from __future__ import annotations

import os

__all__ = ["parse_stat", "parse_hwm_kb", "process_tree", "tree_cpu_seconds",
           "tree_peak_rss_mb"]

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def parse_stat(text: str) -> tuple[int, float]:
    """``(ppid, cpu_seconds)`` from the text of ``/proc/<pid>/stat``.

    The command name (field 2) is parenthesised and may itself contain
    spaces and parentheses, so fields are counted from the *last* ``)``.
    CPU seconds include reaped children (fields 14-17).
    """
    fields = text[text.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); ppid is field 4, utime..cstime 14..17.
    ppid = int(fields[1])
    ticks = sum(int(fields[index]) for index in (11, 12, 13, 14))
    return ppid, ticks / _CLOCK_TICKS


def parse_hwm_kb(text: str) -> int:
    """``VmHWM`` (peak resident set, kB) from ``/proc/<pid>/status`` text.

    Kernel threads and zombies have no ``VmHWM`` line; they count as 0.
    """
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:  # the process exited between listdir and open
        return None


def process_tree(root: int | None = None) -> dict[int, float]:
    """``{pid: cpu_seconds}`` for ``root`` (default: this process) and every
    live descendant."""
    root = os.getpid() if root is None else root
    parents: dict[int, int] = {}
    cpu: dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        text = _read(f"/proc/{entry}/stat")
        if text is None:
            continue
        pid = int(entry)
        parents[pid], cpu[pid] = parse_stat(text)
    tree: dict[int, float] = {}
    for pid in parents:
        ancestor = pid
        while ancestor != root and ancestor in parents:
            ancestor = parents[ancestor]
        if ancestor == root:
            tree[pid] = cpu[pid]
    return tree


def tree_cpu_seconds(exclude: int | None = None) -> float:
    """CPU seconds consumed so far by this process's tree, leaving out the
    process ``exclude`` (the benchmark's own calibration child)."""
    return sum(cpu for pid, cpu in process_tree().items() if pid != exclude)


def tree_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process's live tree, in MB (10^6 bytes)."""
    total_kb = 0
    for pid in process_tree():
        text = _read(f"/proc/{pid}/status")
        if text is not None:
            total_kb += parse_hwm_kb(text)
    return total_kb * 1024 / 1e6
