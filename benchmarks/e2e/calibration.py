"""A running measure of how fast this machine is *right now*.

On a small shared box the same code, doing the same operations, takes 10–30%
more CPU seconds for minutes at a time: the cores are slower, not the
program.  Ten runs through such a stretch spread by 10–18% and two sets of
runs can differ by a quarter, which no bound the benchmark may set would
survive.  So every run carries its own yardstick: a child process that, a
few times a second, times a burst of modular exponentiations — the
instruction mix the SkNN protocols spend their time in — on its own CPU
clock.  The mean burst time over a phase, against the time the same burst
takes on this box when it is quiet, is the phase's *slowdown*; the
benchmark's timing metrics are divided by it.  A change that makes the
program faster moves them; the machine having a bad minute does not.

The child is a separate process so that it never holds the runner's GIL,
and it is idle ~96% of the time.  Run this file as a script to be that
child.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from random import Random

__all__ = ["Calibrator", "NOMINAL_MODEXP_S"]

#: CPU seconds one reference exponentiation takes on the box the baseline
#: was recorded on (2 cores, CPython 3.11, python bigint backend) when quiet;
#: only a scale, so that a slowdown of 1.0 means "as fast as then"
NOMINAL_MODEXP_S = 2.05e-3

_BURST_MODEXPS = 5
_PERIOD_S = 0.25


def _burst_loop() -> None:
    """The child: print ``<monotonic time> <cpu seconds per modexp>`` lines."""
    rng = Random(5)
    modulus = rng.getrandbits(1024) | (1 << 1023) | 1
    exponent = rng.getrandbits(512) | (1 << 511)
    bases = [rng.getrandbits(1023) for _ in range(_BURST_MODEXPS)]
    while True:
        began = time.process_time()
        for base in bases:
            pow(base, exponent, modulus)
        per_modexp = (time.process_time() - began) / _BURST_MODEXPS
        print(time.monotonic(), per_modexp, flush=True)
        time.sleep(_PERIOD_S)


class Calibrator:
    """Owns the child; ``start`` → (phases run) → ``stop`` → ``slowdown``."""

    def __init__(self) -> None:
        self._child: subprocess.Popen | None = None
        self._samples: list[tuple[float, float]] = []

    @property
    def pid(self) -> int:
        """The child's pid, so its CPU time can be left out of the tree's."""
        assert self._child is not None
        return self._child.pid

    def start(self) -> None:
        """Spawn the child and wait for its first burst."""
        self._child = subprocess.Popen(
            [sys.executable, "-I", __file__], stdout=subprocess.PIPE,
            text=True)
        self._record(self._child.stdout.readline())

    def stop(self) -> None:
        """End the child and collect every burst it timed (idempotent)."""
        if self._child is None or self._child.poll() is not None:
            return
        self._child.terminate()
        output, _ = self._child.communicate(timeout=10.0)
        for line in output.splitlines():
            self._record(line)

    def _record(self, line: str) -> None:
        fields = line.split()
        if len(fields) == 2:  # a burst cut short by stop() leaves no line
            self._samples.append((float(fields[0]), float(fields[1])))

    def slowdown(self, start: float, end: float) -> float:
        """Mean burst time between two ``time.monotonic()`` instants over
        the nominal one; the whole run's when no burst fell in between."""
        inside = [cost for at, cost in self._samples if start <= at <= end]
        costs = inside or [cost for _, cost in self._samples]
        return statistics.fmean(costs) / NOMINAL_MODEXP_S


if __name__ == "__main__":
    _burst_loop()
