"""The common provenance block stamped into every benchmark record.

A benchmark number without its context — which commit, which bigint
backend (and the native library behind it), how many cores, which
interpreter, which key size — cannot be compared across runs.  Every
``BENCH_*.json`` and every ``benchmarks/history/*.jsonl`` record carries the
same block so the history checker can group comparable runs and a human can
explain an outlier at a glance.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Any

__all__ = ["git_revision", "provenance_block"]


def git_revision(cwd: str | None = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=5.0, cwd=cwd)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def provenance_block(key_size: int | None = None,
                     cwd: str | None = None) -> dict[str, Any]:
    """Provenance for one benchmark record.

    Args:
        key_size: the Paillier key size the benchmark ran at, when it has
            a single one (``None`` for multi-size or key-free benches).
        cwd: directory whose git checkout identifies the commit (default:
            the process working directory).
    """
    from repro.crypto.backend import get_backend

    backend = get_backend()
    return {
        "git_sha": git_revision(cwd),
        "crypto_backend": backend.name,
        "crypto_library": backend.library_version(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "key_size": key_size,
        "timestamp": time.time(),
    }
