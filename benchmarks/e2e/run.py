"""Entry point: ``python3 benchmarks/e2e/run.py`` or ``-m benchmarks.e2e.run``.

Run as a script, Python puts this directory — not the repository — on
``sys.path``.  The benchmark's own modules and the program under ``src/``
are both found from the repository root, so that is put there instead (this
directory's ``trace.py`` must not shadow the standard library's).
"""

import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
    entry for entry in sys.path
    if entry and Path(entry).resolve() not in (_HERE, _ROOT, _ROOT / "src")]

if __name__ == "__main__":
    # The supervisor keeps its daemons' port files and logs in a temporary
    # directory; keep that inside the checkout too (daemons inherit it).
    _SCRATCH = _HERE / "results" / "tmp"
    _SCRATCH.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(_SCRATCH)

    from benchmarks.e2e.cli import main

    sys.exit(main())
