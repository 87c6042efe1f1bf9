"""CI check: one run record, built in one place, from one counter reader.

Counts, under ``src/repro``:

* the ``SkNNRunReport(...)`` constructions (``from_payload``'s ``cls(...)``
  rebuilds a report another process built and does not count), and
* the files that call ``.snapshot()`` on a Paillier operation counter to
  measure a run — the cumulative ``repro_crypto_operations`` gauges of the
  daemons' ``_collect_metrics`` collectors measure no run and do not count.

Prints both as Markdown table rows (CI appends them to the line-count
summary) and exits 1 unless each is exactly 1.

Run: ``python scripts/one_record_check.py``
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: last component of the expressions that hold an operation counter
COUNTER_NAMES = {"counter", "scope", "source"}


def main() -> int:
    builders: list[str] = []
    readers: set[str] = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        gauges = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  and function.name == "_collect_metrics"
                  for node in ast.walk(function)}
        where = path.relative_to(SOURCE.parent.parent)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if isinstance(target, ast.Name) and target.id == "SkNNRunReport":
                builders.append(f"{where}:{node.lineno}")
            elif (isinstance(target, ast.Attribute)
                  and target.attr == "snapshot" and id(node) not in gauges
                  and ast.unparse(target.value).rsplit(".", 1)[-1].strip("_")
                  in COUNTER_NAMES):
                readers.add(str(where))
    print(f"| `SkNNRunReport(` constructions (count, must be 1) "
          f"| {len(builders)} |")
    print(f"| run-measuring counter readers (files, must be 1) "
          f"| {len(readers)} |")
    if len(builders) != 1 or len(readers) != 1:
        print(f"report builders: {builders}\ncounter readers: "
              f"{sorted(readers)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
