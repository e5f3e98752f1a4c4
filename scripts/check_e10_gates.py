#!/usr/bin/env python
"""Assert the E10 compact-core benchmark cleared its performance gates.

Reads ``benchmarks/output/bench_e10_compact.json`` (written by a quick-
or full-mode run of ``benchmarks/bench_e10_compact.py``) and fails the
build unless

* ``fingerprint_incremental_speedup > 1.0`` — maintaining the state
  fingerprint incrementally beats re-hashing the engine from scratch;
* ``delta_snapshot_bytes_ratio < 1.0`` — a delta snapshot is smaller
  than the full snapshot it references;
* ``orderer_fold_speedup > 1.0`` — the sibling orderer folds an undo's
  new actions faster than it could rebuild its relation over the
  whole history.

These are the regressions the compact core exists to prevent: if any
gate fails, an O(delta) path has silently degraded to the O(state)
path it replaced.  Run from the repository root:

    python scripts/check_e10_gates.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPORT = (Path(__file__).resolve().parent.parent
          / "benchmarks" / "output" / "bench_e10_compact.json")

GATES = [
    ("fingerprint_incremental_speedup", "gt", 1.0),
    ("delta_snapshot_bytes_ratio", "lt", 1.0),
    ("orderer_fold_speedup", "gt", 1.0),
]


def main() -> int:
    try:
        doc = json.loads(REPORT.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read {REPORT}: {exc}", file=sys.stderr)
        print("run the benchmark first: REPRO_BENCH_QUICK=1 PYTHONPATH=src "
              "python -m pytest benchmarks/bench_e10_compact.py -q",
              file=sys.stderr)
        return 1
    values = doc.get("values", {})
    problems = []
    for key, op, bound in GATES:
        got = values.get(key)
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            problems.append(f"{key}: missing or non-numeric ({got!r})")
            continue
        ok = got > bound if op == "gt" else got < bound
        sign = ">" if op == "gt" else "<"
        status = "ok" if ok else "FAIL"
        print(f"{status}: {key} = {got} (required {sign} {bound})")
        if not ok:
            problems.append(f"{key} = {got}, required {sign} {bound}")
    if problems:
        print("\nE10 gates failed:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
