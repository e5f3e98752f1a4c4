#!/usr/bin/env python
"""Assert the E10 compact-core benchmark cleared its performance gates.

Reads ``benchmarks/output/bench_e10_compact.json`` and
``benchmarks/output/bench_e1_regional.json`` (written by quick- or
full-mode runs of ``benchmarks/bench_e10_compact.py`` and
``benchmarks/bench_e1_regional.py``) and fails the build unless

* ``fingerprint_incremental_speedup > 1.0`` — maintaining the state
  fingerprint incrementally beats re-hashing the engine from scratch;
* ``delta_snapshot_bytes_ratio < 1.0`` — a delta snapshot is smaller
  than the full snapshot it references;
* ``orderer_fold_speedup > 1.0`` — the sibling orderer folds an undo's
  new actions faster than it could rebuild its relation over the
  whole history;
* ``explain_index_speedup > 1.0`` — at the longest session measured,
  ``explain`` reads one stamp's indexed rows faster than it could
  re-read the whole audit file;
* ``dataflow_update_speedup > 1.0`` (E1) — at the largest session
  measured, carrying the data-flow facts forward after an undo beats
  re-running the analysis from scratch;
* ``find_speedup > 1.0`` (E1) — at the largest session measured, a
  ``find`` sweep over every kind served from the cached listings and
  the maintained def/use index beats one on a cache without a log.

These are the regressions the compact core exists to prevent: if any
gate fails, an O(delta) path has silently degraded to the O(state)
path it replaced.  Run from the repository root:

    python scripts/check_e10_gates.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "output"

#: (bench module, value, comparison, bound)
GATES = [
    ("bench_e10_compact", "fingerprint_incremental_speedup", "gt", 1.0),
    ("bench_e10_compact", "delta_snapshot_bytes_ratio", "lt", 1.0),
    ("bench_e10_compact", "orderer_fold_speedup", "gt", 1.0),
    ("bench_e10_compact", "explain_index_speedup", "gt", 1.0),
    ("bench_e1_regional", "dataflow_update_speedup", "gt", 1.0),
    ("bench_e1_regional", "find_speedup", "gt", 1.0),
]


def main() -> int:
    reports = {}
    for bench in sorted({g[0] for g in GATES}):
        path = OUT / f"{bench}.json"
        try:
            reports[bench] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            print("run the benchmark first: REPRO_BENCH_QUICK=1 "
                  f"PYTHONPATH=src python -m pytest benchmarks/{bench}.py "
                  "-q", file=sys.stderr)
            return 1
    problems = []
    for bench, key, op, bound in GATES:
        got = reports[bench].get("values", {}).get(key)
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
