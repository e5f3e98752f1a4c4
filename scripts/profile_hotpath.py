#!/usr/bin/env python
"""Profile the durable-session hot path: a scripted 200-command session.

Drives a :class:`~repro.service.session.DurableSession` in a temporary
directory through a deterministic mix of applies, undos, edits, and
periodic snapshots under the built-in sampling profiler
(:class:`repro.obs.profiler.Profiler` — the same engine behind the
server's ``_ prof`` verbs and ``/pprof``), then prints the hottest
frames by self samples.  This is the workload the compact core
(content-hashed fingerprints, bitset dataflow, indexed dependence
queries, delta snapshots) optimizes — when a linear scan sneaks back
onto the command path, it surfaces here first.

The collapsed-stack profile (``flamegraph.pl`` input) is written to
``benchmarks/output/profile_hotpath.folded`` so ``regen_tables.sh``
captures a flamegraph-ready artifact next to the benchmark tables.

Run from the repository root:

    PYTHONPATH=src python scripts/profile_hotpath.py [N_COMMANDS]
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.lang.ast_nodes import Assign, Const
from repro.lang.printer import format_program
from repro.obs.profiler import Profiler
from repro.service.session import DurableSession
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

SEED = 23
TOP = 20
HZ = 500.0

#: where the collapsed-stack dump lands (flamegraph.pl input).
FOLDED_OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "output", "profile_hotpath.folded")


def drive(session: DurableSession, n_commands: int) -> int:
    """Mixed command stream: ~2/3 applies, interleaved undos and edits."""
    done = 0
    stamps = []
    edit_k = 0
    while done < n_commands:
        applied = apply_greedy(session.engine, 2, seed=SEED + done)
        stamps.extend(applied)
        done += len(applied)
        if stamps and done % 6 < 2:
            stamp = stamps.pop(0)
            if session.engine.history.by_stamp(stamp).active:
                session.undo(stamp)
                done += 1
        if done % 10 < 2:
            sid = next((s.sid for s in session.engine.program.walk()
                        if isinstance(s, Assign)), None)
            if sid is not None:
                edit_k += 1
                session.edit_modify(sid, ("expr",), Const(edit_k))
                done += 1
        if not applied:  # opportunity pool exhausted: edits only from here
            break
    return done


def main() -> int:
    n_commands = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    src = format_program(generate_program(SEED, GeneratorConfig(blocks=24)))
    profiler = Profiler(hz=HZ)
    with tempfile.TemporaryDirectory() as tmp:
        session = DurableSession.create(tmp + "/prof", src,
                                        snapshot_every=16)
        profiler.start()
        done = drive(session, n_commands)
        profiler.stop()
        session.close()
    snap = profiler.snapshot()
    print(f"profiled {done} commands "
          f"(applies/undos/edits + periodic delta snapshots): "
          f"{snap['samples']} sample(s) at {HZ:g} hz, "
          f"{snap['dropped']} dropped, {snap['wall_s']:.2f}s wall\n")
    rows = profiler.table()[:TOP]
    if rows:
        width = max(len(r["frame"]) for r in rows)
        print(f"{'frame':<{width}}  {'self':>6} {'cum':>6} "
              f"{'self_s':>8} {'cum_s':>8}")
        for r in rows:
            print(f"{r['frame']:<{width}}  {r['self']:>6} {r['cum']:>6} "
                  f"{r['self_s']:>8.3f} {r['cum_s']:>8.3f}")
    folded = profiler.folded()
    out_path = os.path.normpath(FOLDED_OUT)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(folded + ("\n" if folded else ""))
    print(f"\ncollapsed stacks written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
