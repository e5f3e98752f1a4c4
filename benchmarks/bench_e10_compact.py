"""E10 — the compact core: O(delta) fingerprints, delta snapshots, and
indexed dependence queries.

PR 8 replaced three linear scans on the hot command path with
incremental structures:

1. **Fingerprints.**  ``state_fingerprint`` re-hashes the whole engine
   state; :class:`~repro.service.fingerprint.FingerprintMaintainer`
   folds per-component digests and only re-hashes what a command
   actually touched (memoized statement content hashes + the history
   mutation journal + running store/log digests).  Measured: both after
   every command, asserted equal, timed — the speedup must grow with
   program size.
2. **Snapshots.**  A delta snapshot persists only the statement rows
   whose subtrees changed since the last full snapshot, so steady-state
   snapshot cost is O(changes), not O(program).  Measured: bytes and
   write latency of full vs. delta snapshots over one session.
3. **Dependence queries.**  ``DependenceGraph.between`` walks adjacency
   lists of the smaller endpoint set and ``carried_by`` consults a
   loop-indexed table, instead of scanning every edge per query.
   Measured: edges visited (``query_visits``) vs. the full-scan
   baseline, with the indexed results asserted identical.

All tables print with ``pytest benchmarks/bench_e10_compact.py -s``.
"""

import os
import time

import numpy as np

from repro.analysis.depend import analyze_dependences
from repro.bench.reporting import BenchReport, banner, ms, ratio, scaled
from repro.core.engine import TransformationEngine
from repro.lang.ast_nodes import Loop
from repro.lang.printer import format_program
from repro.service import session as session_mod
from repro.service.fingerprint import FingerprintMaintainer
from repro.service.serde import state_fingerprint
from repro.service.session import DurableSession
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

REPORT = BenchReport("bench_e10_compact")

SEED = 17
SIZES = scaled([4, 8, 16, 32])  # generator blocks
N_OPS = 6


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1. fingerprint: from-scratch vs incrementally maintained
# ---------------------------------------------------------------------------


def fingerprint_costs(blocks: int):
    """(stmts, scratch seconds, incremental seconds) over N_OPS commands."""
    engine = TransformationEngine(
        generate_program(SEED, GeneratorConfig(blocks=blocks)))
    maintainer = FingerprintMaintainer(engine)
    n_stmts = len(list(engine.program.walk()))
    scratch_s = incr_s = 0.0
    for i in range(N_OPS):
        if not apply_greedy(engine, 1, seed=SEED + i):
            break
        scratch, ds = _timed(lambda: state_fingerprint(engine))
        incr, di = _timed(maintainer.current)
        assert scratch == incr
        scratch_s += ds
        incr_s += di
    return n_stmts, scratch_s, incr_s


def test_e10_fingerprint_speedup():
    banner("E10 — state fingerprint after every command: "
           "from-scratch vs incrementally maintained")
    t = REPORT.table(
        ["blocks", "stmts", "scratch", "incremental", "speedup"],
        title="E10 — fingerprint maintenance cost per command")
    speedup = 0.0
    for blocks in SIZES:
        n_stmts, scratch_s, incr_s = fingerprint_costs(blocks)
        speedup = scratch_s / max(incr_s, 1e-9)
        t.add(blocks, n_stmts, ms(scratch_s / N_OPS), ms(incr_s / N_OPS),
              ratio(scratch_s, max(incr_s, 1e-9)))
    t.show()
    REPORT.value("fingerprint_incremental_speedup", round(speedup, 2))
    # the whole point: maintenance beats re-hashing, clearly so at scale
    assert speedup > 1.0


# ---------------------------------------------------------------------------
# 2. snapshots: full vs delta bytes and latency
# ---------------------------------------------------------------------------


def test_e10_delta_snapshots(tmp_path, monkeypatch):
    banner("E10 — snapshot cost: full payload vs delta payload")
    src = format_program(
        generate_program(SEED, GeneratorConfig(blocks=SIZES[-1])))
    # one full snapshot followed only by deltas for the whole table
    monkeypatch.setattr(session_mod, "SNAPSHOT_FULL_EVERY", 64)
    s = DurableSession.create(str(tmp_path / "sess"), src, snapshot_every=0)
    apply_greedy(s.engine, 4, seed=SEED)
    _, full_s = _timed(s.snapshot)
    (fseq, fbase) = s.snapshots.entries()[-1]
    assert fbase is None
    full_bytes = os.path.getsize(s.snapshots.path_for(fseq, fbase))

    delta_bytes = []
    delta_s = 0.0
    for i in range(4):
        apply_greedy(s.engine, 1, seed=SEED + 100 + i)
        _, dt = _timed(s.snapshot)
        delta_s += dt
        seq, base = s.snapshots.entries()[-1]
        assert base == fseq
        delta_bytes.append(os.path.getsize(s.snapshots.path_for(seq, base)))
    s.close()

    t = REPORT.table(["snapshot", "bytes", "write latency"],
                     title="E10 — snapshot bytes and latency, full vs delta")
    t.add("full", full_bytes, ms(full_s))
    t.add("delta (mean of 4)", int(np.mean(delta_bytes)),
          ms(delta_s / len(delta_bytes)))
    t.show()

    bytes_ratio = float(np.mean(delta_bytes)) / full_bytes
    REPORT.value("delta_snapshot_bytes_ratio", round(bytes_ratio, 4))
    REPORT.value("full_snapshot_bytes", full_bytes)
    assert bytes_ratio < 1.0

    # recovery through the deltas reproduces the exact live state
    live = state_fingerprint(DurableSession.open(str(tmp_path / "sess"),
                                                 verify=True).engine)
    assert isinstance(live, str) and live


# ---------------------------------------------------------------------------
# 3. dependence queries: indexed vs full edge scan
# ---------------------------------------------------------------------------


def naive_between(deps, srcs, dsts):
    return [d for d in deps if d.src in srcs and d.dst in dsts]


def test_e10_dependence_queries():
    banner("E10 — dependence queries: adjacency index vs full edge scan")
    t = REPORT.table(
        ["blocks", "edges", "queries", "indexed visits", "scan visits",
         "saved"],
        title="E10 — edges visited per between/carried_by query batch")
    visit_ratio = 1.0
    for blocks in SIZES:
        program = generate_program(SEED, GeneratorConfig(blocks=blocks))
        graph = analyze_dependences(program)
        sids = [s.sid for s in program.walk()]
        rng = np.random.default_rng(SEED)
        graph.query_visits = 0
        queries = 0
        scan_visits = 0
        for _ in range(20):
            srcs = set(rng.choice(sids, size=max(1, len(sids) // 8),
                                  replace=False).tolist())
            dsts = set(rng.choice(sids, size=max(1, len(sids) // 8),
                                  replace=False).tolist())
            got = graph.between(srcs, dsts)
            assert got == naive_between(graph.deps, srcs, dsts)
            queries += 1
            scan_visits += len(graph.deps)
        for loop in (s for s in program.walk() if isinstance(s, Loop)):
            graph.carried_by(loop.sid)
            queries += 1
            scan_visits += len(graph.deps)
        visit_ratio = graph.query_visits / max(scan_visits, 1)
        t.add(blocks, len(graph.deps), queries, graph.query_visits,
              scan_visits, ratio(scan_visits, max(graph.query_visits, 1)))
    t.show()
    REPORT.value("dep_query_visit_ratio", round(visit_ratio, 4))
    # the index must not visit more edges than the scan it replaces
    assert visit_ratio < 1.0
