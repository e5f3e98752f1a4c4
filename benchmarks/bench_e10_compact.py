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
   write latency of full vs. delta snapshots over one session, plus the
   envelope cost (``SnapshotStore.write`` of a full snapshot and
   ``SnapshotStore.latest``) of a fixed 200-command session on the E8
   program — the history every long-churn eviction snapshot holds.
3. **Dependence queries.**  ``DependenceGraph.between`` walks adjacency
   lists of the smaller endpoint set and ``carried_by`` consults a
   loop-indexed table, instead of scanning every edge per query.
   Measured: edges visited (``query_visits``) vs. the full-scan
   baseline, with the indexed results asserted identical.
4. **Sibling orderer.**  The cross-record orderer keeps its precedence
   relation across queries and folds in only the actions appended since
   the last one, instead of rebuilding the relation over every location
   snapshot in the history.  Measured on a ``blocks=24`` program run
   through large-cascade's refill/undo-oldest loop, at histories of
   40/120/240 records: the first query of a fresh orderer (a whole-history
   fold vs the pairwise rebuild) and the query after each undo (the fold
   of that undo's new actions vs a rebuild).
5. **Dataflow facts.**  ``analyze_dataflow`` keeps its per-statement
   bitsets and decodes a statement's frozenset on first read.  Measured:
   ms per run, reading nothing vs decoding every statement's facts (the
   eager conversion it replaced).
6. **Explain index.**  A durable session keeps each active stamp's
   audit events, folded in as each entry is written, so ``explain``
   reads one stamp's rows instead of re-reading and re-walking the whole
   ``audit.jsonl``.  Measured on a ``blocks=24`` session run through
   large-cascade's refill/undo-oldest loop, at ~100/300/600 commands:
   the audit part of ``explain`` from the index vs from the file, the
   fold's cost per undo entry, and the provenance bytes by node kind.
7. **Active-set snapshots.**  Undone records are written once to the
   session's side file, so a full snapshot carries the active records
   plus one short row per run of undone stamps.  Measured on the tiny
   program's ``apply ctp``/``undo`` alternation at 100/200/400/800
   commands: full-snapshot bytes, reopen ms and the heap a reopened
   session holds, then a delta snapshot against an active-set full one
   (bytes and write ms, reported for the decision on deleting deltas).

All tables print with ``pytest benchmarks/bench_e10_compact.py -s``.
"""

import json
import os
import time
import tracemalloc

import numpy as np

from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.depend import analyze_dependences
from repro.bench.reporting import BenchReport, banner, ms, quick, ratio, scaled
from repro.core.engine import TransformationEngine
from repro.core.locations import make_sibling_orderer
from repro.core.undo import UndoError
from repro.lang.ast_nodes import Loop
from repro.lang.printer import format_program
from repro.obs.provenance import (
    audit_path,
    entry_trees,
    read_audit,
    stamp_events,
)
from repro.service import session as session_mod
from repro.service.fingerprint import FingerprintMaintainer
from repro.service.serde import engine_to_doc, state_fingerprint
from repro.service.session import DurableSession
from repro.service.snapshot import SnapshotStore
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy
from tests.test_locations import cascade_refill, rebuild_orderer

REPORT = BenchReport("bench_e10_compact")

SEED = 17
SIZES = scaled([4, 8, 16, 32])  # generator blocks
N_OPS = 6
#: the E8 program; each apply/undo pair adds two commands to a session.
TINY_SRC = "c = 1\nx = c + 2\nwrite x\n"
TINY_COMMANDS = 200
ENVELOPE_REPEATS = 7
#: sibling orderer: history lengths (records) measured, and undo cycles
#: averaged per length.
ORDERER_HISTORIES = scaled([40, 120, 240])
ORDERER_CYCLES = 5
#: dataflow decode: programs (``blocks=24``) analysed per mode.
DATAFLOW_PROGRAMS = 4 if quick() else 12
#: explain index: session lengths (commands) measured.
EXPLAIN_LENGTHS = scaled([100, 300, 600])
#: active-set snapshots: tiny-session lengths (commands) measured, and
#: reopens timed per length.
ACTIVE_SET_HISTORIES = scaled([100, 200, 400, 800])
ACTIVE_SET_REOPENS = 5


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
    envelope_costs(str(tmp_path / "tiny"))

    bytes_ratio = float(np.mean(delta_bytes)) / full_bytes
    REPORT.value("delta_snapshot_bytes_ratio", round(bytes_ratio, 4))
    REPORT.value("full_snapshot_bytes", full_bytes)
    assert bytes_ratio < 1.0

    # recovery through the deltas reproduces the exact live state
    live = state_fingerprint(DurableSession.open(str(tmp_path / "sess"),
                                                 verify=True).engine)
    assert isinstance(live, str) and live


def envelope_costs(dirpath: str) -> None:
    """Median write and load time of one full snapshot of a fixed
    200-command session (reported, not gated)."""
    s = DurableSession.create(dirpath, TINY_SRC, snapshot_every=0)
    for _ in range(TINY_COMMANDS // 2):
        s.undo(s.apply("ctp", 0).stamp)
    payload = {"journal_seq": s.seq, "engine": engine_to_doc(s.engine)}
    store = SnapshotStore(os.path.join(dirpath, "envelope"))
    write_s, latest_s = [], []
    for _ in range(ENVELOPE_REPEATS):
        write_s.append(_timed(lambda: store.write(s.seq, payload))[1])
        latest, dt = _timed(store.latest)
        assert latest == (s.seq, payload)
        latest_s.append(dt)
    s.close()
    size = os.path.getsize(store.path_for(s.seq))
    t = REPORT.table(
        ["operation", "bytes", f"median of {ENVELOPE_REPEATS}"],
        title=f"E10 — full snapshot envelope, {TINY_COMMANDS}-command "
              "tiny session")
    t.add("SnapshotStore.write", size, ms(float(np.median(write_s))))
    t.add("SnapshotStore.latest", size, ms(float(np.median(latest_s))))
    t.show()
    REPORT.value("tiny_full_write_ms", round(1e3 * np.median(write_s), 3))
    REPORT.value("tiny_latest_ms", round(1e3 * np.median(latest_s), 3))


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


# ---------------------------------------------------------------------------
# 4. sibling orderer: fold new actions vs rebuild over the history
# ---------------------------------------------------------------------------


class CascadeLoop:
    """large-cascade's loop on one engine: refill to 41 active
    transformations, then undo the oldest."""

    def __init__(self, seed: int):
        self.engine = TransformationEngine(
            generate_program(seed, GeneratorConfig(blocks=24)))
        self.rng = np.random.default_rng(seed)
        self.state = {"next": 0}
        cascade_refill(self.engine, self.rng, 40, self.state)

    def cycle(self) -> None:
        cascade_refill(self.engine, self.rng, 41, self.state)
        try:
            self.engine.undo(self.engine.history.active()[0].stamp)
        except UndoError:
            pass


def test_e10_sibling_orderer():
    banner("E10 — sibling orderer: fold new actions vs rebuild the "
           "precedence relation")
    t = REPORT.table(
        ["history", "actions", "first query fold", "first query rebuild",
         "per undo fold", "per undo rebuild", "speedup"],
        title="E10 — sibling orderer cost by history length (blocks=24)")
    loop = CascadeLoop(SEED)
    engine = loop.engine
    history = engine.history
    body = engine.program.body
    pair = (body[0].sid, body[-1].sid)
    fold = make_sibling_orderer(history)
    rebuild = rebuild_orderer(history)
    speedup = 0.0
    for size in ORDERER_HISTORIES:
        while len(history) < size - ORDERER_CYCLES:
            loop.cycle()
        fold_s = rebuild_s = 0.0
        for _ in range(ORDERER_CYCLES):
            loop.cycle()
            got, dt = _timed(lambda: fold(*pair))
            fold_s += dt
            want, dt = _timed(lambda: rebuild(*pair))
            rebuild_s += dt
            assert got == want
        first_fold = float(np.median(
            [_timed(lambda: make_sibling_orderer(history)(*pair))[1]
             for _ in range(3)]))
        first_rebuild = float(np.median(
            [_timed(lambda: rebuild_orderer(history)(*pair))[1]
             for _ in range(3)]))
        speedup = rebuild_s / max(fold_s, 1e-9)
        t.add(len(history),
              sum(len(r.actions) for r in history.all_records()),
              ms(first_fold), ms(first_rebuild),
              ms(fold_s / ORDERER_CYCLES), ms(rebuild_s / ORDERER_CYCLES),
              ratio(rebuild_s, max(fold_s, 1e-9)))
    t.show()
    # values at the longest history
    REPORT.value("orderer_first_query_fold_ms", round(1e3 * first_fold, 3))
    REPORT.value("orderer_first_query_rebuild_ms",
                 round(1e3 * first_rebuild, 3))
    REPORT.value("orderer_fold_speedup", round(speedup, 2))
    # folding a cycle's new actions must beat re-reading the history
    assert speedup > 1.0


# ---------------------------------------------------------------------------
# 5. dataflow facts: decode on demand vs eager
# ---------------------------------------------------------------------------


def test_e10_dataflow_decode():
    banner("E10 — dataflow facts: decode on demand vs decode every "
           "statement")
    programs = [generate_program(SEED + k, GeneratorConfig(blocks=24))
                for k in range(DATAFLOW_PROGRAMS)]
    lazy_s = eager_s = 0.0
    for program in programs:
        # untimed warm-up; every run still derives each statement's
        # local facts afresh (no index: the from-scratch baseline)
        analyze_dataflow(program)
        _, dt = _timed(lambda: analyze_dataflow(program))
        lazy_s += dt

        def eager():
            res = analyze_dataflow(program)
            for facts in (res.reach_in, res.live_out, res.avail_in):
                for sid in facts:
                    facts[sid]
        _, dt = _timed(eager)
        eager_s += dt
    n = len(programs)
    t = REPORT.table(["mode", "programs", "ms per run"],
                     title="E10 — analyze_dataflow, blocks=24")
    t.add("decode on demand", n, ms(lazy_s / n))
    t.add("decode every statement", n, ms(eager_s / n))
    t.show()
    REPORT.value("dataflow_lazy_ms", round(1e3 * lazy_s / n, 3))
    REPORT.value("dataflow_eager_ms", round(1e3 * eager_s / n, 3))


# ---------------------------------------------------------------------------
# 6. explain: one active stamp's indexed rows vs the whole audit file
# ---------------------------------------------------------------------------


def node_bytes(entries):
    """(nodes, bytes) per provenance node kind over audit entries; a
    node's bytes are its own JSON, children excluded."""
    out = {}
    for entry in entries:
        stack = list(entry_trees(entry))
        while stack:
            node = stack.pop()
            stack.extend(node.get("children", ()))
            own = {k: v for k, v in node.items() if k != "children"}
            nodes, size = out.get(node["kind"], (0, 0))
            out[node["kind"]] = (nodes + 1,
                                 size + len(json.dumps(own, sort_keys=True)))
    return out


def test_e10_explain_index(tmp_path):
    banner("E10 — explain: one active stamp's indexed audit rows vs "
           "re-reading audit.jsonl")
    source = format_program(
        generate_program(SEED, GeneratorConfig(blocks=24)))
    session = DurableSession.create(str(tmp_path / "s"), source,
                                    snapshot_every=0)
    engine = session.engine
    rng = np.random.default_rng(SEED)
    state = {"next": 0}
    cascade_refill(engine, rng, 40, state)
    session.explain_events(engine.history.active()[0].stamp)  # build
    folds = []
    index_events = session._index_events

    def timed_fold(index, entry):
        start = time.perf_counter()
        index_events(index, entry)
        if entry["op"] == "undo":
            folds.append(time.perf_counter() - start)

    session._index_events = timed_fold
    t = REPORT.table(
        ["commands", "audit bytes", "index rows", "index bytes",
         "explain index", "explain file", "speedup"],
        title="E10 — audit part of explain by session length "
              "(blocks=24, median over the active stamps)")
    path = audit_path(session.dirpath)
    rows = []
    for length in EXPLAIN_LENGTHS:
        while session.seq < length:
            cascade_refill(engine, rng, 41, state)
            try:
                engine.undo(engine.history.active()[0].stamp)
            except UndoError:
                pass
        index_s, file_s = [], []
        for rec in engine.history.active():
            got, dt = _timed(lambda: session.explain_events(rec.stamp))
            index_s.append(dt)
            want, dt = _timed(lambda: stamp_events(read_audit(path),
                                                   rec.stamp))
            file_s.append(dt)
            assert got == want
        index_ms = float(np.median(index_s))
        file_ms = float(np.median(file_s))
        sizes = session.metrics()
        rows.append((index_ms, file_ms))
        t.add(session.seq, os.path.getsize(path),
              sizes["explain_index_rows"], sizes["explain_index_bytes"],
              ms(index_ms), ms(file_ms), ratio(file_ms, index_ms))
    t.show()

    kinds = node_bytes(read_audit(path))
    total = sum(size for _, size in kinds.values())
    k = REPORT.table(["node kind", "nodes", "bytes", "share"],
                     title="E10 — provenance bytes by node kind, longest "
                           "session")
    for kind, (nodes, size) in sorted(kinds.items()):
        k.add(kind, nodes, size, f"{100 * size / total:.1f}%")
    k.show()
    session.close()

    f = REPORT.table(["fold", "undo entries", "median", "max"],
                     title="E10 — explain index fold per undo entry")
    f.add("entry_events + marshal", len(folds),
          ms(float(np.median(folds))), ms(max(folds)))
    f.show()

    (first_index, _), (last_index, last_file) = rows[0], rows[-1]
    REPORT.value("explain_index_ms_at_max", round(1e3 * last_index, 3))
    REPORT.value("explain_file_ms_at_max", round(1e3 * last_file, 3))
    REPORT.value("explain_index_speedup", round(last_file / last_index, 2))
    REPORT.value("explain_index_growth", round(last_index / first_index, 2))
    REPORT.value("explain_fold_undo_ms", round(1e3 * np.median(folds), 3))
    REPORT.value("skip_bytes_share",
                 round(kinds.get("skip", (0, 0))[1] / total, 4))
    # the index must beat re-reading the file once the session is long
    assert last_file > last_index


# ---------------------------------------------------------------------------
# 7. active-set snapshots: bytes, reopen and memory against history length
# ---------------------------------------------------------------------------


def active_set_row(dirpath: str, commands: int):
    """Cut a full snapshot of a ``commands``-long tiny session, reopen
    it, run one command and cut a delta; returns the row's values."""
    s = DurableSession.create(dirpath, TINY_SRC, snapshot_every=0)
    while s.seq < commands:
        s.undo(s.apply("ctp", 0).stamp)
    full_path = s.snapshot()
    s.close()
    reopen_s = []
    for _ in range(ACTIVE_SET_REOPENS):
        s, dt = _timed(lambda: DurableSession.open(dirpath))
        reopen_s.append(dt)
        s.close()
    tracemalloc.start()
    s = DurableSession.open(dirpath)
    heap = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    s.apply("ctp", 0)
    # the eviction snapshot both ways: payload built and written
    base = s._base
    deltas = SnapshotStore(os.path.join(dirpath, "delta"))
    fulls = SnapshotStore(os.path.join(dirpath, "full"))
    delta_path, delta_s = _timed(lambda: deltas.write(
        s.seq, s._delta_payload(base), base=base.full_seq))
    full_path2, full_s = _timed(lambda: fulls.write(
        s.seq, {"journal_seq": s.seq, "engine": engine_to_doc(s.engine)}))
    s.close()
    return {"full_bytes": os.path.getsize(full_path),
            "reopen_ms": 1e3 * float(np.median(reopen_s)),
            "heap_kb": heap / 1024,
            "delta_bytes": os.path.getsize(delta_path),
            "delta_ms": 1e3 * delta_s,
            "active_full_bytes": os.path.getsize(full_path2),
            "active_full_ms": 1e3 * full_s}


def test_e10_active_set_snapshots(tmp_path):
    banner("E10 — active-set snapshots: bytes, reopen and memory vs "
           "history length (tiny program)")
    t = REPORT.table(
        ["commands", "full snapshot B", "reopen", "reopened heap KiB",
         "delta B", "delta write", "active full B", "active full write"],
        title="E10 — active-set snapshots vs history length")
    rows = {}
    for n in ACTIVE_SET_HISTORIES:
        row = rows[n] = active_set_row(str(tmp_path / f"s{n}"), n)
        t.add(n, row["full_bytes"], f"{row['reopen_ms']:.2f} ms",
              round(row["heap_kb"], 1), row["delta_bytes"],
              f"{row['delta_ms']:.2f} ms", row["active_full_bytes"],
              f"{row['active_full_ms']:.2f} ms")
    t.show()
    first, last = rows[ACTIVE_SET_HISTORIES[0]], rows[ACTIVE_SET_HISTORIES[-1]]
    growth = last["full_bytes"] / first["full_bytes"]
    REPORT.value("active_set_history_at_max", ACTIVE_SET_HISTORIES[-1])
    REPORT.value("active_set_full_bytes_growth", round(growth, 4))
    REPORT.value("active_set_reopen_growth",
                 round(last["reopen_ms"] / first["reopen_ms"], 3))
    REPORT.value("active_set_heap_growth",
                 round(last["heap_kb"] / first["heap_kb"], 3))
    REPORT.value("active_set_delta_bytes_ratio",
                 round(last["delta_bytes"] / last["active_full_bytes"], 4))
    # a full snapshot holds the active set, not the undone history
    assert growth < 1.5
