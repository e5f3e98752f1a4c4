"""E6 — durable-session recovery: reopen latency and journal overhead.

The service layer (src/repro/service/) claims two quantitative
properties worth measuring rather than asserting:

1. **Snapshots bound reopen latency.**  Recovery without a snapshot
   replays the entire command history through the engine; with
   periodic snapshots it deserializes the latest one and replays only
   the journal tail.  As the history grows the no-snapshot reopen cost
   grows with it, while the snapshot reopen cost stays bounded by
   ``snapshot_every``.
2. **Journaling is cheap relative to the commands it logs.**  The
   write-ahead journal adds one JSON line + flush per command (fsync
   amortized over ``fsync_every``); command throughput with journaling
   should stay within a small factor of the bare engine.
3. **Batching amortizes durability.**  A ``BatchCommand`` of N
   sub-commands journals as one record and pays one fsync, so at
   ``fsync_every=1`` batched execution clears 2x the single-command
   journaled throughput by batch size 16.
4. **An evict/reopen cycle costs what changed, not the history.**  A
   session that is reopened, runs one command and is snapshotted on
   eviction (the service's LRU cycle) cuts that snapshot as a delta
   against the full one on disk, and its reopen checks the journal's
   CRCs without rendering a record.  The table reports the cycle's
   parts against history length, plus the size of the newest full
   snapshot on disk (reported, not gated).

All tables print with `pytest benchmarks/bench_e6_recovery.py -s`.
"""

import os
import statistics
import time

import pytest

from repro.bench.reporting import BenchReport, banner, ms, rate, ratio, scaled
from repro.lang.printer import format_program
from repro.service.journal import scan_journal
from repro.service.recovery import JOURNAL_FILE, SNAPSHOT_DIR
from repro.service.serde import state_fingerprint
from repro.service.session import DurableSession
from repro.service.snapshot import SnapshotStore
from repro.workloads.generator import generate_program
from tests.test_service_recovery import drive

REPORT = BenchReport("bench_e6_recovery")

SEED = 11
HISTORY_SIZES = scaled([4, 8, 16, 28])
SNAPSHOT_EVERY = 8
#: the E8 program; one apply/undo pair adds two commands to a session.
TINY_SRC = "c = 1\nx = c + 2\nwrite x\n"
CYCLE_HISTORIES = scaled([100, 200, 400])
#: evict/reopen cycles per history length (four full-every periods).
CYCLES = 16


def build_history(tmp_path, tag, n_commands, snapshot_every):
    """A session directory holding ``n_commands`` committed commands."""
    sdir = str(tmp_path / tag)
    session = DurableSession.create(
        sdir, format_program(generate_program(SEED), ),
        snapshot_every=snapshot_every)
    stamps = drive(session, n_apply=n_commands, seed=SEED)
    # sprinkle undos so the replay exercises both command kinds
    for stamp in stamps[1::4]:
        if session.engine.history.by_stamp(stamp).active:
            session.undo(stamp)
    fp = state_fingerprint(session.engine)
    session.journal.sync()  # abandon without close(): the crash model
    return sdir, session.seq, fp


def timed_reopen(sdir, expected_fp):
    start = time.perf_counter()
    session = DurableSession.open(sdir)
    elapsed = time.perf_counter() - start
    assert state_fingerprint(session.engine) == expected_fp
    replayed = session.recovery.replayed
    session.close()
    return elapsed, replayed


def test_e6_reopen_latency_table(tmp_path):
    banner("E6 — reopen latency: snapshot + tail replay vs full replay")
    t = REPORT.table(["commands", "no-snap reopen", "replayed",
               "snap reopen", "replayed ", "speedup"],
                     title="E6 — reopen latency, snapshot+tail vs full replay")
    rows = []
    for n in HISTORY_SIZES:
        plain_dir, seq_p, fp_p = build_history(
            tmp_path, f"plain{n}", n, snapshot_every=0)
        snap_dir, seq_s, fp_s = build_history(
            tmp_path, f"snap{n}", n, snapshot_every=SNAPSHOT_EVERY)
        t_plain, rep_plain = timed_reopen(plain_dir, fp_p)
        t_snap, rep_snap = timed_reopen(snap_dir, fp_s)
        t.add(n, ms(t_plain), rep_plain, ms(t_snap), rep_snap,
              ratio(t_plain, t_snap))
        rows.append((seq_p, rep_plain, rep_snap))
    t.show()
    REPORT.value("replayed_no_snapshot_at_max", rows[-1][1])
    REPORT.value("replayed_with_snapshots_at_max", rows[-1][2])
    for seq_p, rep_plain, rep_snap in rows:
        # no snapshot → the whole history replays
        assert rep_plain == seq_p
        # snapshots bound the replayed tail regardless of history size
        assert rep_snap <= SNAPSHOT_EVERY
    # crash-model reopen reconstructed every state (asserted inline)


def test_e6_journal_overhead_table(tmp_path):
    from repro.core.engine import TransformationEngine
    from repro.lang.parser import parse_program
    from tests.test_service_recovery import KINDS

    banner("E6 — journal overhead: durable vs bare-engine throughput")
    source = format_program(generate_program(SEED))
    n_ops = 24

    def run_bare():
        engine = TransformationEngine(parse_program(source))
        start = time.perf_counter()
        done = 0
        for name in list(KINDS) * 4:
            if done >= n_ops:
                break
            opps = engine.find(name)
            if opps:
                rec = engine.apply(opps[0])
                engine.undo(rec.stamp)
                done += 2
        return done, time.perf_counter() - start

    def run_durable(fsync_every):
        session = DurableSession.create(
            str(tmp_path / f"d{fsync_every}"), source,
            snapshot_every=0, fsync_every=fsync_every)
        start = time.perf_counter()
        done = 0
        for name in list(KINDS) * 4:
            if done >= n_ops:
                break
            opps = session.engine.find(name)
            if opps:
                rec = session.apply(name, 0)
                session.undo(rec.stamp)
                done += 2
        elapsed = time.perf_counter() - start
        syncs = session.journal.syncs
        session.close()
        return done, elapsed, syncs

    ops_b, t_bare = run_bare()
    t = REPORT.table(["configuration", "commands", "elapsed", "throughput",
               "fsyncs", "overhead"],
                     title="E6 — journal overhead vs bare-engine throughput")
    t.add("bare engine", ops_b, ms(t_bare), rate(ops_b, t_bare), 0, "1.00x")
    overhead = 1.0
    for fsync_every in (1, 8):
        ops_d, t_dur, syncs = run_durable(fsync_every)
        assert ops_d == ops_b
        t.add(f"journaled (fsync_every={fsync_every})", ops_d, ms(t_dur),
              rate(ops_d, t_dur), syncs, ratio(t_dur, t_bare))
        overhead = t_dur / t_bare
    t.show()
    REPORT.value("journal_overhead_fsync8", round(overhead, 2))


def test_e6_batch_throughput_table(tmp_path):
    from repro.core.commands import EditCommand
    from repro.lang.ast_nodes import Assign, Const

    banner("E6 — batched vs single-command journaled throughput "
           "(fsync_every=1)")
    source = format_program(generate_program(SEED))
    n_ops = 64

    def make_commands(engine):
        sid = next(s.sid for s in engine.program.walk()
                   if isinstance(s, Assign))
        return [EditCommand(kind="modify", sid=sid, path=("expr",),
                            expr=Const(k)) for k in range(n_ops)]

    def run(tag, batch_size):
        session = DurableSession.create(
            str(tmp_path / tag), source, snapshot_every=0, fsync_every=1)
        cmds = make_commands(session.engine)
        syncs0 = session.journal.syncs
        start = time.perf_counter()
        if batch_size == 1:
            for cmd in cmds:
                session.execute(cmd)
        else:
            for k in range(0, n_ops, batch_size):
                session.batch(cmds[k:k + batch_size])
        elapsed = time.perf_counter() - start
        syncs = session.journal.syncs - syncs0
        fp = state_fingerprint(session.engine)
        session.close()
        return elapsed, syncs, fp

    t_single, syncs_single, fp_single = run("single", 1)
    t = REPORT.table(["configuration", "commands", "records", "fsyncs",
               "elapsed", "throughput", "speedup"],
                     title="E6 — batched vs single-command throughput")
    t.add("single-command", n_ops, n_ops, syncs_single, ms(t_single),
          rate(n_ops, t_single), "1.00x")
    speedups = {}
    for batch_size in (4, 16):
        t_batch, syncs_batch, fp_batch = run(f"b{batch_size}", batch_size)
        # batch boundaries are semantically invisible
        assert fp_batch == fp_single
        assert syncs_batch == n_ops // batch_size
        speedups[batch_size] = t_single / t_batch
        t.add(f"batched (size={batch_size})", n_ops,
              n_ops // batch_size, syncs_batch, ms(t_batch),
              rate(n_ops, t_batch), ratio(t_single, t_batch))
    t.show()
    assert syncs_single == n_ops
    # the acceptance bar: batch-16 clears 2x single-command throughput
    assert speedups[16] >= 2.0
    REPORT.value("batch16_speedup", round(speedups[16], 2))


def test_e6_recovery_correctness_spot_check(tmp_path):
    """The benchmark's crash model is honest: reopen-with-verify passes."""
    sdir, _, fp = build_history(tmp_path, "check", 10,
                                snapshot_every=4)
    session = DurableSession.open(sdir, verify=True)
    assert session.recovery.verified is True
    assert state_fingerprint(session.engine) == fp
    session.close()


def _cycle(sdir):
    """One LRU cycle: reopen, one command, eviction snapshot, close.

    Returns (reopen s, snapshot s, snapshot bytes, journal scan s)."""
    start = time.perf_counter()
    session = DurableSession.open(sdir)
    reopen_s = time.perf_counter() - start
    active = session.engine.history.active()
    if active:
        session.undo(active[-1].stamp)
    else:
        session.apply("ctp", 0)
    start = time.perf_counter()
    path = session.snapshot()
    snapshot_s = time.perf_counter() - start
    session.close()
    start = time.perf_counter()
    scan_journal(os.path.join(sdir, JOURNAL_FILE))
    scan_s = time.perf_counter() - start
    return reopen_s, snapshot_s, os.path.getsize(path), scan_s


def test_e6_evict_reopen_cycle_table(tmp_path):
    banner("E6 — evict/reopen cycle vs history length (tiny program, "
           f"{CYCLES} cycles: reopen and scan medians, snapshot means)")
    t = REPORT.table(["history", "reopen", "evict snapshot",
                      "snapshot bytes", "full snapshot B", "journal scan"],
                     title="E6 — evict/reopen cycle vs history length")
    for n in CYCLE_HISTORIES:
        sdir = str(tmp_path / f"cycle{n}")
        session = DurableSession.create(sdir, TINY_SRC)
        while session.seq < n:
            session.undo(session.apply("ctp", 0).stamp)
        session.snapshot()
        session.close()
        reopen_s, snapshot_s, sizes, scan_s = zip(
            *(_cycle(sdir) for _ in range(CYCLES)))
        store = SnapshotStore(os.path.join(sdir, SNAPSHOT_DIR))
        newest_full = max(seq for seq, base in store.entries()
                          if base is None)
        row = {"reopen_ms": statistics.median(reopen_s),
               "snapshot_ms": statistics.mean(snapshot_s),
               "snapshot_bytes": statistics.mean(sizes),
               "full_snapshot_bytes": os.path.getsize(
                   store.path_for(newest_full, None)),
               "journal_scan_ms": statistics.median(scan_s)}
        t.add(n, ms(row["reopen_ms"]), ms(row["snapshot_ms"]),
              int(row["snapshot_bytes"]), row["full_snapshot_bytes"],
              ms(row["journal_scan_ms"]))
    t.show()
    REPORT.value("cycle_history_at_max", n)
    for key, value in row.items():
        scale = 1 if key.endswith("_bytes") else 1e3
        REPORT.value(f"cycle_{key}_at_max", round(scale * value, 3))
    # the cycles kept the session exact
    assert DurableSession.open(sdir, verify=True).recovery.verified
