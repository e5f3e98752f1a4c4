"""Property tests for the compact core (PR 8).

Two invariants carry the whole interned/content-hashed representation:

1. after ANY fuzzed apply/undo/edit/batch sequence, the O(delta)
   :class:`~repro.service.fingerprint.FingerprintMaintainer` equals the
   from-scratch :func:`~repro.service.serde.state_fingerprint` — i.e.
   the memo-invalidation discipline on statement hashes, the history
   mutation journal, and the store/log running digests never go stale;
2. recovery through a *delta* snapshot reproduces exactly the state that
   recovery through a full snapshot (or a full replay) reproduces.

Plus deterministic unit coverage of leaf interning, hash sensitivity,
and delta-snapshot resolution failure modes.
"""

import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import EditCommand, UndoCommand
from repro.core.engine import TransformationEngine
from repro.lang.ast_nodes import (
    Assign,
    Const,
    VarRef,
    expr_hash,
    expr_hash_fresh,
    intern_const,
    intern_var,
    stmt_hash,
    stmt_hash_fresh,
)
from repro.service import session as session_mod
from repro.service.fingerprint import FingerprintMaintainer
from repro.service.serde import (
    SerdeError,
    program_doc_to_rows,
    program_to_doc,
    resolve_snapshot_delta,
    rows_to_program_doc,
    state_fingerprint,
)
from repro.service.session import DurableSession
from repro.service.snapshot import SnapshotStore
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

CFG = GeneratorConfig(blocks=4, trip=8)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

SRC = (
    "c = 1\n"
    "x = c + 2\n"
    "d = e + f\n"
    "do i = 1, 8\n"
    "  R(i) = e + f\n"
    "enddo\n"
    "write x\nwrite d\nwrite R(3)\n"
)


# ---------------------------------------------------------------------------
# Interning and content hashes
# ---------------------------------------------------------------------------


class TestInterning:
    def test_equal_leaves_share_objects(self):
        assert intern_const(3) is intern_const(3)
        assert intern_var("x") is intern_var("x")

    def test_type_distinction_survives_interning(self):
        # 1, 1.0 and True compare equal; they must not share an entry
        objs = {id(intern_const(v)) for v in (1, 1.0, True)}
        assert len(objs) == 3
        hashes = {expr_hash(intern_const(v)) for v in (1, 1.0, True)}
        assert len(hashes) == 3

    def test_clone_returns_interned_leaf(self):
        assert Const(5).clone() is intern_const(5)
        assert VarRef("y").clone() is intern_var("y")


class TestContentHashes:
    def test_structural_equality_and_difference(self):
        a = Assign(VarRef("x"), Const(1))
        b = Assign(VarRef("x"), Const(1))
        a.sid = b.sid = 7
        assert stmt_hash(a) == stmt_hash(b)
        c = Assign(VarRef("x"), Const(2))
        c.sid = 7
        assert stmt_hash(a) != stmt_hash(c)

    def test_memo_matches_fresh_after_engine_work(self):
        p = generate_program(3, CFG)
        engine = TransformationEngine(p)
        apply_greedy(engine, 6, seed=4)
        for s in engine.program.walk():
            assert stmt_hash(s) == stmt_hash_fresh(s)
            for _slot, e in s.expr_slots():
                assert expr_hash(e) == expr_hash_fresh(e)


# ---------------------------------------------------------------------------
# Property 1: incremental fingerprint == from-scratch fingerprint
# ---------------------------------------------------------------------------


def _first_assign_sid(engine):
    for s in engine.program.walk():
        if isinstance(s, Assign):
            return s.sid
    return None


@given(st.integers(0, 120), st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_incremental_fingerprint_tracks_scratch(seed, rnd):
    engine = TransformationEngine(generate_program(seed, CFG))
    maintainer = FingerprintMaintainer(engine)
    assert maintainer.current() == state_fingerprint(engine)

    applied = apply_greedy(engine, 6, seed=seed + 1)
    assert maintainer.current() == state_fingerprint(engine)

    stamps = list(applied)
    rnd.shuffle(stamps)
    for stamp in stamps[: len(stamps) // 2]:
        if engine.history.by_stamp(stamp).active:
            engine.undo(stamp)
        assert maintainer.current() == state_fingerprint(engine)

    sid = _first_assign_sid(engine)
    if sid is not None:
        engine.execute(EditCommand(kind="modify", sid=sid,
                                   path=("expr",), expr=Const(7)))
        assert maintainer.current() == state_fingerprint(engine)

    remaining = [s for s in stamps
                 if engine.history.by_stamp(s).active]
    if remaining:
        engine.execute_batch([UndoCommand(stamp=remaining[0])])
        assert maintainer.current() == state_fingerprint(engine)


def test_maintainer_primes_from_restored_history(tmp_path):
    s = DurableSession.create(str(tmp_path), SRC)
    s.apply("ctp", 0)
    s.snapshot()
    s.close()
    reopened = DurableSession.open(str(tmp_path))
    maintainer = FingerprintMaintainer(reopened.engine)
    assert maintainer.current() == state_fingerprint(reopened.engine)
    reopened.apply("cse", 0)
    assert maintainer.current() == state_fingerprint(reopened.engine)
    reopened.close()


# ---------------------------------------------------------------------------
# Property 2: delta-snapshot recovery == full-snapshot recovery
# ---------------------------------------------------------------------------


def _drive(session, seed, n_apply, n_undo):
    applied = apply_greedy(session.engine, n_apply, seed=seed)
    for stamp in applied[:n_undo]:
        if session.engine.history.by_stamp(stamp).active:
            session.undo(stamp)
    sid = _first_assign_sid(session.engine)
    if sid is not None:
        session.edit_modify(sid, ("expr",), Const(9))


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_delta_snapshot_recovery_matches_full(tmp_path_factory, seed):
    from repro.lang.printer import format_program

    base = tmp_path_factory.mktemp(f"compact{seed}")
    # drive two sessions identically: one full-only, one with deltas
    src = format_program(generate_program(seed, CFG))
    dirs = {"full": str(base / "full"), "delta": str(base / "delta")}
    fingerprints = {}
    for mode, full_every in (("full", 1), ("delta", 3)):
        s = DurableSession.create(dirs[mode], src, snapshot_every=2)
        with mock.patch.object(session_mod, "SNAPSHOT_FULL_EVERY",
                               full_every):
            _drive(s, seed + 1, 5, 2)
        fingerprints[mode] = state_fingerprint(s.engine)
        files = os.listdir(os.path.join(dirs[mode], "snapshots"))
        if mode == "delta" and s.snapshots.written >= 2:
            assert any("-d" in f for f in files), files
        if mode == "full":
            assert not any("-d" in f for f in files), files
        s.close()
    assert fingerprints["full"] == fingerprints["delta"]
    for mode in dirs:
        reopened = DurableSession.open(dirs[mode], verify=True)
        assert reopened.recovery.verified is True
        assert state_fingerprint(reopened.engine) == fingerprints[mode]
        reopened.close()


@given(seed=st.integers(0, 60))
@settings(max_examples=10, deadline=None)
def test_delta_chains_across_handles_match_full(tmp_path_factory, seed):
    """The twin above, with both sessions closed and reopened between
    ``_drive`` rounds: a reopened delta session keeps cutting deltas
    against the full snapshot an earlier handle wrote."""
    from repro.lang.printer import format_program

    base = tmp_path_factory.mktemp(f"chain{seed}")
    src = format_program(generate_program(seed, CFG))
    full_every = 3
    writer = {}  # (seq, base) of each delta-twin snapshot -> its handle
    real_write = SnapshotStore.write

    def recording_write(store, seq, payload, base=None):
        writer[(seq, base)] = handle
        return real_write(store, seq, payload, base)

    dirs = {"full": str(base / "full"), "delta": str(base / "delta")}
    for mode in dirs:
        DurableSession.create(dirs[mode], src, snapshot_every=2).close()
    for handle, round_seed in enumerate((seed + 1, seed + 2, seed + 3)):
        with mock.patch.object(session_mod, "SNAPSHOT_FULL_EVERY", 1):
            s = DurableSession.open(dirs["full"])
            _drive(s, round_seed, 3, 1)
            s.close()
        with mock.patch.object(session_mod, "SNAPSHOT_FULL_EVERY",
                               full_every), \
                mock.patch.object(SnapshotStore, "write", recording_write):
            s = DurableSession.open(dirs["delta"])
            resumed = s.recovery.delta_base
            first = len(writer)
            _drive(s, round_seed, 3, 1)
            s.close()
        mine = list(writer)[first:]
        if mine and resumed is not None and resumed.chain < full_every - 1:
            # the handle's first snapshot continues the loaded chain
            assert mine[0][1] == resumed.full_seq
            assert writer[(resumed.full_seq, None)] < handle
    deltas = [key for key in writer if key[1] is not None]
    for full_seq in {b for _seq, b in deltas}:
        assert sum(b == full_seq for _seq, b in deltas) <= full_every - 1
    crossed = [(seq, b) for seq, b in deltas
               if writer[(b, None)] < writer[(seq, b)]]
    on_disk = SnapshotStore(os.path.join(dirs["delta"], "snapshots"))
    assert any(key in crossed for key in on_disk.entries()), writer
    fingerprints = {}
    for mode in dirs:
        reopened = DurableSession.open(dirs[mode], verify=True)
        assert reopened.recovery.verified is True
        fingerprints[mode] = state_fingerprint(reopened.engine)
        reopened.close()
    assert fingerprints["full"] == fingerprints["delta"]


def test_manager_ping_pong_evicts_with_deltas(tmp_path, monkeypatch):
    """Two sessions through one live slot: every touch evicts the other.
    Eviction snapshots follow the full-every cadence across handles —
    after each full one, the next ``SNAPSHOT_FULL_EVERY - 1`` are deltas
    against it, each written by a fresh handle."""
    from repro.service.session import SessionManager

    written = []  # (session, seq, base) in write order
    real_write = SnapshotStore.write

    def recording_write(store, seq, payload, base=None):
        written.append((os.path.basename(os.path.dirname(store.dirpath)),
                        seq, base))
        return real_write(store, seq, payload, base)

    monkeypatch.setattr(SnapshotStore, "write", recording_write)
    manager = SessionManager(str(tmp_path), max_live=1, snapshot_every=0)
    tiny = "c = 1\nx = c + 2\nwrite x\n"
    manager.create("a", tiny)
    manager.create("b", tiny)
    stamps = {"a": None, "b": None}
    for touch in range(20):
        name = "ab"[touch % 2]
        if stamps[name] is None:
            stamps[name] = manager.apply(name, "ctp", 0).stamp
        else:
            manager.undo(name, stamps[name])
            stamps[name] = None
    manager.close_all()
    assert manager.reopens >= 18
    every = session_mod.SNAPSHOT_FULL_EVERY
    for name in "ab":
        mine = [(seq, base) for who, seq, base in written if who == name]
        assert len(mine) > every
        for i, (seq, base) in enumerate(mine):
            if i % every == 0:
                assert base is None, mine
                full_seq = seq
            else:
                assert base == full_seq, mine
        reopened = DurableSession.open(str(tmp_path / name), verify=True)
        assert reopened.recovery.verified is True
        reopened.close()


def test_chained_delta_carries_changed_rows(tmp_path):
    """A delta cut by a reopened handle still ships the rows a delta
    loaded at reopen changed: their events died with the old handle."""
    s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0)
    sid_a, sid_b, sid_c = [stmt.sid for stmt in s.engine.program.body[:3]]
    s.edit_modify(sid_c, ("expr",), Const(4))
    s.snapshot()  # full
    s.edit_modify(sid_a, ("expr",), Const(5))
    s.snapshot()  # delta 1: row A
    s.close()
    reopened = DurableSession.open(str(tmp_path))
    assert reopened.recovery.delta_base.sids == [sid_a]
    reopened.edit_modify(sid_b, ("expr",), Const(6))
    path = reopened.snapshot()  # delta 2: rows A and B
    assert "-d" in os.path.basename(path)
    live = state_fingerprint(reopened.engine)
    reopened.close()
    final = DurableSession.open(str(tmp_path), verify=True)
    assert final.recovery.verified is True
    assert final.recovery.snapshot_seq == 3
    assert state_fingerprint(final.engine) == live
    final.close()


class TestReopenCost:
    def test_reopen_emits_no_event(self, tmp_path):
        from repro.core.events import EventLog

        s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0)
        stamp = s.apply("ctp", 0).stamp
        s.apply("cse", 0)
        s.snapshot()  # full
        s.undo(stamp)
        s.snapshot()  # delta
        assert len(s.engine.events) > 0
        live = state_fingerprint(s.engine)
        s.close()
        real_emit = EventLog.emit
        with mock.patch.object(EventLog, "emit", autospec=True,
                               side_effect=real_emit) as emit:
            reopened = DurableSession.open(str(tmp_path))
        assert emit.call_count == 0
        assert reopened.recovery.replayed == 0
        assert len(reopened.engine.events) == 0
        assert state_fingerprint(reopened.engine) == live
        assert FingerprintMaintainer(reopened.engine).current() == live
        reopened.close()


# ---------------------------------------------------------------------------
# Delta resolution: row codec and failure modes
# ---------------------------------------------------------------------------


class TestRowCodec:
    def test_roundtrip(self):
        p = generate_program(11, CFG)
        doc = program_to_doc(p)
        assert rows_to_program_doc(program_doc_to_rows(doc)) == doc


class TestDeltaResolution:
    def _payloads(self, tmp_path):
        s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0)
        s.apply("ctp", 0)
        s.snapshot()  # full
        s.apply("cse", 0)
        s.snapshot()  # delta
        entries = s.snapshots.entries()
        (fseq, fbase), (dseq, dbase) = entries
        assert fbase is None and dbase == fseq
        full = s.snapshots.load(fseq)
        delta = s.snapshots.load(dseq)
        live = state_fingerprint(s.engine)
        s.close()
        return full, delta, live

    def test_resolution_reproduces_live_state(self, tmp_path):
        from repro.service.serde import engine_from_doc

        full, delta, live = self._payloads(tmp_path)
        resolved = resolve_snapshot_delta(full, delta)
        engine = engine_from_doc(resolved["engine"])
        assert state_fingerprint(engine) == live

    @pytest.mark.parametrize("fmt", ["digest", "legacy"])
    def test_wrong_base_is_rejected(self, tmp_path, fmt):
        if fmt == "digest":
            full, delta, _live = self._payloads(tmp_path)
            wrong = json.loads(json.dumps(full))
            wrong["engine"]["events_digest"] = "0" * 64
        else:
            # snapshots written while they carried the event list
            store = SnapshotStore(os.path.join(FIXTURES, "v3_session",
                                               "snapshots"))
            (fseq, _), (dseq, _) = store.entries()
            full, delta = store.load(fseq), store.load(dseq)
            resolve_snapshot_delta(full, delta)  # the right base resolves
            wrong = json.loads(json.dumps(full))
            wrong["engine"]["events"] = \
                wrong["engine"]["events"] + wrong["engine"]["events"][-1:]
        with pytest.raises(SerdeError):
            resolve_snapshot_delta(wrong, delta)

    def test_unknown_sid_is_rejected(self, tmp_path):
        full, delta, _live = self._payloads(tmp_path)
        broken = json.loads(json.dumps(delta))
        broken["program"]["roots"] = [99999]
        with pytest.raises(SerdeError):
            resolve_snapshot_delta(full, broken)

    def test_corrupt_delta_falls_back_to_base(self, tmp_path):
        s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0)
        s.apply("ctp", 0)
        s.snapshot()
        s.apply("cse", 0)
        s.snapshot()
        (fseq, _), (dseq, dbase) = s.snapshots.entries()
        with open(s.snapshots.path_for(dseq, dbase), "r+b") as fh:
            fh.seek(8)
            fh.write(b"garbage!")
        seq, payload = s.snapshots.latest()
        assert seq == fseq
        assert s.snapshots.skipped_corrupt == 1
        s.close()
        reopened = DurableSession.open(str(tmp_path), verify=True)
        assert reopened.recovery.verified is True
        reopened.close()

    def test_recovery_counts_the_skipped_delta(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer
        from repro.service.recovery import recover

        s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0)
        s.apply("ctp", 0)
        s.snapshot()
        s.apply("cse", 0)
        s.snapshot()
        s.close()
        (fseq, _), (dseq, dbase) = s.snapshots.entries()
        with open(s.snapshots.path_for(dseq, dbase), "r+b") as fh:
            fh.seek(8)
            fh.write(b"garbage!")
        registry = MetricsRegistry()
        tracer = Tracer()
        result = recover(str(tmp_path), metrics=registry, tracer=tracer)
        assert result.snapshot_seq == fseq
        assert result.skipped_snapshots == 1
        assert registry.counter("repro_snapshots_skipped_total").value == 1
        (span,) = [sp for sp in tracer.recorder.spans()
                   if sp.name == "recover"]
        assert span.tags["skipped_snapshots"] == 1
