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
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

CFG = GeneratorConfig(blocks=4, trip=8)

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

    def test_wrong_base_is_rejected(self, tmp_path):
        full, delta, _live = self._payloads(tmp_path)
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
