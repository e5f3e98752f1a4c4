"""Crash-recovery tests: the kill-and-reopen acceptance scenario, the
any-byte-truncation property, and fuzzed apply/undo sequences."""

import os
import shutil

import numpy as np
import pytest

from repro.core.engine import TransformationEngine
from repro.lang.parser import parse_program
from repro.lang.printer import format_program
from repro.service.journal import scan_journal
from repro.service.recovery import (
    JOURNAL_FILE,
    RecoveryError,
    recover,
    replay_from_scratch,
)
from repro.service.serde import state_fingerprint
from repro.service.session import DurableSession
from repro.workloads.generator import generate_program

SRC = (
    "c = 1\n"
    "x = c + 2\n"
    "d = e + f\n"
    "do i = 1, 8\n"
    "  R(i) = e + f\n"
    "enddo\n"
    "write x\nwrite d\nwrite R(3)\n"
)

KINDS = ("dce", "cse", "ctp", "cpp", "cfo", "icm", "lur", "smi", "fus", "inx")


def drive(session, n_apply=8, seed=0):
    """Apply up to ``n_apply`` transformations round-robin; returns stamps."""
    rng = np.random.default_rng(seed)
    applied, stall = [], 0
    ki = 0
    while len(applied) < n_apply and stall < 2 * len(KINDS):
        name = KINDS[ki % len(KINDS)]
        ki += 1
        opps = session.engine.find(name)
        if not opps:
            stall += 1
            continue
        stall = 0
        k = int(rng.integers(0, len(opps)))
        applied.append(session.apply(name, k).stamp)
    return applied


class TestKillAndReopen:
    """The PR's acceptance scenario, against a never-killed twin."""

    def _run(self, tmp_path, snapshot_every):
        source = format_program(generate_program(5))
        live = DurableSession.create(
            str(tmp_path / "live"), source, snapshot_every=snapshot_every)
        stamps = drive(live, n_apply=6)
        assert len(stamps) >= 5, "scenario needs at least 5 applications"
        # undo one transformation OUT of order (not the most recent)
        live.undo(stamps[1])
        # SIGKILL-equivalent: drop the session without close()/snapshot()
        reopened = DurableSession.open(str(tmp_path / "live"), verify=True)
        assert reopened.recovery.verified is True
        return live, reopened

    @pytest.mark.parametrize("snapshot_every", [0, 3])
    def test_recovered_state_identical(self, tmp_path, snapshot_every):
        live, reopened = self._run(tmp_path, snapshot_every)
        # program text
        assert reopened.source(show_labels=True) == \
            live.source(show_labels=True)
        # history stamps + activity
        assert [(r.stamp, r.name, r.active)
                for r in live.engine.history.all_records()] == \
            [(r.stamp, r.name, r.active)
             for r in reopened.engine.history.all_records()]
        # full semantic fingerprint (annotations, events, applier state)
        assert state_fingerprint(reopened.engine) == \
            state_fingerprint(live.engine)

    @pytest.mark.parametrize("snapshot_every", [0, 3])
    def test_recovered_safety_and_reversibility(self, tmp_path,
                                                snapshot_every):
        live, reopened = self._run(tmp_path, snapshot_every)
        for a, b in zip(live.engine.history.active(),
                        reopened.engine.history.active()):
            assert a.stamp == b.stamp
            assert live.engine.check_safety(a.stamp).safe == \
                reopened.engine.check_safety(b.stamp).safe
            assert live.engine.check_reversibility(a.stamp).reversible == \
                reopened.engine.check_reversibility(b.stamp).reversible

    def test_recovered_session_continues(self, tmp_path):
        _, reopened = self._run(tmp_path, 3)
        before = reopened.seq
        more = drive(reopened, n_apply=2, seed=1)
        if more:  # new commands journal with fresh sequence numbers
            assert reopened.seq == before + len(more)
            again = DurableSession.open(reopened.dirpath, verify=True)
            assert state_fingerprint(again.engine) == \
                state_fingerprint(reopened.engine)

    def test_undo_cascades_replay(self, tmp_path):
        source = format_program(generate_program(5))
        live = DurableSession.create(str(tmp_path / "c"), source,
                                     snapshot_every=0)
        stamps = drive(live, n_apply=8)
        # undo an early transformation: dependent ones ripple with it
        report = live.undo(stamps[0])
        reopened = DurableSession.open(str(tmp_path / "c"), verify=True)
        assert state_fingerprint(reopened.engine) == \
            state_fingerprint(live.engine)
        undone = {r.stamp for r in live.engine.history.all_records()
                  if not r.active}
        assert set(report.undone) <= undone


class TestTruncationProperty:
    def test_any_byte_truncation_recovers_a_prefix(self, tmp_path):
        """Cut the journal at every byte offset; recovery must always
        yield the state of some command-sequence *prefix*, verified
        against an independent from-scratch replay of that prefix."""
        sdir = str(tmp_path / "s")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        drive(session, n_apply=4)
        session.undo(1)
        session.close()
        jpath = os.path.join(sdir, JOURNAL_FILE)
        data = open(jpath, "rb").read()
        all_records, _, _ = scan_journal(jpath)
        # expected engine per prefix length, built once
        expected = {}
        for n in range(len(all_records) + 1):
            eng = replay_from_scratch(SRC, [r.cmd for r in all_records[:n]])
            expected[n] = state_fingerprint(eng)
        line_starts = {0}
        off = 0
        while (nl := data.find(b"\n", off)) != -1:
            line_starts.add(nl + 1)
            off = nl + 1
        for cut in range(len(data) + 1):
            work = str(tmp_path / "w")
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(sdir, work)
            with open(os.path.join(work, JOURNAL_FILE), "r+b") as fh:
                fh.truncate(cut)
            result = recover(work, verify=True)
            n = result.seq
            assert state_fingerprint(result.engine) == expected[n]
            # a cut on a record boundary loses exactly the suffix
            if cut in line_starts:
                assert result.torn_bytes == 0

    def test_truncation_with_snapshot_floor(self, tmp_path):
        """With snapshots, truncating the journal can never lose the
        snapshotted prefix — recovery seq stays >= the snapshot seq.  A
        cut below the snapshot loses history the snapshot still covers,
        so the session opens but cannot be verified."""
        sdir = str(tmp_path / "s")
        session = DurableSession.create(sdir, SRC, snapshot_every=3)
        drive(session, n_apply=5)
        session.close()
        snap_seq = max(session.snapshots.seqs())
        jpath = os.path.join(sdir, JOURNAL_FILE)
        size = os.path.getsize(jpath)
        below = 0
        for cut in range(0, size + 1, max(1, size // 23)):
            work = str(tmp_path / "w")
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(sdir, work)
            with open(os.path.join(work, JOURNAL_FILE), "r+b") as fh:
                fh.truncate(cut)
            result = recover(work)
            assert result.seq >= snap_seq
            records, _, _ = scan_journal(os.path.join(work, JOURNAL_FILE))
            if not records or records[-1].seq < snap_seq:
                below += 1
                with pytest.raises(RecoveryError, match="missing seq"):
                    recover(work, verify=True)
            else:
                assert recover(work, verify=True).verified is True
        assert below > 0  # the sweep reached cuts below the snapshot


class TestFuzzedSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_apply_undo_recovers_verified(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        source = format_program(generate_program(seed))
        sdir = str(tmp_path / f"f{seed}")
        session = DurableSession.create(
            sdir, source, snapshot_every=int(rng.integers(0, 5)))
        for _ in range(14):
            if rng.random() < 0.6:
                name = KINDS[int(rng.integers(0, len(KINDS)))]
                opps = session.engine.find(name)
                if opps:
                    session.apply(name, int(rng.integers(0, len(opps))))
            else:
                active = session.engine.history.active()
                if active:
                    pick = active[int(rng.integers(0, len(active)))]
                    if rng.random() < 0.5:
                        session.undo(pick.stamp)
                    else:
                        session.undo_lifo(pick.stamp)
        live_fp = state_fingerprint(session.engine)
        reopened = DurableSession.open(sdir, verify=True)
        assert reopened.recovery.verified is True
        assert state_fingerprint(reopened.engine) == live_fp

    def test_failed_commands_replay_deterministically(self, tmp_path):
        from repro.core.engine import ApplyError
        from repro.transforms.base import Opportunity

        sdir = str(tmp_path / "fail")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        session.apply("cse", 0)
        # a bogus opportunity fails mid-apply: it still consumed an
        # order stamp, so it must be journaled and re-failed on replay
        with pytest.raises(ApplyError):
            session.engine.apply(Opportunity("dce", {"sid": 99999}, "bogus"))
        session.apply("ctp", 0)
        live_fp = state_fingerprint(session.engine)
        reopened = DurableSession.open(sdir, verify=True)
        assert state_fingerprint(reopened.engine) == live_fp
        # the failed command occupies a seq slot
        assert reopened.seq == 3

    def test_failed_edits_replay_deterministically(self, tmp_path):
        from repro.core.actions import ActionError

        sdir = str(tmp_path / "fe")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        session.apply("cse", 0)
        # an edit on an unknown sid fails inside the applier — after the
        # history record already consumed an order stamp, so it must be
        # journaled (failed) and the record left deactivated
        with pytest.raises(ActionError):
            session.edit_delete(99999)
        failed_rec = session.engine.history.by_stamp(2)
        assert failed_rec.name == "edit" and not failed_rec.active
        session.apply("ctp", 0)
        assert [(c["op"], bool(c.get("failed"))) for c in session.log()] == \
            [("apply", False), ("edit", True), ("apply", False)]
        live_fp = state_fingerprint(session.engine)
        reopened = DurableSession.open(sdir, verify=True)
        assert state_fingerprint(reopened.engine) == live_fp
        # the failed edit occupies a seq slot and a stamp on both sides
        assert reopened.seq == 3
        assert reopened.engine.history.by_stamp(3).stamp == 3

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        """One corrupt snapshot must cost replay time, not the session:
        the journal is never truncated, so recovery can fall back to an
        older snapshot and replay forward."""
        sdir = str(tmp_path / "cs")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        stamps = drive(session, n_apply=2)
        session.snapshot()
        stamps += drive(session, n_apply=2, seed=1)
        session.snapshot()
        assert len(stamps) == 4
        session.close()
        seqs = session.snapshots.seqs()
        assert len(seqs) == 2
        with open(session.snapshots.path_for(seqs[-1]), "r+b") as fh:
            fh.truncate(os.path.getsize(fh.name) // 2)  # torn newest snap
        result = recover(sdir, verify=True)
        assert result.snapshot_seq == seqs[0]
        assert result.seq == seqs[-1]  # tail beyond the old snap replayed
        assert state_fingerprint(result.engine) == \
            state_fingerprint(session.engine)

    def test_meta_checksum_guard(self, tmp_path):
        import json

        sdir = str(tmp_path / "m")
        DurableSession.create(sdir, SRC).close()
        meta = os.path.join(sdir, "session.json")
        doc = json.load(open(meta))
        doc["payload"]["source"] = "tampered = 1\n"
        json.dump(doc, open(meta, "w"))
        with pytest.raises((RecoveryError, Exception)):
            recover(sdir)


class TestV2Migration:
    """The checked-in v2 fixture was written while snapshots copied the
    command list and truncated the journal; its first reopen migrates
    that history into the journal once."""

    FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

    @pytest.fixture()
    def v2_dir(self, tmp_path):
        work = str(tmp_path / "v2")
        shutil.copytree(os.path.join(self.FIXTURES, "v2_session"), work)
        return work

    @pytest.fixture()
    def expected(self):
        import json

        with open(os.path.join(self.FIXTURES, "v2_expected.json")) as fh:
            return json.load(fh)

    def test_fixture_is_pre_migration(self, v2_dir):
        from repro.service.snapshot import SnapshotStore

        records, _, _ = scan_journal(os.path.join(v2_dir, JOURNAL_FILE))
        assert records[0].seq > 1  # truncated through the full snapshot
        store = SnapshotStore(os.path.join(v2_dir, "snapshots"))
        (fseq, fbase), (dseq, dbase) = store.entries()
        assert fbase is None and dbase == fseq
        assert len(store.load(fseq)["commands"]) == fseq
        assert "commands_tail" in store.load(dseq)

    def test_opens_verified_with_whole_history(self, v2_dir, expected):
        from repro.obs.check import audit_roundtrip, trace_roundtrip

        session = DurableSession.open(v2_dir, verify=True)
        assert session.recovery.verified is True
        assert session.seq == expected["seq"]
        assert state_fingerprint(session.engine) == expected["fingerprint"]
        assert session.source() == expected["source"]
        assert [(r.stamp, r.name, r.active)
                for r in session.engine.history.all_records()] == \
            [tuple(r) for r in expected["records"]]
        records, _, _ = scan_journal(os.path.join(v2_dir, JOURNAL_FILE))
        assert [r.seq for r in records] == \
            list(range(1, expected["seq"] + 1))
        assert [c["op"] for c in session.log()] == expected["ops"]
        session.close()
        # the audit log and trace stream always covered seq 1 onward;
        # with the history back in the journal they join it whole again
        assert audit_roundtrip(v2_dir).ok
        assert trace_roundtrip(v2_dir).ok

    def test_continues_in_new_format(self, v2_dir, expected):
        session = DurableSession.open(v2_dir, verify=True)
        session.apply("ctp", 0)
        path = session.snapshot()
        doc = session.snapshots.load(session.seq)
        assert "commands" not in doc and "commands_tail" not in doc
        session.close()
        assert path.endswith(f"snap-{expected['seq'] + 1:010d}.json")
        mtime = os.stat(os.path.join(v2_dir, JOURNAL_FILE)).st_mtime_ns
        reopened = DurableSession.open(v2_dir, verify=True)
        assert reopened.seq == expected["seq"] + 1
        assert len(reopened.log()) == expected["seq"] + 1
        # already migrated: the reopen left the journal alone
        assert os.stat(os.path.join(v2_dir, JOURNAL_FILE)).st_mtime_ns \
            == mtime
        reopened.close()
