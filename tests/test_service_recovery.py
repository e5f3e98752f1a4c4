"""Crash-recovery tests: the kill-and-reopen acceptance scenario, the
any-byte-truncation property, and fuzzed apply/undo sequences."""

import os
import shutil

import numpy as np
import pytest

from repro.core.engine import TransformationEngine
from repro.lang.parser import parse_program
from repro.lang.printer import format_program
from repro.service import session as session_mod
from repro.service.journal import scan_journal
from repro.service.recovery import (
    JOURNAL_FILE,
    RecoveryError,
    meta_path,
    read_meta,
    recover,
    replay_from_scratch,
)
from repro.service.serde import KIND_META, state_fingerprint
from repro.service.session import DurableSession
from repro.service.snapshot import SnapshotStore
from repro.workloads.generator import generate_program
from tests.helpers import v1_envelope

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

    @pytest.mark.parametrize("kind", ["full", "delta"])
    def test_any_byte_truncation_of_a_snapshot_falls_back(
            self, tmp_path, monkeypatch, kind):
        """Cut the newest snapshot (a full one, or a delta) at every
        byte offset: ``latest()`` skips it for the snapshot before it,
        and the session still reopens verified (checked on a stride of
        cuts and on both sides of the header line's end)."""
        monkeypatch.setattr(session_mod, "SNAPSHOT_FULL_EVERY", 2)
        sdir = str(tmp_path / "s")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        session.apply("ctp", 0)
        session.snapshot()  # full
        session.apply("cse", 0)
        session.snapshot()  # delta
        session.undo(1)
        session.snapshot()  # full
        if kind == "delta":
            session.apply("ctp", 0)
            session.snapshot()  # delta
        session.close()
        (prev, _), (newest, base) = session.snapshots.entries()[-2:]
        assert (base is not None) == (kind == "delta")
        path = session.snapshots.path_for(newest, base)
        with open(path, "rb") as fh:
            data = fh.read()
        header_end = data.index(b"\n")
        checked = {header_end, header_end + 1}
        checked.update(range(0, len(data), max(1, len(data) // 40)))
        for cut in range(len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            store = SnapshotStore(os.path.dirname(path))
            assert store.latest()[0] == prev
            assert store.skipped_corrupt == 1
            if cut in checked:
                result = recover(sdir, verify=True)
                assert result.snapshot_seq == prev
                assert result.verified is True


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

    @pytest.mark.parametrize("corrupt,fallback,rewrite", [
        ("full", None, (2, None)),
        ("delta", 1, (2, 1)),
        # a corrupt base takes its delta down too; the seq-2 snapshot
        # is rewritten full and the stale delta removed
        ("base", None, (2, None)),
    ], ids=["full", "delta", "base"])
    def test_corrupt_newest_snapshot_is_rewritten(self, tmp_path, corrupt,
                                                  fallback, rewrite):
        """A snapshot that failed its checksum does not block the next
        one at the same seq: the reopened handle rewrites it, so later
        reopens load it instead of replaying from the fallback again."""
        sdir = str(tmp_path / "cr")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        session.apply("ctp", 0)
        if corrupt != "full":
            session.snapshot()  # the full base at seq 1
        session.apply("cse", 0)
        session.snapshot()
        session.close()
        entries = session.snapshots.entries()
        bad = entries[0] if corrupt == "base" else entries[-1]
        path = session.snapshots.path_for(*bad)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            fh.write(b"\xff\xff\xff\xff")
        reopened = DurableSession.open(sdir)
        assert reopened.recovery.snapshot_seq == fallback
        assert reopened.recovery.replayed == 2 - (fallback or 0)
        assert reopened.snapshot() == session.snapshots.path_for(*rewrite)
        assert reopened.recovery.skipped_snapshots == len(entries) - (
            fallback is not None)
        reopened.close()
        assert rewrite in session.snapshots.entries()
        assert [seq for seq, _base in session.snapshots.entries()] \
            == [seq for seq, _base in entries]
        again = DurableSession.open(sdir, verify=True)
        assert again.recovery.snapshot_seq == 2
        assert again.recovery.replayed == 0
        assert state_fingerprint(again.engine) == \
            state_fingerprint(session.engine)
        again.close()

    def test_meta_checksum_guard(self, tmp_path):
        """A session.json whose payload no longer matches its checksum
        fails recovery with RecoveryError, in both envelope versions."""
        import json

        sdir = str(tmp_path / "m")
        DurableSession.create(sdir, SRC).close()
        meta = meta_path(sdir)
        payload = read_meta(sdir)
        with open(meta, "rb") as fh:
            data = fh.read()
        # version 2: one payload byte edited, the body still valid JSON
        tampered = data.replace(b"c = 1", b"c = 7", 1)
        assert tampered != data
        json.loads(tampered.partition(b"\n")[2])
        with open(meta, "wb") as fh:
            fh.write(tampered)
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            recover(sdir)
        # version 1: the payload edited inside the single JSON object
        doc = v1_envelope(payload, KIND_META)
        doc["payload"]["source"] = "tampered = 1\n"
        with open(meta, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(RecoveryError, match="checksum mismatch"):
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


class TestV3EventLists:
    """The checked-in v3 fixture was written while snapshots carried the
    event list: its full snapshot holds ``events``, and its chained delta
    an ``events_tail`` with a count ``events_base``."""

    FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

    @pytest.fixture()
    def v3_dir(self, tmp_path):
        work = str(tmp_path / "v3")
        shutil.copytree(os.path.join(self.FIXTURES, "v3_session"), work)
        return work

    @pytest.fixture()
    def expected(self):
        import json

        with open(os.path.join(self.FIXTURES, "v3_expected.json")) as fh:
            return json.load(fh)

    def test_fixture_carries_event_lists(self, v3_dir):
        store = SnapshotStore(os.path.join(v3_dir, "snapshots"))
        (fseq, fbase), (dseq, dbase) = store.entries()
        assert fbase is None and dbase == fseq
        full = store.load(fseq)["engine"]
        assert full["events"] and "events_digest" not in full
        delta = store.load(dseq)
        assert delta["chain"] == 1
        assert delta["events_tail"]
        assert delta["events_base"] == len(full["events"])

    def test_opens_verified(self, v3_dir, expected):
        session = DurableSession.open(v3_dir, verify=True)
        assert session.recovery.verified is True
        assert session.recovery.snapshot_seq == 5
        assert session.recovery.delta_base is None
        assert session.seq == expected["seq"]
        assert state_fingerprint(session.engine) == expected["fingerprint"]
        assert session.source() == expected["source"]
        assert [(r.stamp, r.name, r.active)
                for r in session.engine.history.all_records()] == \
            [tuple(r) for r in expected["records"]]
        session.close()

    def test_continues_in_new_format(self, v3_dir, expected):
        session = DurableSession.open(v3_dir, verify=True)
        session.apply("ctp", 0)
        full_path = session.snapshot()
        assert full_path.endswith(f"snap-{session.seq:010d}.json")
        full = session.snapshots.load(session.seq)["engine"]
        assert "events" not in full
        assert full["events_digest"] == session.engine.events.digest
        session.apply("cse", 0)
        delta_path = session.snapshot()
        assert "-d" in os.path.basename(delta_path)
        delta = session.snapshots.load(session.seq)
        assert "events_tail" not in delta
        assert delta["events_base"] == full["events_digest"]
        live = state_fingerprint(session.engine)
        session.close()
        reopened = DurableSession.open(v3_dir, verify=True)
        assert reopened.recovery.verified is True
        assert reopened.recovery.snapshot_seq == expected["seq"] + 2
        assert state_fingerprint(reopened.engine) == live
        reopened.close()


class TestSnapshotRewrite:
    @pytest.mark.parametrize("first,second", [(None, 3), (3, None)])
    def test_a_rewrite_leaves_one_file_per_seq(self, tmp_path, first,
                                               second):
        store = SnapshotStore(str(tmp_path / "snapshots"))
        store.write(5, {"journal_seq": 5, "engine": {}}, base=first)
        store.write(5, {"journal_seq": 5, "engine": {}}, base=second)
        assert store.entries() == [(5, second)]

    def test_a_rewrite_cut_before_its_cleanup_still_loads(self, tmp_path):
        # the corrupt full at seq 2 was replaced by a delta, and the
        # process died before removing the full: each entry is read
        # from its own file, so the delta loads
        sdir = str(tmp_path / "s")
        session = DurableSession.create(sdir, SRC, snapshot_every=0)
        session.apply("ctp", 0)
        session.snapshot()
        session.apply("cse", 0)
        session.snapshot()
        session.close()
        assert session.snapshots.entries() == [(1, None), (2, 1)]
        with open(os.path.join(session.snapshots.dirpath,
                               "snap-0000000002.json"), "wb") as fh:
            fh.write(b"torn")
        store = SnapshotStore(session.snapshots.dirpath)
        assert store.entries() == [(1, None), (2, None), (2, 1)]
        seq, payload = store.latest()
        assert (seq, payload["delta"]["delta_of"]) == (2, 1)
        assert store.skipped_corrupt == 0


class TestReopenCost:
    def test_reopen_renders_no_journal_record(self, tmp_path, monkeypatch):
        """Reopening checks every record's CRC on the bytes as written
        and decodes only the replayed tail, so it never renders JSON."""
        import json
        from types import SimpleNamespace

        from repro.service import journal as journal_mod

        sdir = str(tmp_path / "long")
        session = DurableSession.create(sdir, "c = 1\nx = c + 2\nwrite x\n")
        for _ in range(100):
            session.undo(session.apply("ctp", 0).stamp)
        live = state_fingerprint(session.engine)
        session.close()

        def refuse(*_args, **_kwargs):
            raise AssertionError("a journal record was rendered")

        monkeypatch.setattr(journal_mod, "json",
                            SimpleNamespace(loads=json.loads, dumps=refuse))
        reopened = DurableSession.open(sdir)
        assert reopened.seq == 200
        assert 0 < reopened.recovery.replayed < 200
        assert state_fingerprint(reopened.engine) == live
        reopened.close()


class TestRecoveredEngineWiring:
    @pytest.mark.parametrize("snapshot", [False, True],
                             ids=["genesis", "snapshot"])
    def test_recovered_engine_counts_into_the_passed_registry(
            self, tmp_path, snapshot):
        """The engine ``recover`` rebuilds is constructed with the
        caller's registry and tracer: its undo engine's re-check counters
        and its flight recorder's drop counter land in that registry,
        not in the process-wide default."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        for name in ("ctp", "cfo", "cse"):
            session.apply(name)
        if snapshot:
            session.snapshot()
        session.close()
        reg = MetricsRegistry()
        result = recover(str(tmp_path), metrics=reg, tracer=Tracer())
        assert result.snapshot_seq == (3 if snapshot else None)
        engine = result.engine
        report = engine.undo(1)
        assert report.safety_checks + report.reversibility_checks > 0
        assert reg.total("repro_undo_checks_total") == \
            report.safety_checks + report.reversibility_checks
        assert reg.total("repro_undo_skips_total") == \
            report.heuristic_skips + report.region_skips
        assert engine.tracer.recorder.drop_counter is \
            reg.counter("repro_trace_dropped_total")
