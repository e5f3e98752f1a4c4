"""Tests for DurableSession, SessionManager, the server, and the CLI."""

import os

import pytest

from repro.cli import main
from repro.service.serde import state_fingerprint
from repro.service.server import SessionServer
from repro.service.session import (
    DurableSession,
    SessionError,
    SessionManager,
)

SRC = (
    "c = 1\n"
    "x = c + 2\n"
    "d = e + f\n"
    "do i = 1, 8\n"
    "  R(i) = e + f\n"
    "enddo\n"
    "write x\nwrite d\nwrite R(3)\n"
)


class TestDurableSession:
    def test_create_refuses_existing(self, tmp_path):
        DurableSession.create(str(tmp_path), SRC).close()
        with pytest.raises(SessionError):
            DurableSession.create(str(tmp_path), SRC)

    def test_closed_session_refuses_commands(self, tmp_path):
        s = DurableSession.create(str(tmp_path), SRC)
        s.close()
        with pytest.raises(SessionError):
            s.apply("cse", 0)

    def test_edits_and_invalidation_journal(self, tmp_path):
        from repro.lang.ast_nodes import Const

        s = DurableSession.create(str(tmp_path), "c = 1\nx = c + 2\nwrite x\n",
                                  snapshot_every=0)
        rec = s.apply_params("ctp", var="c")
        # change the constant definition: the propagation becomes unsafe
        # and edit_unsafe removes it through journaled undo commands
        sid = next(st.sid for st in s.engine.program.walk() if st.label == 1)
        s.edit_modify(sid, ("expr",), Const(9))
        stats = s.edit_unsafe()
        assert any(rec.stamp in st.removed for st in stats)
        assert [c["op"] for c in s.log()] == ["apply", "edit", "undo"]
        reopened = DurableSession.open(str(tmp_path), verify=True)
        assert state_fingerprint(reopened.engine) == \
            state_fingerprint(s.engine)

    def test_metrics_sample_without_reset(self, tmp_path):
        s = DurableSession.create(str(tmp_path), SRC)
        s.apply("cse", 0)
        cumulative = s.engine.cache.counters.dataflow_runs
        work1 = s.metrics()["last_work"]
        s.apply("ctp", 0)
        # per-request delta reflects only the last command...
        work2 = s.metrics()["last_work"]
        assert work2["dataflow_runs"] <= work1["dataflow_runs"] + \
            s.engine.cache.counters.dataflow_runs
        # ...and the engine's cumulative counters were never clobbered
        assert s.engine.cache.counters.dataflow_runs >= cumulative

    def test_journal_stays_whole_across_snapshots(self, tmp_path):
        from repro.service.journal import scan_journal

        s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0)
        s.apply("cse", 0)
        s.apply("ctp", 0)
        assert s.snapshot() is not None
        s.undo(1)
        assert s.snapshot() is not None
        assert s.snapshot() is None  # nothing new to snapshot
        records, _, _ = scan_journal(
            os.path.join(str(tmp_path), "journal.jsonl"))
        assert [r.seq for r in records] == [1, 2, 3]
        assert [c["op"] for c in s.log()] == ["apply", "apply", "undo"]
        for seq in s.snapshots.seqs():
            assert "commands" not in s.snapshots.load(seq)
        s.close()
        reopened = DurableSession.open(str(tmp_path), verify=True)
        assert reopened.recovery.snapshot_seq == 3
        assert [c["op"] for c in reopened.log()] == \
            ["apply", "apply", "undo"]
        assert reopened.metrics()["commands"] == 3
        reopened.close()

    def test_journal_fsynced_before_snapshot_written(self, tmp_path):
        s = DurableSession.create(str(tmp_path), SRC, snapshot_every=0,
                                  fsync_every=8)
        s.apply("cse", 0)
        s.apply("ctp", 0)
        assert s.journal._unsynced == 2  # batched: not yet on disk
        seen = []
        write = s.snapshots.write

        def checked_write(seq, payload, base=None):
            seen.append((seq, s.journal._unsynced,
                         os.path.exists(s.snapshots.path_for(seq, base))))
            return write(seq, payload, base)

        s.snapshots.write = checked_write
        s.snapshot()
        # the journal was fsynced through seq 2 before the snapshot
        # file for seq 2 existed
        assert seen == [(2, 0, False)]
        s.close()

    def test_log_returns_encoded_history(self, tmp_path):
        s = DurableSession.create(str(tmp_path), SRC)
        s.apply("cse", 0)
        s.undo(1)
        ops = [c["op"] for c in s.log()]
        assert ops == ["apply", "undo"]


class TestSessionManager:
    def test_create_apply_across_sessions(self, tmp_path):
        m = SessionManager(str(tmp_path))
        m.create("a", SRC)
        m.create("b", SRC)
        ra = m.apply("a", "cse")
        rb = m.apply("b", "ctp")
        assert ra.stamp == 1 and rb.stamp == 1  # independent histories
        assert sorted(m.list_sessions()) == ["a", "b"]

    def test_unknown_session_raises(self, tmp_path):
        m = SessionManager(str(tmp_path))
        with pytest.raises(SessionError):
            m.apply("nope", "cse")

    def test_bad_names_rejected(self, tmp_path):
        m = SessionManager(str(tmp_path))
        for bad in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(SessionError):
                m.path_for(bad)

    def test_lru_eviction_and_transparent_reopen(self, tmp_path):
        m = SessionManager(str(tmp_path), max_live=2)
        for name in ("a", "b", "c"):
            m.create(name, SRC)
        assert m.evictions >= 1
        assert len(m.stats()["live"]) <= 2
        # the evicted session reopens transparently with state intact
        m.apply("a", "cse")
        m.apply("b", "ctp")
        m.apply("c", "cse")
        assert m.reopens >= 1
        for name in ("a", "b", "c"):
            assert len(m.metrics(name)) > 0
        m.close_all()
        # everything survived on disk
        m2 = SessionManager(str(tmp_path), max_live=8)
        assert len(m2.stats()["on_disk"]) == 3
        assert "write x" in m2.source("a")

    def test_close_all_idempotent_state(self, tmp_path):
        m = SessionManager(str(tmp_path))
        m.create("a", SRC)
        m.apply("a", "cse")
        fp = state_fingerprint(m._live["a"][0].engine)
        m.close_all()
        assert m.stats()["live"] == []
        assert state_fingerprint(
            DurableSession.open(str(tmp_path / "a")).engine) == fp


class TestSessionServer:
    def test_request_response_cycle(self, tmp_path):
        server = SessionServer(SessionManager(str(tmp_path)))
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        assert server.handle_line(f"s init {prog}") == "created s"
        assert server.handle_line("s apply cse").startswith("applied t1")
        assert server.handle_line("s undo 1") == "undone: [1]"
        assert "apply" in server.handle_line("s log")
        assert '"seq": 2' in server.handle_line("s metrics").replace(
            '"seq":2', '"seq": 2')
        assert server.handle_line("_ sessions") == "s"

    def test_opps_all_kinds_and_one_kind(self, tmp_path):
        server = SessionServer(SessionManager(str(tmp_path)))
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        server.handle_line(f"s init {prog}")
        everything = server.handle_line("s opps")
        assert "cse[0]" in everything
        just_cse = server.handle_line("s opps cse")
        assert "cse[0]" in just_cse
        assert len(just_cse) < len(everything)
        assert server.errors == 0

    def test_errors_are_responses_not_exceptions(self, tmp_path):
        server = SessionServer(SessionManager(str(tmp_path)))
        assert server.handle_line("nope apply cse").startswith("error:")
        assert server.handle_line("junk").startswith("error:")
        assert server.handle_line("") == ""
        assert server.errors == 2

    def test_init_missing_file_is_an_error_response(self, tmp_path):
        # an unreadable program file must not crash the serve loop
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        missing = tmp_path / "does-not-exist.loop"
        assert server.handle_line(f"s init {missing}").startswith("error:")
        assert server.errors == 1
        # the manager is still fully serviceable afterwards
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        assert server.handle_line(f"s init {prog}") == "created s"
        assert server.handle_line("s apply cse").startswith("applied t1")

    def test_serve_stream(self, tmp_path):
        import io

        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        out = io.StringIO()
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        n = server.serve(io.StringIO(
            f"s init {prog}\ns apply cse\ns source\nquit\n"), out)
        assert n == 3
        text = out.getvalue()
        assert "created s" in text and "applied t1" in text
        assert text.count("\n.\n") == 3  # response terminator per request


class TestCliSubcommands:
    def test_session_lifecycle_via_main(self, tmp_path, capsys):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        root = str(tmp_path / "root")
        assert main(["session", root, "s1", "init", str(prog)]) == 0
        assert main(["session", root, "s1", "apply", "cse"]) == 0
        assert main(["session", root, "s1", "undo", "1"]) == 0
        assert main(["session", root, "s1", "log"]) == 0
        assert main(["session", root, "s1", "show"]) == 0
        assert main(["session", root, "s1", "reopen", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "created s1" in out and "applied t1" in out
        assert "undone: [1]" in out
        assert "verified" in out

    def test_session_error_exit_code(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        assert main(["session", root, "nope", "apply", "cse"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_usage_paths(self, capsys):
        assert main([]) == 2
        assert main(["serve"]) == 2
        assert main(["session", "onlyroot"]) == 2
