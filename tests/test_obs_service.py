"""Integration tests: telemetry through the engine and session service.

Pins three contracts the observability PR introduced:

* every executed command produces one traced span whose tags join
  exactly against the journal (:func:`repro.obs.check.trace_roundtrip`);
* a raising ``command_observers`` callback is isolated and logged —
  the engine commits the command anyway, journal stamps stay aligned,
  and the failure is visible in ``observer_errors`` and the
  ``repro_observer_errors_total`` counter;
* a *persistence* failure inside the session's own observer poisons the
  session: no further commands run, so the engine can never drift more
  than one command ahead of the journal.
"""

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.core.engine import TransformationEngine
from repro.edit.edits import EditSession
from repro.lang.parser import parse_program
from repro.obs.check import trace_path, trace_roundtrip
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, read_trace
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


def make_engine(tracer=None):
    return TransformationEngine(parse_program(SRC), tracer=tracer,
                                metrics=MetricsRegistry())


class TestEngineSpans:
    def test_each_command_is_one_span_tree(self):
        tracer = Tracer()
        engine = make_engine(tracer)
        rec = engine.apply(engine.find("cse")[0])
        engine.undo(rec.stamp)
        spans = tracer.recorder.spans()
        tops = [s for s in spans if s.parent_id is None]
        assert [s.tags["op"] for s in tops] == ["apply", "undo"]
        assert all(s.name == "command" and s.status == "ok" for s in tops)
        assert tops[0].tags["stamp"] == rec.stamp

    def test_failed_command_span_is_tagged(self):
        tracer = Tracer()
        engine = make_engine(tracer)
        with pytest.raises(Exception):
            EditSession(engine).delete_stmt(99999)
        (span,) = [s for s in tracer.recorder.spans()
                   if s.parent_id is None]
        assert span.status == "failed"
        assert span.tags["op"] == "edit" and span.tags["stamp"] == 1

    def test_batch_subcommands_nest_under_the_batch_span(self):
        from repro.core.commands import parse_batch

        tracer = Tracer()
        engine = make_engine(tracer)
        engine.execute(parse_batch("apply cse ; undo 1".split()))
        tops = [s for s in tracer.recorder.spans() if s.parent_id is None]
        assert [s.tags["op"] for s in tops] == ["batch"]
        children = [s for s in tracer.recorder.spans()
                    if s.parent_id == tops[0].span_id]
        assert [s.tags["op"] for s in children] == ["apply", "undo"]

    def test_command_metrics_recorded(self):
        engine = make_engine()
        rec = engine.apply(engine.find("cse")[0])
        engine.undo(rec.stamp)
        m = engine.metrics
        assert m.value("repro_commands_total", op="apply", status="ok") == 1
        assert m.value("repro_commands_total", op="undo", status="ok") == 1
        hist = m.histogram("repro_command_seconds", op="apply")
        assert hist.count == 1 and hist.sum > 0
        # per-analysis timers fanned out from command.work
        assert m.total("repro_commands_total") == 2


class TestObserverIsolation:
    """The pinned semantics for raising command_observers callbacks."""

    def test_raising_observer_does_not_fail_the_command(self):
        engine = make_engine()
        boom = RuntimeError("broken observer")

        def bad_observer(command):
            raise boom

        seen = []
        engine.command_observers.append(bad_observer)
        engine.command_observers.append(lambda c: seen.append(c.op))
        rec = engine.apply(engine.find("cse")[0])  # must NOT raise
        assert rec.stamp == 1
        assert seen == ["apply"]  # later observers still ran
        assert engine.observer_errors[-1][1] is boom
        assert engine.metrics.total("repro_observer_errors_total") == 1

    def test_engine_stays_sound_after_observer_failures(self):
        engine = make_engine()
        engine.command_observers.append(
            lambda c: (_ for _ in ()).throw(ValueError("nope")))
        rec = engine.apply(engine.find("cse")[0])
        engine.undo(rec.stamp)  # both commands committed despite the raises
        assert len(engine.observer_errors) == 2
        assert engine.history.by_stamp(rec.stamp).active is False

    def test_raising_foreign_observer_keeps_journal_stamps_aligned(
            self, tmp_path):
        # a broken THIRD-PARTY observer must not desync the session's
        # own journal observer: every stamp journals exactly once
        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        session.engine.command_observers.insert(
            0, lambda c: (_ for _ in ()).throw(RuntimeError("spy died")))
        rec = session.apply("cse")
        session.undo(rec.stamp)
        assert [c.get("stamp") for c in session.log()] == [1, 1]
        assert session.seq == 2
        session.close()
        reopened = DurableSession.open(str(tmp_path), verify=True)
        assert reopened.recovery.verified
        reopened.close()


class TestSessionPoisoning:
    def test_journal_failure_poisons_the_session(self, tmp_path):
        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        fail = OSError("disk full")

        def broken_append(seq, cmd):
            raise fail

        session.journal.append = broken_append
        # the engine isolates the observer failure: the command itself
        # still returns (it committed in memory)...
        rec = session.apply("cse")
        assert rec.stamp == 1
        assert session.journal_error is fail
        # ...but every subsequent command is refused before it runs
        with pytest.raises(SessionError, match="poisoned"):
            session.undo(rec.stamp)
        with pytest.raises(SessionError, match="poisoned"):
            session.apply("cse")
        session.close()


class TestTraceStream:
    def test_roundtrip_ok_for_mixed_history(self, tmp_path):
        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        rec = session.apply("cse")
        session.undo(rec.stamp)
        with pytest.raises(Exception):
            EditSession(session.engine).delete_stmt(99999)  # failed cmd
        session.apply("ctp")
        session.close()
        report = trace_roundtrip(str(tmp_path))
        assert report.ok, report.describe()
        assert report.checked == 4

    def test_roundtrip_detects_missing_span(self, tmp_path):
        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        session.apply("cse")
        session.close()
        # drop the command span from the stream: the journal side is
        # now unmatched
        path = trace_path(str(tmp_path))
        kept = [ln for ln in open(path).read().splitlines()
                if '"name": "command"' not in ln]
        open(path, "w").write("\n".join(kept) + "\n")
        report = trace_roundtrip(str(tmp_path))
        assert not report.ok
        assert "expected exactly one command span" in report.problems[0]

    def test_roundtrip_detects_stamp_mismatch(self, tmp_path):
        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        session.apply("cse")
        session.close()
        path = trace_path(str(tmp_path))
        docs = read_trace(path)
        for doc in docs:
            if doc["tags"].get("seq") == 1:
                doc["tags"]["stamp"] = 42
        with open(path, "w") as fh:
            for doc in docs:
                fh.write(json.dumps(doc) + "\n")
        report = trace_roundtrip(str(tmp_path))
        assert not report.ok and "stamp" in report.problems[0]

    def test_reopen_replay_spans_carry_no_seq(self, tmp_path):
        session = DurableSession.create(str(tmp_path), SRC,
                                        snapshot_every=0)
        session.apply("cse")
        session.close()
        reopened = DurableSession.open(str(tmp_path))
        recover_spans = [s for s in reopened.tracer.recorder.spans()
                         if s.name == "recover"]
        assert len(recover_spans) == 1
        assert recover_spans[0].tags["replayed"] == 1
        replayed = [s for s in reopened.tracer.recorder.spans()
                    if s.name == "command"]
        assert replayed and all("seq" not in s.tags for s in replayed)
        # new work after the reopen still round-trips
        reopened.undo(1)
        reopened.close()
        report = trace_roundtrip(str(tmp_path))
        assert report.ok, report.describe()

    def test_session_metrics_expose_latency_and_spans(self, tmp_path):
        session = DurableSession.create(str(tmp_path), SRC)
        rec = session.apply("cse")
        session.undo(rec.stamp)
        m = session.metrics()
        assert m["latency"]["count"] == 2
        assert m["latency"]["p95_ms"] >= m["latency"]["p50_ms"] > 0
        assert m["spans_recorded"] >= 4  # commands + journal appends
        assert m["journal_bytes_written"] > 0
        session.close()


class TestManagerAggregation:
    def test_aggregate_metrics_survive_eviction(self, tmp_path):
        mgr = SessionManager(str(tmp_path), max_live=1, snapshot_every=0,
                             metrics=MetricsRegistry())
        mgr.create("a", SRC)
        mgr.apply("a", "cse")
        mgr.create("b", SRC)  # evicts a (max_live=1)
        mgr.apply("b", "cse")
        mgr.apply("b", "ctp")
        agg = mgr.aggregate_metrics()
        assert agg["totals"]["commands"] == 3
        assert agg["totals"]["journal_records_written"] == 3
        assert agg["evictions"] >= 1
        mgr.close_all()
        # closing moves the live counts into the retired totals
        assert mgr.aggregate_metrics()["totals"]["commands"] == 3

    def test_totals_count_each_command_once_across_reopens(self, tmp_path):
        """Each of two sessions is evicted and reopened; the totals still
        count every journaled command exactly once."""
        mgr = SessionManager(str(tmp_path), max_live=1, snapshot_every=0)
        mgr.create("a", SRC)
        mgr.apply("a", "cse")
        mgr.create("b", SRC)  # evicts a
        mgr.apply("b", "cse")
        mgr.apply("a", "ctp")  # reopens a, evicts b
        mgr.apply("b", "ctp")  # reopens b, evicts a
        mgr.apply("a", "cfo")  # reopens a again
        assert mgr.reopens == 3
        seqs = {name: mgr.metrics(name)["seq"] for name in ("a", "b")}
        totals = mgr.aggregate_metrics()["totals"]
        assert totals["commands"] == totals["journal_records_written"] \
            == sum(seqs.values())
        mgr.close_all()

    def test_session_span_counts_are_the_sessions_own(self, tmp_path):
        """Sessions sharing one registry each report their own span
        counts, and the manager's totals are their sum."""
        mgr = SessionManager(str(tmp_path), metrics=MetricsRegistry())
        mgr.create("a", SRC)
        mgr.apply("a", "cse")
        mgr.create("b", SRC)
        mgr.apply("b", "cse")
        mgr.apply("b", "ctp")
        a, b = mgr.metrics("a"), mgr.metrics("b")
        totals = mgr.aggregate_metrics()["totals"]
        assert 0 < a["spans_recorded"] < b["spans_recorded"]
        assert a["spans_recorded"] + b["spans_recorded"] == \
            totals["spans_recorded"]
        assert a["spans_dropped"] == b["spans_dropped"] == \
            totals["spans_dropped"] == 0
        mgr.close_all()

    def test_lock_wait_and_hold_histograms_fill(self, tmp_path):
        reg = MetricsRegistry()
        mgr = SessionManager(str(tmp_path), metrics=reg)
        mgr.create("a", SRC)
        mgr.apply("a", "cse")
        waits = reg.histogram("repro_session_lock_wait_seconds")
        holds = reg.histogram("repro_session_lock_hold_seconds")
        assert waits.count >= 1 and holds.count >= 1
        assert holds.sum >= 0
        mgr.close_all()


class TestServerVerbs:
    def test_trace_verb_returns_span_jsonl(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        server.handle_line(f"s init {prog}")
        server.handle_line("s apply cse")
        out = server.handle_line("s trace")
        docs = [json.loads(ln) for ln in out.splitlines()]
        assert any(d["name"] == "command" and d["tags"]["op"] == "apply"
                   for d in docs)
        tail = server.handle_line("s trace 1")
        assert len(tail.splitlines()) == 1
        server.manager.close_all()

    def test_manager_metrics_verb(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        server.handle_line(f"s1 init {prog}")
        server.handle_line(f"s2 init {prog}")
        server.handle_line("s1 apply cse")
        server.handle_line("s2 apply cse")
        doc = json.loads(server.handle_line("_ metrics"))
        assert doc["totals"]["commands"] == 2
        assert doc["totals"]["journal_records_written"] == 2
        # "<s> metrics" still answers per-session
        per = json.loads(server.handle_line("s1 metrics"))
        assert per["seq"] == 1
        server.manager.close_all()


class TestProfVerbs:
    def _server(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        server.handle_line(f"s init {prog}")
        return server

    def test_prof_start_work_stop_dump(self, tmp_path):
        server = self._server(tmp_path)
        try:
            assert server.handle_line("_ prof start 500") == \
                "profiling at 500 hz"
            assert server.handle_line("_ prof start").startswith(
                "already profiling at 500 hz")
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                server.handle_line("s apply cse")
                server.handle_line("s undo 0")
            stopped = json.loads(server.handle_line("_ prof stop"))
            assert stopped["samples"] > 0
            assert stopped["dropped"] >= 0
            # the profile survives stop so the window can be dumped late
            dump = server.handle_line("_ prof dump")
            assert dump and not dump.startswith("error:")
            assert any("server.handle_line" in ln
                       for ln in dump.splitlines())
        finally:
            server.close()

    def test_prof_rejects_unknown_action(self, tmp_path):
        server = self._server(tmp_path)
        try:
            out = server.handle_line("_ prof frobnicate")
            assert out.startswith("error:") and "bad-request" in out
        finally:
            server.close()

    def test_metrics_totals_carry_profiler_counts(self, tmp_path):
        server = self._server(tmp_path)
        try:
            doc = json.loads(server.handle_line("_ metrics"))
            assert doc["totals"]["prof_samples"] == 0
            assert doc["totals"]["prof_dropped"] == 0
            server.handle_line("_ prof start 500")
            deadline = time.monotonic() + 0.2
            while time.monotonic() < deadline:
                server.handle_line("s apply ctp")
            server.handle_line("_ prof stop")
            doc = json.loads(server.handle_line("_ metrics"))
            assert doc["totals"]["prof_samples"] > 0
        finally:
            server.close()

    def test_varz_reports_profiler_state(self, tmp_path):
        server = self._server(tmp_path)
        try:
            varz = server.expo_varz()
            assert varz["profiler"] == {"running": False, "hz": 100.0,
                                        "samples": 0, "dropped": 0}
            server.handle_line("_ prof start 250")
            varz = server.expo_varz()
            assert varz["profiler"]["running"] is True
            assert varz["profiler"]["hz"] == 250.0
        finally:
            server.close()

    def test_expo_pprof_samples_on_demand(self, tmp_path):
        server = self._server(tmp_path)
        stop = threading.Event()

        def churn():
            k = 0
            while not stop.is_set():
                server.handle_line("s apply cse")
                server.handle_line("s undo 0")
                k += 1

        worker = threading.Thread(target=churn, daemon=True)
        worker.start()
        try:
            folded = server.expo_pprof(seconds=0.3, hz=500)
            assert folded
            assert any("server.handle_line" in ln
                       for ln in folded.splitlines())
            # profiler was started for the window and stopped after it
            assert server.profiler.running is False
        finally:
            stop.set()
            worker.join(timeout=5)
            server.close()

    def test_expo_pprof_dumps_open_operator_window(self, tmp_path):
        # when `_ prof start` opened a window, /pprof must not disturb
        # it — it reports the accumulated profile and keeps sampling
        server = self._server(tmp_path)
        try:
            server.handle_line("_ prof start 500")
            deadline = time.monotonic() + 0.2
            while time.monotonic() < deadline:
                server.handle_line("s apply ctp")
            before = server.profiler.samples
            assert server.expo_pprof(seconds=0.0) != ""
            assert server.profiler.running is True
            assert server.profiler.samples >= before
        finally:
            server.close()


class TestTraceCli:
    def test_trace_prints_and_checks(self, tmp_path, capsys):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        root = str(tmp_path / "root")
        assert main(["session", root, "s1", "init", str(prog)]) == 0
        assert main(["session", root, "s1", "apply", "cse"]) == 0
        assert main(["trace", root, "s1", "--check"]) == 0
        out = capsys.readouterr().out
        assert '"name": "command"' in out
        assert "round-trip" in out

    def test_trace_tail_limits_lines(self, tmp_path, capsys):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        root = str(tmp_path / "root")
        main(["session", root, "s1", "init", str(prog)])
        main(["session", root, "s1", "apply", "cse"])
        capsys.readouterr()
        assert main(["trace", root, "s1", "--tail", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_trace_check_fails_on_tampered_stream(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        dirpath = os.path.join(root, "s1")
        session = DurableSession.create(dirpath, SRC, snapshot_every=0)
        session.apply("cse")
        session.close()
        assert main(["trace", root, "s1", "--check"]) == 0
        os.remove(trace_path(dirpath))
        assert main(["trace", root, "s1", "--check"]) == 1
        assert "expected exactly one command span" in capsys.readouterr().out
