"""Tests for Dead Code Elimination (repro.transforms.dce)."""

import pytest

from tests.helpers import assert_apply_undo_roundtrip, make_engine, stmt_by_label
from repro.core.locations import Location
from repro.core.undo import UndoError
from repro.edit.edits import EditSession
from repro.lang.builder import assign, var
from repro.lang.interp import traces_equivalent


class TestFind:
    def test_detects_dead_scalar_store(self):
        engine, p, _ = make_engine("d = 99\nwrite 1\n")
        opps = engine.find("dce")
        assert len(opps) == 1
        assert opps[0].params["sid"] == stmt_by_label(p, 1).sid

    def test_detects_dead_array_store(self):
        engine, _, _ = make_engine("A(1) = 5\nwrite 0\n")
        assert engine.find("dce")

    def test_live_value_not_flagged(self):
        engine, _, _ = make_engine("x = 1\nwrite x\n")
        assert not engine.find("dce")

    def test_overwritten_def_flagged(self):
        engine, p, _ = make_engine("x = 1\nx = 2\nwrite x\n")
        opps = engine.find("dce")
        assert [o.params["sid"] for o in opps] == [stmt_by_label(p, 1).sid]

    def test_read_never_flagged(self):
        # removing a read would shift the input stream
        engine, _, _ = make_engine("read x\nwrite 1\n")
        assert not engine.find("dce")

    def test_use_in_loop_keeps_def_alive(self):
        engine, _, _ = make_engine(
            "x = 1\ndo i = 1, 3\n  A(i) = x\nenddo\nwrite A(2)\n")
        assert not engine.find("dce")


class TestApplyUndo:
    def test_roundtrip_toplevel(self):
        assert_apply_undo_roundtrip("d = 99\nwrite 1\n", "dce")

    def test_roundtrip_inside_loop(self):
        assert_apply_undo_roundtrip(
            "do i = 1, 4\n  d = i * 3\n  A(i) = i\nenddo\nwrite A(2)\n",
            "dce")

    def test_post_pattern_records_location(self):
        engine, p, _ = make_engine("a = 1\nd = 99\nb = 2\nwrite a + b\n")
        rec = engine.apply(engine.find("dce")[0])
        loc = rec.post_pattern["orig_loc"]
        assert isinstance(loc, Location)
        assert loc.index == 1

    def test_annotation_left_on_ghost(self):
        engine, p, _ = make_engine("d = 99\nwrite 1\n")
        rec = engine.apply(engine.find("dce")[0])
        sid = rec.post_pattern["sid"]
        assert [a.short() for a in engine.store.for_sid(sid)] == ["del_1"]


class TestSafety:
    def test_safe_while_untouched(self):
        engine, _, _ = make_engine("d = 99\nwrite 1\n")
        rec = engine.apply(engine.find("dce")[0])
        assert engine.check_safety(rec.stamp).safe

    def test_edit_adding_use_makes_unsafe(self):
        engine, p, _ = make_engine("d = 99\nwrite 1\n")
        rec = engine.apply(engine.find("dce")[0])
        edits = EditSession(engine)
        edits.add_stmt(assign("q", var("d")),
                       Location.at(p, (0, "body"), 1))
        result = engine.check_safety(rec.stamp)
        assert not result.safe
        assert "use" in result.reasons[0]

    def test_edit_adding_unrelated_statement_stays_safe(self):
        engine, p, _ = make_engine("d = 99\nwrite 1\n")
        rec = engine.apply(engine.find("dce")[0])
        edits = EditSession(engine)
        edits.add_stmt(assign("q", 5), Location.at(p, (0, "body"), 0))
        assert engine.check_safety(rec.stamp).safe

    def test_safety_probe_leaves_program_unchanged(self):
        engine, p, _ = make_engine("d = 99\nwrite 1\n")
        rec = engine.apply(engine.find("dce")[0])
        before = engine.source()
        engine.check_safety(rec.stamp)
        assert engine.source() == before


    def test_safety_probe_is_a_counted_dataflow_run(self):
        engine, p, _ = make_engine(
            "a = 1\nd = a + 2\ndo i = 1, 3\n  A(i) = a\nenddo\n"
            "write A(2)\n")
        rec = engine.apply(engine.find("dce")[0])
        cache = engine.cache
        maintained = cache.dataflow()
        runs = cache.counters.dataflow_runs
        timed = cache.counters.time("dataflow")
        assert engine.check_safety(rec.stamp).safe
        assert cache.counters.dataflow_runs == runs + 1
        assert cache.counters.time("dataflow") > timed
        # the trial never replaced the facts the log keeps current
        assert cache.dataflow() is maintained
        assert cache.counters.dataflow_runs == runs + 1
        # and a use of the restored value still breaks the probe
        EditSession(engine).add_stmt(assign("q", var("d")),
                                     Location.at(p, (0, "body"), 2))
        assert not engine.check_safety(rec.stamp).safe
        assert cache.counters.dataflow_runs == runs + 2


class TestReversibility:
    def test_reversible_initially(self):
        engine, _, _ = make_engine("d = 99\nwrite 1\n")
        rec = engine.apply(engine.find("dce")[0])
        assert engine.check_reversibility(rec.stamp).reversible

    def test_deleted_context_blocks(self):
        # Table 3: "delete context of the location"
        src = ("do i = 1, 4\n  d = i * 3\n  A(i) = i\nenddo\nwrite A(2)\n")
        engine, p, _ = make_engine(src)
        rec = engine.apply(engine.find("dce")[0])
        # a user edit deletes the loop: the DCE becomes unrecoverable
        edits = EditSession(engine)
        edits.delete_stmt(p.body[0].sid)
        rr = engine.check_reversibility(rec.stamp)
        assert not rr.reversible
        with pytest.raises(UndoError):
            engine.undo(rec.stamp)

    def test_copied_context_blocks_until_copy_undone(self):
        # Table 3: "copy context of the location ... by LUR"
        src = ("do i = 1, 4\n  d = i * 3\n  A(i) = B(i)\nenddo\nwrite A(2)\n")
        engine, p, orig = make_engine(src)
        dce = engine.apply(engine.find("dce")[0])
        lur = engine.apply(engine.find("lur")[0])
        rr = engine.check_reversibility(dce.stamp)
        assert not rr.reversible
        assert rr.violations[0].stamp == lur.stamp
        # the engine resolves it by undoing LUR first
        report = engine.undo(dce.stamp)
        assert report.affecting == [lur.stamp]
        assert report.undone == [lur.stamp, dce.stamp]
        from repro.lang.ast_nodes import programs_equal

        assert programs_equal(orig, p)
