"""Deeper tests for the LIFO engine and the incremental analysis cache."""

import pytest

from tests.helpers import make_engine, stmt_by_label
from repro.analysis.depend import analyze_dependences
from repro.analysis.summaries import build_summaries
from repro.core.undo import UndoError, UndoStrategy
from repro.lang.ast_nodes import programs_equal
from repro.lang.interp import traces_equivalent
from repro.workloads.scenarios import build_session


class TestReverseUndoDetails:
    def test_undo_last_repeatedly_restores(self):
        engine, p, orig = make_engine(
            "c = 1\nx = c + 2\nd = b + q\ne = b + q\nwrite x\nwrite d + e\n")
        r1 = engine.apply(engine.find("ctp")[0])
        r2 = engine.apply(engine.find("cse")[0])
        r3 = engine.apply(engine.find("cfo")[0])
        order = []
        while engine.history.active():
            order.append(engine._reverse_engine.undo_last())
        assert order == [r3.stamp, r2.stamp, r1.stamp]
        assert programs_equal(orig, p)

    def test_undo_to_middle_leaves_earlier(self):
        engine, p, orig = make_engine(
            "c = 1\nx = c + 2\nd = b + q\ne = b + q\nwrite x\nwrite d + e\n")
        r1 = engine.apply(engine.find("ctp")[0])
        r2 = engine.apply(engine.find("cse")[0])
        r3 = engine.apply(engine.find("cfo")[0])
        report = engine.undo_reverse_to(r2.stamp)
        assert report.undone == [r3.stamp, r2.stamp]
        assert engine.history.by_stamp(r1.stamp).active
        assert traces_equivalent(orig, p)

    def test_undo_to_inactive_rejected(self):
        engine, _, _ = make_engine("c = 1\nx = c\nwrite x\n")
        rec = engine.apply(engine.find("ctp")[0])
        engine.undo(rec.stamp)
        with pytest.raises(UndoError):
            engine.undo_reverse_to(rec.stamp)

    def test_lifo_never_needs_affecting_analysis(self):
        # structural stress: smi + lur stacked, peeled strictly LIFO
        engine, p, orig = make_engine(
            "do i = 1, 8\n  A(i) = B(i) + 1\nenddo\nwrite A(2)\n")
        smi = engine.apply(engine.find("smi")[0])
        # lur inside the strip nest if offered, else another smi target
        opps = engine.find("lur")
        if opps:
            engine.apply(opps[0])
        first = engine.history.active()[0]
        report = engine.undo_reverse_to(first.stamp)
        assert programs_equal(orig, p)


class TestIncrementalCacheDeeper:
    def test_update_matches_fresh_over_session(self):
        session = build_session(9, 8)
        engine = session.engine
        engine.cache.dependences()
        for stamp in list(session.applied)[:3]:
            cursor = engine.events.cursor()
            engine.undo(stamp)
            # the engine already updated incrementally; compare with fresh
            fresh = analyze_dependences(engine.program)
            cached = engine.cache.dependences()
            key = lambda d: (d.src, d.dst, d.kind, d.var, d.directions,
                             d.carried)
            assert sorted(map(key, cached.deps)) == \
                sorted(map(key, fresh.deps))

    def test_update_handles_structural_events(self):
        engine, p, _ = make_engine(
            "do i = 1, 8\n  A(i) = B(i) + 1\nenddo\n"
            "do i = 1, 8\n  C(i) = A(i) * 2\nenddo\nwrite C(3)\n")
        engine.cache.dependences()
        cursor = engine.events.cursor()
        rec = engine.apply(engine.find("fus")[0])
        updated = engine.cache.update_dependences(engine.events.since(cursor))
        fresh = analyze_dependences(p)
        key = lambda d: (d.src, d.dst, d.kind, d.var, d.directions, d.carried)
        assert sorted(map(key, updated.deps)) == sorted(map(key, fresh.deps))

    def test_counters_snapshot(self):
        engine, _, _ = make_engine("x = 1\nwrite x\n")
        engine.cache.dataflow()
        snap = engine.cache.counters.snapshot()
        assert snap["dataflow_runs"] == 1
        assert "incremental_updates" in snap

    def test_pdg_and_summaries_track_version(self):
        engine, p, _ = make_engine("c = 1\nx = c\nwrite x\n")
        pdg1 = engine.cache.pdg()
        engine.cache.summaries()
        engine.apply(engine.find("ctp")[0])
        assert engine.cache.pdg() is not pdg1
        # the summaries are patched in place from the apply's events
        summ = engine.cache.summaries()
        assert engine.cache._summaries == (p.version, summ)
        key = lambda d: (d.src, d.dst, d.kind, d.var, d.directions, d.carried)
        edges = lambda sm: sorted(key(d) for deps in sm.by_region.values()
                                  for d in deps)
        assert edges(summ) == edges(build_summaries(p))


class TestStrategyMatrix:
    """All 8 strategy combinations behave identically on outcomes."""

    @pytest.mark.parametrize("heur", [True, False])
    @pytest.mark.parametrize("regional", [True, False])
    @pytest.mark.parametrize("incremental", [True, False])
    def test_outcome_invariant(self, heur, regional, incremental):
        strategy = UndoStrategy(use_heuristic=heur, use_regional=regional,
                                use_incremental=incremental)
        session = build_session(21, 8, strategy)
        engine = session.engine
        target = session.applied[2]
        engine.undo(target)
        # compare against the paper configuration on a twin session
        twin = build_session(21, 8, UndoStrategy())
        twin.engine.undo(twin.applied[2])
        assert engine.source() == twin.engine.source()
