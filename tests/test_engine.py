"""Tests for the TransformationEngine façade and the incremental cache."""

import pytest

from tests.helpers import make_engine, stmt_by_label
from repro.analysis.dataflow import analyze_dataflow
from repro.core.engine import ApplyError, TransformationEngine
from repro.lang.ast_nodes import programs_equal
from repro.lang.parser import parse_program
from repro.transforms.base import Opportunity


class TestFacade:
    def test_find_all_covers_registry(self):
        engine, _, _ = make_engine("a = 1\nwrite a\n")
        allopps = engine.find_all()
        assert set(allopps) == set(engine.registry)

    def test_apply_first_matches_params(self):
        engine, p, _ = make_engine("c = 1\nx = c + c\nwrite x\n")
        rec = engine.apply_first("ctp", path=("expr", "r"))
        assert rec.params["path"] == ("expr", "r")

    def test_apply_first_no_match_raises(self):
        engine, _, _ = make_engine("a = 1\nwrite a\n")
        with pytest.raises(ApplyError):
            engine.apply_first("inx")

    def test_failed_apply_rolls_back(self):
        engine, p, orig = make_engine("d = 99\nwrite 1\n")
        bogus = Opportunity("dce", {"sid": 99999}, "bogus")
        with pytest.raises(ApplyError):
            engine.apply(bogus)
        assert programs_equal(orig, p)
        assert not engine.history.active()

    def test_source_shows_current_text(self):
        engine, _, _ = make_engine("c = 1\nx = c\nwrite x\n")
        engine.apply(engine.find("ctp")[0])
        assert "x = 1" in engine.source()

    def test_active_transformations_ordering(self):
        engine, _, _ = make_engine("c = 1\nx = c + 2\nwrite x\n")
        a = engine.apply(engine.find("ctp")[0])
        b = engine.apply(engine.find("cfo")[0])
        assert [r.stamp for r in engine.active_transformations()] == \
            [a.stamp, b.stamp]

    def test_unsafe_transformations_empty_when_clean(self):
        engine, _, _ = make_engine("c = 1\nx = c + 2\nwrite x\n")
        engine.apply(engine.find("ctp")[0])
        assert engine.unsafe_transformations() == []


class TestAnalysisCache:
    def test_reuse_without_mutation(self):
        engine, _, _ = make_engine("a = 1\nb = a\nwrite b\n")
        df1 = engine.cache.dataflow()
        df2 = engine.cache.dataflow()
        assert df1 is df2
        assert engine.cache.counters.dataflow_runs == 1

    def test_recompute_after_mutation(self):
        engine, p, _ = make_engine("c = 1\nx = c\nwrite x\n")
        df1 = engine.cache.dataflow()
        engine.apply(engine.find("ctp")[0])
        df2 = engine.cache.dataflow()
        # recomputed by a regional update from the log, not a rerun
        assert df2 is not df1
        assert engine.cache.counters.dataflow_runs == 1
        assert engine.cache.counters.dataflow_updates == 1
        fresh = analyze_dataflow(p)
        for s in p.walk():
            assert df2.reach_in[s.sid] == fresh.reach_in[s.sid]
            assert df2.live_out[s.sid] == fresh.live_out[s.sid]

    def test_dependences_cached(self):
        engine, _, _ = make_engine("x = 1\ny = x\nwrite y\n")
        g1 = engine.cache.dependences()
        g2 = engine.cache.dependences()
        assert g1 is g2

    def test_invalidate_forces_recompute(self):
        engine, _, _ = make_engine("x = 1\nwrite x\n")
        engine.cache.dependences()
        engine.cache.invalidate()
        engine.cache.dependences()
        assert engine.cache.counters.dependence_runs == 2

    def test_incremental_update_matches_fresh(self):
        from repro.analysis.depend import analyze_dependences

        engine, p, _ = make_engine(
            "c = 1\nx = c + 2\nwrite x\n"
            "do i = 1, 4\n  A(i) = B(i)\nenddo\nwrite A(2)\n")
        engine.cache.dependences()
        counters = engine.cache.counters
        runs, updates = counters.dependence_runs, counters.incremental_updates
        engine.apply(engine.find("ctp")[0])
        # the read patches the graph from the apply's events
        updated = engine.cache.dependences()
        assert counters.incremental_updates == updates + 1
        assert counters.dependence_runs == runs
        fresh = analyze_dependences(p)
        key = lambda d: (d.src, d.dst, d.kind, d.var, d.directions, d.carried)
        assert sorted(map(key, updated.deps)) == sorted(map(key, fresh.deps))

    def test_incremental_counters_advance(self):
        engine, p, _ = make_engine("c = 1\nx = c\nwrite x\n")
        engine.cache.dependences()
        engine.apply(engine.find("ctp")[0])
        engine.cache.dependences()
        assert engine.cache.counters.incremental_updates == 1
        assert engine.cache.counters.dependence_runs == 1


class TestTwoLevelView:
    def test_figure1_view_renders(self):
        from repro.repr2 import TwoLevelRepresentation

        engine, _, _ = make_engine(
            "d = e + f\nc = 1\n"
            "do i = 1, 4\n  do j = 1, 3\n"
            "    A(j) = B(j) + c\n    R(i, j) = e + f\n"
            "  enddo\nenddo\nwrite d\nwrite A(2)\n")
        engine.apply(engine.find("cse")[0])
        engine.apply(engine.find("ctp")[0])
        view = TwoLevelRepresentation.of(engine)
        text = view.render()
        assert "APDG" in text and "ADAG" in text
        assert "md_1" in text and "md_2" in text

    def test_adag_records_ghosts(self):
        from repro.repr2 import build_adag

        engine, p, _ = make_engine("c = 1\nx = c + 2\nwrite x\n")
        engine.apply(engine.find("ctp")[0])
        adag = build_adag(p, engine.store, engine.history)
        assert adag.ghosts
        assert adag.ghosts[0].original == "c"
        assert adag.ghosts[0].current == "1"

    def test_apdg_annotations_view(self):
        from repro.repr2 import build_apdg

        engine, p, _ = make_engine("c = 1\nx = c + 2\nwrite x\n")
        rec = engine.apply(engine.find("ctp")[0])
        apdg = build_apdg(p, engine.store)
        use_sid = rec.post_pattern["use_sid"]
        assert apdg.annotations[use_sid] == ["md_1"]

    def test_views_follow_undo(self):
        from repro.repr2 import build_apdg

        engine, p, _ = make_engine("c = 1\nx = c + 2\nwrite x\n")
        rec = engine.apply(engine.find("ctp")[0])
        engine.undo(rec.stamp)
        apdg = build_apdg(p, engine.store)
        assert not apdg.annotations
