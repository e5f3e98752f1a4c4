"""Correctness and honesty of the regional incremental analysis engine.

The load-bearing property: after *every* change-event batch, the
incrementally maintained dependence graph / control tree / summaries are
equal to their from-scratch counterparts.  Plus the ISSUE's acceptance
criterion: on a ≥200-statement program an undo-driven update examines
< 25% of the pairs the from-scratch baseline visits and is faster by
the wall-clock timers.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.control_dep import build_control_dep_tree, tree_signature
from repro.analysis.depend import analyze_dependences
from repro.analysis.incremental import FULL, REGIONAL, AnalysisCache
from repro.analysis.regional import DefUseIndex, bitset_to_sids
from repro.analysis.summaries import build_summaries
from repro.core.engine import TransformationEngine
from repro.core.undo import UndoError, UndoStrategy
from repro.lang.parser import parse_program
from repro.spec import CTP_SPEC, DCE_SPEC, LRV_SPEC, compile_spec
from repro.spec.dsl import Pred
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy, build_session

DEP_KEY = staticmethod(lambda d: (d.src, d.dst, d.kind, d.var,
                                  d.directions, d.carried))


def dep_key(d):
    return (d.src, d.dst, d.kind, d.var, d.directions, d.carried)


def dep_keys(graph):
    return sorted(map(dep_key, graph.deps))


def summary_signature(summ):
    """dep-key → region signature, independent of region ids."""
    out = {}
    for rid, deps in summ.by_region.items():
        chain = []
        r = summ.tree.regions[rid]
        while True:
            chain.append((r.kind, r.owner_sid))
            if r.parent < 0:
                break
            r = summ.tree.regions[r.parent]
        for d in deps:
            out[dep_key(d)] = tuple(chain)
    return out


def index_signature(index):
    facts = {sid: (sorted(f.du.defs), sorted(f.du.uses),
                   [(n, w) for n, _r, w in f.refs])
             for sid, f in index.facts.items()}
    maps = tuple(
        {name: bitset_to_sids(s) for name, s in m.items() if s}
        for m in (index.scalar_defs, index.scalar_uses, index.arrays))
    return facts, maps


def assert_cache_matches_fresh(cache):
    """Patched analyses == from-scratch rebuilds (no getter rebuilds)."""
    program = cache.program
    v = program.version
    assert cache._deps is not None and cache._deps[0] == v
    fresh = analyze_dependences(program)
    assert dep_keys(cache._deps[1]) == dep_keys(fresh)

    assert cache._tree is not None and cache._tree[0] == v
    assert tree_signature(cache._tree[1]) == \
        tree_signature(build_control_dep_tree(program))

    assert cache._summaries is not None and cache._summaries[0] == v
    fresh_summ = build_summaries(program)
    assert summary_signature(cache._summaries[1]) == \
        summary_signature(fresh_summ)

    assert cache._pdg is not None and cache._pdg[0] == v


class TestRegionalEqualsFresh:
    """The equality property over generated programs and random sessions."""

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_random_apply_undo_sequences(self, seed):
        session = build_session(seed, 6)
        engine = session.engine
        cache = engine.cache
        # materialize everything, then let events patch it from here on
        cache.dependences()
        cache.control_tree()
        cache.summaries()
        cache.pdg()
        assert_cache_matches_fresh(cache)

        rng = np.random.default_rng(seed)
        for step in range(8):
            active = engine.history.active()
            do_undo = active and (rng.random() < 0.5 or step % 3 == 2)
            if do_undo:
                rec = active[int(rng.integers(0, len(active)))]
                try:
                    engine.undo(rec.stamp)
                except UndoError:
                    continue
            else:
                applied = apply_greedy(engine, 1, seed=seed + 100 + step)
                if not applied:
                    continue
            # consume whatever the step emitted, then compare to fresh
            cache.update_after_events()
            assert_cache_matches_fresh(cache)

    @pytest.mark.parametrize("seed", [5, 19])
    def test_lifo_reverse_undo_stays_consistent(self, seed):
        session = build_session(seed, 5)
        engine = session.engine
        cache = engine.cache
        cache.dependences()
        cache.control_tree()
        cache.summaries()
        cache.pdg()
        while engine.history.active():
            engine._reverse_engine.undo_last()
            assert_cache_matches_fresh(cache)

    def test_full_strategy_matches_fresh(self):
        session = build_session(7, 4)
        engine = session.engine
        engine.strategy.incremental_strategy = FULL
        cache = engine.cache
        cache.dependences()
        engine.undo(session.applied[1])
        fresh = analyze_dependences(engine.program)
        assert dep_keys(cache.dependences()) == dep_keys(fresh)

    def test_strategy_flag_outcomes_agree(self):
        a = build_session(13, 5, UndoStrategy(incremental_strategy=REGIONAL))
        b = build_session(13, 5, UndoStrategy(incremental_strategy=FULL))
        a.engine.undo(a.applied[2])
        b.engine.undo(b.applied[2])
        assert a.engine.source() == b.engine.source()


class TestDefUseIndex:
    @pytest.mark.parametrize("seed", [2, 23])
    def test_index_tracks_program_through_session(self, seed):
        session = build_session(seed, 5)
        engine = session.engine
        cache = engine.cache
        cache.dependences()
        cache.defuse_index()
        for stamp in list(reversed(session.applied)):
            try:
                engine.undo(stamp)
            except UndoError:
                continue
            got = index_signature(cache.defuse_index())
            want = index_signature(DefUseIndex.build(engine.program))
            assert got == want


class TestHonestCounters:
    def test_incremental_pairs_counts_examined_pairs(self):
        session = build_session(31, 5)
        engine = session.engine
        cache = engine.cache
        full = cache.dependences()
        before = cache.counters.incremental_pairs
        engine.undo(session.applied[-1])
        examined = cache.counters.incremental_pairs - before
        assert cache.counters.incremental_updates >= 1
        assert 0 < examined
        # the honest count is also what the updated graph reports
        assert cache._deps[1].visited_pairs <= examined
        # and it is a strict subset of the from-scratch pair space
        assert examined < full.visited_pairs

    def test_timers_accumulate(self):
        session = build_session(31, 4)
        engine = session.engine
        cache = engine.cache
        cache.dependences()
        assert cache.counters.time("dependence_full") > 0.0
        engine.undo(session.applied[-1])
        assert cache.counters.time("dependence_update") > 0.0
        snap = cache.counters.snapshot()
        assert "dependence_update" in snap["timers"]


class TestAcceptanceCriterion:
    """ISSUE 1: <25% of the pairs, measurably faster, on ≥200 statements."""

    def test_undo_update_beats_from_scratch(self):
        program = generate_program(42, GeneratorConfig(blocks=35))
        from repro.core.engine import TransformationEngine

        engine = TransformationEngine(program)
        n_stmts = len(list(program.walk()))
        assert n_stmts >= 200
        applied = apply_greedy(engine, 4, seed=43)
        assert applied
        cache = engine.cache
        cache.dependences()
        c0 = cache.counters.snapshot()
        engine.undo(applied[-1])
        c1 = cache.counters.snapshot()
        baseline = analyze_dependences(engine.program)
        examined = c1["incremental_pairs"] - c0["incremental_pairs"]
        updates = c1["incremental_updates"] - c0["incremental_updates"]
        assert updates >= 1
        # < 25% of the pairs a from-scratch run visits (per update)
        assert examined < 0.25 * updates * baseline.visited_pairs
        # and measurably faster by the wall-clock timers (per run)
        full_avg = (c1["timers"]["dependence_full"] /
                    max(c1["dependence_runs"], 1))
        upd_avg = c1["timers"]["dependence_update"] / updates
        assert upd_avg < full_avg


def consulting_dependences(spec):
    """``spec`` plus a precondition that reads the dependence graph, so
    its safety re-check asks for the graph inside the pre-image (deleted
    statements put back and modifications rolled back, unlogged)."""
    reads = Pred("reads_dependences", spec.variables[:1],
                 lambda program, cache, b: bool(cache.dependences().deps),
                 "the program has no dependences")
    return replace(spec, name="d" + spec.name,
                   pre_conditions=spec.pre_conditions + [reads])


class TestGettersCatchUp:
    """Stale getters patch from the log instead of rebuilding — but only
    when the log accounts for the program's current version."""

    @pytest.mark.parametrize("seed", [4, 17])
    def test_forward_applies_are_patched_not_rebuilt(self, seed):
        session = build_session(seed, 6)
        engine = session.engine
        cache = engine.cache
        cache.dependences()
        cache.control_tree()
        cache.summaries()
        cache.pdg()
        runs = cache.counters.dependence_runs
        updates = cache.counters.incremental_updates
        applied = 0
        for step in range(5):
            applied += len(apply_greedy(engine, 1, seed=seed + 50 + step))
            program = engine.program
            assert dep_keys(cache.dependences()) == \
                dep_keys(analyze_dependences(program))
            assert tree_signature(cache.control_tree()) == \
                tree_signature(build_control_dep_tree(program))
            assert summary_signature(cache.summaries()) == \
                summary_signature(build_summaries(program))
            assert cache.pdg() is cache._pdg[1]
        assert applied
        assert cache.counters.dependence_runs == runs
        assert cache.counters.incremental_updates > updates

    def test_full_strategy_getters_rebuild(self):
        session = build_session(9, 4, UndoStrategy(incremental_strategy=FULL))
        engine = session.engine
        cache = engine.cache
        cache.dependences()
        runs = cache.counters.dependence_runs
        assert apply_greedy(engine, 1, seed=3)
        cache.dependences()
        assert cache.counters.dependence_runs > runs

    SRC = ("y = 1\n"
           "y = 2\n"
           "c = 5\n"
           "z = c + 1\n"
           "do i = 1, 8\n"
           "  A(i) = B(i) + z\n"
           "enddo\n"
           "write A(3)\n")

    def test_safety_preimage_never_reads_the_post_image(self):
        engine = TransformationEngine(
            parse_program(self.SRC),
            extra_transformations=[
                compile_spec(LRV_SPEC),
                compile_spec(consulting_dependences(DCE_SPEC)),
                compile_spec(consulting_dependences(CTP_SPEC))])
        cache = engine.cache
        getter = cache.dependences
        reads = []

        def dependences():
            graph = getter()
            assert dep_keys(graph) == dep_keys(
                analyze_dependences(engine.program))
            reads.append(engine.program.version)
            return graph

        cache.dependences = dependences
        recs = [engine.apply(engine.find(name)[0])
                for name in ("lrv", "dsdce", "dsctp")]
        for rec in recs:
            # the graph is current and log-anchored when the check starts:
            # a getter patching from the log would skip the pre-image
            cache.dependences()
            assert engine.check_safety(rec.stamp).safe
        for rec in recs:
            # back to back: the graph was last built inside a pre-image,
            # at a version the log does not account for
            assert engine.check_safety(rec.stamp).safe
        engine.undo(recs[0].stamp)
        cache.dependences()
        for rec in recs[1:]:
            assert engine.check_safety(rec.stamp).safe
        assert len(set(reads)) > 6
