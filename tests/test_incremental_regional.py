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

from tests.helpers import FoldThenFail, user_edit
from repro.analysis.control_dep import build_control_dep_tree, tree_signature
from repro.analysis.dataflow import analyze_dataflow
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
                   [(n, w) for n, _r, w in f.refs],
                   f.flow.def_name, sorted(f.flow.uses), f.flow.key)
             for sid, f in index.facts.items()}
    maps = tuple(
        {name: bitset_to_sids(s) for name, s in m.items() if s}
        for m in (index.defs, index.scalar_uses, index.arrays))
    candidates = tuple(bitset_to_sids(bits) for bits in (
        index.const_defs, index.copy_defs, index.foldable))
    return facts, maps, candidates


def materialize(cache):
    """Build every analysis, so event batches patch them from here on."""
    cache.dataflow()
    cache.dependences()
    cache.control_tree()
    cache.summaries()
    cache.pdg()


def assert_dataflow_matches_fresh(cache):
    """The maintained data-flow facts, carried forward on this read (no
    from-scratch run), == a from-scratch run."""
    program = cache.program
    runs = cache.counters.dataflow_runs
    got = cache.dataflow()
    assert cache.counters.dataflow_runs == runs
    assert cache._dataflow == (program.version, got)
    assert_dataflow_equals_fresh(got, program)


def assert_dataflow_equals_fresh(got, program):
    """``got`` == a from-scratch run: every fact of every attached
    statement, and every bit query."""
    fresh = analyze_dataflow(program)
    sids = sorted(s.sid for s in program.walk())
    assert sorted(got.reach_in) == sorted(fresh.reach_in) == sids
    assert sorted(got.live_out) == sorted(got.avail_in) == sids
    # a definition is bit ``sid`` in every run: no stale bit survives
    assert got.reach_bits == fresh.reach_bits
    names = set(fresh.def_masks) | set(fresh.universe.names)
    for sid in sids:
        assert got.reach_in[sid] == fresh.reach_in[sid]
        assert got.live_out[sid] == fresh.live_out[sid]
        assert got.avail_in[sid] == fresh.avail_in[sid]
        for name in names:
            assert got.reaching(sid, name) == fresh.reaching(sid, name)
            assert got.is_dead(sid, name) == fresh.is_dead(sid, name)
        for key in fresh.universe.keys:
            assert got.available(sid, key) == fresh.available(sid, key)


def assert_cache_matches_fresh(cache):
    """Patched analyses == from-scratch rebuilds (no getter rebuilds)."""
    program = cache.program
    v = program.version
    assert_dataflow_matches_fresh(cache)
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
        materialize(cache)
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
        materialize(cache)
        runs = cache.counters.dependence_runs
        while engine.history.active():
            updates = cache.counters.incremental_updates
            engine._reverse_engine.undo_last()
            cache.update_after_events()
            assert cache.counters.incremental_updates == updates + 1
            assert cache.counters.dependence_runs == runs
            assert_cache_matches_fresh(cache)

    PARSEC_SRC = ("c = 1\n"
                  "parbegin\n"
                  "  x = c + 1\n"
                  "  A(1) = x\n"
                  "  t = 5\n"
                  "section\n"
                  "  y = c + 1\n"
                  "  B(1) = y\n"
                  "parend\n"
                  "do i = 1, 8\n"
                  "  s = B(i) + 1\n"
                  "  C(i) = s * 2\n"
                  "enddo\n"
                  "write A(1) + B(1)\n"
                  "write C(3)\n")

    @pytest.mark.parametrize("seed", [1, 8, 14])
    def test_parallel_tier_sessions(self, seed):
        """PAR/PRV applies and undos, on generated programs and on one
        with parallel sections, keep the maintained facts exact."""
        kinds = ["prv", "par", "ctp", "dce", "cse", "cpp", "lur"]
        if seed == 1:
            engine = TransformationEngine(parse_program(self.PARSEC_SRC))
        else:
            engine = TransformationEngine(
                generate_program(seed, GeneratorConfig(blocks=4)))
        cache = engine.cache
        materialize(cache)
        rng = np.random.default_rng(seed)
        parallel = 0
        for step in range(10):
            active = engine.history.active()
            if active and rng.random() < 0.4:
                rec = active[int(rng.integers(0, len(active)))]
                try:
                    engine.undo(rec.stamp)
                except UndoError:
                    continue
            else:
                stamps = apply_greedy(engine, 1, seed=seed + step,
                                      kinds=kinds[step % 2:])
                parallel += sum(engine.history.by_stamp(t).name
                                in ("par", "prv") for t in stamps)
            cache.update_after_events()
            assert_cache_matches_fresh(cache)
        assert parallel

    BETWEEN_LOOPS_SRC = ("x = 1\n"
                         "do i = 1, 4\n"
                         "  A(i) = x + y\n"
                         "enddo\n"
                         "d = z + w\n"
                         "do j = 1, 4\n"
                         "  B(j) = A(j) + x\n"
                         "enddo\n"
                         "write B(2)\n")

    def test_block_removed_between_loops(self):
        """Deleting the only statement between two loops leaves both
        loops' statements and facts in place but rewires their edges:
        the second loop now flows from the first, and the facts that
        flowed through the deleted block must not survive it."""
        engine = TransformationEngine(parse_program(self.BETWEEN_LOOPS_SRC))
        cache = engine.cache
        materialize(cache)
        (opp,) = [o for o in engine.find("dce")
                  if engine.program.node(o.params["sid"]).target.name == "d"]
        rec = engine.apply(opp)
        assert_dataflow_matches_fresh(cache)
        engine.undo(rec.stamp)
        assert_dataflow_matches_fresh(cache)

    INX_KILL_SRC = ("do i = 1, 4\n"
                    "  do j = 1, 4\n"
                    "    A(i, j) = 1\n"
                    "  enddo\n"
                    "enddo\n"
                    "i = 5\n"
                    "if (c > 0) then\n"
                    "  j = 7\n"
                    "endif\n"
                    "write j\n")

    def test_interchange_renames_killed_definitions(self):
        """INX swaps the headers: each keeps its sid but defines the
        other loop variable, so ``i = 5`` now kills the inner header and
        lets the outer one (now ``j``) reach ``write j``, though no value
        flowing out of the nest changed."""
        engine = TransformationEngine(parse_program(self.INX_KILL_SRC))
        cache = engine.cache
        materialize(cache)
        outer = engine.program.body[0].sid
        write = engine.program.body[-1].sid
        (opp,) = engine.find("inx")
        rec = engine.apply(opp)
        assert_dataflow_matches_fresh(cache)
        assert (outer, "j") in cache.dataflow().reaching(write, "j")
        engine.undo(rec.stamp)
        assert_dataflow_matches_fresh(cache)
        assert (outer, "j") not in cache.dataflow().reaching(write, "j")

    PRV_SPLIT_SRC = ("do i = 1, 8\n"
                     "  t = B(i) + 1\n"
                     "  do k = 1, 4\n"
                     "    D(k) = k\n"
                     "  enddo\n"
                     "  C(i) = t * 2\n"
                     "  t = C(i) + 1\n"
                     "  E(i) = t\n"
                     "enddo\n"
                     "x = 3\n"
                     "write C(2) + E(3) + x\n")

    def test_privatization_renames_definitions_in_two_blocks(self):
        """PRV turns both definitions of ``t``, on either side of a
        nested loop, into stores to ``t_prv``; applying and undoing it
        keeps the maintained facts exact."""
        engine = TransformationEngine(parse_program(self.PRV_SPLIT_SRC))
        cache = engine.cache
        materialize(cache)
        (opp,) = engine.find("prv")
        rec = engine.apply(opp)
        assert_dataflow_matches_fresh(cache)
        engine.undo(rec.stamp)
        assert_dataflow_matches_fresh(cache)

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


GETTERS = ("dataflow", "dependences", "control_tree", "summaries", "pdg")
#: getter → (its cache entry, the counter its patches advance, the
#: counter or timer its from-scratch builds advance)
WORK = {"dataflow": ("_dataflow", "dataflow_updates", "dataflow_runs"),
        "dependences": ("_deps", "incremental_updates", "dependence_runs"),
        "control_tree": ("_tree", "control_tree_updates", "control_tree"),
        "summaries": ("_summaries", "summary_updates", "summaries_build"),
        "pdg": ("_pdg", "pdg_assemblies", "pdg_assemble")}


def record_reads(cache):
    """Wrap every getter on ``cache``; returns the set of getters read
    since it was last cleared (reads inside other getters included)."""
    reads = set()
    for name in GETTERS:
        def read(getter=getattr(cache, name), name=name):
            reads.add(name)
            return getter()
        setattr(cache, name, read)
    return reads


def kept(cache, getter):
    """An analysis's cache entry and the patches it has cost so far; a
    patch or a rebuild replaces the entry."""
    entry, patched, _built = WORK[getter]
    return getattr(cache, entry), getattr(cache.counters, patched)


def work(cache, getter):
    """(patches, builds) an analysis has cost so far."""
    snap = cache.counters.snapshot()
    _entry, patched, built = WORK[getter]
    return snap[patched], snap.get(built, snap["timers"].get(built, 0.0))


class TestLazyMultiBatch:
    """Figure 4's line 13 is done on read: batches nothing reads leave
    every analysis as it was, and one read after several batches brings
    each analysis current at once, equal to a from-scratch run."""

    @pytest.mark.parametrize("policy", [REGIONAL, FULL])
    @pytest.mark.parametrize("seed", [2, 7, 13])
    def test_batches_wait_for_the_first_read(self, seed, policy):
        engine = TransformationEngine(
            generate_program(seed, GeneratorConfig(blocks=4)),
            UndoStrategy(incremental_strategy=policy),
            extra_transformations=[FoldThenFail()])
        assert apply_greedy(engine, 6, seed=seed)
        cache = engine.cache
        materialize(cache)
        tree, summ = cache._tree[1], cache._summaries[1]
        reads = record_reads(cache)
        rng = np.random.default_rng(seed)
        seen = set()
        for kind in ("apply", "edit", "fail", "undo") * 2:
            # what a batch applies is found before it starts
            opps = [o for name in ("ctp", "cse", "dce", "cfo", "cpp")
                    for o in engine.find(name)]
            failing = engine.find("cfo_fail")
            reads.clear()
            before = {g: kept(cache, g) for g in GETTERS}
            if kind == "apply" and opps:
                engine.apply(opps[0])
            elif kind == "undo":
                active = [r for r in engine.history.active()
                          if not r.is_edit]
                try:
                    engine.undo(active[0].stamp)
                except UndoError:
                    continue
            elif kind == "fail" and failing:
                with pytest.raises(RuntimeError):
                    engine.apply(failing[0])
            elif kind == "edit":
                user_edit(engine, rng)
            else:
                continue
            seen.add(kind)
            # an analysis nobody read was neither patched nor rebuilt
            # (DCE's safety check runs trial data flow of its own)
            for g in GETTERS:
                if g not in reads:
                    entry, patches = kept(cache, g)
                    assert entry is before[g][0], (kind, g)
                    assert patches == before[g][1], (kind, g)
        assert seen == {"apply", "undo", "fail", "edit"}

        program = engine.program
        v = program.version
        # the undos read the control tree; nothing read these three
        for g in ("dependences", "summaries", "pdg"):
            assert getattr(cache, WORK[g][0])[0] != v, g
        stale = {g for g in GETTERS if getattr(cache, WORK[g][0])[0] != v}
        before = {g: work(cache, g) for g in GETTERS}
        cache.update_after_events()
        for g in GETTERS:
            (patches, builds), (patches0, builds0) = work(cache, g), before[g]
            if g not in stale:
                assert (patches, builds) == (patches0, builds0), g
            elif g == "pdg":
                assert patches == patches0 + 1
            elif policy == REGIONAL:
                # patched once, over every batch since its last read
                assert (patches, builds) == (patches0 + 1, builds0), g
            else:
                assert patches == patches0 and builds > builds0, g
        if policy == REGIONAL:
            assert cache._tree[1] is tree and cache._summaries[1] is summ

        assert all(getattr(cache, WORK[g][0])[0] == v for g in GETTERS)
        # current with the whole log: the next read patches only what
        # comes after it
        end = engine.events.cursor()
        assert cache._dep_cursor == cache._tree_cursor == end
        assert cache._summ_cursor == end
        assert_dataflow_equals_fresh(cache._dataflow[1], program)
        assert dep_keys(cache._deps[1]) == \
            dep_keys(analyze_dependences(program))
        assert tree_signature(cache._tree[1]) == \
            tree_signature(build_control_dep_tree(program))
        assert summary_signature(cache._summaries[1]) == \
            summary_signature(build_summaries(program))
        pdg = cache._pdg[1]
        assert pdg.tree is cache._tree[1] and pdg.dgraph is cache._deps[1]

    STRIP_SRC = ("do i = 1, 8\n"
                 "  A(i) = B(i) + 1\n"
                 "  C(i) = A(i) * 2\n"
                 "enddo\n"
                 "write C(3)\n")

    def test_summaries_rebuild_over_a_rebuilt_tree(self):
        """A trial read rebuilds the control tree at a version the log
        does not account for; the summaries hung on the old tree are
        then rebuilt, not patched over a tree they do not match."""
        engine = TransformationEngine(parse_program(self.STRIP_SRC))
        cache = engine.cache
        materialize(cache)
        summ = cache._summaries[1]
        engine.apply(engine.find("smi")[0])
        program = engine.program
        victim = program.body[-1]
        ref = program.parent_of(victim.sid)
        at = program.index_in_container(victim.sid)
        with program.probe():
            program.detach(victim.sid)
            try:
                cache.control_tree()
            finally:
                program.insert(ref, at, victim)
        updates = cache.counters.summary_updates
        got = cache.summaries()
        assert got is not summ
        assert cache.counters.summary_updates == updates
        assert got.tree is cache.control_tree()
        assert summary_signature(got) == \
            summary_signature(build_summaries(program))


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
        runs = cache.counters.dependence_runs
        before = cache.counters.incremental_pairs
        engine.undo(session.applied[-1])
        cache.dependences()
        examined = cache.counters.incremental_pairs - before
        assert cache.counters.incremental_updates >= 1
        assert cache.counters.dependence_runs == runs
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
        cache.dependences()
        assert cache.counters.time("dependence_update") > 0.0
        assert cache.counters.dependence_runs == 1
        snap = cache.counters.snapshot()
        assert "dependence_update" in snap["timers"]


class TestAcceptanceCriterion:
    """ISSUE 1: <25% of the pairs, measurably faster, on ≥200 statements."""

    def test_undo_update_beats_from_scratch(self):
        from repro.core.engine import TransformationEngine

        # wall-clock timers: each side is the minimum over fresh engines
        # built from the same seeds, so one descheduled run under host
        # load cannot decide the comparison
        full_avgs, upd_avgs = [], []
        for _ in range(5):
            program = generate_program(42, GeneratorConfig(blocks=35))
            engine = TransformationEngine(program)
            n_stmts = len(list(program.walk()))
            assert n_stmts >= 200
            applied = apply_greedy(engine, 4, seed=43)
            assert applied
            cache = engine.cache
            cache.dependences()
            c0 = cache.counters.snapshot()
            engine.undo(applied[-1])
            cache.dependences()
            c1 = cache.counters.snapshot()
            assert c1["dependence_runs"] == c0["dependence_runs"]
            baseline = analyze_dependences(engine.program)
            examined = c1["incremental_pairs"] - c0["incremental_pairs"]
            updates = c1["incremental_updates"] - c0["incremental_updates"]
            assert updates >= 1
            # < 25% of the pairs a from-scratch run visits (per update)
            assert examined < 0.25 * updates * baseline.visited_pairs
            full_avgs.append(c1["timers"]["dependence_full"] /
                             max(c1["dependence_runs"], 1))
            upd_avgs.append(c1["timers"]["dependence_update"] / updates)
        # and measurably faster by the wall-clock timers (per run)
        assert min(upd_avgs) < min(full_avgs)


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
        materialize(cache)
        runs = cache.counters.dependence_runs
        updates = cache.counters.incremental_updates
        df_runs = cache.counters.dataflow_runs
        df_updates = cache.counters.dataflow_updates
        applied = 0
        for step in range(5):
            applied += len(apply_greedy(engine, 1, seed=seed + 50 + step))
            program = engine.program
            assert_dataflow_matches_fresh(cache)
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
        assert cache.counters.dataflow_runs == df_runs
        assert cache.counters.dataflow_updates > df_updates

    def test_dataflow_rebuilds_when_unlogged_or_full(self):
        """A version the log does not account for, and the from-scratch
        strategy, both get a from-scratch data-flow run."""
        session = build_session(9, 4)
        engine = session.engine
        program = engine.program
        cache = engine.cache
        maintained = cache.dataflow()
        runs = cache.counters.dataflow_runs
        updates = cache.counters.dataflow_updates
        victim = next(s for s in program.walk()
                      if program.parent_of(s.sid)[0] == 0)
        ref = program.parent_of(victim.sid)
        at = program.index_in_container(victim.sid)
        with program.probe():
            program.detach(victim.sid)
            try:
                trial = cache.dataflow()
                assert cache.counters.dataflow_runs == runs + 1
                assert cache.counters.dataflow_updates == updates
                fresh = analyze_dataflow(program)
                for s in program.walk():
                    assert trial.reach_in[s.sid] == fresh.reach_in[s.sid]
                    assert trial.live_out[s.sid] == fresh.live_out[s.sid]
                assert victim.sid not in trial.reach_in
            finally:
                program.insert(ref, at, victim)
        # the trial never cost the patchable facts
        assert cache.dataflow() is maintained
        assert cache.counters.dataflow_runs == runs + 1

        full = build_session(9, 4, UndoStrategy(incremental_strategy=FULL))
        cache = full.engine.cache
        cache.dataflow()
        runs = cache.counters.dataflow_runs
        assert apply_greedy(full.engine, 1, seed=3)
        cache.dataflow()
        assert cache.counters.dataflow_runs == runs + 1
        assert cache.counters.dataflow_updates == 0

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
