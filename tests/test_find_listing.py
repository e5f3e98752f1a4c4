"""The cached opportunity listings equal a from-scratch ``find``.

``engine.find`` answers from a listing kept on the analysis cache per
program version, and the finders read per-statement facts and candidate
bitsets from the def/use index.  Since ``apply <kind> <k>`` indexes the
listing, the property is element-for-element equality with a ``find``
on a fresh cache (no log: the index is built at that version), after
every kind of event batch and under both update strategies.
"""

import numpy as np
import pytest

from tests.helpers import FoldThenFail, user_edit
from repro.analysis.incremental import FULL, REGIONAL, AnalysisCache
from repro.core.engine import TransformationEngine
from repro.core.locations import Location
from repro.core.undo import UndoError, UndoStrategy
from repro.edit.edits import EditSession
from repro.lang.ast_nodes import Assign, BinOp, Const, VarRef
from repro.lang.parser import parse_program
from repro.service.serde import value_to_doc
from repro.spec import CTP_SPEC, DCE_SPEC, LRV_SPEC, compile_spec
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy


def rows(opps):
    """Comparable rows; params in their journal form (expressions in
    them have no ``==``)."""
    return [(o.name, value_to_doc(o.params), o.description) for o in opps]


def make_engine(seed, policy):
    program = generate_program(seed, GeneratorConfig(blocks=4))
    extras = [compile_spec(spec) for spec in (DCE_SPEC, CTP_SPEC, LRV_SPEC)]
    extras.append(FoldThenFail())
    return TransformationEngine(
        program, UndoStrategy(incremental_strategy=policy),
        extra_transformations=extras)


def assert_listings_fresh(engine):
    """Every kind's listing, served twice, == ``find`` on a fresh cache."""
    program = engine.program
    fresh = AnalysisCache(program)
    for name, t in sorted(engine.registry.items()):
        first = engine.find(name)
        want = rows(t.find(program, fresh))
        assert rows(first) == want, name
        # the second read is the cached listing; a caller mutating the
        # list it got never changes the next one
        first.clear()
        assert rows(engine.find(name)) == want, name


@pytest.mark.parametrize("policy", [REGIONAL, FULL])
@pytest.mark.parametrize("seed", [2, 7, 13])
def test_listings_equal_fresh_find_after_every_batch(seed, policy):
    engine = make_engine(seed, policy)
    rng = np.random.default_rng(seed)
    assert_listings_fresh(engine)
    seen = set()
    for step in range(14):
        kind = ("apply", "undo", "fail", "edit")[step % 4]
        if kind == "apply":
            if not apply_greedy(engine, 2, seed=seed + step):
                continue
        elif kind == "undo":
            active = [r for r in engine.history.active() if not r.is_edit]
            if not active:
                continue
            # the oldest active record: the likeliest to cascade
            try:
                engine.undo(active[0].stamp)
            except UndoError:
                continue
        elif kind == "fail":
            opps = engine.find("cfo_fail")
            if not opps:
                continue
            with pytest.raises(RuntimeError):
                engine.apply(opps[0])
        else:
            user_edit(engine, rng)
        seen.add(kind)
        assert_listings_fresh(engine)
    assert seen == {"apply", "undo", "fail", "edit"}


def test_listing_is_found_once_per_version():
    engine = TransformationEngine(parse_program(
        "c = 1\nx = c + 2\nd = e + f\nwrite x\nwrite d\n"))
    calls = []
    t = engine.registry["ctp"]
    original = t.find

    def counting(program, cache):
        calls.append(program.version)
        return original(program, cache)

    t.find = counting
    try:
        first = engine.find("ctp")
        assert engine.find("ctp") == first
        assert engine.find_all()["ctp"] == first
        assert len(calls) == 1
        engine.apply(first[0])
        engine.find("ctp")
        assert len(calls) == 2
        engine.cache.invalidate()
        engine.find("ctp")
        assert len(calls) == 3
    finally:
        del t.find


def test_candidate_bitsets_track_the_program():
    engine = TransformationEngine(parse_program(
        "c = 1\nw = c\nx = 2 * 3\ny = w + x\nwrite y\n"))
    index = engine.cache.index()
    sid = {type(s).__name__ + str(i): s.sid
           for i, s in enumerate(engine.program.walk())}
    assert index.const_defs == 1 << sid["Assign0"]
    assert index.copy_defs == 1 << sid["Assign1"]
    assert index.foldable == 1 << sid["Assign2"]
    engine.apply(engine.find("cfo")[0])
    index = engine.cache.index()
    assert index.foldable == 0
    assert index.const_defs == (1 << sid["Assign0"]) | (1 << sid["Assign2"])


def test_candidates_follow_source_order_not_sids():
    """A statement inserted at the top has the highest sid but comes
    first in the listing, as in a full ``program.walk()`` scan."""
    engine = TransformationEngine(parse_program(
        "c = 1\nx = 1 + 2\nwrite x + c\n"))
    program = engine.program
    stmt = Assign(VarRef("y"), BinOp("*", Const(3), VarRef("c")))
    EditSession(engine).add_stmt(stmt, Location.at(program, (0, "body"), 1))
    EditSession(engine).add_stmt(
        Assign(VarRef("z"), BinOp("*", Const(3), Const(4))),
        Location.at(program, (0, "body"), 0))
    fresh = AnalysisCache(program)
    for name in ("cfo", "ctp"):
        got = engine.find(name)
        assert len(got) >= 2
        assert rows(got) == rows(engine.registry[name].find(program, fresh))
    sids = [o.params["sid"] for o in engine.find("cfo")]
    assert sids != sorted(sids)
    uses = [o.params["use_sid"] for o in engine.find("ctp")]
    assert uses != sorted(uses)
