"""E1 — deferred study: event-driven regional undo vs. whole-program
re-analysis.

The paper motivates the affected-region mechanism (§4.4): examining every
subsequent transformation "may be too time consuming due to the
redundant analysis of unrelated transformations if the number of
transformations is large."

We grow generated programs hosting n transformations, undo the FIRST one
(worst case: all n−1 later transformations are candidates), and compare
the work counters of

* the paper configuration (regional + heuristic + incremental) against
* the global baseline (no regional filter, full re-analysis),

asserting both remove the same transformations.  The expected shape:
baseline checks grow ~linearly in n; the regional path stays flat.
"""

import time

import numpy as np
import pytest

from repro.analysis.incremental import FULL, REGIONAL, AnalysisCache
from repro.bench.reporting import BenchReport, banner, ms, ratio, scaled
from repro.core.undo import UndoStrategy
from repro.lang.interp import traces_equivalent
from repro.workloads.scenarios import apply_greedy, build_session

REPORT = BenchReport("bench_e1_regional")

SIZES = scaled([8, 16, 32, 64])
SEED = 7

PAPER = UndoStrategy(use_heuristic=True, use_regional=True,
                     use_incremental=True)
GLOBAL = UndoStrategy(use_heuristic=True, use_regional=False,
                      use_incremental=False)


def run_undo(n: int, strategy: UndoStrategy):
    session = build_session(SEED, n, strategy)
    target = session.applied[0]
    report = session.engine.undo(target)
    return session, report


def test_e1_same_outcome_both_strategies():
    for n in (8, 16):
        s1, r1 = run_undo(n, PAPER)
        s2, r2 = run_undo(n, GLOBAL)
        names1 = sorted(s1.engine.history.by_stamp(x).name for x in r1.undone)
        names2 = sorted(s2.engine.history.by_stamp(x).name for x in r2.undone)
        assert names1 == names2
        assert s1.engine.source() == s2.engine.source()


def test_e1_scaling_table():
    banner("E1 — regional undo vs whole-program re-analysis "
           "(undo the first of n transformations)")
    t = REPORT.table(["n transforms", "regional checks", "global checks",
               "region skips", "work saved"],
                     title="E1 — undo-time safety checks, regional vs global")
    rows = []
    for n in SIZES:
        _s1, r1 = run_undo(n, PAPER)
        _s2, r2 = run_undo(n, GLOBAL)
        t.add(n, r1.work(), r2.work(), r1.region_skips,
              ratio(r2.work(), max(r1.work(), 1)))
        rows.append((n, r1.work(), r2.work(), r1.region_skips))
    t.show()
    REPORT.value("undo_work_saved_at_max",
                 round(rows[-1][2] / max(rows[-1][1], 1), 2))
    REPORT.value("region_skips_at_max", rows[-1][3])
    # shape: global work grows with n; regional work stays bounded
    assert rows[-1][2] > rows[0][2]
    assert rows[-1][1] <= rows[0][1] * 4
    assert rows[-1][3] > 0  # the space coordinate actually skipped work


def analysis_work(c) -> int:
    """Data-flow nodes visited, by from-scratch runs and regional
    updates alike, plus dependence pairs examined by from-scratch runs
    (E1c compares the regional dependence update's pairs)."""
    return c.dataflow_nodes + c.dataflow_update_nodes + c.dependence_pairs


def undo_analysis_work(n: int, strategy: UndoStrategy):
    """Analysis work (dataflow nodes + dependence pairs) performed while
    servicing one undo, excluding the session-construction work."""
    session = build_session(SEED, n, strategy)
    c = session.engine.cache.counters
    before = analysis_work(c)
    session.engine.undo(session.applied[0])
    return analysis_work(c) - before


def test_e1_incremental_analysis_work():
    banner("E1b — analysis work during undo: "
           "incremental/regional vs full re-analysis")
    t = REPORT.table(["n transforms", "paper config", "global baseline", "saved"],
                     title="E1b — analysis work during one undo")
    rows = []
    for n in (8, 16, 32, 64):
        inc = undo_analysis_work(n, PAPER)
        full = undo_analysis_work(n, GLOBAL)
        t.add(n, inc, full, ratio(full, max(inc, 1)))
        rows.append((inc, full))
    t.show()
    REPORT.value("analysis_work_saved_at_max",
                 round(rows[-1][1] / max(rows[-1][0], 1), 2))
    # never more work, and clearly less at scale
    assert all(inc <= full for inc, full in rows)
    assert rows[-1][0] < rows[-1][1]


def undo_update_timings(n: int, strategy_name: str):
    """(pairs examined, updates, cumulative update seconds) for one undo
    serviced under ``strategy_name``, plus the from-scratch comparison
    figures measured on the same session."""
    session = build_session(
        SEED, n, UndoStrategy(incremental_strategy=strategy_name))
    engine = session.engine
    cache = engine.cache
    graph = cache.dependences()  # materialize so the undo patches it
    c0 = cache.counters.snapshot()
    engine.undo(session.applied[0])
    c1 = cache.counters.snapshot()
    pairs = c1["incremental_pairs"] - c0["incremental_pairs"]
    updates = c1["incremental_updates"] - c0["incremental_updates"]
    secs = (c1["timers"].get("dependence_update", 0.0) -
            c0["timers"].get("dependence_update", 0.0))
    return pairs, updates, secs, graph.visited_pairs


def test_e1_measured_update_time():
    """E1c — the new wall-clock timers: regional vs full update strategy.

    The visited-pair columns are deterministic and asserted; the
    measured-time columns are reported (asserting on wall clock in CI
    would flake).
    """
    banner("E1c — measured dependence-update time: "
           "regional strategy vs from-scratch strategy")
    t = REPORT.table(["n transforms", "regional pairs", "full pairs",
               "pairs saved", "regional time", "full time"],
                     title="E1c — dependence-update cost, regional vs full")
    pairs_saved = 0.0
    for n in SIZES:
        rp, ru, rs, _ = undo_update_timings(n, REGIONAL)
        fp, fu, fs, _scratch = undo_update_timings(n, FULL)
        t.add(n, rp, fp, ratio(fp, max(rp, 1)), ms(rs), ms(fs))
        assert ru >= 1 and fu >= 1
        # the regional path must examine strictly fewer pairs per update
        assert rp / ru < fp / fu
        pairs_saved = fp / max(rp, 1)
    t.show()
    REPORT.value("update_pairs_saved_at_max", round(pairs_saved, 2))


def undo_dataflow_timings(n: int, strategy_name: str):
    """(facts computations, seconds) the data-flow facts cost while one
    undo is serviced under ``strategy_name``: regional updates carried
    forward from the previous facts, or from-scratch runs."""
    session = build_session(
        SEED, n, UndoStrategy(incremental_strategy=strategy_name))
    engine = session.engine
    cache = engine.cache
    cache.dataflow()  # materialize so the undo's reads patch it
    c0 = cache.counters.snapshot()
    engine.undo(session.applied[0])
    cache.dataflow()
    c1 = cache.counters.snapshot()
    key, count = (("dataflow_update", "dataflow_updates")
                  if strategy_name == REGIONAL
                  else ("dataflow", "dataflow_runs"))
    secs = c1["timers"].get(key, 0.0) - c0["timers"].get(key, 0.0)
    return c1[count] - c0[count], secs


def test_e1_measured_dataflow_update_time():
    """E1d — the data-flow facts after each undo step: carried forward
    regionally (only the blocks a changed block's facts flow into are
    re-solved) vs re-run from scratch.  Each side is the best of three
    sessions, so one descheduled run cannot decide the ratio."""
    banner("E1d — measured data-flow update time: "
           "regional strategy vs from-scratch strategy")
    t = REPORT.table(["n transforms", "regional updates", "full runs",
                      "regional ms/update", "full ms/run", "speedup"],
                     title="E1d — data-flow update cost, regional vs full")
    per_update = per_run = 0.0
    for n in SIZES:
        reg = min((undo_dataflow_timings(n, REGIONAL) for _ in range(3)),
                  key=lambda r: r[1] / max(r[0], 1))
        full = min((undo_dataflow_timings(n, FULL) for _ in range(3)),
                   key=lambda r: r[1] / max(r[0], 1))
        assert reg[0] >= 1 and full[0] >= 1
        per_update, per_run = reg[1] / reg[0], full[1] / full[0]
        t.add(n, reg[0], full[0], ms(per_update), ms(per_run),
              ratio(per_run, per_update))
    t.show()
    REPORT.value("dataflow_update_ms", round(1e3 * per_update, 3))
    REPORT.value("dataflow_full_ms", round(1e3 * per_run, 3))
    # gated by scripts/check_e10_gates.py: at the largest size, carrying
    # the facts forward must beat re-running the analysis
    REPORT.value("dataflow_update_speedup", round(per_run / per_update, 2))


def find_sweep_timings(n: int, steps: int = 6):
    """(sweeps, cached seconds, fresh seconds) of ``find`` over every
    kind along a refill/undo cascade: after each undo of the oldest
    active record, or refill of two applies, two sweeps (an ``opps``
    read and the ``apply`` that indexes it) through the engine's cached
    listings, against the same two sweeps on a cache without a log."""
    session = build_session(SEED, n)
    engine = session.engine
    program = engine.program
    kinds = sorted(engine.registry)
    sweeps = 0
    cached = fresh = 0.0
    for step in range(steps):
        active = engine.history.active()
        if step % 2 == 0 and active:
            engine.undo(active[0].stamp)
        else:
            apply_greedy(engine, 2, seed=SEED + step)
        for _ in range(2):
            start = time.perf_counter()
            got = [engine.find(k) for k in kinds]
            mid = time.perf_counter()
            cache = AnalysisCache(program)
            want = [engine.registry[k].find(program, cache) for k in kinds]
            cached += mid - start
            fresh += time.perf_counter() - mid
            assert [[o.description for o in opps] for opps in got] == \
                [[o.description for o in opps] for opps in want]
            sweeps += 1
    return sweeps, cached, fresh


def test_e1_measured_find_sweep_time():
    """E1e — ``find`` over every kind, served from the per-version
    listing and the event-maintained def/use index, vs a cache without
    a log (every analysis and the index built at the version).  Each
    side keeps the best of three cascades."""
    banner("E1e — measured find sweep time: cached listings vs a cache "
           "without a log")
    t = REPORT.table(["n transforms", "sweeps", "cached ms/sweep",
                      "fresh ms/sweep", "speedup"],
                     title="E1e — find sweep cost, cached vs fresh")
    per_cached = per_fresh = 0.0
    for n in SIZES:
        runs = [find_sweep_timings(n) for _ in range(3)]
        sweeps = runs[0][0]
        per_cached = min(r[1] for r in runs) / sweeps
        per_fresh = min(r[2] for r in runs) / sweeps
        t.add(n, sweeps, ms(per_cached), ms(per_fresh),
              ratio(per_fresh, per_cached))
    t.show()
    REPORT.value("find_sweep_cached_ms", round(1e3 * per_cached, 3))
    REPORT.value("find_sweep_fresh_ms", round(1e3 * per_fresh, 3))
    # gated by scripts/check_e10_gates.py: at the largest size, the
    # cached listings must beat finding on a cache without a log
    REPORT.value("find_speedup", round(per_fresh / per_cached, 2))


@pytest.mark.benchmark(group="e1")
@pytest.mark.parametrize("n", [8, 32])
def test_bench_undo_regional(benchmark, n):
    def run():
        return run_undo(n, PAPER)[1]

    report = benchmark(run)
    assert report.undone


@pytest.mark.benchmark(group="e1")
@pytest.mark.parametrize("n", [8, 32])
def test_bench_undo_global(benchmark, n):
    def run():
        return run_undo(n, GLOBAL)[1]

    report = benchmark(run)
    assert report.undone
