"""F3 — Figure 3: data-dependence summaries on region nodes.

The paper's claim: with each dependence summarized on the least common
region node of its endpoints, "it can be determined whether the two
loops ... can be fused by checking only the inter-region data dependence
(i.e. d2) on R1 ... without visiting all nodes under the two loops."

We verify the summary-based fusion check returns exactly the exhaustive
result, then sweep the loop-body size and report how the node-visit
counts diverge: the exhaustive path grows with the bodies, the summary
path does not.
"""

import pytest

from repro.analysis.depend import analyze_dependences
from repro.analysis.summaries import build_summaries
from repro.bench.reporting import BenchReport, banner, ms, ratio, scaled
from repro.workloads.kernels import figure3_program
from repro.workloads.scenarios import build_session

REPORT = BenchReport("bench_fig3_summaries")

SIZES = scaled([1, 2, 4, 8, 16, 32])


def check_pair(p, summ, dgraph, exhaustive: bool):
    l1, l2 = p.body[0], p.body[1]
    if exhaustive:
        return summ.fusion_blockers_exhaustive(p, dgraph, l1, l2)
    return summ.fusion_blockers_via_summary(p, l1, l2)


def test_summary_equals_exhaustive_all_sizes():
    for n in SIZES:
        p = figure3_program(body_stmts=n)
        g = analyze_dependences(p)
        summ = build_summaries(p, dgraph=g)
        key = lambda d: (d.src, d.dst, d.kind, d.var)
        a = sorted(map(key, check_pair(p, summ, g, exhaustive=False)))
        b = sorted(map(key, check_pair(p, summ, g, exhaustive=True)))
        assert a == b, f"divergence at body size {n}"


def test_figure3_visit_scaling():
    banner("Figure 3 — region-summary fusion check vs full node scan")
    t = REPORT.table(["body stmts", "summary visits", "exhaustive visits",
               "savings"],
                     title="Figure 3 — fusion check, summaries vs full scan")
    rows = []
    for n in SIZES:
        p = figure3_program(body_stmts=n)
        g = analyze_dependences(p)
        summ = build_summaries(p, dgraph=g)
        check_pair(p, summ, g, exhaustive=False)
        sv = summ.visits_summary
        summ.visits_summary = 0
        check_pair(p, summ, g, exhaustive=True)
        ev = summ.visits_exhaustive
        t.add(n, sv, ev, ratio(ev, max(sv, 1)))
        rows.append((n, sv, ev))
    t.show()
    # exhaustive grows with body size, summary-based stays bounded by the
    # (constant) number of root-level dependences
    assert rows[-1][2] > 4 * rows[0][2]
    assert rows[-1][1] <= 3 * rows[0][1]
    assert rows[-1][1] < rows[-1][2]
    REPORT.value("summary_visits_saved_at_max",
                 round(rows[-1][2] / max(rows[-1][1], 1), 2))


def test_inter_region_dependence_summarised_on_lcr():
    # the figure's d2 (A produced in loop 1, consumed in loop 2) sits on
    # R1 = the loops' least common region (the program root here)
    p = figure3_program(body_stmts=2)
    summ = build_summaries(p)
    lcr = summ.tree.lcr(p.body[0].sid, p.body[1].sid)
    assert any(d.var == "A" for d in summ.deps_on(lcr))


def test_summaries_maintained_incrementally():
    """F3b — summaries are patched across undos, not rebuilt.

    The region summaries survive an undo (same object, patched in place
    on their first read after it: once, over every step of the
    cascade), and the measured patch time is reported next to the initial
    build time via the new ``WorkCounters`` timers.
    """
    banner("Figure 3b — incremental summary maintenance across undos")
    t = REPORT.table(["n transforms", "summary updates", "rebuilds",
               "build time", "update time"],
                     title="Figure 3b — incremental summary maintenance")
    updates = 0
    for n in (8, 16):
        session = build_session(7, n)
        engine = session.engine
        cache = engine.cache
        summ = cache.summaries()  # materialize (also builds tree + deps)
        engine.undo(session.applied[0])
        # the first read after the undo patches the same summaries
        # object, never rebuilds it
        assert cache.summaries() is summ
        snap = cache.counters.snapshot()
        assert snap["summary_updates"] >= 1
        t.add(n, snap["summary_updates"], 0,
              ms(snap["timers"].get("summaries_build", 0.0)),
              ms(snap["timers"].get("summaries_update", 0.0)))
        updates = snap["summary_updates"]
    t.show()
    REPORT.value("summary_updates_at_max", updates)
    REPORT.value("summary_rebuilds_at_max", 0)


@pytest.mark.benchmark(group="fig3")
@pytest.mark.parametrize("n", [4, 16])
def test_bench_fusion_check_summary(benchmark, n):
    p = figure3_program(body_stmts=n)
    g = analyze_dependences(p)
    summ = build_summaries(p, dgraph=g)
    out = benchmark(check_pair, p, summ, g, False)
    assert isinstance(out, list)


@pytest.mark.benchmark(group="fig3")
@pytest.mark.parametrize("n", [4, 16])
def test_bench_fusion_check_exhaustive(benchmark, n):
    p = figure3_program(body_stmts=n)
    g = analyze_dependences(p)
    summ = build_summaries(p, dgraph=g)
    out = benchmark(check_pair, p, summ, g, True)
    assert isinstance(out, list)
