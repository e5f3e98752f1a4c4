"""Data-dependence summaries on region nodes (the paper's Figure 3).

Each data dependence is summarized on the **least common region node**
(LCR) of its source and sink.  The summaries let the system answer
region-level questions without visiting the statements below:

* *"can these two loops be fused?"* — check only the inter-region
  dependences summarized on the loops' LCR (Figure 3's ``d2`` on ``R1``),
  instead of scanning every node under both loops;
* *"which regions are affected by this change?"* — dependences whose
  summary sits on (an ancestor of) a dirty region show where effects
  propagate.

Both the summary-based and the exhaustive query paths are instrumented
with node-visit counters, which benchmark ``bench_fig3`` compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.control_dep import ControlDepTree, build_control_dep_tree
from repro.analysis.depend import Dependence, DependenceGraph, analyze_dependences
from repro.lang.ast_nodes import Loop, Program


@dataclass
class RegionSummaries:
    """Dependence summaries keyed by region id.

    Besides the region buckets, three auxiliary maps make the summaries
    *patchable*: ``_rid_of`` remembers where each dependence was
    summarized, ``_by_stmt`` buckets dependences by endpoint (so the
    edges invalidated by a touched statement are found without scanning
    every region), and ``_io`` tracks the I/O chain, which incremental
    updates re-derive wholesale.
    """

    tree: ControlDepTree
    #: region id → dependences whose LCR is that region.
    by_region: Dict[int, List[Dependence]] = field(default_factory=dict)
    #: instrumentation: nodes visited by summary-based queries.
    visits_summary: int = 0
    #: instrumentation: nodes visited by exhaustive queries.
    visits_exhaustive: int = 0
    #: dependence → region it is summarized on.
    _rid_of: Dict[Dependence, int] = field(default_factory=dict)
    #: endpoint sid → dependences touching it.
    _by_stmt: Dict[int, Set[Dependence]] = field(default_factory=dict)
    #: the currently summarized I/O-chain dependences.
    _io: Set[Dependence] = field(default_factory=set)

    def deps_on(self, rid: int) -> List[Dependence]:
        """Dependences summarized on region ``rid``."""
        return list(self.by_region.get(rid, ()))

    # -- incremental maintenance ----------------------------------------------

    def add_dep(self, d: Dependence, rid: int) -> None:
        """Summarize ``d`` on region ``rid`` (no-op when already there)."""
        if d in self._rid_of:
            return
        self.by_region.setdefault(rid, []).append(d)
        self._rid_of[d] = rid
        self._by_stmt.setdefault(d.src, set()).add(d)
        self._by_stmt.setdefault(d.dst, set()).add(d)
        if d.kind == "io":
            self._io.add(d)

    def discard_dep(self, d: Dependence) -> None:
        """Remove ``d`` from every map (no-op when absent)."""
        rid = self._rid_of.pop(d, None)
        if rid is None:
            return
        bucket = self.by_region.get(rid)
        if bucket is not None and d in bucket:
            bucket.remove(d)
            if not bucket:
                del self.by_region[rid]
        for sid in (d.src, d.dst):
            deps = self._by_stmt.get(sid)
            if deps is not None:
                deps.discard(d)
                if not deps:
                    del self._by_stmt[sid]
        self._io.discard(d)

    # -- Figure 3's motivating query -----------------------------------------

    def fusion_blockers_via_summary(self, program: Program,
                                    l1: Loop, l2: Loop) -> List[Dependence]:
        """Inter-loop dependences found by checking only the LCR summary.

        Visits one region node plus its summarized dependence list — never
        the statements under the loops.
        """
        rid = self.tree.lcr(l1.sid, l2.sid)
        self.visits_summary += 1
        under1 = set(self.tree.stmts_under(self._body_region(l1)))
        under2 = set(self.tree.stmts_under(self._body_region(l2)))
        out = []
        for d in self.by_region.get(rid, ()):
            self.visits_summary += 1
            if (d.src in under1 and d.dst in under2) or (
                    d.src in under2 and d.dst in under1):
                out.append(d)
        return out

    def fusion_blockers_exhaustive(self, program: Program, dgraph: DependenceGraph,
                                   l1: Loop, l2: Loop) -> List[Dependence]:
        """The same query by scanning all statements under both loops."""
        under1: Set[int] = set()
        under2: Set[int] = set()
        for rid_set, loop in ((under1, l1), (under2, l2)):
            stack = [loop]
            while stack:
                s = stack.pop()
                self.visits_exhaustive += 1
                if s is not loop:
                    rid_set.add(s.sid)
                for slot in s.body_slots():
                    stack.extend(s.get_body(slot))
        out = []
        for d in dgraph.deps:
            self.visits_exhaustive += 1
            if (d.src in under1 and d.dst in under2) or (
                    d.src in under2 and d.dst in under1):
                out.append(d)
        return out

    def _body_region(self, loop: Loop) -> int:
        return self.tree.by_owner.get((loop.sid, "loop_body"), 0)


def build_summaries(program: Program,
                    tree: Optional[ControlDepTree] = None,
                    dgraph: Optional[DependenceGraph] = None) -> RegionSummaries:
    """Summarize every dependence on the LCR of its endpoints."""
    if tree is None:
        tree = build_control_dep_tree(program)
    if dgraph is None:
        dgraph = analyze_dependences(program)
    out = RegionSummaries(tree=tree)
    for d in dgraph.deps:
        if d.src not in tree.region_of or d.dst not in tree.region_of:
            continue
        out.add_dep(d, tree.lcr(d.src, d.dst))
    return out


def update_summaries(summ: RegionSummaries, program: Program,
                     tree: ControlDepTree, touched: Set[int],
                     dgraph: DependenceGraph) -> RegionSummaries:
    """Patch ``summ`` in place after a change-event batch.

    ``tree`` must be the *in-place patched* control tree the summaries
    were built over (untouched region ids preserved — that is what keeps
    the untouched buckets valid), and ``dgraph`` the already-updated
    dependence graph.  Only dependences with a touched endpoint, plus
    the wholesale-re-derived I/O chain, are re-hung on their (possibly
    new) LCR; everything else stays where it is.
    """
    summ.tree = tree
    # 1. drop what the events may have invalidated
    stale = set(summ._io)
    for sid in touched:
        stale.update(summ._by_stmt.get(sid, ()))
    for d in stale:
        summ.discard_dep(d)
    # 2. re-hang the current edges of touched statements + the I/O chain
    fresh: Set[Dependence] = set()
    for sid in touched:
        fresh.update(dgraph.from_stmt(sid))
        fresh.update(dgraph.to_stmt(sid))
    for d in dgraph.deps:
        if d.kind == "io":
            fresh.add(d)
    for d in fresh:
        if d.src in tree.region_of and d.dst in tree.region_of:
            summ.add_dep(d, tree.lcr(d.src, d.dst))
    return summ
