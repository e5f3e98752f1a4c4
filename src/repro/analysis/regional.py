"""Genuinely incremental, regional dependence analysis.

The from-scratch analysis (:func:`repro.analysis.depend.analyze_dependences`)
examines all O(n²) statement pairs.  After a change-event batch, almost
all of those pairs are provably unaffected: a dependence between two
statements depends only on the pair itself — their def/use sets, their
textual order, and their common enclosing-loop chain — never on the code
*between* them (defs are not killed; the analysis is all-pairs).  The
one exception is the I/O ordering chain, which couples textually
*adjacent* I/O statements and is therefore re-derived wholesale (it is
linear, never quadratic).

So an event batch can only change dependences whose endpoints are in the
**touched set**: every event statement plus its whole subtree (moving or
re-heading a loop changes the enclosing-loop chain — hence direction
vectors — of everything inside it).  This module

* maintains a persistent :class:`DefUseIndex` keyed by ``sid`` that
  change events update in place, mapping names to the statements that
  define/use them, so candidate mates for a touched statement are found
  without scanning the program;
* recomputes dependences for touched × candidate pairs only, through the
  same pair primitives the full analysis uses
  (:func:`~repro.analysis.depend.scalar_pair_deps`,
  :func:`~repro.analysis.depend.array_pair_deps`), which is what makes
  the incremental result *equal* to the from-scratch result — a property
  the test suite asserts after every event batch.

This is the Rosene-style incremental data-flow update ([15]) applied to
the pairwise dependence substrate, and the engine behind the paper's
§4.4 requirement that the line-13 "dependence and data flow update" be
regional rather than whole-program.  docs/PERFORMANCE.md derives the
complexity model and shows the measured effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.analysis.dataflow import FlowFacts, FlowUniverse, iter_bits
from repro.analysis.depend import (
    IO,
    Dependence,
    array_pair_deps,
    dedupe_deps,
    io_chain_deps,
    scalar_pair_deps,
    stmt_array_refs,
)
from repro.core.events import Event
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    DefUse,
    Expr,
    Loop,
    Program,
    Stmt,
    UnaryOp,
    VarRef,
    stmt_defuse,
)


def bitset_to_sids(bits: int) -> List[int]:
    """Decode a sid bitset (bit ``i`` set ⇔ sid ``i`` present), ascending."""
    return list(iter_bits(bits))


def subtree_sids(program: Program, sid: int) -> Set[int]:
    """``sid`` and every statement below it (attached or detached)."""
    if not program.has_node(sid):
        return set()
    out: Set[int] = set()
    stack: List[Stmt] = [program.node(sid)]
    while stack:
        s = stack.pop()
        out.add(s.sid)
        for slot in s.body_slots():
            stack.extend(s.get_body(slot))
    return out


def touched_statements(program: Program, events: Sequence[Event]) -> Set[int]:
    """Statements whose dependences an event batch may have changed.

    Every event statement's whole subtree is touched: relocating or
    re-heading a container changes the enclosing-loop chains (and hence
    the direction vectors) of everything inside it.  Container *owners*
    are included conservatively; untouched siblings are not — inserting
    or removing a statement does not alter the relative order or loop
    chains of the statements around it.
    """
    out: Set[int] = set()
    for ev in events:
        out |= subtree_sids(program, ev.sid)
        for ref in ev.containers:
            sid, _slot = ref
            if sid != 0 and program.has_node(sid):
                out.add(sid)
    return out


def _holds_const_binop(stmt: Stmt) -> bool:
    """Does ``stmt`` hold a ``Const op Const`` subexpression?"""
    stack: List[Expr] = [e for _slot, e in stmt.expr_slots()]
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is BinOp:
            if type(e.left) is Const and type(e.right) is Const:
                return True
            stack += (e.left, e.right)
        elif kind is ArrayRef:
            stack += e.subscripts
        elif kind is UnaryOp:
            stack.append(e.operand)
    return False


# ---------------------------------------------------------------------------
# The persistent def/use index
# ---------------------------------------------------------------------------


@dataclass
class StmtFacts:
    """Cached per-statement analysis facts."""

    sid: int
    du: DefUse
    #: the local data-flow facts, bits in the index's universe.
    flow: FlowFacts
    #: ``(name, ref, is_write)`` in source order within the statement.
    refs: List[Tuple[str, ArrayRef, bool]] = field(default_factory=list)


class DefUseIndex:
    """Name → statement index over the attached program, event-maintained.

    ``defs[name]`` / ``scalar_uses[name]`` hold the sids defining /
    using the scalar (``defs["@A"]`` the sids storing into array ``A``);
    ``arrays[name]`` the sids referencing the array.  All three map to
    int *bitsets* — bit ``i`` set means sid ``i`` is in the set (decode
    with :func:`bitset_to_sids`) — so candidate queries union
    word-at-a-time instead of element-at-a-time.  :meth:`refresh` keeps
    the maps consistent as statements are touched, so the index never
    has to be rebuilt after the first construction.

    Each statement's facts also carry its local data-flow facts, with
    bit positions from :attr:`universe`: the data-flow analyses read
    them here instead of re-deriving them per run.

    Three more sid bitsets bound the opportunity finders' scans:
    ``const_defs`` (``v = const``), ``copy_defs`` (``v = w``) and
    ``foldable`` (statements holding a ``Const op Const``).
    """

    def __init__(self) -> None:
        self.facts: Dict[int, StmtFacts] = {}
        self.defs: Dict[str, int] = {}
        self.scalar_uses: Dict[str, int] = {}
        self.arrays: Dict[str, int] = {}
        self.const_defs = 0
        self.copy_defs = 0
        self.foldable = 0
        self.universe = FlowUniverse()

    @classmethod
    def build(cls, program: Program) -> "DefUseIndex":
        """Index every attached statement (one O(n) scan)."""
        idx = cls()
        for s in program.walk():
            idx._add(s)
        return idx

    # -- maintenance -----------------------------------------------------------

    def _add(self, stmt: Stmt) -> None:
        du = stmt_defuse(stmt)
        flow = self.universe.facts(stmt, du)
        facts = StmtFacts(stmt.sid, du, flow, stmt_array_refs(stmt))
        self.facts[stmt.sid] = facts
        bit = 1 << stmt.sid
        if flow.def_name is not None:
            self.defs[flow.def_name] = self.defs.get(flow.def_name, 0) | bit
        for name in du.uses:
            self.scalar_uses[name] = self.scalar_uses.get(name, 0) | bit
        for name, _ref, _w in facts.refs:
            self.arrays[name] = self.arrays.get(name, 0) | bit
        if isinstance(stmt, Assign) and isinstance(stmt.target, VarRef):
            if isinstance(stmt.expr, Const):
                self.const_defs |= bit
            elif isinstance(stmt.expr, VarRef):
                self.copy_defs |= bit
        if _holds_const_binop(stmt):
            self.foldable |= bit

    def discard(self, sid: int) -> None:
        """Remove one statement from every map (no-op when absent)."""
        facts = self.facts.pop(sid, None)
        if facts is None:
            return
        mask = ~(1 << sid)
        name = facts.flow.def_name
        if name is not None:
            self.defs[name] &= mask
        for name in facts.du.uses:
            self.scalar_uses[name] = self.scalar_uses.get(name, 0) & mask
        for name, _ref, _w in facts.refs:
            self.arrays[name] = self.arrays.get(name, 0) & mask
        self.const_defs &= mask
        self.copy_defs &= mask
        self.foldable &= mask

    def refresh(self, program: Program, sids: Iterable[int]) -> None:
        """Re-derive the facts of ``sids`` from the current program.

        Detached statements drop out of the index; attached ones are
        re-scanned (idempotent, O(|sids|))."""
        for sid in sids:
            self.discard(sid)
            if program.has_node(sid) and program.is_attached(sid):
                self._add(program.node(sid))

    # -- per-statement and candidate queries -------------------------------------

    def du(self, stmt: Stmt) -> DefUse:
        """``stmt``'s def/use sets: held ones from the index, a statement
        it does not hold (detached, or never registered) derived fresh."""
        facts = self.facts.get(stmt.sid)
        return facts.du if facts is not None else stmt_defuse(stmt)

    def readers_of(self, def_bits: int) -> Tuple[int, Set[str]]:
        """``(readers, names)``: the names the statements in ``def_bits``
        define, and the bitset of statements using any of them."""
        names = {self.facts[sid].flow.def_name for sid in iter_bits(def_bits)}
        readers = 0
        for name in names:
            readers |= self.scalar_uses.get(name, 0)
        return readers, names

    def scalar_candidates(self, sid: int) -> int:
        """Bitset of statements that could share a scalar dependence.

        A pair generates a dependence only when a def meets a def or a
        use on the same name, so use-use overlap is never a candidate.
        """
        facts = self.facts.get(sid)
        if facts is None:
            return 0
        out = 0
        for name in facts.du.defs:
            out |= self.defs.get(name, 0)
            out |= self.scalar_uses.get(name, 0)
        for name in facts.du.uses:
            out |= self.defs.get(name, 0)
        return out

    def array_candidates(self, sid: int) -> int:
        """Bitset of statements referencing an array ``sid`` references."""
        facts = self.facts.get(sid)
        if facts is None:
            return 0
        out = 0
        for name, _ref, _w in facts.refs:
            out |= self.arrays.get(name, 0)
        return out


# ---------------------------------------------------------------------------
# The regional analysis
# ---------------------------------------------------------------------------


@dataclass
class RegionalResult:
    """Outcome of one regional recomputation."""

    #: freshly derived dependences: every edge with a touched endpoint,
    #: plus the whole (re-derived) I/O chain.
    deps: List[Dependence]
    #: pairs actually examined — the honest work counter.
    visited_pairs: int
    #: sids attached at analysis time (for filtering kept edges).
    live: Set[int]
    #: the touched set the analysis used.
    touched: Set[int]


def analyze_dependences_region(program: Program, touched: Set[int],
                               index: DefUseIndex) -> RegionalResult:
    """Recompute dependences for pairs with an endpoint in ``touched``.

    Uses the def/use index to enumerate only pairs that share a name, and
    the same pair primitives as the full analysis, so splicing the result
    over the edges kept from the previous graph reproduces the
    from-scratch graph exactly.  ``visited_pairs`` counts the pairs
    examined (scalar statement pairs + same-array reference pairs),
    directly comparable to ``DependenceGraph.visited_pairs`` of a full
    run.
    """
    stmts = list(program.walk())
    pos = {s.sid: i for i, s in enumerate(stmts)}
    live = set(pos)
    live_bits = 0
    for sid in live:
        live_bits |= 1 << sid
    touched_live = [sid for sid in touched if sid in live]
    touched_live.sort(key=pos.__getitem__)

    loops_cache: Dict[int, List[Loop]] = {}

    def loops_of(sid: int) -> List[Loop]:
        got = loops_cache.get(sid)
        if got is None:
            got = loops_cache[sid] = program.enclosing_loops(sid)
        return got

    def common_loops(a: int, b: int) -> List[Loop]:
        out: List[Loop] = []
        for x, y in zip(loops_of(a), loops_of(b)):
            if x.sid == y.sid:
                out.append(x)
            else:
                break
        return out

    deps: List[Dependence] = []
    visited = 0

    # ---- scalar pairs: touched × index candidates ---------------------------
    done: Set[Tuple[int, int]] = set()
    for t in touched_live:
        # the self pair (loop-carried self dependences) rides along
        cands = (index.scalar_candidates(t) | (1 << t)) & live_bits
        for c in iter_bits(cands):
            a, b = (t, c) if pos[t] <= pos[c] else (c, t)
            if (a, b) in done:
                continue
            done.add((a, b))
            visited += 1
            na, nb = program.node(a), program.node(b)
            deps.extend(scalar_pair_deps(
                na, index.facts[a].du, nb, index.facts[b].du,
                common_loops(a, b)))

    # ---- array reference pairs: touched × same-array candidates --------------
    done_refs: Set[Tuple[int, int, int, int]] = set()
    for t in touched_live:
        for ia, (na_, ra, wa) in enumerate(index.facts[t].refs):
            for c in iter_bits(index.array_candidates(t) & live_bits):
                for ib, (nb_, rb, wb) in enumerate(index.facts[c].refs):
                    if na_ != nb_ or not (wa or wb):
                        continue
                    # order the pair as the full enumeration would:
                    # by statement position, then reference position.
                    if (pos[t], ia) <= (pos[c], ib):
                        key = (t, ia, c, ib)
                        args = (t, ra, wa, c, rb, wb)
                    else:
                        key = (c, ib, t, ia)
                        args = (c, rb, wb, t, ra, wa)
                    if key in done_refs:
                        continue
                    done_refs.add(key)
                    visited += 1
                    sa, xra, xwa, sb, xrb, xwb = args
                    deps.extend(array_pair_deps(
                        sa, xra, xwa, sb, xrb, xwb,
                        sa == sb and xra is xrb,
                        common_loops(sa, sb), pos))

    # ---- the I/O chain: linear, re-derived wholesale -------------------------
    io_sids = [s.sid for s in stmts
               if s.sid in index.facts and index.facts[s.sid].du.is_io]
    deps.extend(io_chain_deps(io_sids, loops_of, common_loops))

    return RegionalResult(dedupe_deps(deps), visited, live, set(touched))


def splice_dependences(old_deps: Sequence[Dependence],
                       result: RegionalResult) -> List[Dependence]:
    """Merge kept edges with the regional result.

    Keeps every old edge whose endpoints are both untouched and still
    attached (excluding the I/O chain, which the result re-derived
    wholesale); the regional edges supply everything else.  The two sets
    are disjoint by construction, so no dedupe pass is needed.
    """
    kept = [d for d in old_deps
            if d.kind != IO
            and d.src not in result.touched and d.dst not in result.touched
            and d.src in result.live and d.dst in result.live]
    return result.deps + kept
