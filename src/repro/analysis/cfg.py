"""Control-flow graph construction and dominators.

The language is structured, so the CFG is derived directly from the AST:

* maximal runs of simple statements (assign/read/write) form basic blocks;
* a ``do`` loop contributes a *header* block (evaluating the bounds and
  the iteration test) with edges to the body and to the fall-through
  successor, and a back edge from the body's exit;
* an ``if`` contributes a *condition* block with edges to the two
  branches, which re-join at the successor.

Dominators are computed with the standard iterative data-flow algorithm;
they back the legality checks of CSE and invariant code motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang.ast_nodes import (
    Assign,
    IfStmt,
    Loop,
    ParSections,
    Program,
    ReadStmt,
    Stmt,
    WriteStmt,
)

#: Simple (non-compound) statement types that live inside basic blocks.
SIMPLE = (Assign, ReadStmt, WriteStmt)


@dataclass
class BasicBlock:
    """One CFG node.

    ``kind`` is ``"entry"``, ``"exit"``, ``"block"`` (straight-line code),
    ``"loop"`` (a loop header; ``stmts`` holds the loop's sid), or
    ``"cond"`` (an if condition; ``stmts`` holds the if's sid).

    ``key`` names the block by the statements that shape it rather than
    by construction order, so the blocks of two CFGs of one program can
    be matched across a change: ``(kind, sid)`` for a header or for a
    straight-line run starting at ``sid``, ``("join", sid)`` for the
    join after an if or a parallel-sections statement, and ``(kind,)``
    for the entry and the exit.

    ``unit`` is the bid of the outermost loop header the block belongs
    to (the header's own, for a top-level header), or the block's own
    bid outside every loop: the structured CFG's strongly connected
    components.
    """

    bid: int
    kind: str
    stmts: List[int] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    key: Tuple = ()
    unit: int = -1


class CFG:
    """A control-flow graph over statement sids."""

    def __init__(self) -> None:
        self.blocks: Dict[int, BasicBlock] = {}
        self.entry: int = -1
        self.exit: int = -1
        self._next = 0
        #: sid → block id containing it.
        self.block_of: Dict[int, int] = {}
        #: every block in program order: each edge but a loop's back
        #: edge goes from an earlier block to a later one, and a loop's
        #: blocks are contiguous, header first.
        self.order: List[int] = []
        self._components: Optional[List[Tuple[int, ...]]] = None
        self._dominators: Optional[Dict[int, Set[int]]] = None

    # -- construction ----------------------------------------------------------

    def new_block(self, kind: str, key: Tuple = (),
                  unit: Optional[int] = None,
                  ordered: bool = True) -> BasicBlock:
        """Create and register a fresh basic block of ``kind``
        (``ordered=False``: the caller appends it to :attr:`order`)."""
        b = BasicBlock(self._next, kind, key=key or (kind,))
        b.unit = b.bid if unit is None else unit
        self._next += 1
        self.blocks[b.bid] = b
        if ordered:
            self.order.append(b.bid)
        return b

    def add_edge(self, a: int, b: int) -> None:
        """Add the control-flow edge ``a → b`` (idempotent)."""
        if b not in self.blocks[a].succs:
            self.blocks[a].succs.append(b)
        if a not in self.blocks[b].preds:
            self.blocks[b].preds.append(a)

    def place(self, block: BasicBlock, sid: int) -> None:
        """Record that statement ``sid`` lives in ``block``."""
        block.stmts.append(sid)
        self.block_of[sid] = block.bid

    # -- queries --------------------------------------------------------------------

    def rpo(self) -> List[int]:
        """Reverse postorder from the entry block."""
        seen: Set[int] = set()
        order: List[int] = []

        def dfs(b: int) -> None:
            seen.add(b)
            for s in self.blocks[b].succs:
                if s not in seen:
                    dfs(s)
            order.append(b)

        dfs(self.entry)
        order.reverse()
        return order

    def components(self) -> List[Tuple[int, ...]]:
        """The strongly connected components, in :attr:`order`: each
        outermost loop's blocks, and each block outside every loop."""
        if self._components is None:
            out: List[Tuple[int, ...]] = []
            run: List[int] = []
            for bid in self.order:
                if run and self.blocks[bid].unit != self.blocks[run[0]].unit:
                    out.append(tuple(run))
                    run = []
                run.append(bid)
            out.append(tuple(run))
            self._components = out
        return self._components

    def dominators(self) -> Dict[int, Set[int]]:
        """Map block id → set of blocks dominating it (inclusive)."""
        if self._dominators is not None:
            return self._dominators
        all_ids = set(self.blocks)
        dom: Dict[int, Set[int]] = {b: set(all_ids) for b in all_ids}
        dom[self.entry] = {self.entry}
        order = self.rpo()
        changed = True
        while changed:
            changed = False
            for b in order:
                if b == self.entry:
                    continue
                preds = self.blocks[b].preds
                if preds:
                    new = set.intersection(*(dom[p] for p in preds))
                else:
                    new = set()
                new.add(b)
                if new != dom[b]:
                    dom[b] = new
                    changed = True
        self._dominators = dom
        return dom

    def dominates(self, a_sid: int, b_sid: int) -> bool:
        """True when statement ``a`` dominates statement ``b``.

        Within a block, earlier statements dominate later ones.
        """
        ba = self.block_of.get(a_sid)
        bb = self.block_of.get(b_sid)
        if ba is None or bb is None:
            return False
        if ba == bb:
            stmts = self.blocks[ba].stmts
            return stmts.index(a_sid) <= stmts.index(b_sid)
        return ba in self.dominators()[bb]

    def statements(self) -> List[int]:
        """All sids placed in the CFG, in block order."""
        out: List[int] = []
        for bid in sorted(self.blocks):
            out.extend(self.blocks[bid].stmts)
        return out


def build_cfg(program: Program) -> CFG:
    """Construct the CFG of ``program``."""
    cfg = CFG()
    entry = cfg.new_block("entry")
    cfg.entry = entry.bid
    exit_b = cfg.new_block("exit", ordered=False)
    cfg.exit = exit_b.bid

    def build_list(stmts: Sequence[Stmt], pred: int,
                   unit: Optional[int] = None) -> int:
        """Wire ``stmts`` after block ``pred``; return the last block id.
        ``unit``: the outermost enclosing loop header, if any."""
        current = pred
        open_block: Optional[BasicBlock] = None
        for s in stmts:
            if isinstance(s, SIMPLE):
                if open_block is None:
                    open_block = cfg.new_block("block", ("block", s.sid),
                                               unit)
                    cfg.add_edge(current, open_block.bid)
                    current = open_block.bid
                cfg.place(open_block, s.sid)
                continue
            open_block = None
            if isinstance(s, Loop):
                header = cfg.new_block("loop", ("loop", s.sid), unit)
                cfg.place(header, s.sid)
                cfg.add_edge(current, header.bid)
                body_end = build_list(s.body, header.bid, header.unit)
                cfg.add_edge(body_end, header.bid)  # back edge
                current = header.bid  # fall-through leaves via the header
            elif isinstance(s, ParSections):
                # canonical sequential schedule: sections wired in source
                # order (interleavings are the scheduled interpreter's job)
                header = cfg.new_block("par", ("par", s.sid), unit)
                cfg.place(header, s.sid)
                cfg.add_edge(current, header.bid)
                cur = header.bid
                for sec in s.sections:
                    cur = build_list(sec, cur, unit)
                join = cfg.new_block("block", ("join", s.sid), unit)
                cfg.add_edge(cur, join.bid)
                current = join.bid
            elif isinstance(s, IfStmt):
                cond = cfg.new_block("cond", ("cond", s.sid), unit)
                cfg.place(cond, s.sid)
                cfg.add_edge(current, cond.bid)
                join = cfg.new_block("block", ("join", s.sid), unit,
                                     ordered=False)
                then_end = build_list(s.then_body, cond.bid, unit)
                cfg.add_edge(then_end, join.bid)
                if s.else_body:
                    else_end = build_list(s.else_body, cond.bid, unit)
                    cfg.add_edge(else_end, join.bid)
                else:
                    cfg.add_edge(cond.bid, join.bid)
                cfg.order.append(join.bid)
                current = join.bid
            else:  # pragma: no cover - grammar is closed
                raise TypeError(f"unknown statement {s!r}")
        return current

    last = build_list(program.body, entry.bid)
    cfg.add_edge(last, exit_b.bid)
    cfg.order.append(exit_b.bid)
    return cfg
