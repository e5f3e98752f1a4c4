"""Classical iterative data-flow analyses at statement granularity.

Provides the flow facts the transformations' preconditions and the undo
engine's safety re-checks need:

* **Reaching definitions** (forward, may) — constant/copy propagation
  legality, def-use chains.
* **Liveness** (backward, may) — dead-code elimination legality.
* **Available expressions** (forward, must) — common-subexpression
  elimination legality.

Scalars are tracked precisely; arrays are tracked at array granularity
(an element store *generates* a definition but kills nothing; an element
load uses the whole array).  Subscript-precise reasoning lives in
:mod:`repro.analysis.depend`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.cfg import CFG, build_cfg
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Const,
    Expr,
    IfStmt,
    Loop,
    Program,
    ReadStmt,
    Stmt,
    VarRef,
    WriteStmt,
    stmt_defuse,
)

#: A definition: (sid, name).  Array names are prefixed with ``"@"``.
Definition = Tuple[int, str]


def _aname(name: str) -> str:
    return "@" + name


class BitsetFacts(Mapping):
    """Read-only ``sid → frozenset`` view over per-statement bitsets
    (bit ``i`` ↔ ``universe[i]``), decoded per sid on first read and
    memoised: consumers read a few sids per run, not every statement."""

    def __init__(self, bits: Dict[int, int], universe: Sequence) -> None:
        self._bits = bits
        self._universe = universe
        self._decoded: Dict[int, FrozenSet] = {}

    def __getitem__(self, sid: int) -> FrozenSet:
        out = self._decoded.get(sid)
        if out is None:
            universe = self._universe
            out = frozenset(universe[i] for i in iter_bits(self._bits[sid]))
            self._decoded[sid] = out
        return out

    def __contains__(self, sid: object) -> bool:
        return sid in self._bits

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __len__(self) -> int:
        return len(self._bits)


@dataclass
class DataflowResult:
    """All flow facts for one program snapshot."""

    cfg: CFG
    #: definitions reaching the *entry* of each statement.
    reach_in: Mapping[int, FrozenSet[Definition]]
    #: scalar/array names live *after* each statement.
    live_out: Mapping[int, FrozenSet[str]]
    #: available expression keys at the entry of each statement.
    avail_in: Mapping[int, FrozenSet[Tuple]]
    #: def-use chains: definition → sids of statements using it.
    du_chains: Dict[Definition, FrozenSet[int]]
    #: use-def chains: (use sid, name) → sids of reaching definitions.
    ud_chains: Dict[Tuple[int, str], FrozenSet[int]]
    #: nodes visited while computing (instrumentation).
    visited_nodes: int = 0

    # -- convenience queries -------------------------------------------------

    def is_dead(self, sid: int, name: str) -> bool:
        """True when the value defined for ``name`` at ``sid`` has no use."""
        return not self.du_chains.get((sid, name), frozenset())

    def sole_reaching_def(self, use_sid: int, name: str) -> Optional[int]:
        """The unique definition reaching a use, or ``None``."""
        defs = self.ud_chains.get((use_sid, name), frozenset())
        if len(defs) == 1:
            return next(iter(defs))
        return None


def _stmt_facts(stmt: Stmt) -> Tuple[Set[str], Set[str]]:
    """(names defined, names used) with array names ``@``-prefixed."""
    du = stmt_defuse(stmt)
    defs = set(du.defs) | {_aname(a) for a in du.array_defs}
    uses = set(du.uses) | {_aname(a) for a in du.array_uses}
    return defs, uses


def expr_key(e: Expr) -> Optional[Tuple]:
    """Canonical hashable key for simple binary expressions.

    Only ``var/const op var/const`` shapes participate in availability —
    the shape Table 2's CSE pattern requires (``B op C``).  Returns
    ``None`` for anything else.
    """
    if not isinstance(e, BinOp):
        return None

    def leaf(x: Expr):
        if isinstance(x, VarRef):
            return ("v", x.name)
        if isinstance(x, Const):
            return ("c", x.value)
        return None

    l = leaf(e.left)
    r = leaf(e.right)
    if l is None or r is None:
        return None
    return (e.op, l, r)


def _expr_operand_names(key: Tuple) -> Set[str]:
    out = set()
    for tag, val in (key[1], key[2]):
        if tag == "v":
            out.add(val)
    return out


def iter_bits(bits: int):
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits &= bits - 1


def analyze_dataflow(program: Program, cfg: Optional[CFG] = None) -> DataflowResult:
    """Run all three analyses and build the chains.

    The fixpoints run on int bitsets — one bit per definition, name, or
    expression key, so a block transfer is a few machine-word bitwise
    operations instead of Python set churn.  The per-statement facts
    stay bitsets behind :class:`BitsetFacts`, which hands each sid out
    as a frozenset only when it is read.
    """
    if cfg is None:
        cfg = build_cfg(program)
    visited = 0

    # ---- collect per-statement local facts, in block order -----------------
    stmt_defs: Dict[int, Set[str]] = {}
    stmt_uses: Dict[int, Set[str]] = {}
    order_sids = cfg.statements()
    for sid in order_sids:
        s = program.node(sid)
        d, u = _stmt_facts(s)
        stmt_defs[sid] = d
        stmt_uses[sid] = u

    # ---- bit universe: one bit per definition ------------------------------
    def_list: List[Definition] = []
    def_bit: Dict[Definition, int] = {}
    name_mask: Dict[str, int] = {}  # name -> bits of every def of it
    for sid in order_sids:
        for name in stmt_defs[sid]:
            dfn = (sid, name)
            bit = 1 << len(def_list)
            def_bit[dfn] = bit
            def_list.append(dfn)
            name_mask[name] = name_mask.get(name, 0) | bit

    # ---- reaching definitions (forward, union) ------------------------------
    gen: Dict[int, int] = {}
    kill: Dict[int, int] = {}
    for bid, block in cfg.blocks.items():
        g = 0
        k = 0
        for sid in block.stmts:
            for name in stmt_defs[sid]:
                if not name.startswith("@"):
                    # a scalar def kills all other defs of the name
                    mask = name_mask[name]
                    k |= mask
                    g &= ~mask
                g |= def_bit[(sid, name)]
        gen[bid] = g
        kill[bid] = k & ~g

    rd_in: Dict[int, int] = {b: 0 for b in cfg.blocks}
    rd_out: Dict[int, int] = {b: gen[b] for b in cfg.blocks}
    work = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in work:
            visited += 1
            block = cfg.blocks[bid]
            new_in = 0
            for p in block.preds:
                new_in |= rd_out[p]
            new_out = gen[bid] | (new_in & ~kill[bid])
            if new_in != rd_in[bid] or new_out != rd_out[bid]:
                rd_in[bid] = new_in
                rd_out[bid] = new_out
                changed = True

    # statement-level reach-in by walking each block
    reach_bits: Dict[int, int] = {}
    for bid, block in cfg.blocks.items():
        cur = rd_in[bid]
        for sid in block.stmts:
            visited += 1
            reach_bits[sid] = cur
            for name in stmt_defs[sid]:
                if not name.startswith("@"):
                    cur &= ~name_mask[name]
                cur |= def_bit[(sid, name)]

    # ---- chains ------------------------------------------------------------------
    du: Dict[Definition, Set[int]] = {}
    ud: Dict[Tuple[int, str], Set[int]] = {}
    for sid in order_sids:
        for name in stmt_uses[sid]:
            bits = reach_bits[sid] & name_mask.get(name, 0)
            if bits:
                reaching = [def_list[i] for i in iter_bits(bits)]
                ud[(sid, name)] = {d[0] for d in reaching}
                for d in reaching:
                    du.setdefault(d, set()).add(sid)

    # ---- liveness (backward, union): one bit per name ----------------------------
    names: List[str] = sorted(
        {n for sid in order_sids
         for n in stmt_defs[sid] | stmt_uses[sid]})
    nbit = {n: 1 << i for i, n in enumerate(names)}
    scalar_mask = 0
    for n in names:
        if not n.startswith("@"):
            scalar_mask |= nbit[n]

    def _names_bits(ns: Set[str]) -> int:
        acc = 0
        for n in ns:
            acc |= nbit[n]
        return acc

    defs_bits = {sid: _names_bits(stmt_defs[sid]) for sid in order_sids}
    uses_bits = {sid: _names_bits(stmt_uses[sid]) for sid in order_sids}

    use_b: Dict[int, int] = {}
    def_b: Dict[int, int] = {}
    for bid, block in cfg.blocks.items():
        u = 0
        d = 0
        for sid in block.stmts:
            u |= uses_bits[sid] & ~d
            d |= defs_bits[sid] & scalar_mask
        use_b[bid] = u
        def_b[bid] = d

    lv_in: Dict[int, int] = {b: 0 for b in cfg.blocks}
    lv_out: Dict[int, int] = {b: 0 for b in cfg.blocks}
    changed = True
    rev = list(reversed(cfg.rpo()))
    while changed:
        changed = False
        for bid in rev:
            visited += 1
            block = cfg.blocks[bid]
            new_out = 0
            for s in block.succs:
                new_out |= lv_in[s]
            new_in = use_b[bid] | (new_out & ~def_b[bid])
            if new_in != lv_in[bid] or new_out != lv_out[bid]:
                lv_in[bid] = new_in
                lv_out[bid] = new_out
                changed = True

    live_bits: Dict[int, int] = {}
    for bid, block in cfg.blocks.items():
        cur = lv_out[bid]
        for sid in reversed(block.stmts):
            visited += 1
            live_bits[sid] = cur
            cur &= ~(defs_bits[sid] & scalar_mask)
            cur |= uses_bits[sid]

    # ---- available expressions (forward, intersection): one bit per key ----------
    key_list: List[Tuple] = []
    key_bit: Dict[Tuple, int] = {}
    stmt_eval: Dict[int, Optional[Tuple]] = {}
    for sid in order_sids:
        s = program.node(sid)
        key = expr_key(s.expr) if isinstance(s, Assign) else None
        stmt_eval[sid] = key
        if key is not None and key not in key_bit:
            key_bit[key] = 1 << len(key_list)
            key_list.append(key)
    all_mask = (1 << len(key_list)) - 1

    # which keys a scalar (re)definition of each name kills
    op_kill: Dict[str, int] = {}
    for key, bit in key_bit.items():
        for n in _expr_operand_names(key):
            op_kill[n] = op_kill.get(n, 0) | bit
    stmt_key_kill: Dict[int, int] = {}
    for sid in order_sids:
        k = 0
        for n in stmt_defs[sid]:
            if not n.startswith("@"):
                k |= op_kill.get(n, 0)
        stmt_key_kill[sid] = k

    def block_transfer(bid: int, avail: int) -> int:
        cur = avail
        for sid in cfg.blocks[bid].stmts:
            key = stmt_eval[sid]
            if key is not None:
                cur |= key_bit[key]
            # kill expressions whose operands this statement (re)defines
            cur &= ~stmt_key_kill[sid]
        return cur

    av_in: Dict[int, int] = {b: all_mask for b in cfg.blocks}
    av_in[cfg.entry] = 0
    av_out: Dict[int, int] = {b: block_transfer(b, av_in[b]) for b in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for bid in cfg.rpo():
            visited += 1
            block = cfg.blocks[bid]
            if block.preds:
                new_in = all_mask
                for p in block.preds:
                    new_in &= av_out[p]
            else:
                new_in = 0
            new_out = block_transfer(bid, new_in)
            if new_in != av_in[bid] or new_out != av_out[bid]:
                av_in[bid] = new_in
                av_out[bid] = new_out
                changed = True

    avail_bits: Dict[int, int] = {}
    for bid, block in cfg.blocks.items():
        cur = av_in[bid]
        for sid in block.stmts:
            visited += 1
            avail_bits[sid] = cur
            key = stmt_eval[sid]
            if key is not None:
                cur |= key_bit[key]
            cur &= ~stmt_key_kill[sid]

    return DataflowResult(
        cfg=cfg,
        reach_in=BitsetFacts(reach_bits, def_list),
        live_out=BitsetFacts(live_bits, names),
        avail_in=BitsetFacts(avail_bits, key_list),
        du_chains={k: frozenset(v) for k, v in du.items()},
        ud_chains={k: frozenset(v) for k, v in ud.items()},
        visited_nodes=visited,
    )
