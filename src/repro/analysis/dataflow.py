"""Classical iterative data-flow analyses at statement granularity.

Provides the flow facts the transformations' preconditions and the undo
engine's safety re-checks need:

* **Reaching definitions** (forward, may) — constant/copy propagation
  legality.
* **Liveness** (backward, may) and the used-definitions mask —
  dead-code elimination legality.
* **Available expressions** (forward, must) — common-subexpression
  elimination legality.

Scalars are tracked precisely; arrays are tracked at array granularity
(an element store *generates* a definition but kills nothing; an element
load uses the whole array).  Subscript-precise reasoning lives in
:mod:`repro.analysis.depend`.

Every position is stable across program versions: a definition is bit
``sid`` (a statement defines at most one name), and names and
expression keys take positions from a grow-only :class:`FlowUniverse`.
That is what lets :func:`update_dataflow` keep the facts of every block
an event batch cannot reach and re-iterate only the rest — the data-flow
half of Figure 4's line-13 "dependence and data flow update".
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, Iterator, List,
                    NamedTuple, Optional, Sequence, Set, Tuple)

from repro.analysis.cfg import CFG, build_cfg
from repro.lang.ast_nodes import (
    Assign,
    BinOp,
    Const,
    DefUse,
    Expr,
    Program,
    Stmt,
    VarRef,
    stmt_defuse,
)

#: A definition: (sid, name).  Array names are prefixed with ``"@"``.
Definition = Tuple[int, str]


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


def iter_bits(bits: int):
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits &= bits - 1


class FlowFacts(NamedTuple):
    """One statement's local data-flow facts (immutable).

    ``def_name`` is the one name the statement defines (``@``-prefixed
    for an array), ``kills`` whether that is a scalar, which kills the
    name's other definitions.  The bit fields are positions in the
    :class:`FlowUniverse` that made them.
    """

    def_name: Optional[str]
    kills: bool
    uses: FrozenSet[str]
    key: Optional[Tuple]
    #: liveness: the names the statement uses / the scalar it kills.
    live_gen: int
    live_kill: int
    #: availability: the bit of the expression key it evaluates.
    key_bit: int


class FlowUniverse:
    """Grow-only bit positions for liveness names and expression keys.

    A position never changes meaning once given, so facts computed at
    one program version stay valid bits at the next.  ``op_kill[n]``
    holds every key with ``n`` as an operand: a scalar definition of
    ``n`` makes them unavailable.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_bit: Dict[str, int] = {}
        self.keys: List[Tuple] = []
        self.key_bit: Dict[Tuple, int] = {}
        self.op_kill: Dict[str, int] = {}

    def _name(self, name: str) -> int:
        bit = self.name_bit.get(name)
        if bit is None:
            bit = self.name_bit[name] = 1 << len(self.names)
            self.names.append(name)
        return bit

    def _key(self, key: Tuple) -> int:
        bit = self.key_bit.get(key)
        if bit is None:
            bit = self.key_bit[key] = 1 << len(self.keys)
            self.keys.append(key)
            for tag, val in (key[1], key[2]):
                if tag == "v":
                    self.op_kill[val] = self.op_kill.get(val, 0) | bit
        return bit

    def all_keys(self) -> int:
        """Every key position given so far (availability's top)."""
        return (1 << len(self.keys)) - 1

    def facts(self, stmt: Stmt, du: Optional[DefUse] = None) -> FlowFacts:
        """The local facts of ``stmt`` (``du``: its ``stmt_defuse``)."""
        if du is None:
            du = stmt_defuse(stmt)
        defs = list(du.defs) + ["@" + a for a in du.array_defs]
        assert len(defs) <= 1, f"S{stmt.sid} defines {defs}"
        def_name = defs[0] if defs else None
        kills = bool(du.defs)
        uses = frozenset(du.uses) | {"@" + a for a in du.array_uses}
        live_gen = 0
        for n in uses:
            live_gen |= self._name(n)
        live_kill = self._name(def_name) if kills else 0
        key = expr_key(stmt.expr) if isinstance(stmt, Assign) else None
        return FlowFacts(def_name, kills, uses, key, live_gen, live_kill,
                         self._key(key) if key is not None else 0)


class BitsetFacts(Mapping):
    """Read-only ``sid → frozenset`` view over per-statement bitsets
    (bit ``i`` ↔ ``universe[i]``), decoded per sid on first read and
    memoised: consumers read a few sids per run, not every statement."""

    def __init__(self, bits: Dict[int, int], universe: Sequence) -> None:
        self._bits = bits
        self._universe = universe
        self._decoded: Dict[int, FrozenSet] = {}

    def _decode(self, bits: int) -> FrozenSet:
        universe = self._universe
        return frozenset(universe[i] for i in iter_bits(bits))

    def __getitem__(self, sid: int) -> FrozenSet:
        out = self._decoded.get(sid)
        if out is None:
            out = self._decoded[sid] = self._decode(self._bits[sid])
        return out

    def __contains__(self, sid: object) -> bool:
        return sid in self._bits

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __len__(self) -> int:
        return len(self._bits)


class _ReachFacts(BitsetFacts):
    """Reaching definitions: bit ``i`` is statement ``i``'s definition,
    named through the per-name definition masks."""

    def _decode(self, bits: int) -> FrozenSet:
        return frozenset((i, name) for name, mask in self._universe.items()
                         for i in iter_bits(bits & mask))


class _Block(NamedTuple):
    """What one block's facts were derived from, and the facts: each
    analysis' values flowing into and out of the block, in its own
    direction (for liveness, live after the block, then before it)."""

    sids: Tuple[int, ...]
    facts: Tuple[FlowFacts, ...]
    preds: Tuple[Tuple, ...]
    succs: Tuple[Tuple, ...]
    rd: Tuple[int, int]
    lv: Tuple[int, int]
    av: Tuple[int, int]


class DataflowResult:
    """All flow facts for one program version.

    The per-statement facts are bitsets; :attr:`reach_in`,
    :attr:`live_out` and :attr:`avail_in` decode a statement's set on
    first read; :meth:`reaching`, :meth:`available` and :meth:`is_dead`
    read only the bits they ask about.
    """

    def __init__(self, universe: FlowUniverse, def_masks: Dict[str, int],
                 blocks: Dict[Tuple, _Block], reach_bits: Dict[int, int],
                 live_bits: Dict[int, int], avail_bits: Dict[int, int],
                 visited_nodes: int) -> None:
        self.universe = universe
        #: name → bits of the statements defining it, at this version.
        self.def_masks = def_masks
        self.blocks = blocks
        self.reach_bits = reach_bits
        self.live_bits = live_bits
        self.avail_bits = avail_bits
        #: nodes visited while computing (instrumentation).
        self.visited_nodes = visited_nodes

    @cached_property
    def reach_in(self) -> Mapping:
        """Definitions reaching the *entry* of each statement."""
        return _ReachFacts(self.reach_bits, self.def_masks)

    @cached_property
    def live_out(self) -> Mapping:
        """Scalar/array names live *after* each statement."""
        return BitsetFacts(self.live_bits, self.universe.names)

    @cached_property
    def avail_in(self) -> Mapping:
        """Available expression keys at the entry of each statement."""
        return BitsetFacts(self.avail_bits, self.universe.keys)

    @cached_property
    def _used_defs(self) -> int:
        """Bits of every definition some statement uses."""
        masks = self.def_masks
        reach = self.reach_bits
        used = 0
        for block in self.blocks.values():
            for sid, f in zip(block.sids, block.facts):
                for name in f.uses:
                    used |= reach[sid] & masks.get(name, 0)
        return used

    # -- queries -------------------------------------------------------------

    def reaching(self, sid: int, name: str) -> FrozenSet[Definition]:
        """The definitions of ``name`` reaching the entry of ``sid``."""
        bits = self.reach_bits.get(sid, 0) & self.def_masks.get(name, 0)
        return frozenset((i, name) for i in iter_bits(bits))

    def available(self, sid: int, key: Tuple) -> bool:
        """Whether expression ``key`` is available at the entry of ``sid``."""
        return bool(self.avail_bits.get(sid, 0)
                    & self.universe.key_bit.get(key, 0))

    def is_dead(self, sid: int, name: str) -> bool:
        """True when the value defined for ``name`` at ``sid`` has no use."""
        return not (self._used_defs & self.def_masks.get(name, 0)
                    & (1 << sid))


def _fixpoint(cfg: CFG, forward: bool, top: Optional[int], dirty: Set[int],
              old: Dict[int, Optional[Tuple[int, int]]],
              transfer: Callable[[int], Tuple[int, int]]
              ) -> Tuple[Dict[int, Tuple[int, int]], List[int], int]:
    """One gen/kill fixpoint, re-solved only where it can have changed.

    Values are ``(into, out of)`` each block in the flow's direction;
    ``old`` holds the previous version's, ``None`` for a new block.
    The CFG's components (an outermost loop, or one block outside every
    loop) are visited in flow order.  A component is re-solved from the
    bottom (``0`` for a may analysis, whose meet is union; ``top``, the
    universe, for a must one, whose meet is intersection) when it
    holds a ``dirty`` block or a value flowing into it from outside
    changed; otherwise its values depend on nothing that changed and
    are kept.  Returns the values, the blocks whose statement-level
    facts must be re-derived, and the blocks visited.
    """
    blocks = cfg.blocks
    units = cfg.components()
    vals = dict(old)
    moved: Set[int] = set()  # blocks whose outgoing value changed
    rewalk: List[int] = []
    visited = 0
    init = top or 0
    for members in (units if forward else reversed(units)):
        if not forward:
            members = members[::-1]
        sources = [blocks[b].preds if forward else blocks[b].succs
                   for b in members]
        need = not dirty.isdisjoint(members)
        if not need and moved:
            need = any(s in moved for srcs in sources for s in srcs)
        if not need:
            continue
        gk = [transfer(b) for b in members]
        for b, (gen, kill) in zip(members, gk):
            vals[b] = (init, gen | (init & ~kill))
        cyclic = len(members) > 1 or members[0] in sources[0]
        changed = True
        while changed:
            changed = False
            for b, srcs, (gen, kill) in zip(members, sources, gk):
                visited += 1
                if not srcs:
                    into = 0
                elif top is not None:
                    into = top
                    for s in srcs:
                        into &= vals[s][1]
                else:
                    into = 0
                    for s in srcs:
                        into |= vals[s][1]
                now = (into, gen | (into & ~kill))
                if now != vals[b]:
                    vals[b] = now
                    changed = cyclic
        for b in members:
            was = old[b]
            if was is None or vals[b][1] != was[1]:
                moved.add(b)
            if was is None or b in dirty or vals[b][0] != was[0]:
                rewalk.append(b)
    return vals, rewalk, visited


def _solve(cfg: CFG, flows: Mapping[int, FlowFacts],
           universe: FlowUniverse, def_masks: Dict[str, int],
           prev: Optional[DataflowResult]) -> DataflowResult:
    """The three fixpoints over ``cfg``, reusing ``prev`` where sound.

    A block is *dirty* for an analysis when it has no counterpart in
    ``prev`` (same :attr:`~repro.analysis.cfg.BasicBlock.key`, same
    statements) or when its transfer function or its incoming edges
    (outgoing, for liveness) changed.  A block's reaching-definitions
    kill set holds every definition of the names it kills, so a
    definition that changes its name dirties every block killing the
    old or the new name.  A block's fixpoint value depends
    only on the blocks that reach it (that it reaches, for liveness), so
    :func:`_fixpoint` re-solves only the components a dirty block or a
    changed value flows into; every other block keeps ``prev``'s facts.
    With no ``prev`` every block is dirty.
    """
    blocks = cfg.blocks
    old = prev.blocks if prev is not None else {}
    key_of = {bid: b.key for bid, b in blocks.items()}.__getitem__
    flow_of = flows.__getitem__
    shape: Dict[int, Tuple] = {}
    matched: Dict[int, Optional[_Block]] = {}
    dirty_rd: Set[int] = set()
    dirty_lv: Set[int] = set()
    dirty_av: Set[int] = set()
    for bid, b in blocks.items():
        sids = tuple(b.stmts)
        facts = tuple(map(flow_of, sids))
        preds = tuple(map(key_of, b.preds))
        succs = tuple(map(key_of, b.succs))
        shape[bid] = (sids, facts, preds, succs)
        o = matched[bid] = old.get(b.key)
        if o is None or o.sids != sids:
            dirty_rd.add(bid)
            dirty_lv.add(bid)
            dirty_av.add(bid)
            continue
        if o.preds != preds:
            dirty_rd.add(bid)
            dirty_av.add(bid)
        if o.succs != succs:
            dirty_lv.add(bid)
        for was, now in zip(o.facts, facts):
            if was is now:
                continue
            if was.def_name != now.def_name:
                dirty_rd.add(bid)
                dirty_av.add(bid)
            if was.live_gen != now.live_gen or was.live_kill != now.live_kill:
                dirty_lv.add(bid)
            if was.key_bit != now.key_bit:
                dirty_av.add(bid)
    if prev is not None:
        # A definition that keeps its bit but changes its name (INX's
        # header swap) changes the kill set of every block that kills
        # the old or the new name, though the value flowing out of its
        # own block need not change.
        defined = 0
        for mask in def_masks.values():
            defined |= mask
        renamed: Set[str] = set()
        for name, was in prev.def_masks.items():
            moved = was & ~def_masks.get(name, 0) & defined
            if moved:
                renamed.add(name)
                renamed.update(flows[s].def_name for s in iter_bits(moved))
        for name in renamed:
            for sid in iter_bits(def_masks.get(name, 0)):
                if flows[sid].kills:
                    dirty_rd.add(cfg.block_of[sid])

    reach_bits = dict(prev.reach_bits) if prev is not None else {}
    live_bits = dict(prev.live_bits) if prev is not None else {}
    avail_bits = dict(prev.avail_bits) if prev is not None else {}
    by_key = {b.key: bid for bid, b in blocks.items()}
    for k, o in old.items():
        bid = by_key.get(k)
        if bid is None or shape[bid][0] != o.sids:
            for sid in o.sids:
                reach_bits.pop(sid, None)
                live_bits.pop(sid, None)
                avail_bits.pop(sid, None)

    # ---- reaching definitions (forward, union): bit ``sid`` per def ---------
    def rd_transfer(bid: int) -> Tuple[int, int]:
        g = k = 0
        for sid, f in zip(shape[bid][0], shape[bid][1]):
            if f.def_name is None:
                continue
            if f.kills:
                # a scalar def kills all other defs of the name
                mask = def_masks[f.def_name]
                k |= mask
                g &= ~mask
            g |= 1 << sid
        return g, k & ~g

    rd, rewalk, visited = _fixpoint(
        cfg, True, None, dirty_rd,
        {b: (o.rd if o is not None else None) for b, o in matched.items()},
        rd_transfer)
    for bid in rewalk:
        cur = rd[bid][0]
        for sid, f in zip(shape[bid][0], shape[bid][1]):
            visited += 1
            reach_bits[sid] = cur
            if f.def_name is not None:
                if f.kills:
                    cur &= ~def_masks[f.def_name]
                cur |= 1 << sid

    # ---- liveness (backward, union): one bit per name -----------------------
    def lv_transfer(bid: int) -> Tuple[int, int]:
        u = d = 0
        for f in shape[bid][1]:
            u |= f.live_gen & ~d
            d |= f.live_kill
        return u, d

    lv, rewalk, n = _fixpoint(
        cfg, False, None, dirty_lv,
        {b: (o.lv if o is not None else None) for b, o in matched.items()},
        lv_transfer)
    visited += n
    for bid in rewalk:
        cur = lv[bid][0]
        for sid, f in zip(reversed(shape[bid][0]), reversed(shape[bid][1])):
            visited += 1
            live_bits[sid] = cur
            cur &= ~f.live_kill
            cur |= f.live_gen

    # ---- available expressions (forward, intersection): one bit per key -----
    op_kill = universe.op_kill

    def stmt_key_kill(f: FlowFacts) -> int:
        # expressions whose operands this statement (re)defines
        return op_kill.get(f.def_name, 0) if f.kills else 0

    def av_transfer(bid: int) -> Tuple[int, int]:
        g = k = 0
        for f in shape[bid][1]:
            sk = stmt_key_kill(f)
            g = (g | f.key_bit) & ~sk
            k |= sk
        return g, k

    av, rewalk, n = _fixpoint(
        cfg, True, universe.all_keys(), dirty_av,
        {b: (o.av if o is not None else None) for b, o in matched.items()},
        av_transfer)
    visited += n
    for bid in rewalk:
        cur = av[bid][0]
        for sid, f in zip(shape[bid][0], shape[bid][1]):
            visited += 1
            avail_bits[sid] = cur
            cur = (cur | f.key_bit) & ~stmt_key_kill(f)

    new_blocks = {
        blocks[bid].key: _Block(*shape[bid], rd[bid], lv[bid], av[bid])
        for bid in blocks}
    return DataflowResult(universe, def_masks, new_blocks, reach_bits,
                          live_bits, avail_bits, visited)


def analyze_dataflow(program: Program, cfg: Optional[CFG] = None,
                     index=None) -> DataflowResult:
    """Run all three analyses from scratch.

    The fixpoints run on int bitsets — one bit per definition, name, or
    expression key, so a block transfer is a few machine-word bitwise
    operations instead of Python set churn.  The per-statement facts
    stay bitsets, decoded only when read.

    ``index`` (a :class:`~repro.analysis.regional.DefUseIndex` current
    with every statement it holds) supplies the local facts of those
    statements, and its universe the bit positions, so the result can
    later be patched by :func:`update_dataflow`.  Statements the index
    does not hold — a deleted statement put back for a trial — are
    derived fresh.
    """
    if cfg is None:
        cfg = build_cfg(program)
    universe = index.universe if index is not None else FlowUniverse()
    held = index.facts if index is not None else {}
    flows: Dict[int, FlowFacts] = {}
    def_masks: Dict[str, int] = {}
    for sid in cfg.block_of:
        held_facts = held.get(sid)
        f = flows[sid] = (held_facts.flow if held_facts is not None
                          else universe.facts(program.node(sid)))
        if f.def_name is not None:
            def_masks[f.def_name] = def_masks.get(f.def_name, 0) | (1 << sid)
    return _solve(cfg, flows, universe, def_masks, None)


def update_dataflow(prev: DataflowResult, cfg: CFG, index) -> DataflowResult:
    """``prev``'s facts carried to the program ``cfg`` was built from.

    ``index`` must be the :class:`~repro.analysis.regional.DefUseIndex`
    whose universe ``prev`` was built with, synced to the current
    program.  Only the loops and blocks a block whose transfer function
    or edges changed can reach are re-solved (see :func:`_solve`);
    ``prev`` may be any number of versions old.
    """
    flows = {sid: f.flow for sid, f in index.facts.items()}
    return _solve(cfg, flows, index.universe,
                  {n: m for n, m in index.defs.items() if m}, prev)
