"""Control-dependence tree with region nodes for structured programs.

For structured code the control-dependence relation of the PDG (Ferrante
et al. [7]) coincides with the nesting structure: statements in a loop
body are control dependent on the loop predicate, branch statements on
the ``if`` predicate.  The tree built here makes that explicit with
**region nodes** — the paper's §4.4 hangs data-dependence summaries off
them and defines the *least common region* LCR(s_i, s_j) as the least
common control ancestor that is a region node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.ast_nodes import IfStmt, Loop, ParSections, Program, Stmt

#: Region id of the whole-program region.
ROOT_REGION = 0


@dataclass
class RegionNode:
    """One region node of the control-dependence tree."""

    rid: int
    #: ``"root"``, ``"loop_body"``, ``"then"``, ``"else"``, or ``"secN"``
    #: (one region per parallel section).
    kind: str
    #: sid of the predicate statement owning the region (-1 for root).
    owner_sid: int
    #: region id of the parent region (-1 for root).
    parent: int
    #: sids of the statements directly inside this region.
    members: List[int] = field(default_factory=list)
    #: rids of regions nested directly inside (via member predicates).
    children: List[int] = field(default_factory=list)


class ControlDepTree:
    """The control-dependence tree: regions + statement membership."""

    def __init__(self) -> None:
        self.regions: Dict[int, RegionNode] = {}
        self._next = ROOT_REGION
        #: sid → rid of the region directly containing the statement.
        self.region_of: Dict[int, int] = {}
        #: (owner_sid, kind) → rid, for O(1) container-to-region lookup.
        self.by_owner: Dict[Tuple[int, str], int] = {}

    def new_region(self, kind: str, owner_sid: int, parent: int) -> RegionNode:
        """Create a region node and link it under ``parent``."""
        r = RegionNode(self._next, kind, owner_sid, parent)
        self._next += 1
        self.regions[r.rid] = r
        if owner_sid >= 0:
            self.by_owner[(owner_sid, kind)] = r.rid
        if parent >= 0:
            self.regions[parent].children.append(r.rid)
        return r

    def drop_region(self, rid: int) -> None:
        """Delete region ``rid`` and everything nested inside it."""
        stack = [rid]
        while stack:
            r = self.regions.pop(stack.pop(), None)
            if r is None:
                continue
            stack.extend(r.children)
            if r.owner_sid >= 0:
                self.by_owner.pop((r.owner_sid, r.kind), None)
            for sid in r.members:
                if self.region_of.get(sid) == r.rid:
                    del self.region_of[sid]
            parent = self.regions.get(r.parent)
            if parent is not None and r.rid in parent.children:
                parent.children.remove(r.rid)

    # -- queries ---------------------------------------------------------------

    def region_chain(self, sid: int) -> List[int]:
        """Region ids containing ``sid``, innermost first."""
        out: List[int] = []
        rid = self.region_of.get(sid)
        while rid is not None and rid >= 0:
            out.append(rid)
            rid = self.regions[rid].parent if self.regions[rid].parent >= 0 else None
        return out

    def lcr(self, sid_a: int, sid_b: int) -> int:
        """Least common region of two statements (the paper's LCR)."""
        chain_a = self.region_chain(sid_a)
        chain_b = set(self.region_chain(sid_b))
        for rid in chain_a:
            if rid in chain_b:
                return rid
        return ROOT_REGION

    def stmts_under(self, rid: int) -> List[int]:
        """All sids inside region ``rid``, including nested regions."""
        out: List[int] = []
        stack = [rid]
        while stack:
            r = self.regions[stack.pop()]
            out.extend(r.members)
            stack.extend(r.children)
        return out

    def is_ancestor(self, outer: int, inner: int) -> bool:
        """True when region ``outer`` encloses (or equals) region ``inner``."""
        rid: Optional[int] = inner
        while rid is not None and rid >= 0:
            if rid == outer:
                return True
            parent = self.regions[rid].parent
            rid = parent if parent >= 0 else None
        return False


def build_control_dep_tree(program: Program) -> ControlDepTree:
    """Construct the control-dependence tree of ``program``."""
    tree = ControlDepTree()
    root = tree.new_region("root", -1, -1)

    def build(stmts: List[Stmt], rid: int) -> None:
        region = tree.regions[rid]
        for s in stmts:
            region.members.append(s.sid)
            tree.region_of[s.sid] = rid
            if isinstance(s, Loop):
                body = tree.new_region("loop_body", s.sid, rid)
                build(s.body, body.rid)
            elif isinstance(s, ParSections):
                for i, sec in enumerate(s.sections):
                    sec_r = tree.new_region(f"sec{i}", s.sid, rid)
                    build(sec, sec_r.rid)
            elif isinstance(s, IfStmt):
                then_r = tree.new_region("then", s.sid, rid)
                build(s.then_body, then_r.rid)
                if s.else_body:
                    else_r = tree.new_region("else", s.sid, rid)
                    build(s.else_body, else_r.rid)

    build(program.body, root.rid)
    return tree


#: container slot → region kind.
_SLOT_KIND = {"body": "loop_body", "then": "then", "else": "else"}


def _slot_kind(slot: str) -> str:
    """Region kind for a container slot (``secN`` slots map to themselves)."""
    return _SLOT_KIND.get(slot, slot)


def region_of_container(tree: ControlDepTree, program: Program,
                        container: Tuple[int, str]) -> int:
    """Map a statement-container reference to the region holding its code."""
    sid, slot = container
    if sid == 0:
        return ROOT_REGION
    # the region owned by this predicate with the matching slot
    rid = tree.by_owner.get((sid, _slot_kind(slot)))
    if rid is not None:
        return rid
    # container exists but holds no region (e.g. empty else): fall back to
    # the region containing the owner statement itself.
    return tree.region_of.get(sid, ROOT_REGION)


def ensure_container_region(tree: ControlDepTree, program: Program,
                            container: Tuple[int, str]) -> int:
    """Region for a container, creating the owner chain when missing.

    Unlike :func:`region_of_container` this never falls back: a missing
    region (a freshly attached loop/branch, or a previously empty
    ``else``) is created under the region of the owner's own container,
    recursing up the parent chain as needed.
    """
    sid, slot = container
    if sid == 0:
        return ROOT_REGION
    kind = _slot_kind(slot)
    rid = tree.by_owner.get((sid, kind))
    if rid is not None:
        return rid
    parent_ref = program.parent_of(sid) or (0, "body")
    parent_rid = ensure_container_region(tree, program, parent_ref)
    return tree.new_region(kind, sid, parent_rid).rid


def update_control_tree(tree: ControlDepTree, program: Program,
                        events) -> ControlDepTree:
    """Patch ``tree`` in place after a change-event batch.

    Only the event statements' subtrees (and the containers they entered
    or left) are reconciled; untouched regions — ids, membership, nesting
    — are preserved, which is what lets the dependence summaries keyed by
    region id survive an undo.  The patched tree is structurally equal to
    a fresh :func:`build_control_dep_tree` (region ids may differ; see
    :func:`tree_signature`).
    """
    from repro.analysis.regional import touched_statements

    dirty = touched_statements(program, events)
    if not dirty:
        return tree

    # 1. statements that left the program take their owned regions along
    for sid in dirty:
        if program.has_node(sid) and program.is_attached(sid):
            continue
        rid = tree.region_of.pop(sid, None)
        if rid is not None:
            region = tree.regions.get(rid)
            if region is not None and sid in region.members:
                region.members.remove(sid)
        for kind in _owned_kinds(tree, sid):
            owned = tree.by_owner.get((sid, kind))
            if owned is not None:
                tree.drop_region(owned)

    # 2. re-place attached dirty statements, ancestors before descendants
    #    (one linear walk keeps preorder without sorting)
    for s in program.walk():
        if s.sid not in dirty:
            continue
        parent_ref = program.parent_of(s.sid) or (0, "body")
        rid = ensure_container_region(tree, program, parent_ref)
        old = tree.region_of.get(s.sid)
        if old != rid:
            old_region = tree.regions.get(old) if old is not None else None
            if old_region is not None and s.sid in old_region.members:
                old_region.members.remove(s.sid)
            tree.region_of[s.sid] = rid
        # keep member order aligned with the container's statement list
        region = tree.regions[rid]
        siblings = program.container_list(parent_ref)
        region.members = [c.sid for c in siblings
                          if tree.region_of.get(c.sid) == rid]
        # regions this statement owns follow it to its new parent region
        for kind in _owned_kinds(tree, s.sid):
            owned = tree.by_owner.get((s.sid, kind))
            if owned is None:
                continue
            owned_region = tree.regions[owned]
            if owned_region.parent != rid:
                old_parent = tree.regions.get(owned_region.parent)
                if old_parent is not None and owned in old_parent.children:
                    old_parent.children.remove(owned)
                owned_region.parent = rid
                tree.regions[rid].children.append(owned)
    return tree


def _owned_kinds(tree: ControlDepTree, sid: int) -> List[str]:
    """Region kinds owned by ``sid`` (``loop_body``/``then``/``else``/``secN``)."""
    return [kind for (owner, kind) in tree.by_owner if owner == sid]


def tree_signature(tree: ControlDepTree):
    """A region-id-independent structural fingerprint of the tree.

    Two trees describe the same control-dependence structure exactly when
    their signatures are equal: every statement maps to the same chain of
    ``(kind, owner_sid)`` regions, innermost first.  Used by the
    incremental-correctness tests to compare a patched tree against a
    fresh build.
    """
    sig = {}
    for sid in tree.region_of:
        chain = []
        for rid in tree.region_chain(sid):
            r = tree.regions[rid]
            chain.append((r.kind, r.owner_sid))
        sig[sid] = tuple(chain)
    return sig
