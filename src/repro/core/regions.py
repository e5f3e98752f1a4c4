"""Affected-region computation (§4.4's event-driven regional undo).

"An affected region is defined as the region of a program with code
changes (e.g., code reordering or modification) or data flow or data/
control dependence changes."  We compute it from the change events the
inverse actions emitted:

1. the **dirty regions** directly containing the touched containers /
   statements (the space coordinate of the change itself), then
2. the regions holding statements connected to the dirty code by a data
   dependence (flow effects propagate along dependences — found via the
   region-node summaries, Figure 3).

A transformation record is *inside* the affected region when any region
of its footprint (the statements its actions touched, plus the
containers of its recorded locations) intersects the affected set; only
those need a safety re-check after an undo.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.analysis.control_dep import ControlDepTree, region_of_container
from repro.analysis.incremental import AnalysisCache
from repro.core.events import Event
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import Program, expr_arrays, expr_vars, stmt_defuse


def dirty_statements(program: Program, events: Sequence[Event]) -> Set[int]:
    """Attached statements directly touched by the events."""
    out: Set[int] = set()
    for ev in events:
        if program.has_node(ev.sid) and program.is_attached(ev.sid):
            out.add(ev.sid)
        for ref in ev.containers:
            sid, _slot = ref
            if sid == 0:
                out.update(s.sid for s in program.body)
            elif program.has_node(sid) and program.is_attached(sid):
                out.add(sid)
                if program.container_alive(ref):
                    out.update(m.sid for m in program.container_list(ref))
    return out


def affected_regions(program: Program, cache: AnalysisCache,
                     events: Sequence[Event]) -> Set[int]:
    """Region ids with *code* changes (§4.4's space coordinate).

    Only the regions whose statement lists or member statements the
    events touched are included.  Data-flow effects radiating out of
    these regions are covered by the companion *name* coordinate
    (:func:`affected_names`), which is finer than pulling whole regions
    in along dependence edges — and, unlike dependence edges, also
    couples through detached (deleted) statements.
    """
    tree = cache.control_tree()
    dirty = dirty_statements(program, events)
    rids: Set[int] = set()
    for ev in events:
        for ref in ev.containers:
            sid, _slot = ref
            if sid == 0 or (program.has_node(sid) and program.is_attached(sid)):
                rids.add(region_of_container(tree, program, ref))
    for sid in dirty:
        rid = tree.region_of.get(sid)
        if rid is not None:
            rids.add(rid)
    return rids


def record_footprint(program: Program,
                     record: TransformationRecord) -> Set[int]:
    """Sids a transformation record's actions touched (attached only),
    plus the container owners of its recorded locations."""
    out: Set[int] = set()
    for act in record.actions:
        if program.has_node(act.sid) and program.is_attached(act.sid):
            out.add(act.sid)
        if act.src_sid is not None and program.is_attached(act.src_sid):
            out.add(act.src_sid)
        for loc in (act.from_loc, act.to_loc):
            if loc is None:
                continue
            csid, _slot = loc.container
            if csid == 0:
                continue
            if program.has_node(csid) and program.is_attached(csid):
                out.add(csid)
    return out


def _stmt_names(program: Program, sid: int) -> Set[str]:
    """Scalar and (``@``-prefixed) array names a statement references.

    Works for detached (ghost) statements too — a deleted definition's
    variable still couples it to live code that mentions the name.
    """
    if not program.has_node(sid):
        return set()
    du = stmt_defuse(program.node(sid))
    return (set(du.defs) | set(du.uses)
            | {"@" + a for a in du.array_defs}
            | {"@" + a for a in du.array_uses})


def affected_names(program: Program, events: Sequence[Event]) -> Set[str]:
    """Names whose data flow the events may have changed (§4.4's
    "data flow ... changes" coordinate).

    Includes the names of every event statement — attached or not: a
    removed statement's names stop flowing, a restored statement's names
    start flowing — plus the (header) names of the touched containers'
    owner statements.  Untouched sibling statements contribute nothing:
    their code did not change.

    Callers should union in :func:`record_names` of the undone (or edit)
    record itself, which adds the names of any expression the change
    removed (e.g. the operand a ``Modify`` inverse took out).
    """
    out: Set[str] = set()
    for ev in events:
        out |= _stmt_names(program, ev.sid)
        for ref in ev.containers:
            sid, _slot = ref
            if sid == 0:
                continue
            out |= _stmt_names(program, sid)
    return out


def record_names(program: Program, record: TransformationRecord) -> Set[str]:
    """Names a transformation record's footprint references.

    Drawn from the statements its actions touched (ghosts included) and
    the expressions its ``Modify`` actions replaced/installed — the
    variables its safety conditions are about.
    """
    out: Set[str] = set()
    for act in record.actions:
        out |= _stmt_names(program, act.sid)
        if act.src_sid is not None:
            out |= _stmt_names(program, act.src_sid)
        for e in (act.old_expr, act.new_expr):
            if e is not None:
                out |= expr_vars(e)
                out |= {"@" + a for a in expr_arrays(e)}
        for h in (act.old_header, act.new_header):
            if h is not None:
                out.add(h.var)
                for e in (h.lower, h.upper, h.step):
                    out |= expr_vars(e)
    return out


def record_structural_regions(program: Program, tree: ControlDepTree,
                              record: TransformationRecord) -> Set[int]:
    """Regions the record structurally *owns*: the bodies of the loops /
    branches in its footprint.

    A code change inside an owned region can break the record's
    structural safety conditions (a statement entering an interchanged
    nest, a new dependence between fused halves, a definition landing in
    a hoisted statement's loop) regardless of variable names.  Changes to
    the record's own statements, and all data-flow interactions, carry
    the record's names and are caught by the name coordinate instead.
    """
    rids: Set[int] = set()
    for sid in record_footprint(program, record):
        stmt = program.node(sid)
        for slot in stmt.body_slots():
            rids.add(region_of_container(tree, program, (sid, slot)))
    return rids


def record_in_region(program: Program, cache: AnalysisCache,
                     record: TransformationRecord,
                     affected: Set[int],
                     names: Optional[Set[str]] = None) -> bool:
    """Is the record inside the affected region?

    True when a code change landed in a region the record structurally
    owns (the *code change* coordinate) **or** the record references a
    name whose data flow the change touched (the *data flow* coordinate).
    The name coupling is what catches interactions running through
    detached statements — a restored use of a variable whose definition
    was deleted by a later DCE has no dependence edge in the current
    graph, yet the DCE's safety hinges on it.  Changes to the record's
    own footprint statements always share the record's names, so they
    are covered by the name coordinate by construction.
    """
    tree = cache.control_tree()
    if record_structural_regions(program, tree, record) & affected:
        return True
    if names:
        if record_names(program, record) & names:
            return True
    return False
