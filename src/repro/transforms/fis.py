"""Loop Fission / Distribution (FIS) — an extension transformation.

The structural inverse of loop fusion: split a loop at a boundary into
two adjacent loops with identical headers::

    pre_pattern:        Loop L: [G1 ++ G2], no backward dependence
                        G2 → G1 with distance > 0;
    primitive actions:  Add(L.next, -, L2 with L's header);
                        Move(S, L2.end) for each S in G2;
    post_pattern:       adjacent conformable Loops (L, L2);

Distribution is the classic enabler of partial parallelization: when one
half of a body carries a recurrence and the other does not, splitting
lets the clean half run DOALL.

Legality mirrors fusion's: executing all iterations of G1 before any of
G2 is safe iff no dependence runs G2 → G1 with positive distance *and*
no dependence G1 → G2 with negative distance — equivalently, fusing the
split halves back must be legal, and every same-iteration (distance 0)
dependence must point G1 → G2 (the split keeps it forward).  I/O may
appear in at most one half (splitting would reorder the streams
otherwise).

FIS is *not* part of the paper's Table 4, so it is not registered
globally; opt in per engine::

    engine = TransformationEngine(program,
                                  extra_transformations=[LoopFission()])

The undo engine never heuristic-skips extensions, so fission interacts
soundly with the built-in catalog (see
``tests/test_spec.py::TestExtensionHeuristicSoundness``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.depend import fusion_preventing, linearize
from repro.analysis.incremental import AnalysisCache
from repro.analysis.regional import DefUseIndex
from repro.core.actions import HEADER_PATH, HeaderSpec
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import Loop, Program, Stmt
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    modified_after,
    stmt_deleted_after,
    unexplained_occupant,
)
from repro.transforms.loop_utils import contains_io, subtree_stmts


def _pseudo(loop: Loop, body: List[Stmt]) -> Loop:
    return Loop(loop.var, loop.lower.clone(), loop.upper.clone(),
                loop.step.clone(), body)


def _split_legal(program: Program, index: DefUseIndex, loop: Loop,
                 boundary: int) -> bool:
    """Can ``loop`` split into body[:boundary] / body[boundary:]?"""
    g1 = loop.body[:boundary]
    g2 = loop.body[boundary:]
    if not g1 or not g2:
        return False
    io1 = any(contains_io(s, index) for s in g1)
    io2 = any(contains_io(s, index) for s in g2)
    if io1 and io2:
        return False
    # scalars flowing between the halves couple iterations after the
    # split (G2 would read the LAST iteration's value); forbid any scalar
    # defined in one half and referenced in the other.
    def names(stmts, defs):
        out: Set[str] = set()
        for s in stmts:
            for sub in subtree_stmts(s):
                du = index.du(sub)
                out |= set(du.defs if defs else du.uses)
                if not defs:
                    out |= set(du.defs)  # a redefinition also observes order
        return out

    if names(g1, True) & names(g2, False):
        return False
    if names(g2, True) & names(g1, False):
        return False
    # array dependences: splitting is the inverse of fusing, so fusing
    # the halves back must be legal (G1 → G2 distances ≥ 0) and no
    # dependence may run G2 → G1 with positive distance (the split would
    # reverse it: all of G1 runs first).
    if fusion_preventing(program, _pseudo(loop, list(g1)),
                         _pseudo(loop, list(g2))):
        return False
    blockers = fusion_preventing(program, _pseudo(loop, list(g2)),
                                 _pseudo(loop, list(g1)))
    for src, dst, _arr in blockers:
        return False
    return True


class LoopFission(Transformation):
    """Split a loop into two adjacent conformable loops."""

    name = "fis"
    full_name = "Loop Fission"
    # extension row (FIS is outside Table 4): splitting creates an
    # adjacent conformable pair (FUS), possibly DOALL halves, and new
    # hoisting targets.
    enables = frozenset({"fus", "fis", "icm", "inx", "smi", "lur"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        index = cache.index()
        out: List[Opportunity] = []
        for s in program.walk():
            if type(s) is not Loop or len(s.body) < 2:  # sequential only
                continue
            for boundary in range(1, len(s.body)):
                if _split_legal(program, index, s, boundary):
                    out.append(Opportunity(
                        self.name, {"loop": s.sid, "boundary": boundary},
                        f"split S{s.sid} ({s.var}) at {boundary}"))
                    break  # one split point per loop is plenty
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        loop_sid = opp.params["loop"]
        boundary = opp.params["boundary"]
        loop = ctx.program.node(loop_sid)
        ctx.record.pre_pattern = {
            "loop": loop_sid, "boundary": boundary,
            "header": HeaderSpec.of(loop),
        }
        second = Loop(loop.var, loop.lower.clone(), loop.upper.clone(),
                      loop.step.clone(), [])
        ctx.add(second, Location.after(ctx.program, loop_sid))
        moved: List[int] = []
        for stmt in list(loop.body[boundary:]):
            ctx.move(stmt.sid,
                     Location.at(ctx.program, (second.sid, "body"),
                                 len(second.body)))
            moved.append(stmt.sid)
        ctx.record.post_pattern = {
            "first": loop_sid, "second": second.sid, "moved": moved,
            "stayed": [m.sid for m in loop.body],
            "header": HeaderSpec.of(loop),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        post = record.post_pattern
        t = record.stamp
        first_sid, second_sid = post["first"], post["second"]
        for sid in (first_sid, second_sid):
            if not program.is_attached(sid):
                if ctx.deleted_by_active(sid, t):
                    return SafetyResult.ok()
                return SafetyResult.broken(Violation(
                    f"split loop S{sid} no longer exists",
                    code="fis.safety.loop-deleted", witness={"sid": sid}))
        first = program.node(first_sid)
        second = program.node(second_sid)
        if not isinstance(first, Loop) or not isinstance(second, Loop):
            return SafetyResult.broken(Violation(
                "pattern statements changed kind",
                code="fis.safety.kind-changed",
                witness={"first_sid": first_sid, "second_sid": second_sid}))
        if not first.header_equal(second):
            if ctx.attributed_to_active(first_sid, t, ("md",)) or \
                    ctx.attributed_to_active(second_sid, t, ("md",)):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "the split halves' headers diverged",
                code="fis.safety.header-diverged",
                witness={"first_sid": first_sid, "second_sid": second_sid}))
        # the halves must still be separable in this order
        merged = list(first.body) + list(second.body)
        pseudo = _pseudo(first, merged)
        if not _split_legal(program, ctx.cache.index(), pseudo,
                            len(first.body)):
            if ctx.subtree_touched_by_active(first_sid, t) or \
                    ctx.subtree_touched_by_active(second_sid, t):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "a dependence now couples the split halves",
                code="fis.safety.dependence-couples",
                witness={"first_sid": first_sid, "second_sid": second_sid}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        t = record.stamp
        first_sid, second_sid = post["first"], post["second"]
        for sid in (first_sid, second_sid):
            v = stmt_deleted_after(program, store, sid, t)
            if v is not None:
                return ReversibilityResult.blocked(v)
            v = modified_after(program, store, sid, HEADER_PATH, t)
            if v is not None:
                return ReversibilityResult.blocked(v)
        second = program.node(second_sid)
        known = set(post["moved"])
        for member in second.body:
            if member.sid in known:
                continue
            anns = [a for a in store.for_sid(member.sid)
                    if a.stamp > t and a.kind in ("mv", "add", "cp")]
            if anns:
                a = min(anns, key=lambda x: x.stamp)
                return ReversibilityResult.blocked(Violation(
                    f"S{member.sid} entered the split-off loop",
                    action_id=a.action_id, stamp=a.stamp,
                    code="fis.reversibility.intruder",
                    witness={"sid": member.sid, "annotation": a.kind}))
            return ReversibilityResult.blocked(Violation(
                f"S{member.sid} entered the split-off loop via an edit",
                code="fis.reversibility.edit-intruder",
                witness={"sid": member.sid}))
        from repro.transforms.base import moved_after

        body_sids = {m.sid for m in second.body}
        for sid in post["moved"]:
            # any later move of a distributed statement — even one that
            # round-tripped back — means a later record manages its
            # position; that record must be peeled first.
            v = moved_after(program, store, sid, t)
            if v is not None:
                return ReversibilityResult.blocked(v)
            if sid not in body_sids:
                anns = [a for a in store.for_sid(sid)
                        if a.stamp > t and a.kind in ("mv", "del")]
                if anns:
                    a = min(anns, key=lambda x: x.stamp)
                    return ReversibilityResult.blocked(Violation(
                        f"moved statement S{sid} left the split-off loop",
                        action_id=a.action_id, stamp=a.stamp,
                        code="fis.reversibility.member-left",
                        witness={"sid": sid, "annotation": a.kind}))
                return ReversibilityResult.blocked(Violation(
                    f"moved statement S{sid} is no longer in the "
                    "split-off loop",
                    code="fis.reversibility.member-missing",
                    witness={"sid": sid}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Loop Fission (FIS) [extension]",
            "pre_pattern": "Loop L: [G1 ++ G2]; no coupling dependence;",
            "primitive_actions": "Add(L.next, -, L2); "
                                 "Move(S, L2.end) ∀ S ∈ G2;",
            "post_pattern": "adjacent conformable Loops (L, L2);",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Add/Modify a statement coupling the split halves (†)",
                "Modify either half's header",
            ],
            "reversibility": [
                "Move/Add a statement into the split-off loop",
                "Move/Delete one of the distributed statements",
                "Modify either loop header again",
            ],
        }
