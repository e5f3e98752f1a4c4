"""Loop Fusion (FUS).

Pattern::

    pre_pattern:        Adjacent conformable Loops (L_1, L_2);
                        no fusion-preventing dependence;
    primitive actions:  Move(S, L_1.end) for each S in L_2.body;
                        Delete(L_2);
    post_pattern:       Loop L_1 containing both bodies;
                        Del_stmt L_2;  the moved statements as a suffix;

Legality: the loops are textually adjacent with identical headers, and
no dependence from ``L_1``'s body to ``L_2``'s body has negative
distance (which after fusion would make a consumer run before its
producer).  Figure 3 motivates checking this on the region-node
dependence summaries — benchmark ``bench_fig3`` measures that shortcut.

Loops containing I/O statements in both bodies are never fused (fusion
would interleave the two I/O streams).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.depend import fusion_preventing
from repro.analysis.incremental import AnalysisCache
from repro.core.actions import HEADER_PATH, HeaderSpec
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import Loop, Program
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    container_context_violation,
    modified_after,
)
from repro.transforms.loop_utils import contains_io


class LoopFusion(Transformation):
    """Merge two adjacent conformable loops into one."""

    name = "fus"
    full_name = "Loop Fusion"
    # Derived row (not published in Table 4): fusing bodies juxtaposes
    # computations (CSE), creates a single loop for further fusion, and
    # can expose invariants.
    enables = frozenset({"cse", "fus", "icm"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        index = cache.index()
        out: List[Opportunity] = []
        containers = [(0, "body", program.body)]
        for s in program.walk():
            for slot in s.body_slots():
                containers.append((s.sid, slot, s.get_body(slot)))
        for _csid, _slot, lst in containers:
            for a, b in zip(lst, lst[1:]):
                if not (type(a) is Loop and type(b) is Loop):
                    continue  # sequential loops only (not DOALL)
                if not a.header_equal(b):
                    continue
                if contains_io(a, index) and contains_io(b, index):
                    continue
                if fusion_preventing(program, a, b):
                    continue
                out.append(Opportunity(
                    self.name, {"first": a.sid, "second": b.sid},
                    f"fuse loops S{a.sid} and S{b.sid} over {a.var}"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        first_sid, second_sid = opp.params["first"], opp.params["second"]
        first = ctx.program.node(first_sid)
        second = ctx.program.node(second_sid)
        boundary = len(first.body)
        moved: List[int] = []
        ctx.record.pre_pattern = {
            "first": first_sid, "second": second_sid,
            "header": HeaderSpec.of(first), "boundary": boundary,
        }
        for stmt in list(second.body):
            ctx.move(stmt.sid,
                     Location.at(ctx.program, (first_sid, "body"),
                                 len(first.body)))
            moved.append(stmt.sid)
        ctx.delete(second_sid)
        ctx.record.post_pattern = {
            "loop": first_sid, "deleted": second_sid,
            "moved": moved, "boundary": boundary,
            "originals": [m.sid for m in first.body if m.sid not in moved],
            "header": HeaderSpec.of(first),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        post = record.post_pattern
        t = record.stamp
        loop_sid = post["loop"]
        if not program.is_attached(loop_sid):
            return SafetyResult.ok()  # fused loop gone entirely
        loop = program.node(loop_sid)
        if not isinstance(loop, Loop):
            return SafetyResult.broken(Violation(
                "fused statement is no longer a loop",
                code="fus.safety.kind-changed",
                witness={"loop_sid": loop_sid}))
        moved = [sid for sid in post["moved"]
                 if program.is_attached(sid)
                 and program.parent_of(sid) == (loop_sid, "body")]
        group2 = set(moved)
        group1 = [m for m in loop.body if m.sid not in group2]
        if not group2 or not group1:
            return SafetyResult.ok()  # one side vanished: nothing to separate
        # re-run the fusion-prevention test on the current two halves by
        # materialising them as pseudo-loops sharing the fused header.
        pseudo1 = Loop(loop.var, loop.lower.clone(), loop.upper.clone(),
                       loop.step.clone(), group1)
        pseudo2 = Loop(loop.var, loop.lower.clone(), loop.upper.clone(),
                       loop.step.clone(),
                       [program.node(sid) for sid in moved])
        blockers = fusion_preventing(program, pseudo1, pseudo2)
        for src, dst, arr in blockers:
            # blockers entirely attributable to active later transformations
            # were legality-checked when those transformations applied.
            if ctx.attributed_to_active(src, t, ("md", "mv", "add", "cp")) or \
                    ctx.attributed_to_active(dst, t, ("md", "mv", "add", "cp")):
                continue
            return SafetyResult.broken(Violation(
                f"dependence on {arr} (S{src} → S{dst}) now prevents the "
                "applied fusion",
                code="fus.safety.fusion-preventing",
                witness={"src_sid": src, "dst_sid": dst, "array": arr}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        loop_sid = post["loop"]
        if not program.is_attached(loop_sid):
            from repro.transforms.base import stmt_deleted_after

            v = stmt_deleted_after(program, store, loop_sid, record.stamp)
            return ReversibilityResult.blocked(
                v if v is not None else Violation(
                    "fused loop is detached",
                    code="fus.reversibility.loop-detached",
                    witness={"loop_sid": loop_sid}))
        loop = program.node(loop_sid)
        v = modified_after(program, store, loop_sid, HEADER_PATH, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        # statements that entered the fused loop after the fusion (e.g. a
        # later fusion's moved block, or unrolled copies) would be carried
        # past the split boundary by the inverse moves — their authors are
        # affecting transformations and must be peeled first.
        known = set(post["moved"]) | set(post.get("originals", ()))
        for member in loop.body:
            if member.sid in known:
                continue
            anns = [a for a in store.for_sid(member.sid)
                    if a.stamp > record.stamp
                    and a.kind in ("mv", "add", "cp")]
            if anns:
                a = min(anns, key=lambda x: x.stamp)
                return ReversibilityResult.blocked(Violation(
                    f"S{member.sid} entered the fused loop after t{record.stamp}",
                    action_id=a.action_id, stamp=a.stamp,
                    code="fus.reversibility.intruder",
                    witness={"sid": member.sid, "annotation": a.kind}))
            return ReversibilityResult.blocked(Violation(
                f"S{member.sid} entered the fused loop with no recorded "
                "action (user edit)",
                code="fus.reversibility.edit-intruder",
                witness={"sid": member.sid}))
        # the moved statements must still be present AND untouched by
        # later moves — even a later move that round-tripped back into
        # place means a later transformation's bookkeeping references the
        # statement's position, and yanking it out from under that
        # record would orphan it.
        from repro.transforms.base import moved_after

        body_sids = [m.sid for m in loop.body]
        for sid in post["moved"]:
            v = moved_after(program, store, sid, record.stamp)
            if v is not None:
                return ReversibilityResult.blocked(v)
            if not program.is_attached(sid) or sid not in body_sids:
                anns = [a for a in store.for_sid(sid)
                        if a.stamp > record.stamp
                        and a.kind in ("mv", "del")]
                if anns:
                    a = min(anns, key=lambda x: x.stamp)
                    return ReversibilityResult.blocked(Violation(
                        f"moved statement S{sid} left the fused loop",
                        action_id=a.action_id, stamp=a.stamp,
                        code="fus.reversibility.member-left",
                        witness={"sid": sid, "annotation": a.kind}))
                return ReversibilityResult.blocked(Violation(
                    f"moved statement S{sid} is no longer in the fused loop",
                    code="fus.reversibility.member-missing",
                    witness={"sid": sid}))
        # the original location of the deleted second loop must resolve
        deleted = post["deleted"]
        del_act = next(a for a in record.actions if a.sid == deleted)
        v = container_context_violation(program, store, del_act.from_loc,
                                        record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Loop Fusion (FUS)",
            "pre_pattern": "Adjacent Loops (L_1, L_2), conformable headers, "
                           "no fusion-prevented dependence;",
            "primitive_actions": "Move(S, L_1.end) ∀ S ∈ L_2.body; Delete(L_2);",
            "post_pattern": "Loop L_1 (both bodies); Del_stmt L_2; "
                            "moved stmts as suffix;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Add/Modify a statement creating a backward dependence "
                "between the fused halves (†)",
                "Modify the fused loop's header",
            ],
            "reversibility": [
                "Move/Delete one of the statements that came from L_2",
                "Modify the fused loop header again (e.g. by INX)",
                "Delete/Copy the context of L_2's original location",
            ],
        }
