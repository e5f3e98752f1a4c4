"""Loop Parallelization (PAR).

Pattern::

    pre_pattern:        Loop L: no dependence carried by L;
                        no I/O in L.body;
    primitive actions:  Add(DOALL P, L.location);
                        Move(S, P.end) for each S in L.body;
                        Delete(L);
    post_pattern:       ParLoop P with L's header and body;
                        Del_stmt L;

PAR is an *extension* transformation: it is registered alongside the
paper's ten but is not part of ``TABLE4_ORDER``, so the reverse-destroy
heuristic never skips its safety re-check (see
:mod:`repro.core.undo`).  Legality is exactly the static analogue of
race freedom — :meth:`DependenceGraph.par_violations_at` must report
nothing for the new ``doall`` — which is why a PAR applied with checks
disabled is the canonical way to manufacture a racy program for the
scheduled interpreter (``docs/PARALLEL.md``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.depend import loop_parallelizable
from repro.analysis.incremental import AnalysisCache
from repro.core.actions import HEADER_PATH, HeaderSpec
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import Loop, ParLoop, Program
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    container_context_violation,
    modified_after,
    moved_after,
    stmt_deleted_after,
)
from repro.transforms.loop_utils import contains_io


class LoopParallelization(Transformation):
    """Turn a dependence-free sequential loop into a ``doall``."""

    name = "par"
    full_name = "Loop Parallelization"
    # Derived row: PAR only re-labels the loop (Loop → ParLoop); the
    # dependence edges of the program are unchanged, so undoing a PAR
    # cannot destroy the safety of any later transformation.
    enables = frozenset()
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        graph = cache.dependences()
        index = cache.index()
        out: List[Opportunity] = []
        for s in program.walk():
            if type(s) is not Loop:  # already parallel, or not a loop
                continue
            if contains_io(s, index):
                continue  # interleaving tasks would scramble the I/O stream
            if not loop_parallelizable(graph, s):
                continue
            out.append(Opportunity(
                self.name, {"loop": s.sid},
                f"parallelize loop S{s.sid} over {s.var}"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        loop_sid = opp.params["loop"]
        loop = ctx.program.node(loop_sid)
        ctx.record.pre_pattern = {
            "loop": loop_sid, "header": HeaderSpec.of(loop),
            "members": [m.sid for m in loop.body],
        }
        doall = ParLoop(loop.var, loop.lower.clone(), loop.upper.clone(),
                        loop.step.clone(), [])
        add = ctx.add(doall, Location.before(ctx.program, loop_sid))
        moved: List[int] = []
        for stmt in list(loop.body):
            ctx.move(stmt.sid,
                     Location.at(ctx.program, (add.sid, "body"),
                                 len(doall.body)))
            moved.append(stmt.sid)
        ctx.delete(loop_sid)
        ctx.record.post_pattern = {
            "parloop": add.sid, "deleted": loop_sid, "moved": moved,
            "header": HeaderSpec.of(doall),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        post = record.post_pattern
        t = record.stamp
        par_sid = post["parloop"]
        if not program.is_attached(par_sid):
            return SafetyResult.ok()  # the doall is gone entirely
        doall = program.node(par_sid)
        if not isinstance(doall, ParLoop):
            return SafetyResult.broken(Violation(
                "parallelized statement is no longer a doall",
                code="par.safety.kind-changed",
                witness={"parloop": par_sid}))
        if contains_io(doall, ctx.cache.index()):
            return SafetyResult.broken(Violation(
                "an I/O statement entered the parallelized loop",
                code="par.safety.io-introduced",
                witness={"parloop": par_sid}))
        for v in ctx.cache.dependences().par_violations_at(par_sid):
            # violations whose endpoints are entirely the work of active
            # later transformations were legality-checked when those
            # transformations applied.
            if ctx.attributed_to_active(v.dep.src, t, ("md", "mv", "add", "cp")) or \
                    ctx.attributed_to_active(v.dep.dst, t, ("md", "mv", "add", "cp")):
                continue
            return SafetyResult.broken(Violation(
                f"dependence on {v.dep.var} (S{v.dep.src} → S{v.dep.dst}) is "
                "carried by the parallelized loop",
                code="par.safety.carried-dependence",
                witness={"src_sid": v.dep.src, "dst_sid": v.dep.dst,
                         "var": v.dep.var, "reason": v.reason}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        par_sid = post["parloop"]
        if not program.is_attached(par_sid):
            v = stmt_deleted_after(program, store, par_sid, record.stamp)
            return ReversibilityResult.blocked(
                v if v is not None else Violation(
                    "doall loop is detached",
                    code="par.reversibility.parloop-detached",
                    witness={"parloop": par_sid}))
        doall = program.node(par_sid)
        v = modified_after(program, store, par_sid, HEADER_PATH, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        # statements that entered the doall after the parallelization
        # would be stranded by the inverse moves — peel their authors.
        known = set(post["moved"])
        for member in doall.body:
            if member.sid in known:
                continue
            anns = [a for a in store.for_sid(member.sid)
                    if a.stamp > record.stamp
                    and a.kind in ("mv", "add", "cp")]
            if anns:
                a = min(anns, key=lambda x: x.stamp)
                return ReversibilityResult.blocked(Violation(
                    f"S{member.sid} entered the doall after t{record.stamp}",
                    action_id=a.action_id, stamp=a.stamp,
                    code="par.reversibility.intruder",
                    witness={"sid": member.sid, "annotation": a.kind}))
            return ReversibilityResult.blocked(Violation(
                f"S{member.sid} entered the doall with no recorded action "
                "(user edit)",
                code="par.reversibility.edit-intruder",
                witness={"sid": member.sid}))
        body_sids = [m.sid for m in doall.body]
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
                        f"moved statement S{sid} left the doall",
                        action_id=a.action_id, stamp=a.stamp,
                        code="par.reversibility.member-left",
                        witness={"sid": sid, "annotation": a.kind}))
                return ReversibilityResult.blocked(Violation(
                    f"moved statement S{sid} is no longer in the doall",
                    code="par.reversibility.member-missing",
                    witness={"sid": sid}))
        # the original location of the deleted sequential loop must resolve
        deleted = post["deleted"]
        del_act = next(a for a in record.actions if a.sid == deleted)
        v = container_context_violation(program, store, del_act.from_loc,
                                        record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Loop Parallelization (PAR)",
            "pre_pattern": "Loop L: no dependence carried by L; "
                           "no I/O in L.body;",
            "primitive_actions": "Add(DOALL P, L.location); "
                                 "Move(S, P.end) ∀ S ∈ L.body; Delete(L);",
            "post_pattern": "ParLoop P (L's header and body); Del_stmt L;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Add/Modify a statement creating a loop-carried dependence "
                "in the doall body (†)",
                "Add an I/O statement to the doall body (†)",
            ],
            "reversibility": [
                "Move/Delete one of the statements moved into the doall",
                "Modify the doall header (e.g. by INX)",
                "Move/Add/Copy a statement into the doall body",
                "Delete/Copy the context of L's original location",
            ],
        }
