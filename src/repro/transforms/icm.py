"""Invariant Code Motion (ICM).

Table 2 row::

    pre_pattern:        Loop L_1;  Stmt S_i;   /* S_i invariant in L_1 */
    primitive actions:  Move(S_i, L_1.prev);
    post_pattern:       Stmt S_i;  ptr orig_location;

Hoisting conditions (conservative):

* ``S_i`` is an assignment directly inside ``L_1``'s body;
* every scalar it reads (including subscripts of its target) is defined
  nowhere in ``L_1`` (the loop variable included), and every array it
  reads is written nowhere in ``L_1``;
* a **scalar** target must be defined only by ``S_i`` within ``L_1`` and
  used nowhere else in ``L_1``; the loop must provably execute at least
  once, or the target must be referenced nowhere outside the loop;
* an **array** target must be referenced nowhere else in ``L_1`` and the
  loop must provably execute at least once (hoisting introduces the
  store on the zero-trip path).

This is Figure 1's ``icm(4)``: after interchange, statement 5
(``A(j) = B(j) + 1``) is invariant in the new inner ``i`` loop and is
hoisted in front of it — the ``mv_4`` move that later blocks the
interchange's reversal (§5.2).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.incremental import AnalysisCache
from repro.analysis.regional import DefUseIndex
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Loop,
    Program,
    VarRef,
    expr_arrays,
    expr_vars,
)
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    container_context_violation,
    moved_after,
    stmt_deleted_after,
)
from repro.transforms.loop_utils import (
    const_trip_count,
    loop_defs_uses,
    subtree_stmts,
    var_referenced,
)


def _hoistable(index: DefUseIndex, loop: Loop, stmt: Assign) -> bool:
    """Check all invariance conditions for ``stmt`` within ``loop``."""
    sd, su, aw, ar = loop_defs_uses(loop, index)
    du = index.du(stmt)
    # operands invariant
    if du.uses & sd:
        return False
    if du.array_uses & aw:
        return False
    trip = const_trip_count(loop)
    at_least_once = trip is not None and trip >= 1
    order = subtree_stmts(loop)
    pos = {s.sid: k for k, s in enumerate(order)}
    others = [s for s in order if s.sid != stmt.sid]
    if isinstance(stmt.target, VarRef):
        v = stmt.target.name
        for o in others:
            odu = index.du(o)
            if v in odu.defs:
                return False  # another definition of the target in the loop
            # when re-checking an already-hoisted statement, it sits
            # before the loop: every in-loop use counts as "after" it.
            if v in odu.uses and pos[o.sid] < pos.get(stmt.sid, -1):
                # a textually earlier use would read the pre-loop value in
                # the first iteration; hoisting would change what it sees
                return False
        if not at_least_once:
            exclude = {s.sid for s in order}
            if var_referenced(index, v, exclude_sids=exclude):
                return False
        return True
    if isinstance(stmt.target, ArrayRef):
        if not at_least_once:
            return False
        a = stmt.target.name
        for o in others:
            odu = index.du(o)
            if a in odu.array_defs or a in odu.array_uses:
                return False
        return True
    return False


class InvariantCodeMotion(Transformation):
    """Hoist a loop-invariant assignment out of its loop."""

    name = "icm"
    full_name = "Invariant Code Motion"
    # Table 4, row ICM (published), extended with the parallel column:
    # hoisting an invariant scalar definition out of a loop removes the
    # carried scalar dependence it caused, enabling PAR.
    enables = frozenset({"cse", "icm", "fus", "inx", "par"})
    enables_published = True

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        index = cache.index()
        out: List[Opportunity] = []
        for s in program.walk():
            if type(s) is not Loop:  # sequential loops only (not DOALL)
                continue
            for member in s.body:
                if isinstance(member, Assign) and _hoistable(index, s, member):
                    out.append(Opportunity(
                        self.name, {"sid": member.sid, "loop": s.sid},
                        f"S{member.sid} invariant in loop S{s.sid}"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        sid, loop_sid = opp.params["sid"], opp.params["loop"]
        ctx.record.pre_pattern = {"sid": sid, "loop": loop_sid}
        orig = Location.of_stmt(ctx.program, sid)
        act = ctx.move(sid, Location.before(ctx.program, loop_sid))
        ctx.record.post_pattern = {
            "sid": sid, "loop": loop_sid, "orig_loc": act.from_loc,
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        t = record.stamp
        sid = record.post_pattern["sid"]
        loop_sid = record.post_pattern["loop"]
        if not program.is_attached(sid):
            return SafetyResult.ok()  # hoisted statement gone: nothing to protect
        if not program.is_attached(loop_sid):
            if ctx.deleted_by_active(loop_sid, t):
                return SafetyResult.ok()  # e.g. an emptied loop was removed
            return SafetyResult.broken(Violation(
                f"loop S{loop_sid} no longer exists",
                code="icm.safety.loop-deleted",
                witness={"loop_sid": loop_sid, "pattern": "Loop L_1"}))
        stmt = program.node(sid)
        loop = program.node(loop_sid)
        if not isinstance(stmt, Assign) or not isinstance(loop, Loop):
            return SafetyResult.broken(Violation(
                "pattern statements changed kind",
                code="icm.safety.kind-changed",
                witness={"sid": sid, "loop_sid": loop_sid}))
        index = ctx.cache.index()
        if not _hoistable(index, loop, stmt):
            # code legally rearranged by active later transformations
            # (e.g. FUS merged another body into the loop) composes to a
            # correct program even though the raw precondition fails.
            if ctx.subtree_touched_by_active(loop_sid, t) or \
                    ctx.attributed_to_active(sid, t, ("md", "mv")):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                f"S{sid} is no longer invariant in loop S{loop_sid}",
                code="icm.safety.not-invariant",
                witness={"sid": sid, "loop_sid": loop_sid}))
        # nothing between the hoisted statement and the loop may touch the
        # target (it would observe the hoisted value)
        parent = program.parent_of(sid)
        ploop = program.parent_of(loop_sid)
        if parent == ploop and parent is not None:
            lst = program.container_list(parent)
            i_s = program.index_in_container(sid)
            i_l = program.index_in_container(loop_sid)
            lo, hi = min(i_s, i_l), max(i_s, i_l)
            tdu = index.du(stmt)
            tnames = set(tdu.defs) | set(tdu.array_defs)
            for between in lst[lo + 1:hi]:
                bdu = index.du(between)
                if tnames & (set(bdu.defs) | set(bdu.uses)
                             | set(bdu.array_defs) | set(bdu.array_uses)):
                    if ctx.attributed_to_active(between.sid, t,
                                                ("mv", "add", "cp")):
                        continue
                    return SafetyResult.broken(Violation(
                        f"S{between.sid} between the hoisted statement and "
                        "the loop references the hoisted target",
                        code="icm.safety.target-observed",
                        witness={"sid": between.sid, "hoisted_sid": sid,
                                 "loop_sid": loop_sid}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        sid = post["sid"]
        v = stmt_deleted_after(program, store, sid, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        v = moved_after(program, store, sid, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        loc: Location = post["orig_loc"]
        v = container_context_violation(program, store, loc, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        if loc.resolve(program) is None:
            return ReversibilityResult.blocked(Violation(
                "original location inside the loop is unresolvable",
                code="icm.reversibility.location-unresolvable",
                witness={"container": list(loc.container)}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Invariant Code Motion (ICM)",
            "pre_pattern": "Loop L_1; Stmt S_i;",
            "primitive_actions": "Move(S_i, L_1.prev);",
            "post_pattern": "Stmt S_i; ptr orig_location;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Add/Move a definition of an operand of S_i into L_1 (†)",
                "Add/Move a reference to S_i's target into L_1 (†)",
                "Modify the loop bounds so L_1 may execute zero times (†)",
                "Delete the loop L_1",
            ],
            "reversibility": [
                "Delete context of the original location (the loop body)",
                "Copy context of the original location (e.g. by LUR)",
                "Move the hoisted statement S_i again",
            ],
        }
