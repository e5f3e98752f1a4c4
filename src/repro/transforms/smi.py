"""Strip Mining (SMI).

Pattern::

    pre_pattern:        Loop L (var i, const bounds, unit step,
                        trip divisible by the strip size s);
    primitive actions:  Add(L.prev, -, Loop i_o = lower, upper, s);
                        Move(L, i_o.body);
                        Modify(L.header, i = i_o .. i_o + s - 1);
    post_pattern:       Tight Loops (i_o, L);

Strip mining (a.k.a. loop sectioning/blocking in one dimension) is the
canonical *enabler* of vectorization and tiling: the inner loop's trip
count becomes the fixed strip size.  Because the trip count divides
evenly, no residue loop is needed and the transformation is exactly
semantics preserving.  The fresh outer index variable is chosen to
collide with nothing in the program.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.incremental import AnalysisCache
from repro.analysis.regional import DefUseIndex
from repro.core.actions import HEADER_PATH, HeaderSpec
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import BinOp, Const, Loop, Program, VarRef
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    modified_after,
    stmt_deleted_after,
)
from repro.transforms.loop_utils import (
    const_trip_count,
    subtree_stmts,
    var_referenced,
)

#: strip sizes tried by the opportunity finder, smallest first.
CANDIDATE_STRIPS = (4, 2, 8)


def _fresh_var(index: DefUseIndex, base: str) -> str:
    """An index name not referenced anywhere in the program."""
    k = 0
    while True:
        name = f"{base}_o" if k == 0 else f"{base}_o{k}"
        if not var_referenced(index, name, exclude_sids=set()):
            return name
        k += 1


class StripMining(Transformation):
    """Split one loop into an outer strip loop and an inner element loop."""

    name = "smi"
    full_name = "Strip Mining"
    # Derived row (not published in Table 4): the created 2-deep nest is
    # what interchange (tiling) and further sectioning feed on.
    enables = frozenset({"inx", "icm"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        out: List[Opportunity] = []
        for s in program.walk():
            if type(s) is not Loop:  # sequential loops only (not DOALL)
                continue
            if not (isinstance(s.step, Const) and s.step.value == 1):
                continue
            trip = const_trip_count(s)
            if trip is None or trip < 4:
                continue
            for strip in CANDIDATE_STRIPS:
                if trip % strip == 0 and trip > strip:
                    out.append(Opportunity(
                        self.name, {"loop": s.sid, "strip": strip},
                        f"strip-mine S{s.sid} ({s.var}) by {strip}"))
                    break
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        loop_sid = opp.params["loop"]
        strip = opp.params["strip"]
        loop = ctx.program.node(loop_sid)
        outer_var = _fresh_var(ctx.cache.index(), loop.var)
        ctx.record.pre_pattern = {
            "loop": loop_sid, "strip": strip,
            "header": HeaderSpec.of(loop), "outer_var": outer_var,
        }
        outer = Loop(outer_var, loop.lower.clone(), loop.upper.clone(),
                     Const(strip), [])
        add_act = ctx.add(outer, Location.before(ctx.program, loop_sid))
        ctx.move(loop_sid, Location.at(ctx.program, (outer.sid, "body"), 0))
        new_header = HeaderSpec(
            loop.var, VarRef(outer_var),
            BinOp("+", VarRef(outer_var), Const(strip - 1)), Const(1))
        ctx.modify_header(loop_sid, new_header)
        ctx.record.post_pattern = {
            "outer": outer.sid, "inner": loop_sid, "strip": strip,
            "outer_var": outer_var, "inner_header": new_header,
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        post = record.post_pattern
        t = record.stamp
        outer_sid, inner_sid = post["outer"], post["inner"]
        strip = post["strip"]
        if not program.is_attached(outer_sid):
            return SafetyResult.ok()
        if not program.is_attached(inner_sid):
            if ctx.deleted_by_active(inner_sid, t):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "the strip-mined loop vanished",
                code="smi.safety.loop-deleted",
                witness={"inner_sid": inner_sid}))
        outer = program.node(outer_sid)
        inner = program.node(inner_sid)
        if not isinstance(outer, Loop) or not isinstance(inner, Loop):
            return SafetyResult.broken(Violation(
                "pattern statements changed kind",
                code="smi.safety.kind-changed",
                witness={"outer_sid": outer_sid, "inner_sid": inner_sid}))
        header_rewritten = (ctx.attributed_to_active(outer_sid, t, ("md",))
                            or ctx.attributed_to_active(inner_sid, t, ("md",)))
        if not (isinstance(outer.lower, Const) and isinstance(outer.upper, Const)
                and isinstance(outer.step, Const)
                and outer.step.value == strip):
            if header_rewritten:
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "outer strip header was altered",
                code="smi.safety.header-altered",
                witness={"outer_sid": outer_sid, "strip": strip}))
        trip = outer.upper.value - outer.lower.value + 1
        if trip % strip != 0:
            if header_rewritten:
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "trip count is no longer divisible by the strip size — the "
                "last strip would overrun the original bounds",
                code="smi.safety.indivisible-trip",
                witness={"outer_sid": outer_sid, "trip": trip,
                         "strip": strip}))
        # the fresh index must still be private to the pair
        pair_sids = {s.sid for s in subtree_stmts(outer)}
        if var_referenced(ctx.cache.index(), post["outer_var"],
                          exclude_sids=pair_sids):
            return SafetyResult.broken(Violation(
                f"outer index {post['outer_var']} is referenced outside "
                "the strip nest",
                code="smi.safety.index-escaped",
                witness={"outer_var": post["outer_var"]}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        outer_sid, inner_sid = post["outer"], post["inner"]
        for sid in (outer_sid, inner_sid):
            v = stmt_deleted_after(program, store, sid, record.stamp)
            if v is not None:
                return ReversibilityResult.blocked(v)
        v = modified_after(program, store, inner_sid, HEADER_PATH, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        outer = program.node(outer_sid)
        occupants = [m for m in outer.body if m.sid != inner_sid]
        if occupants or program.parent_of(inner_sid) != (outer_sid, "body"):
            for m in occupants:
                anns = [a for a in store.for_sid(m.sid)
                        if a.stamp > record.stamp
                        and a.kind in ("mv", "add", "cp")]
                if anns:
                    a = min(anns, key=lambda x: x.stamp)
                    return ReversibilityResult.blocked(Violation(
                        f"S{m.sid} entered the strip nest",
                        action_id=a.action_id, stamp=a.stamp,
                        code="smi.reversibility.intruder",
                        witness={"sid": m.sid, "annotation": a.kind}))
            return ReversibilityResult.blocked(Violation(
                "the strip nest is no longer tight",
                code="smi.reversibility.nest-broken",
                witness={"outer_sid": outer_sid, "inner_sid": inner_sid}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Strip Mining (SMI)",
            "pre_pattern": "Loop L: const bounds, unit step, trip % s == 0;",
            "primitive_actions": "Add(L.prev, -, Loop i_o by s); "
                                 "Move(L, i_o.body); "
                                 "Modify(L.header, i_o..i_o+s-1);",
            "post_pattern": "Tight Loops (i_o, L);",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Modify the bounds so the trip count stops dividing by s (†)",
                "Add/Move a reference to the fresh outer index elsewhere (†)",
            ],
            "reversibility": [
                "Move/Add a statement into the strip nest",
                "Modify the inner loop header again",
                "Delete either loop of the nest",
            ],
        }
