"""Dead Code Elimination (DCE).

Table 2 row::

    pre_pattern:        Stmt S_i;  /* dead code */
    primitive actions:  Delete(S_i);
    post_pattern:       Del_stmt S_i;  ptr orig_loc;

Table 3 row (the one the paper spells out in full):

* **safety-disabling**: a statement ``S_l`` using the value computed by
  ``S_i`` appears on a path ``S_i`` reaches — by adding a statement, by
  modifying a statement into a use, or (edits only, †) by moving a
  statement onto the path.
* **reversibility-disabling**: the original location of ``S_i`` cannot
  be determined — its context was deleted (e.g. the enclosing loop was
  removed) or copied (e.g. the enclosing loop was duplicated by loop
  unrolling).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.incremental import AnalysisCache
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import ArrayRef, Assign, Program, VarRef
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    container_context_violation,
)


class DeadCodeElimination(Transformation):
    """Delete an assignment whose computed value is never used."""

    name = "dce"
    full_name = "Dead Code Elimination"
    # Table 4, row DCE (published), extended with the parallel columns:
    # deleting a dead in-loop definition can remove a carried scalar
    # dependence (enabling PAR) and can make a remaining scalar
    # write-before-read (enabling PRV).
    enables = frozenset({"dce", "cse", "cpp", "icm", "fus", "inx",
                         "par", "prv"})
    enables_published = True

    # -- find -----------------------------------------------------------------

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        df = cache.dataflow()
        out: List[Opportunity] = []
        for s in program.walk():
            if not isinstance(s, Assign):
                continue
            if isinstance(s.target, VarRef):
                key = s.target.name
            elif isinstance(s.target, ArrayRef):
                key = "@" + s.target.name
            else:  # pragma: no cover - grammar is closed
                continue
            if df.is_dead(s.sid, key):
                out.append(Opportunity(
                    self.name, {"sid": s.sid},
                    f"S{s.sid} defines unused {key.lstrip('@')}"))
        return out

    # -- apply ---------------------------------------------------------------------

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        sid = opp.params["sid"]
        stmt = ctx.program.node(sid)
        if isinstance(stmt.target, VarRef):
            target = stmt.target.name
        else:
            target = "@" + stmt.target.name
        ctx.record.pre_pattern = {"sid": sid, "target": target}
        act = ctx.delete(sid)
        ctx.record.post_pattern = {
            "sid": sid,
            "orig_loc": act.from_loc,
            "target": target,
        }

    # -- safety -----------------------------------------------------------------------

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        """Probe whether the deleted statement would still be dead.

        The deleted statement is temporarily restored at its original
        location (bypassing history), liveness is recomputed — a counted
        from-scratch run that reads every other statement's local facts
        from the def/use index — and the statement removed again.  This implements Table 3's condition
        ``∃ S_l ∋ (S_i δ S_l)`` exactly: any use the restored value would
        reach disables the transformation's safety.  (No benign
        attribution is needed: a legal transformation can never introduce
        a use of a value that reached no use — it would sever nothing.)
        """
        program = ctx.program
        sid = record.post_pattern["sid"]
        loc: Location = record.post_pattern["orig_loc"]
        target: str = record.post_pattern["target"]
        if program.is_attached(sid):
            return SafetyResult.broken(Violation(
                f"deleted statement S{sid} is unexpectedly attached",
                code="dce.safety.reattached", witness={"sid": sid}))
        resolved = loc.resolve(program)
        if resolved is None:
            # the context is gone entirely; the deleted code has no
            # restore point and no reachable uses — still safe.
            return SafetyResult.ok()
        ref, idx = resolved
        cache = ctx.cache
        # every statement but the restored one keeps its indexed facts;
        # ask before the trial, which the log does not account for
        index = cache.index()
        with program.probe():
            program.insert(ref, idx, program.node(sid))
            try:
                with cache.counters.timed("dataflow"):
                    df = analyze_dataflow(program, index=index)
                cache.counters.count_dataflow(df)
                dead = df.is_dead(sid, target)
            finally:
                program.detach(sid)
        if dead:
            return SafetyResult.ok()
        return SafetyResult.broken(Violation(
            f"a use of {target.lstrip('@')} now reaches the deleted "
            f"statement S{sid}",
            code="dce.safety.use-reaches",
            witness={"sid": sid, "target": target.lstrip("@"),
                     "pattern": "∃ S_l ∋ (S_i δ S_l)"}))

    # -- reversibility ---------------------------------------------------------------------

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        loc: Location = record.post_pattern["orig_loc"]
        v = container_context_violation(program, store, loc, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        if loc.resolve(program) is None:
            return ReversibilityResult.blocked(Violation(
                "original location is unresolvable",
                code="dce.reversibility.location-unresolvable",
                witness={"container": list(loc.container)}))
        return ReversibilityResult.ok()

    # -- documentation ------------------------------------------------------------------------

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Dead Code Elimination (DCE)",
            "pre_pattern": "Stmt S_i; /*dead code*/",
            "primitive_actions": "Delete(S_i);",
            "post_pattern": "Del_stmt S_i; ptr orig_loc;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Add a statement S_l that uses value computed by S_i",
                "Modify a statement S_l that uses value computed by S_i",
                "Move a statement S_l on the path so that S_i reaches (†)",
            ],
            "reversibility": [
                "Delete context of the location (e.g. delete the loop it belongs to)",
                "Copy context of the location (e.g. copy the loop it belongs to by LUR)",
            ],
        }
