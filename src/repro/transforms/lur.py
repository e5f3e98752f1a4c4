"""Loop Unrolling (LUR), by a factor of two.

Pattern::

    pre_pattern:        Loop L (const bounds, even trip count,
                        straight-line body);
    primitive actions:  Copy(S, L.end) for each body statement S;
                        Modify(i-occurrence, i + step) in every copy;
                        Modify(L.header, step = 2*step);
    post_pattern:       Loop L with body ++ shifted copies, doubled step;

LUR is the paper's canonical *context-copying* transformation: its
``Copy`` actions leave ``cps`` annotations on the original body
statements, which is exactly what makes an earlier DCE/ICM in that loop
irreversible ("copy context of the location ... by LUR", Table 3) until
the unrolling itself is undone.

Restrictions (conservative, for exact semantics preservation):

* constant ``lower``/``upper``/``step`` with an even, positive trip
  count — no remainder loop is needed;
* the body is straight-line assignments (no nested control, no I/O);
* no body statement assigns the loop variable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.incremental import AnalysisCache
from repro.analysis.regional import DefUseIndex
from repro.core.actions import HEADER_PATH, HeaderSpec
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import (
    BinOp,
    Const,
    Loop,
    Program,
    VarRef,
    walk_expr,
)
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    modified_after,
    stmt_deleted_after,
    subtree_touched_after,
)
from repro.transforms.loop_utils import const_trip_count, is_simple_body


def _unrollable(loop: Loop, index: DefUseIndex) -> bool:
    trip = const_trip_count(loop)
    if trip is None or trip < 2 or trip % 2 != 0:
        return False
    if not loop.body or not is_simple_body(loop):
        return False
    for s in loop.body:
        if loop.var in index.du(s).defs:
            return False
    return True


def _var_paths(stmt, name: str) -> List[tuple]:
    """Paths of every occurrence of scalar ``name`` in the statement."""
    out = []
    for slot, root in stmt.expr_slots():
        for sub_path, node in walk_expr(root):
            if isinstance(node, VarRef) and node.name == name:
                out.append((slot,) + sub_path)
    return out


class LoopUnrolling(Transformation):
    """Duplicate the loop body and double the step."""

    name = "lur"
    full_name = "Loop Unrolling"
    # Derived row (not published in Table 4): duplicated bodies expose
    # identical expressions (CSE) and constant arithmetic (CFO).
    enables = frozenset({"cse", "cfo"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        index = cache.index()
        out: List[Opportunity] = []
        for s in program.walk():
            if type(s) is Loop and _unrollable(s, index):  # sequential only
                out.append(Opportunity(
                    self.name, {"loop": s.sid},
                    f"unroll S{s.sid} ({s.var}) by 2"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        loop_sid = opp.params["loop"]
        loop = ctx.program.node(loop_sid)
        step = loop.step.value
        originals = [m.sid for m in loop.body]
        ctx.record.pre_pattern = {
            "loop": loop_sid, "originals": list(originals),
            "header": HeaderSpec.of(loop),
        }
        clones: List[int] = []
        for sid in originals:
            act = ctx.copy(sid, Location.at(ctx.program, (loop_sid, "body"),
                                            len(loop.body)))
            clones.append(act.sid)
        # shift every loop-variable occurrence in the copies by one step
        for csid in clones:
            stmt = ctx.program.node(csid)
            for path in _var_paths(stmt, loop.var):
                ctx.modify(csid, path,
                           BinOp("+", VarRef(loop.var), Const(step)))
        new_header = HeaderSpec(loop.var, loop.lower.clone(),
                                loop.upper.clone(), Const(2 * step))
        ctx.modify_header(loop_sid, new_header)
        ctx.record.post_pattern = {
            "loop": loop_sid, "originals": list(originals),
            "clones": clones, "factor": 2,
            "orig_step": step, "header": new_header,
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        post = record.post_pattern
        t = record.stamp
        loop_sid = post["loop"]
        if not program.is_attached(loop_sid):
            return SafetyResult.ok()
        loop = program.node(loop_sid)
        if not isinstance(loop, Loop):
            return SafetyResult.broken(Violation(
                "unrolled statement is no longer a loop",
                code="lur.safety.kind-changed",
                witness={"loop_sid": loop_sid}))
        header_rewritten = ctx.attributed_to_active(loop_sid, t, ("md",))
        if not (isinstance(loop.lower, Const) and isinstance(loop.upper, Const)
                and isinstance(loop.step, Const)):
            if header_rewritten:
                return SafetyResult.ok()  # e.g. INX swapped the headers
            return SafetyResult.broken(Violation(
                "loop bounds are no longer constant",
                code="lur.safety.non-constant-bounds",
                witness={"loop_sid": loop_sid}))
        orig_step = post["orig_step"]
        if loop.step.value != 2 * orig_step:
            if header_rewritten:
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "loop step diverged from 2x original",
                code="lur.safety.step-diverged",
                witness={"loop_sid": loop_sid, "orig_step": orig_step}))
        trip = (loop.upper.value - loop.lower.value) // orig_step + 1
        if trip < 2 or trip % 2 != 0:
            if header_rewritten:
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                "original trip count is no longer even — the unrolled loop "
                "would drop iterations",
                code="lur.safety.odd-trip-count",
                witness={"loop_sid": loop_sid, "trip": trip}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        loop_sid = post["loop"]
        v = stmt_deleted_after(program, store, loop_sid, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        v = modified_after(program, store, loop_sid, HEADER_PATH, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        for csid in post["clones"]:
            v = stmt_deleted_after(program, store, csid, record.stamp)
            if v is not None:
                return ReversibilityResult.blocked(v)
            if program.parent_of(csid) != (loop_sid, "body"):
                return ReversibilityResult.blocked(Violation(
                    f"unrolled copy S{csid} left the loop body",
                    code="lur.reversibility.clone-left",
                    witness={"sid": csid, "loop_sid": loop_sid}))
            # later transformations inside a copy must be undone before
            # the copy can be deleted.
            v = subtree_touched_after(program, store, csid, record.stamp)
            if v is not None:
                return ReversibilityResult.blocked(v)
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Loop Unrolling (LUR)",
            "pre_pattern": "Loop L: const bounds, even trip, simple body;",
            "primitive_actions": "Copy(S, L.end) ∀ S ∈ body; "
                                 "Modify(i, i+step) in copies; "
                                 "Modify(L.step, 2*step);",
            "post_pattern": "Loop L: body ++ shifted copies, doubled step;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Modify the loop bounds so the trip count becomes odd (†)",
                "Modify the loop step again",
            ],
            "reversibility": [
                "Delete/Move one of the unrolled copies",
                "Modify anything inside an unrolled copy (later transformation)",
                "Modify the loop header again",
            ],
        }
