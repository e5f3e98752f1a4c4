"""Constant Folding (CFO).

Replaces a ``const op const`` subexpression by its value, computed with
the reference interpreter's own operator semantics so folding can never
change observable behaviour.

Pattern::

    pre_pattern:        Stmt S_j: exp(pos) == c1 op c2;
    primitive actions:  Modify(exp(S_j, pos), eval(c1 op c2));
    post_pattern:       Stmt S_j: exp(pos) = const;

Folding is algebraically valid in any context, so its *safety* cannot be
disabled by other transformations — only its reversibility can (a later
``Modify`` of the same position, or deletion of ``S_j``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.incremental import AnalysisCache
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.lang.ast_nodes import BinOp, Const, Program, expr_at, exprs_equal, walk_expr
from repro.lang.interp import fold_binop
from repro.transforms.base import (
    ApplyContext,
    Opportunity,
    ReversibilityResult,
    SafetyResult,
    Transformation,
    Violation,
    candidate_stmts,
    modified_after,
    stmt_deleted_after,
)


class ConstantFolding(Transformation):
    """Evaluate constant subexpressions at compile time."""

    name = "cfo"
    full_name = "Constant Folding"
    # Derived row (not published in Table 4): folding produces constants,
    # which is what constant propagation and further folding feed on, and
    # may turn a computation dead.
    enables = frozenset({"ctp", "cfo", "dce"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        out: List[Opportunity] = []
        for s in candidate_stmts(program, cache.index().foldable):
            for slot, root in s.expr_slots():
                for sub_path, node in walk_expr(root):
                    if (isinstance(node, BinOp)
                            and isinstance(node.left, Const)
                            and isinstance(node.right, Const)):
                        path = (slot,) + sub_path
                        value = fold_binop(node.op, node.left.value,
                                           node.right.value)
                        out.append(Opportunity(
                            self.name,
                            dict(sid=s.sid, path=path, value=value,
                                 op=node.op),
                            f"S{s.sid}:{'.'.join(path)} "
                            f"{node.left.value} {node.op} {node.right.value}"
                            f" → {value}"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        p = opp.params
        old = expr_at(ctx.program.node(p["sid"]), p["path"])
        ctx.record.pre_pattern = {
            "sid": p["sid"], "path": p["path"], "old": old.clone(),
        }
        ctx.modify(p["sid"], p["path"], Const(p["value"]))
        ctx.record.post_pattern = {
            "sid": p["sid"], "path": p["path"], "expr": Const(p["value"]),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        # folding is context-free: nothing can make it change semantics.
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        sid, path = post["sid"], post["path"]
        v = stmt_deleted_after(program, store, sid, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        v = modified_after(program, store, sid, path, record.stamp)
        if v is not None:
            return ReversibilityResult.blocked(v)
        try:
            current = expr_at(program.node(sid), path)
        except KeyError:
            return ReversibilityResult.blocked(Violation(
                f"folded path {path} no longer exists on S{sid}",
                code="cfo.reversibility.path-gone",
                witness={"sid": sid, "path": list(path)}))
        if not exprs_equal(current, post["expr"]):
            return ReversibilityResult.blocked(Violation(
                f"expression at S{sid}:{'.'.join(path)} diverged from the "
                "post pattern",
                code="cfo.reversibility.expr-diverged",
                witness={"sid": sid, "path": list(path),
                         "pattern": "Stmt S_j: exp(pos) = const"}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Constant Folding (CFO)",
            "pre_pattern": "Stmt S_j: exp(pos) == c1 op c2;",
            "primitive_actions": "Modify(exp(S_j,pos), eval(c1 op c2));",
            "post_pattern": "Stmt S_j: exp(pos) = const;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [],
            "reversibility": [
                "Delete the folded statement S_j",
                "Modify the folded expression position again",
            ],
        }
