"""Copy Propagation (CPP).

Pattern::

    pre_pattern:        Stmt S_i: x = y;          /* a copy */
                        Stmt S_j: opr(pos) == x;  /* S_i sole reaching def,
                                                     y unchanged between */
    primitive actions:  Modify(opr(S_j, pos), y);
    post_pattern:       Stmt S_j: opr(pos) = y;

Legality requires that ``y`` holds the same value at ``S_j`` as it did at
``S_i``; with ``S_i`` dominating every reaching path, this is equivalent
to the reaching-definition sets of ``y`` at ``S_i`` and ``S_j`` being
identical.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.incremental import AnalysisCache
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.lang.ast_nodes import (
    Assign,
    Program,
    VarRef,
    expr_at,
    exprs_equal,
    walk_expr,
)
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
from repro.transforms.ctp import _use_paths


def _copy_def(program, cache, use_sid: int, var: str):
    """The unique copy-assignment def reaching a use, or ``None``.

    Returns ``(def_sid, source_var)`` when the sole reaching definition
    of ``var`` at ``use_sid`` is ``var = source_var`` and the reaching
    definitions of ``source_var`` are identical at both points.
    """
    df = cache.dataflow()
    defs = df.reaching(use_sid, var)
    if len(defs) != 1:
        return None
    def_sid = next(iter(defs))[0]
    if not program.is_attached(def_sid):
        return None
    stmt = program.node(def_sid)
    if not (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)
            and stmt.target.name == var and isinstance(stmt.expr, VarRef)):
        return None
    src = stmt.expr.name
    if df.reaching(def_sid, src) != df.reaching(use_sid, src):
        return None
    return def_sid, src


class CopyPropagation(Transformation):
    """Replace a use of a copy by the copy's source."""

    name = "cpp"
    full_name = "Copy Propagation"
    # Derived row (not published in Table 4): propagating copies kills
    # uses (enabling DCE of the copy), exposes identical expressions
    # (CSE), can rewrite a use into a constant-defined variable (CTP),
    # and like CTP can unlock loop restructuring.
    enables = frozenset({"dce", "cse", "ctp", "cpp", "icm", "fus", "inx"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        # only a use of a name some ``v = w`` defines can be a hit
        index = cache.index()
        readers, names = index.readers_of(index.copy_defs)
        out: List[Opportunity] = []
        for s in candidate_stmts(program, readers):
            for path in _use_paths(s):
                node = expr_at(s, path)
                if node.name not in names:
                    continue
                hit = _copy_def(program, cache, s.sid, node.name)
                if hit is None:
                    continue
                def_sid, src = hit
                if src == node.name:
                    continue
                out.append(Opportunity(
                    self.name,
                    {"def_sid": def_sid, "use_sid": s.sid, "path": path,
                     "var": node.name, "src": src},
                    f"{node.name}@S{s.sid}:{'.'.join(path)} ← {src} "
                    f"(copy at S{def_sid})"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        p = opp.params
        ctx.record.pre_pattern = {
            "def_sid": p["def_sid"], "use_sid": p["use_sid"],
            "var": p["var"], "src": p["src"], "path": p["path"],
        }
        ctx.modify(p["use_sid"], p["path"], VarRef(p["src"]))
        ctx.record.post_pattern = {
            "use_sid": p["use_sid"], "path": p["path"],
            "expr": VarRef(p["src"]),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program, cache = ctx.program, ctx.cache
        pre = record.pre_pattern
        def_sid, use_sid = pre["def_sid"], pre["use_sid"]
        t = record.stamp
        if not program.is_attached(use_sid):
            return SafetyResult.ok()
        if not program.is_attached(def_sid):
            if ctx.deleted_by_active(def_sid, t):
                return SafetyResult.ok()  # e.g. the dead copy was DCE'd
            return SafetyResult.broken(Violation(
                f"copy definition S{def_sid} no longer exists",
                code="cpp.safety.def-deleted",
                witness={"def_sid": def_sid,
                         "pattern": "Stmt S_i: x = y"}))
        stmt = program.node(def_sid)
        if not (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)
                and stmt.target.name == pre["var"]
                and isinstance(stmt.expr, VarRef)
                and stmt.expr.name == pre["src"]):
            if ctx.attributed_to_active(def_sid, t, ("md",)):
                return SafetyResult.ok()  # e.g. CTP rewrote the copy's RHS
            return SafetyResult.broken(Violation(
                f"S{def_sid} is no longer the copy {pre['var']} = {pre['src']}",
                code="cpp.safety.def-changed",
                witness={"def_sid": def_sid, "var": pre["var"],
                         "src": pre["src"]}))
        df = cache.dataflow()
        defs = df.reaching(use_sid, pre["var"])
        key = (def_sid, pre["var"])
        extras = [d for d in defs - {key}
                  if not ctx.attributed_to_active(d[0], t, ("cp", "add", "mv"))]
        if extras:
            return SafetyResult.broken(Violation(
                f"S{extras[0][0]} also defines {pre['var']} reaching "
                f"S{use_sid}",
                code="cpp.safety.competing-def",
                witness={"def_sid": extras[0][0], "use_sid": use_sid,
                         "var": pre["var"]}))
        if key not in defs and not ctx.attributed_to_active(def_sid, t, ("mv",)):
            return SafetyResult.broken(Violation(
                f"S{def_sid} no longer reaches S{use_sid}",
                code="cpp.safety.def-unreaching",
                witness={"def_sid": def_sid, "use_sid": use_sid,
                         "var": pre["var"]}))
        src = pre["src"]
        diff = df.reaching(def_sid, src) ^ df.reaching(use_sid, src)
        unexplained = [d for d in diff
                       if not ctx.attributed_to_active(d[0], t,
                                                       ("cp", "add", "mv"))]
        if unexplained:
            return SafetyResult.broken(Violation(
                f"{src} may be redefined between S{def_sid} and S{use_sid}",
                code="cpp.safety.source-redefined",
                witness={"def_sid": def_sid, "use_sid": use_sid,
                         "source": src}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        sid, path = post["use_sid"], post["path"]
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
                f"operand path {path} no longer exists on S{sid}",
                code="cpp.reversibility.path-gone",
                witness={"sid": sid, "path": list(path)}))
        if not exprs_equal(current, post["expr"]):
            return ReversibilityResult.blocked(Violation(
                f"operand at S{sid}:{'.'.join(path)} no longer matches the "
                "post pattern",
                code="cpp.reversibility.operand-mismatch",
                witness={"sid": sid, "path": list(path),
                         "pattern": "Stmt S_j: opr(pos) = y"}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Copy Propagation (CPP)",
            "pre_pattern": "Stmt S_i: x = y; Stmt S_j: opr(pos) == x;",
            "primitive_actions": "Modify(opr(S_j,pos), y);",
            "post_pattern": "Stmt S_j: opr(pos) = y;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Delete the copy S_i",
                "Modify S_i so it is no longer the copy x = y",
                "Add/Move a definition of x or y between S_i and S_j (†)",
            ],
            "reversibility": [
                "Delete the modified statement S_j",
                "Modify the propagated operand of S_j again",
            ],
        }
