"""Constant Propagation (CTP).

Table 2 row::

    pre_pattern:        Stmt S_i: type(opr_2) == const;
                        Stmt S_j: opr(pos) == S_i.opr_2;
    primitive actions:  Modify(opr(S_j, pos), S_i.opr_2);
    post_pattern:       Stmt S_j: opr(pos) = S_i.opr_2;

One application replaces a single operand occurrence (the ``pos`` of the
pattern) — Figure 1's ``ctp(2)`` replaces the ``C`` in statement 5 by the
constant ``1``, retaining the original operand under an ``md_2``
annotation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.incremental import AnalysisCache
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.lang.ast_nodes import (
    Assign,
    Const,
    Program,
    VarRef,
    exprs_equal,
    expr_at,
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


def _const_def(program, cache, use_sid: int, var: str):
    """The unique constant-assignment def reaching a use, or ``None``."""
    df = cache.dataflow()
    defs = df.reaching(use_sid, var)
    if len(defs) != 1:
        return None
    def_sid = next(iter(defs))[0]
    if not program.is_attached(def_sid):
        return None
    stmt = program.node(def_sid)
    if (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)
            and stmt.target.name == var and isinstance(stmt.expr, Const)):
        return def_sid, stmt.expr.value
    return None


def _use_paths(stmt) -> List[tuple]:
    """Paths of every scalar-variable occurrence usable as an operand.

    The assignment target's base variable is excluded (it is a def), but
    array-subscript variables anywhere are fair game.
    """
    paths = []
    for slot, root in stmt.expr_slots():
        for sub_path, node in walk_expr(root):
            if isinstance(node, VarRef):
                full = (slot,) + sub_path
                if slot == "target" and not sub_path:
                    continue  # scalar assignment target: a def, not a use
                paths.append(full)
    return paths


class ConstantPropagation(Transformation):
    """Replace a variable operand by the constant that must reach it."""

    name = "ctp"
    full_name = "Constant Propagation"
    # Table 4, row CTP (published), PLUS a documented deviation: our CTP
    # replaces one operand occurrence at a time, so propagating into a
    # copy (``w = v`` → ``w = 1``) creates a new constant definition that
    # enables a further CTP.  The published row marks CTP→CTP "-" (a
    # whole-program constant propagator saturates in one application);
    # omitting the self-entry makes the reverse-destroy heuristic unsound
    # at occurrence granularity.  See EXPERIMENTS.md (T4).
    enables = frozenset({"dce", "cse", "ctp", "cfo", "icm", "smi", "fus",
                         "inx"})
    enables_published = True

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        # only a use of a name some ``v = const`` defines can be a hit
        index = cache.index()
        readers, names = index.readers_of(index.const_defs)
        out: List[Opportunity] = []
        for s in candidate_stmts(program, readers):
            for path in _use_paths(s):
                node = expr_at(s, path)
                if node.name not in names:
                    continue
                hit = _const_def(program, cache, s.sid, node.name)
                if hit is None:
                    continue
                def_sid, value = hit
                out.append(Opportunity(
                    self.name,
                    {"def_sid": def_sid, "use_sid": s.sid, "path": path,
                     "var": node.name, "value": value},
                    f"{node.name}@S{s.sid}:{'.'.join(path)} ← {value} "
                    f"(from S{def_sid})"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        p = opp.params
        ctx.record.pre_pattern = {
            "def_sid": p["def_sid"], "use_sid": p["use_sid"],
            "var": p["var"], "value": p["value"], "path": p["path"],
        }
        ctx.modify(p["use_sid"], p["path"], Const(p["value"]))
        ctx.record.post_pattern = {
            "use_sid": p["use_sid"], "path": p["path"],
            "expr": Const(p["value"]),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program, cache = ctx.program, ctx.cache
        pre = record.pre_pattern
        def_sid, use_sid = pre["def_sid"], pre["use_sid"]
        t = record.stamp
        if not program.is_attached(use_sid):
            # the transformed statement is gone; nothing to preserve
            return SafetyResult.ok()
        if not program.is_attached(def_sid):
            # a later active transformation (typically DCE, which CTP
            # itself enabled) may legally have removed the now-dead
            # definition; only undos/edits deleting it break safety.
            if ctx.deleted_by_active(def_sid, t):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                f"constant definition S{def_sid} no longer exists",
                code="ctp.safety.def-deleted",
                witness={"def_sid": def_sid,
                         "pattern": "Stmt S_i: type(opr_2) == const"}))
        stmt = program.node(def_sid)
        if not (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)
                and stmt.target.name == pre["var"]
                and isinstance(stmt.expr, Const)
                and stmt.expr.value == pre["value"]):
            if ctx.attributed_to_active(def_sid, t, ("md",)):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                f"S{def_sid} no longer assigns {pre['value']} to {pre['var']}",
                code="ctp.safety.def-changed",
                witness={"def_sid": def_sid, "var": pre["var"],
                         "value": pre["value"]}))
        df = cache.dataflow()
        defs = df.reaching(use_sid, pre["var"])
        key = (def_sid, pre["var"])
        extras = [d for d in defs - {key}
                  if not ctx.attributed_to_active(d[0], t, ("cp", "add", "mv"))]
        if extras:
            return SafetyResult.broken(Violation(
                f"S{extras[0][0]} also defines {pre['var']} reaching "
                f"S{use_sid}",
                code="ctp.safety.competing-def",
                witness={"def_sid": extras[0][0], "use_sid": use_sid,
                         "var": pre["var"]}))
        if key not in defs and not ctx.attributed_to_active(def_sid, t, ("mv",)):
            return SafetyResult.broken(Violation(
                f"S{def_sid} no longer reaches S{use_sid}",
                code="ctp.safety.def-unreaching",
                witness={"def_sid": def_sid, "use_sid": use_sid,
                         "var": pre["var"]}))
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
                code="ctp.reversibility.path-gone",
                witness={"sid": sid, "path": list(path)}))
        if not exprs_equal(current, post["expr"]):
            return ReversibilityResult.blocked(Violation(
                f"operand at S{sid}:{'.'.join(path)} no longer matches the "
                "post pattern",
                code="ctp.reversibility.operand-mismatch",
                witness={"sid": sid, "path": list(path),
                         "pattern": "Stmt S_j: opr(pos) = S_i.opr_2"}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Constant Propagation (CTP)",
            "pre_pattern": "Stmt S_i: type(opr_2) == const; "
                           "Stmt S_j: opr(pos) == S_i.opr_2;",
            "primitive_actions": "Modify(opr(S_j,pos), S_i.opr_2);",
            "post_pattern": "Stmt S_j: opr(pos) = S_i.opr_2;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Delete the constant definition S_i",
                "Modify S_i so it no longer assigns the propagated constant",
                "Add/Move a definition of the variable onto a path reaching S_j (†)",
            ],
            "reversibility": [
                "Delete the modified statement S_j",
                "Modify the propagated operand of S_j again",
            ],
        }
