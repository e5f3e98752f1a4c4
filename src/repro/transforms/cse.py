"""(Global) Common Subexpression Elimination (CSE).

Table 2 row::

    pre_pattern:        Stmt S_i: A = B op C;
                        Stmt S_j: D = B op C;
    primitive actions:  Modify(exp(S_j, B op C), A);
    post_pattern:       Stmt S_j: D = A;

Legality (validated against available-expressions, dominance and
reaching definitions):

* ``S_i`` dominates ``S_j`` and evaluates the same ``B op C``;
* neither ``B`` nor ``C`` may be redefined between them (their
  reaching-definition sets coincide at ``S_i`` and ``S_j``);
* ``A`` still holds ``S_i``'s value at ``S_j`` (its sole reaching
  definition there is ``S_i``).

This is the paper's Figure 1 ``cse(1)``: statement 6's ``E + F`` is
replaced by ``D``, with the original subexpression tree retained on the
ADAG under the ``md_1`` annotation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import expr_key
from repro.analysis.incremental import AnalysisCache
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.lang.ast_nodes import (
    Assign,
    Const,
    Program,
    VarRef,
    exprs_equal,
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
)


def _operand_names(key: Tuple) -> List[str]:
    return [val for tag, val in (key[1], key[2]) if tag == "v"]


class CommonSubexpressionElimination(Transformation):
    """Replace a recomputed ``B op C`` by the variable already holding it."""

    name = "cse"
    full_name = "Common Subexpression Elimination"
    # Table 4, row CSE (published).
    enables = frozenset({"cse", "cpp", "fus"})
    enables_published = True

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        df = cache.dataflow()
        cfg = cache.cfg()
        # candidate producers: A = B op C with a simple key
        producers: List[Tuple[int, str, Tuple]] = []
        for s in program.walk():
            if (isinstance(s, Assign) and isinstance(s.target, VarRef)):
                key = expr_key(s.expr)
                if key is not None:
                    producers.append((s.sid, s.target.name, key))
        out: List[Opportunity] = []
        for s in program.walk():
            if not isinstance(s, Assign):
                continue
            key = expr_key(s.expr)
            if key is None or not df.available(s.sid, key):
                continue
            for def_sid, a_name, pkey in producers:
                if pkey != key or def_sid == s.sid:
                    continue
                if not cfg.dominates(def_sid, s.sid):
                    continue
                if df.reaching(s.sid, a_name) != frozenset({(def_sid, a_name)}):
                    continue
                ok = True
                for opn in _operand_names(key):
                    if df.reaching(def_sid, opn) != df.reaching(s.sid, opn):
                        ok = False
                        break
                if not ok:
                    continue
                out.append(Opportunity(
                    self.name,
                    {"def_sid": def_sid, "use_sid": s.sid, "var": a_name,
                     "key": key},
                    f"S{s.sid} reuses S{def_sid}'s "
                    f"{key[1][1]} {key[0]} {key[2][1]} via {a_name}"))
                break  # one producer per consumer is enough
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        p = opp.params
        use_stmt = ctx.program.node(p["use_sid"])
        ctx.record.pre_pattern = {
            "def_sid": p["def_sid"], "use_sid": p["use_sid"],
            "var": p["var"], "key": p["key"],
            "old_expr": use_stmt.expr.clone(),
        }
        ctx.modify(p["use_sid"], ("expr",), VarRef(p["var"]))
        ctx.record.post_pattern = {
            "use_sid": p["use_sid"], "path": ("expr",),
            "expr": VarRef(p["var"]),
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program, cache = ctx.program, ctx.cache
        pre = record.pre_pattern
        def_sid, use_sid = pre["def_sid"], pre["use_sid"]
        key, a_name = pre["key"], pre["var"]
        t = record.stamp
        if not program.is_attached(use_sid):
            return SafetyResult.ok()
        if not program.is_attached(def_sid):
            if ctx.deleted_by_active(def_sid, t):
                return SafetyResult.ok()
            return SafetyResult.broken(Violation(
                f"producer S{def_sid} of the common subexpression is gone",
                code="cse.safety.producer-deleted",
                witness={"def_sid": def_sid,
                         "pattern": "Stmt S_i: A = B op C"}))
        stmt = program.node(def_sid)
        if not (isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)
                and stmt.target.name == a_name
                and expr_key(stmt.expr) == key):
            if ctx.attributed_to_active(def_sid, t, ("md",)):
                return SafetyResult.ok()  # e.g. CTP/CFO rewrote the producer
            return SafetyResult.broken(Violation(
                f"S{def_sid} no longer computes the subexpression into {a_name}",
                code="cse.safety.producer-changed",
                witness={"def_sid": def_sid, "var": a_name}))
        cfg = cache.cfg()
        if not cfg.dominates(def_sid, use_sid):
            if ctx.attributed_to_active(def_sid, t, ("mv",)) or \
                    ctx.attributed_to_active(use_sid, t, ("mv",)):
                return SafetyResult.ok()  # relocated by an active transform
            return SafetyResult.broken(Violation(
                f"S{def_sid} no longer dominates S{use_sid}",
                code="cse.safety.dominance-lost",
                witness={"def_sid": def_sid, "use_sid": use_sid}))
        df = cache.dataflow()
        defs_a = df.reaching(use_sid, a_name)
        akey = (def_sid, a_name)
        extras = [d for d in defs_a - {akey}
                  if not ctx.attributed_to_active(d[0], t, ("cp", "add", "mv"))]
        if extras:
            return SafetyResult.broken(Violation(
                f"S{extras[0][0]} also defines {a_name} reaching S{use_sid}",
                code="cse.safety.competing-def",
                witness={"def_sid": extras[0][0], "use_sid": use_sid,
                         "var": a_name}))
        if akey not in defs_a and not ctx.attributed_to_active(def_sid, t,
                                                               ("mv",)):
            return SafetyResult.broken(Violation(
                f"{a_name} from S{def_sid} no longer reaches S{use_sid}",
                code="cse.safety.def-unreaching",
                witness={"def_sid": def_sid, "use_sid": use_sid,
                         "var": a_name}))
        for opn in _operand_names(key):
            diff = df.reaching(def_sid, opn) ^ df.reaching(use_sid, opn)
            unexplained = [d for d in diff
                           if not ctx.attributed_to_active(
                               d[0], t, ("cp", "add", "mv"))]
            if unexplained:
                return SafetyResult.broken(Violation(
                    f"operand {opn} may be redefined between "
                    f"S{def_sid} and S{use_sid}",
                    code="cse.safety.operand-redefined",
                    witness={"def_sid": def_sid, "use_sid": use_sid,
                             "operand": opn}))
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
        current = program.node(sid).expr
        if not exprs_equal(current, post["expr"]):
            return ReversibilityResult.blocked(Violation(
                f"right-hand side of S{sid} no longer matches the post "
                "pattern",
                code="cse.reversibility.rhs-mismatch",
                witness={"sid": sid, "pattern": "Stmt S_j: D = A"}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Common Subexpression Elimination (CSE)",
            "pre_pattern": "Stmt S_i: A = B op C; Stmt S_j: D = B op C;",
            "primitive_actions": "Modify(exp(S_j, B op C), A);",
            "post_pattern": "Stmt S_j: D = A;",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Delete the producer S_i",
                "Modify S_i so it no longer computes B op C into A",
                "Add/Move a definition of A, B or C between S_i and S_j (†)",
            ],
            "reversibility": [
                "Delete the modified statement S_j",
                "Modify the replaced expression of S_j again",
            ],
        }
