"""Scalar Privatization (PRV).

Pattern::

    pre_pattern:        Loop L; scalar t: every iteration writes t before
                        reading it; t dead outside L;
    primitive actions:  Modify(occ(S, pos), t_prv(L.var)) for every
                        occurrence of t in L.body;
    post_pattern:       every former occurrence of t reads/writes
                        t_prv(L.var);

A scalar defined and used inside a loop carries conservative
anti/output dependences between iterations — the single memory cell is
reused — which disables PAR.  Privatization gives each iteration its
own copy by rewriting ``t`` to the subscripted ``t_prv(i)``: the
dependence analysis then sees equal-subscript array accesses (distance
0, loop-independent) and the loop becomes parallelizable.  PRV is the
enabling transformation for PAR the way constant propagation is for
dead-code elimination.

Undoing PRV collapses the private copies back into one cell, which
*reintroduces* the carried scalar dependences — so besides PAR, a later
loop interchange whose legality rested on the privatized nest is also
in its reverse-destroy set (Table 4 row ``prv``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.incremental import AnalysisCache
from repro.analysis.regional import DefUseIndex
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Loop,
    Program,
    VarRef,
    expr_at,
    exprs_equal,
    stmt_defuse,
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
)
from repro.transforms.loop_utils import subtree_stmts, var_referenced


def _private_name(var: str) -> str:
    return f"{var}_prv"


def _occurrence_paths(stmt, var: str) -> List[Tuple[str, ...]]:
    """Paths of every occurrence of scalar ``var`` in ``stmt`` (defs too)."""
    paths = []
    for slot, root in stmt.expr_slots():
        for sub_path, node in walk_expr(root):
            if isinstance(node, VarRef) and node.name == var:
                paths.append((slot,) + sub_path)
    return paths


def _privatizable(program: Program, index: DefUseIndex,
                  loop: Loop) -> List[str]:
    """Scalars eligible for privatization in ``loop``, in first-def order.

    Conservative eligibility: every occurrence of the scalar sits in a
    *direct* member of the loop body (no nested control flow), the first
    referencing member writes it without reading it, and the scalar is
    dead outside the loop.
    """
    body_sids = {s.sid for s in loop.body}
    subtree_sids = {s.sid for s in subtree_stmts(loop)}
    nested_sids = subtree_sids - body_sids - {loop.sid}
    out: List[str] = []
    seen = set()
    for member in loop.body:
        du = index.du(member)
        for t in sorted(du.defs):
            if t in seen or t == loop.var:
                continue
            seen.add(t)
            if not (isinstance(member, Assign)
                    and isinstance(member.target, VarRef)
                    and member.target.name == t and t not in du.uses):
                continue  # first touching member must be a pure def of t
            # the first body member referencing t must be this def
            first = next((m for m in loop.body
                          if t in index.du(m).defs
                          or t in index.du(m).uses), None)
            if first is not member:
                continue
            if any(t in index.du(program.node(sid)).defs
                   or t in index.du(program.node(sid)).uses
                   for sid in nested_sids):
                continue  # occurrence under nested control flow
            if var_referenced(index, t, exclude_sids=subtree_sids):
                continue  # live outside the loop
            priv = _private_name(t)
            if var_referenced(index, priv, exclude_sids=set()) or any(
                    priv in index.du(program.node(sid)).array_defs
                    or priv in index.du(program.node(sid)).array_uses
                    for sid in subtree_sids if program.is_attached(sid)):
                continue  # the private name is already taken
            out.append(t)
    return out


class ScalarPrivatization(Transformation):
    """Give each loop iteration a private copy of a temporary scalar."""

    name = "prv"
    full_name = "Scalar Privatization"
    # Derived row: privatization is what makes PAR legal, and collapsing
    # the private copies back into one cell reintroduces carried scalar
    # dependences that can also invalidate a later loop interchange.
    enables = frozenset({"par", "inx"})
    enables_published = False

    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        index = cache.index()
        out: List[Opportunity] = []
        for s in program.walk():
            if type(s) is not Loop:  # sequential loops only (not DOALL)
                continue
            for t in _privatizable(program, index, s):
                out.append(Opportunity(
                    self.name, {"loop": s.sid, "var": t},
                    f"privatize {t} in loop S{s.sid} as "
                    f"{_private_name(t)}({s.var})"))
        return out

    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        loop_sid, var = opp.params["loop"], opp.params["var"]
        loop = ctx.program.node(loop_sid)
        priv = _private_name(var)
        occurrences: List[Tuple[int, Tuple[str, ...]]] = []
        ctx.record.pre_pattern = {
            "loop": loop_sid, "var": var, "private": priv,
            "loop_var": loop.var,
        }
        for member in list(loop.body):
            for path in _occurrence_paths(member, var):
                ctx.modify(member.sid, path,
                           ArrayRef(priv, [VarRef(loop.var)]))
                occurrences.append((member.sid, path))
        ctx.record.post_pattern = {
            "var": var, "private": priv, "loop_var": loop.var,
            "occurrences": occurrences,
        }

    def check_safety(self, ctx, record: TransformationRecord) -> SafetyResult:
        program = ctx.program
        pre = record.pre_pattern
        post = record.post_pattern
        t = record.stamp
        var, priv = pre["var"], pre["private"]
        occ_sids = {sid for sid, _path in post["occurrences"]}
        if not any(program.is_attached(sid) for sid in occ_sids):
            return SafetyResult.ok()  # every privatized statement is gone
        # the base scalar must still be dead outside the privatized
        # statements: a new reader would observe the missing final value.
        index = ctx.cache.index()
        for s in program.walk():
            if s.sid in occ_sids:
                continue
            du = index.du(s)
            if var in du.defs or var in du.uses:
                if ctx.attributed_to_active(s.sid, t, ("md", "mv", "add", "cp")):
                    continue
                return SafetyResult.broken(Violation(
                    f"S{s.sid} references {var} outside the privatized loop",
                    code="prv.safety.escapes",
                    witness={"sid": s.sid, "var": var}))
            if priv in du.array_defs or priv in du.array_uses:
                if ctx.attributed_to_active(s.sid, t, ("md", "mv", "add", "cp")):
                    continue
                return SafetyResult.broken(Violation(
                    f"S{s.sid} references the private copy {priv} outside "
                    "the privatized statements",
                    code="prv.safety.private-escapes",
                    witness={"sid": s.sid, "array": priv}))
        return SafetyResult.ok()

    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        post = record.post_pattern
        priv, loop_var = post["private"], post["loop_var"]
        expected = ArrayRef(priv, [VarRef(loop_var)])
        occ_sids = {sid for sid, _path in post["occurrences"]}
        for sid, path in post["occurrences"]:
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
                    f"occurrence path {path} no longer exists on S{sid}",
                    code="prv.reversibility.path-gone",
                    witness={"sid": sid, "path": list(path)}))
            if not exprs_equal(current, expected):
                return ReversibilityResult.blocked(Violation(
                    f"occurrence at S{sid}:{'.'.join(path)} no longer "
                    f"matches {priv}({loop_var})",
                    code="prv.reversibility.occurrence-mismatch",
                    witness={"sid": sid, "path": list(path)}))
        # a statement outside the recorded occurrences referencing the
        # private copy (an unrolled duplicate, a copy) would keep reading
        # t_prv after the inverse modifies collapse it — peel its author.
        for s in program.walk():
            if s.sid in occ_sids:
                continue
            du = stmt_defuse(s)
            if priv not in du.array_defs and priv not in du.array_uses:
                continue
            anns = [a for a in store.for_sid(s.sid)
                    if a.stamp > record.stamp
                    and a.kind in ("cp", "add", "mv", "md")]
            if anns:
                a = min(anns, key=lambda x: x.stamp)
                return ReversibilityResult.blocked(Violation(
                    f"S{s.sid} references the private copy {priv} and was "
                    f"created after t{record.stamp}",
                    action_id=a.action_id, stamp=a.stamp,
                    code="prv.reversibility.private-shared",
                    witness={"sid": s.sid, "array": priv,
                             "annotation": a.kind}))
            return ReversibilityResult.blocked(Violation(
                f"S{s.sid} references the private copy {priv} with no "
                "recorded action (user edit)",
                code="prv.reversibility.private-edit",
                witness={"sid": s.sid, "array": priv}))
        return ReversibilityResult.ok()

    def table2_row(self) -> Dict[str, str]:
        return {
            "transformation": "Scalar Privatization (PRV)",
            "pre_pattern": "Loop L; scalar t: write-before-read each "
                           "iteration; t dead outside L;",
            "primitive_actions": "Modify(occ(S,pos), t_prv(L.var)) "
                                 "∀ occurrences of t in L.body;",
            "post_pattern": "every former occurrence of t is t_prv(L.var);",
        }

    def table3_row(self) -> Dict[str, List[str]]:
        return {
            "safety": [
                "Add/Modify a statement referencing t outside the loop (†)",
                "Add/Modify a statement referencing t_prv outside the "
                "privatized statements (†)",
            ],
            "reversibility": [
                "Delete one of the privatized statements",
                "Modify a privatized occurrence again",
                "Copy/Add/Move a statement that references t_prv",
            ],
        }
