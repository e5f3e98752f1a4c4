"""The specification vocabulary: pattern predicates and action templates.

A :class:`TransformationSpec` consists of

* **pattern variables** — names bound to statements during matching
  (``"S"`` for the subject statement, ``"L"`` for a loop, ...);
* **preconditions** — :class:`Pred` instances over the bound statements,
  evaluated against the live analyses.  Each predicate knows how to
  *describe its own negation* and which primitive-action kinds can
  establish that negation: this is exactly the information Table 3
  tabulates, so the compiled transformation's disabling-condition rows
  are generated, not hand-written;
* **action templates** — what to do with the binding, expressed over the
  same five primitive actions the whole system uses.

The predicate vocabulary is deliberately small but real: everything the
compiled DCE and loop-reversal specs need, with analysis-backed
evaluation (liveness, dependence, trip counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.incremental import AnalysisCache
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Const,
    Loop,
    Program,
    Stmt,
    VarRef,
)
from repro.transforms.loop_utils import const_trip_count, contains_io, subtree_stmts, var_referenced

#: a binding of pattern variables to statement sids.
Binding = Dict[str, int]


@dataclass(frozen=True)
class Pred:
    """One precondition over bound pattern variables.

    Attributes
    ----------
    name:
        Predicate identifier (rendered in Table 2's pre-pattern column).
    vars:
        The pattern variables it constrains.
    test:
        ``(program, cache, binding) -> bool``.
    negation:
        Human-readable safety-disabling condition (Table 3 row text).
    disabling_actions:
        The primitive-action kinds whose application can establish the
        negation — the "detection of the disabling actions" the paper
        wants generated.  ``"edit"`` marks †-conditions reachable only
        through edits.
    """

    name: str
    vars: Tuple[str, ...]
    test: Callable[[Program, AnalysisCache, Binding], bool]
    negation: str
    disabling_actions: Tuple[str, ...] = ("add", "modify", "move", "delete")

    def holds(self, program: Program, cache: AnalysisCache,
              binding: Binding) -> bool:
        """Evaluate the predicate against a binding."""
        return self.test(program, cache, binding)

    def describe(self) -> str:
        """Compact rendering for generated documentation."""
        return f"{self.name}({', '.join(self.vars)})"


# ---------------------------------------------------------------------------
# Predicate library
# ---------------------------------------------------------------------------


def is_assign(var: str) -> Pred:
    """The bound statement is an assignment."""
    def test(program, cache, b):
        return isinstance(program.node(b[var]), Assign)

    return Pred("is_assign", (var,), test,
                f"{var} is no longer an assignment", ("modify", "delete"))


def is_loop(var: str) -> Pred:
    """The bound statement is a ``do`` loop."""
    def test(program, cache, b):
        return isinstance(program.node(b[var]), Loop)

    return Pred("is_loop", (var,), test,
                f"{var} is no longer a loop", ("modify", "delete"))


def dead_value(var: str) -> Pred:
    """The value computed by the bound assignment has no use."""

    def test(program, cache, b):
        stmt = program.node(b[var])
        if not isinstance(stmt, Assign):
            return False
        if isinstance(stmt.target, VarRef):
            key = stmt.target.name
        elif isinstance(stmt.target, ArrayRef):
            key = "@" + stmt.target.name
        else:
            return False
        return cache.dataflow().is_dead(b[var], key)

    return Pred("dead_value", (var,), test,
                f"a statement using the value computed by {var} appears "
                f"on a path {var} reaches",
                ("add", "modify", "move"))


def no_io(var: str) -> Pred:
    """The bound subtree contains no I/O statement."""
    def test(program, cache, b):
        return not contains_io(program.node(b[var]), cache.index())

    return Pred("no_io", (var,), test,
                f"an I/O statement entered {var}", ("add", "move"))


def no_carried_dependence(var: str) -> Pred:
    """No dependence is carried by the bound loop (DOALL-style)."""

    def test(program, cache, b):
        from repro.analysis.depend import loop_parallelizable

        loop = program.node(b[var])
        if not isinstance(loop, Loop):
            return False
        return loop_parallelizable(cache.dependences(), loop)

    return Pred("no_carried_dependence", (var,), test,
                f"a loop-carried dependence appeared in {var}",
                ("add", "modify", "move"))


def const_unit_header(var: str) -> Pred:
    """The bound loop has constant bounds, unit step, trip >= 1."""
    def test(program, cache, b):
        loop = program.node(b[var])
        return (isinstance(loop, Loop)
                and isinstance(loop.lower, Const)
                and isinstance(loop.upper, Const)
                and isinstance(loop.step, Const)
                and loop.step.value == 1
                and const_trip_count(loop) is not None
                and const_trip_count(loop) >= 1)

    return Pred("const_unit_header", (var,), test,
                f"the header of {var} is no longer a constant unit-step "
                "range", ("modify",))


def const_expr(var: str) -> Pred:
    """The bound assignment's right-hand side is a literal constant."""

    def test(program, cache, b):
        stmt = program.node(b[var])
        return isinstance(stmt, Assign) and isinstance(stmt.expr, Const)

    return Pred("const_expr", (var,), test,
                f"{var} no longer assigns a constant", ("modify", "delete"))


def scalar_target(var: str) -> Pred:
    """The bound assignment's target is a scalar variable."""
    def test(program, cache, b):
        stmt = program.node(b[var])
        return isinstance(stmt, Assign) and isinstance(stmt.target, VarRef)

    return Pred("scalar_target", (var,), test,
                f"{var} no longer assigns a scalar", ("modify", "delete"))


def sole_reaching_def(def_var: str, use_var: str) -> Pred:
    """``def_var`` is the unique definition of its target reaching
    ``use_var`` (a relational, two-variable predicate)."""

    def test(program, cache, b):
        d = program.node(b[def_var])
        if not isinstance(d, Assign) or not isinstance(d.target, VarRef):
            return False
        name = d.target.name
        defs = cache.dataflow().reaching(b[use_var], name)
        return defs == {(b[def_var], name)}

    return Pred("sole_reaching_def", (def_var, use_var), test,
                f"{def_var} is no longer the sole definition reaching "
                f"{use_var}", ("add", "move", "delete", "modify"))


def distinct(*vars: str) -> Pred:
    """The bound pattern variables are pairwise different statements."""
    def test(program, cache, b):
        sids = [b[v] for v in vars]
        return len(sids) == len(set(sids))

    return Pred("distinct", tuple(vars), test,
                "pattern variables collapsed", ())


def index_private(var: str) -> Pred:
    """The loop's index variable is referenced nowhere outside it."""

    def test(program, cache, b):
        loop = program.node(b[var])
        if not isinstance(loop, Loop):
            return False
        inside = {s.sid for s in subtree_stmts(loop)}
        return not var_referenced(cache.index(), loop.var,
                                  exclude_sids=inside)

    return Pred("index_private", (var,), test,
                f"the index of {var} is referenced outside the loop",
                ("add", "modify", "move", "edit"))


# ---------------------------------------------------------------------------
# Action templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionTemplate:
    """Base class for action templates over a binding."""

    var: str

    def describe(self) -> str:  # pragma: no cover - overridden
        """Compact rendering for generated documentation."""
        return f"?({self.var})"


@dataclass(frozen=True)
class DeleteStmt(ActionTemplate):
    """``Delete(S)`` — with the generated post pattern ``Del_stmt S;
    ptr orig_loc`` and Table 3's deleted/copied-context reversibility
    conditions."""

    def describe(self) -> str:
        """Compact rendering for generated documentation."""
        return f"Delete({self.var})"


@dataclass(frozen=True)
class HoistBeforeLoop(ActionTemplate):
    """``Move(S, L.prev)`` — hoist ``var`` before loop ``loop_var``."""

    loop_var: str = "L"

    def describe(self) -> str:
        """Compact rendering for generated documentation."""
        return f"Move({self.var}, {self.loop_var}.prev)"


@dataclass(frozen=True)
class ModifyOperand(ActionTemplate):
    """``Modify(exp(S, path), new)`` — path/new supplied by the binding
    params (for specs whose finder computes them)."""

    def describe(self) -> str:
        """Compact rendering for generated documentation."""
        return f"Modify(exp({self.var}, pos), new)"


@dataclass(frozen=True)
class ReverseHeader(ActionTemplate):
    """``Modify(L.header, reversed)`` — ``do i = l, u`` becomes
    ``do i = u, l, -1``."""

    def describe(self) -> str:
        """Compact rendering for generated documentation."""
        return f"Modify({self.var}.header, reversed)"


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


@dataclass
class TransformationSpec:
    """A declarative transformation definition."""

    name: str
    full_name: str
    #: pattern variables in matching order; the matcher enumerates
    #: candidate statements for each (backtracking join: predicates are
    #: checked as soon as all their variables are bound).
    variables: Tuple[str, ...]
    #: candidate filter per variable: statement-kind shorthands
    #: (``"assign"``/``"loop"``/``"any"``).
    domains: Dict[str, str]
    pre_conditions: List[Pred]
    actions: List[ActionTemplate]
    #: Table 4 row for the reverse-destroy heuristic.
    enables: frozenset = frozenset()
    #: optional parameter derivation for bindings that need more than
    #: statement identities (e.g. the operand position a ``Modify``
    #: rewrites): ``(program, cache, binding) -> list of param dicts``,
    #: one opportunity per dict; ``[]`` rejects the binding.
    derive: Optional[Callable] = None

    def pre_pattern_text(self) -> str:
        """Rendered pre pattern (the generated Table 2 column)."""
        return "; ".join(p.describe() for p in self.pre_conditions)

    def actions_text(self) -> str:
        """Rendered primitive-action templates."""
        return "; ".join(a.describe() for a in self.actions)
