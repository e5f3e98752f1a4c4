"""Shared helpers for the loop-restructuring transformations."""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.regional import DefUseIndex
from repro.lang.ast_nodes import Assign, Const, Loop, Program, Stmt


def subtree_stmts(stmt: Stmt) -> List[Stmt]:
    """``stmt`` and every statement nested inside it, preorder."""
    out = [stmt]
    for slot in stmt.body_slots():
        for c in stmt.get_body(slot):
            out.extend(subtree_stmts(c))
    return out


def loop_defs_uses(loop: Loop, index: DefUseIndex
                   ) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
    """``(scalar defs, scalar uses, arrays written, arrays read)`` of the
    loop's entire subtree, including the header (which defines the loop
    variable)."""
    sd: Set[str] = set()
    su: Set[str] = set()
    aw: Set[str] = set()
    ar: Set[str] = set()
    for s in subtree_stmts(loop):
        du = index.du(s)
        sd |= du.defs
        su |= du.uses
        aw |= du.array_defs
        ar |= du.array_uses
    return sd, su, aw, ar


def const_trip_count(loop: Loop) -> Optional[int]:
    """Iteration count when all header expressions are constants."""
    if not (isinstance(loop.lower, Const) and isinstance(loop.upper, Const)
            and isinstance(loop.step, Const)):
        return None
    lo, up, st = loop.lower.value, loop.upper.value, loop.step.value
    if st == 0:
        return None
    n = (up - lo) // st + 1
    if n != int(n):
        n = int(n)
    return max(0, int(n))


def contains_io(stmt: Stmt, index: DefUseIndex) -> bool:
    """True when the subtree contains a ``read`` or ``write`` statement."""
    return any(index.du(s).is_io for s in subtree_stmts(stmt))


def is_simple_body(loop: Loop) -> bool:
    """True when the loop body is straight-line assignments only."""
    return all(isinstance(s, Assign) for s in loop.body)


def var_referenced(index: DefUseIndex, name: str, *,
                   exclude_sids: Set[int]) -> bool:
    """Does any attached statement outside ``exclude_sids`` mention ``name``?"""
    bits = index.defs.get(name, 0) | index.scalar_uses.get(name, 0)
    for sid in exclude_sids:
        bits &= ~(1 << sid)
    return bits != 0


def tight_nest(program: Program, loop: Loop) -> Optional[Loop]:
    """The inner loop when ``loop``'s body is exactly one nested loop."""
    if len(loop.body) == 1 and isinstance(loop.body[0], Loop):
        return loop.body[0]
    return None
