"""User edit operations, recorded through the primitive-action machinery.

Edits are first-class history entries (``name="edit"``): they consume an
order stamp and leave annotations exactly like transformations, so the
reversibility checks can attribute a broken post pattern to an edit —
in which case the engine reports the transformation as unrecoverable by
automatic undo (the user changed the code out from under it).

:class:`EditSession` is a thin convenience layer over the command
pipeline: each method builds an :class:`repro.core.commands.EditCommand`
and runs it through ``engine.execute``, the same transactional path
applies and undos take.  That routing is load-bearing for durability —
an edit made through *any* entry point (including a bare
``EditSession(engine)`` someone constructs ad hoc) notifies the
engine's ``command_observers``, so a journaled engine records it with
its order stamp, success or failure alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.commands import EditCommand
from repro.core.engine import TransformationEngine
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import Expr, ExprPath, Stmt


@dataclass
class EditReport:
    """One applied edit plus its fallout."""

    record: TransformationRecord
    #: event-log position when the edit ran (its events follow it).
    event_cursor: int = 0
    #: stamps of transformations the edit made unsafe (filled by
    #: :func:`repro.edit.invalidate.find_unsafe` when requested).
    unsafe: List[int] = field(default_factory=list)
    #: stamps actually removed.
    removed: List[int] = field(default_factory=list)


class EditSession:
    """Applies user edits to an engine's program."""

    def __init__(self, engine: TransformationEngine):
        self.engine = engine

    def add_stmt(self, stmt: Stmt, loc: Location) -> EditReport:
        """Insert a new statement at ``loc``."""
        return self.engine.execute(EditCommand(kind="add", stmt=stmt,
                                               loc=loc))

    def delete_stmt(self, sid: int) -> EditReport:
        """Remove statement ``sid``."""
        return self.engine.execute(EditCommand(kind="delete", sid=sid))

    def move_stmt(self, sid: int, loc: Location) -> EditReport:
        """Relocate statement ``sid`` to ``loc``."""
        return self.engine.execute(EditCommand(kind="move", sid=sid,
                                               loc=loc))

    def modify_expr(self, sid: int, path: ExprPath, new: Expr) -> EditReport:
        """Replace the expression at ``(sid, path)`` with ``new``."""
        return self.engine.execute(EditCommand(kind="modify", sid=sid,
                                               path=path, expr=new))
