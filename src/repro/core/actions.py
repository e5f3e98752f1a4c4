"""The five primitive actions of Table 1 and their inverse actions.

==========================================  ===================================
Action                                      Inverse action
==========================================  ===================================
``Delete (a)``                              ``Add (orig_location, -, a)``
``Copy (a, location, c)``                   ``Delete (c)``
``Move (a, location)``                      ``Move (a, orig_location)``
``Add (location, description, a)``          ``Delete (a)``
``Modify (exp(a), new_exp)``                ``Modify (new_exp(a), exp)``
==========================================  ===================================

Every transformation in :mod:`repro.transforms` is *expressed as a
sequence of these actions*, applied through the :class:`ActionApplier`.
This is what makes the undo technique transformation independent: new
transformations can be added without touching the undo machinery, because
undoing is just running inverse actions (once the reversibility checks
pass).

Each applied action

* records an :class:`ActionRecord` carrying everything needed to invert it,
* leaves order-stamped annotations on the representation (Figure 2), and
* emits :class:`~repro.core.events.Event` objects for the event-driven
  regional undo.

``Modify`` comes in two flavours: expression modification (addressed by
an expression path within a statement) and *loop-header* modification,
used by loop interchange's ``Modify(L1, L2)`` which swaps the headers of
two loops while their bodies stay in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.annotations import Annotation, AnnotationStore
from repro.core.events import Event, EventKind, EventLog
from repro.core.locations import Location
from repro.lang.ast_nodes import (
    Expr,
    ExprPath,
    Loop,
    Program,
    Stmt,
    expr_at,
    exprs_equal,
    replace_expr,
)


class ActionError(RuntimeError):
    """Raised when an action or inverse action cannot be performed.

    The UNDO algorithm's post-pattern checks exist precisely to prevent
    these; reaching one during an undo indicates either a bug or a caller
    bypassing the reversibility protocol.
    """


class ActionKind(enum.Enum):
    """The primitive action vocabulary of Table 1."""

    DELETE = "delete"
    COPY = "copy"
    MOVE = "move"
    ADD = "add"
    MODIFY = "modify"


@dataclass(frozen=True)
class HeaderSpec:
    """A snapshot of a loop header ``(var, lower, upper, step)``."""

    var: str
    lower: Expr
    upper: Expr
    step: Expr

    @staticmethod
    def of(loop: Loop) -> "HeaderSpec":
        return HeaderSpec(loop.var, loop.lower.clone(), loop.upper.clone(),
                          loop.step.clone())

    def install(self, loop: Loop) -> None:
        """Write this header's fields onto ``loop`` (clones the exprs)."""
        loop.var = self.var
        loop.lower = self.lower.clone()
        loop.upper = self.upper.clone()
        loop.step = self.step.clone()
        loop._h = None  # the loop's cached content hash covers its header


#: Expression path marking a loop-header modification.
HEADER_PATH: ExprPath = ("header",)


@dataclass
class ActionRecord:
    """One applied primitive action, with everything needed to invert it."""

    action_id: int
    stamp: int
    kind: ActionKind
    #: primary statement: the deleted/added/moved/modified statement, or
    #: the *clone* for COPY.
    sid: int
    #: COPY only: the statement that was copied.
    src_sid: Optional[int] = None
    #: original location (DELETE origin, MOVE origin).
    from_loc: Optional[Location] = None
    #: destination (ADD, COPY, MOVE target).
    to_loc: Optional[Location] = None
    #: MODIFY: path of the replaced subtree (or ``HEADER_PATH``).
    path: Optional[ExprPath] = None
    #: MODIFY: replaced/replacement subtrees (clones, immutable).
    old_expr: Optional[Expr] = None
    new_expr: Optional[Expr] = None
    #: MODIFY(header): replaced/replacement headers.
    old_header: Optional[HeaderSpec] = None
    new_header: Optional[HeaderSpec] = None
    #: annotations this action placed (removed again when inverted).
    annotations: List[Annotation] = field(default_factory=list)

    def describe(self) -> str:
        """Compact rendering, e.g. ``del_2(S5)`` or ``md_4(S6.expr)``."""
        base = {
            ActionKind.DELETE: "del",
            ActionKind.COPY: "cp",
            ActionKind.MOVE: "mv",
            ActionKind.ADD: "add",
            ActionKind.MODIFY: "md",
        }[self.kind]
        tgt = f"S{self.sid}"
        if self.kind is ActionKind.MODIFY and self.path is not None:
            tgt += "." + ".".join(self.path)
        return f"{base}_{self.stamp}({tgt})"


class ActionApplier:
    """Applies primitive actions to a program, recording history.

    One applier is shared by all transformations operating on a program;
    it owns the global action-id counter, the annotation store, and the
    event log.
    """

    def __init__(self, program: Program,
                 store: Optional[AnnotationStore] = None,
                 events: Optional[EventLog] = None):
        self.program = program
        self.store = store if store is not None else AnnotationStore()
        self.events = events if events is not None else EventLog()
        # the log accounts for the program as the applier finds it
        self.events.version = program.version
        self._next_action_id = 1
        #: instrumentation: actions applied / inverted.
        self.applied_count = 0
        self.inverted_count = 0
        #: optional cross-record sibling orderer (see
        #: :func:`repro.core.locations.make_sibling_orderer`), used when
        #: inverse actions restore statements into contested positions.
        self.orderer = None
        #: optional callback ``note(stamp)`` invoked whenever an action
        #: mutates the record with that stamp (forward apply appends an
        #: action; invert strips annotations).  The incremental
        #: fingerprint uses it to re-digest only dirty history records.
        self.note = None

    def _note(self, stamp: int) -> None:
        if self.note is not None:
            self.note(stamp)

    # -- instrumentation / persistence hooks ---------------------------------

    @property
    def next_action_id(self) -> int:
        """The id the next applied action will receive (persisted by the
        durable-session serializer so restored sessions never reuse ids)."""
        return self._next_action_id

    def restore_instrumentation(self, next_action_id: int,
                                applied: int, inverted: int) -> None:
        """Restore the id counter and apply/invert totals after a reopen."""
        self._next_action_id = next_action_id
        self.applied_count = applied
        self.inverted_count = inverted

    # -- internals -----------------------------------------------------------

    def _new_id(self) -> int:
        aid = self._next_action_id
        self._next_action_id += 1
        return aid

    def _annotate(self, rec: ActionRecord, kind: str, sid: int,
                  path: Optional[ExprPath] = None) -> None:
        ann = Annotation(kind=kind, stamp=rec.stamp, action_id=rec.action_id,
                         sid=sid, path=path)
        self.store.add(ann)
        rec.annotations.append(ann)

    def _emit(self, rec: ActionRecord, kind: EventKind, sid: int,
              containers: Tuple, inverse: bool = False) -> None:
        self.events.emit(Event(kind=kind, sid=sid, containers=tuple(containers),
                               stamp=rec.stamp, action_id=rec.action_id,
                               inverse=inverse))
        self.events.version = self.program.version

    # -- forward actions ---------------------------------------------------------

    def delete(self, stamp: int, sid: int) -> ActionRecord:
        """``Delete (a)`` — detach statement ``sid``, remembering its origin."""
        if not self.program.is_attached(sid):
            raise ActionError(f"cannot delete detached statement {sid}")
        origin = Location.of_stmt(self.program, sid)
        self.program.detach(sid)
        rec = ActionRecord(self._new_id(), stamp, ActionKind.DELETE, sid,
                           from_loc=origin)
        self._annotate(rec, "del", sid)
        self._emit(rec, EventKind.STMT_REMOVED, sid, (origin.container,))
        self._note(stamp)
        self.applied_count += 1
        return rec

    def add(self, stamp: int, stmt: Stmt, loc: Location) -> ActionRecord:
        """``Add (location, description, a)`` — insert a (new) statement."""
        resolved = loc.resolve(self.program)
        if resolved is None:
            raise ActionError(f"add target {loc} is not resolvable")
        ref, idx = resolved
        self.program.register(stmt)
        self.program.insert(ref, idx, stmt)
        rec = ActionRecord(self._new_id(), stamp, ActionKind.ADD, stmt.sid,
                           to_loc=loc)
        self._annotate(rec, "add", stmt.sid)
        self._emit(rec, EventKind.STMT_INSERTED, stmt.sid, (ref,))
        self._note(stamp)
        self.applied_count += 1
        return rec

    def move(self, stamp: int, sid: int, loc: Location) -> ActionRecord:
        """``Move (a, location)`` — relocate an attached statement."""
        if not self.program.is_attached(sid):
            raise ActionError(f"cannot move detached statement {sid}")
        origin = Location.of_stmt(self.program, sid)
        resolved = loc.resolve(self.program)
        if resolved is None:
            raise ActionError(f"move target {loc} is not resolvable")
        ref, idx = resolved
        self.program.detach(sid)
        # detaching may shift the index within the same container
        resolved2 = loc.resolve(self.program)
        assert resolved2 is not None
        ref, idx = resolved2
        self.program.insert(ref, idx, self.program.node(sid))
        rec = ActionRecord(self._new_id(), stamp, ActionKind.MOVE, sid,
                           from_loc=origin, to_loc=loc)
        self._annotate(rec, "mv", sid)
        self._emit(rec, EventKind.STMT_MOVED, sid, (origin.container, ref))
        self._note(stamp)
        self.applied_count += 1
        return rec

    def copy(self, stamp: int, src_sid: int, loc: Location) -> ActionRecord:
        """``Copy (a, location, c)`` — clone ``a`` and insert the clone."""
        if not self.program.is_attached(src_sid):
            raise ActionError(f"cannot copy detached statement {src_sid}")
        resolved = loc.resolve(self.program)
        if resolved is None:
            raise ActionError(f"copy target {loc} is not resolvable")
        ref, idx = resolved
        clone = self.program.clone_subtree(self.program.node(src_sid))
        self.program.insert(ref, idx, clone)
        rec = ActionRecord(self._new_id(), stamp, ActionKind.COPY, clone.sid,
                           src_sid=src_sid, to_loc=loc)
        self._annotate(rec, "cp", clone.sid)
        self._annotate(rec, "cps", src_sid)
        self._emit(rec, EventKind.STMT_INSERTED, clone.sid, (ref,))
        self._note(stamp)
        self.applied_count += 1
        return rec

    def modify(self, stamp: int, sid: int, path: ExprPath,
               new_expr: Expr) -> ActionRecord:
        """``Modify (exp(a), new_exp)`` — replace an expression subtree."""
        stmt = self.program.node(sid)
        old = replace_expr(stmt, path, new_expr.clone())
        self.program.touch(sid)
        rec = ActionRecord(self._new_id(), stamp, ActionKind.MODIFY, sid,
                           path=path, old_expr=old.clone(),
                           new_expr=new_expr.clone())
        self._annotate(rec, "md", sid, path)
        containers = ()
        parent = self.program.parent_of(sid)
        if parent is not None:
            containers = (parent,)
        self._emit(rec, EventKind.EXPR_MODIFIED, sid, containers)
        self._note(stamp)
        self.applied_count += 1
        return rec

    def modify_header(self, stamp: int, loop_sid: int,
                      new_header: HeaderSpec) -> ActionRecord:
        """``Modify (L, H)`` — replace a loop's ``(var, bounds, step)``.

        Loop interchange is three of these plus a ``Copy`` (Table 2).
        """
        loop = self.program.node(loop_sid)
        if not isinstance(loop, Loop):
            raise ActionError(f"statement {loop_sid} is not a loop")
        old = HeaderSpec.of(loop)
        new_header.install(loop)
        self.program.touch(loop_sid)
        rec = ActionRecord(self._new_id(), stamp, ActionKind.MODIFY, loop_sid,
                           path=HEADER_PATH, old_header=old,
                           new_header=new_header)
        self._annotate(rec, "md", loop_sid, HEADER_PATH)
        containers = ()
        parent = self.program.parent_of(loop_sid)
        if parent is not None:
            containers = (parent, (loop_sid, "body"))
        self._emit(rec, EventKind.HEADER_MODIFIED, loop_sid, containers)
        self._note(stamp)
        self.applied_count += 1
        return rec

    # -- inverse actions --------------------------------------------------------------

    def invert(self, rec: ActionRecord, undo_stamp: int) -> None:
        """Perform the inverse of ``rec`` (Table 1, right column).

        Also removes the annotations the forward action placed — undoing a
        transformation erases it from the history, as §5.2 notes for the
        immediate reversals of CSE and CTP.
        """
        if rec.kind is ActionKind.DELETE:
            self._invert_delete(rec, undo_stamp)
        elif rec.kind is ActionKind.ADD:
            self._invert_add(rec, undo_stamp)
        elif rec.kind is ActionKind.MOVE:
            self._invert_move(rec, undo_stamp)
        elif rec.kind is ActionKind.COPY:
            self._invert_copy(rec, undo_stamp)
        elif rec.kind is ActionKind.MODIFY:
            self._invert_modify(rec, undo_stamp)
        else:  # pragma: no cover - enum is closed
            raise ActionError(f"unknown action kind {rec.kind}")
        for ann in rec.annotations:
            try:
                self.store.remove(ann)
            except (KeyError, ValueError):  # already gone: tolerated
                pass
        rec.annotations.clear()
        self._note(rec.stamp)
        self.inverted_count += 1

    def _invert_delete(self, rec: ActionRecord, undo_stamp: int) -> None:
        # inverse: Add(orig_location, -, a)
        assert rec.from_loc is not None
        resolved = rec.from_loc.resolve(self.program, orderer=self.orderer,
                                        self_sid=rec.sid)
        if resolved is None:
            raise ActionError(
                f"original location of deleted statement {rec.sid} is gone; "
                "affecting transformations were not undone first")
        ref, idx = resolved
        if self.program.is_attached(rec.sid):
            raise ActionError(f"statement {rec.sid} is unexpectedly attached")
        self.program.insert(ref, idx, self.program.node(rec.sid))
        self._emit(rec, EventKind.STMT_INSERTED, rec.sid, (ref,), inverse=True)

    def _invert_add(self, rec: ActionRecord, undo_stamp: int) -> None:
        # inverse: Delete(a)
        if not self.program.is_attached(rec.sid):
            raise ActionError(f"added statement {rec.sid} already detached")
        origin = Location.of_stmt(self.program, rec.sid)
        self.program.detach(rec.sid)
        self._emit(rec, EventKind.STMT_REMOVED, rec.sid, (origin.container,),
                   inverse=True)

    def _invert_move(self, rec: ActionRecord, undo_stamp: int) -> None:
        # inverse: Move(a, orig_location)
        assert rec.from_loc is not None
        if not self.program.is_attached(rec.sid):
            raise ActionError(f"moved statement {rec.sid} is detached")
        here = Location.of_stmt(self.program, rec.sid)
        resolved = rec.from_loc.resolve(self.program, orderer=self.orderer,
                                        self_sid=rec.sid)
        if resolved is None:
            raise ActionError(
                f"origin of moved statement {rec.sid} is gone; "
                "affecting transformations were not undone first")
        self.program.detach(rec.sid)
        resolved = rec.from_loc.resolve(self.program, orderer=self.orderer,
                                        self_sid=rec.sid)
        assert resolved is not None
        ref, idx = resolved
        self.program.insert(ref, idx, self.program.node(rec.sid))
        self._emit(rec, EventKind.STMT_MOVED, rec.sid,
                   (here.container, ref), inverse=True)

    def _invert_copy(self, rec: ActionRecord, undo_stamp: int) -> None:
        # inverse: Delete(c)
        if not self.program.is_attached(rec.sid):
            raise ActionError(f"copy {rec.sid} already detached")
        origin = Location.of_stmt(self.program, rec.sid)
        self.program.detach(rec.sid)
        self._emit(rec, EventKind.STMT_REMOVED, rec.sid, (origin.container,),
                   inverse=True)

    def _invert_modify(self, rec: ActionRecord, undo_stamp: int) -> None:
        # inverse: Modify(new_exp(a), exp)
        stmt = self.program.node(rec.sid)
        if rec.path == HEADER_PATH:
            assert rec.old_header is not None and rec.new_header is not None
            if not isinstance(stmt, Loop):
                raise ActionError(f"statement {rec.sid} is not a loop")
            current = HeaderSpec.of(stmt)
            if not _headers_equal(current, rec.new_header):
                raise ActionError(
                    f"loop {rec.sid} header diverged from the post pattern; "
                    "affecting transformations were not undone first")
            rec.old_header.install(stmt)
            self.program.touch(rec.sid)
            containers = ()
            parent = self.program.parent_of(rec.sid)
            if parent is not None:
                containers = (parent, (rec.sid, "body"))
            self._emit(rec, EventKind.HEADER_MODIFIED, rec.sid, containers,
                       inverse=True)
            return
        assert rec.path is not None and rec.old_expr is not None
        try:
            current = expr_at(stmt, rec.path)
        except KeyError as exc:
            raise ActionError(
                f"modified expression path {rec.path} no longer exists on "
                f"statement {rec.sid}: {exc}") from exc
        assert rec.new_expr is not None
        if not exprs_equal(current, rec.new_expr):
            raise ActionError(
                f"expression at {rec.sid}:{rec.path} diverged from the post "
                "pattern; affecting transformations were not undone first")
        replace_expr(stmt, rec.path, rec.old_expr.clone())
        self.program.touch(rec.sid)
        containers = ()
        parent = self.program.parent_of(rec.sid)
        if parent is not None:
            containers = (parent,)
        self._emit(rec, EventKind.EXPR_MODIFIED, rec.sid, containers,
                   inverse=True)


def _headers_equal(a: HeaderSpec, b: HeaderSpec) -> bool:
    return (a.var == b.var and exprs_equal(a.lower, b.lower)
            and exprs_equal(a.upper, b.upper) and exprs_equal(a.step, b.step))
