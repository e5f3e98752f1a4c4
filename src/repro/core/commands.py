"""First-class commands: one transactional execute path for every layer.

The paper's central claim (Table 1) is that undo becomes *transformation
independent* once every change is expressed through a uniform action
vocabulary.  This module lifts that independence one level up, to the
*command* vocabulary: apply, undo, reverse-undo, user edits, and batches
are typed :class:`Command` values with

* a **registry** keyed by each command's ``op`` tag
  (:func:`decode_command` dispatches journal dicts through it — no
  op-string switch anywhere else);
* a **canonical dict encoding** (:meth:`Command.encode` /
  :meth:`Command.from_doc`) that *is* the journal format — the v1
  journals written by the PR-2 session service decode unchanged;
* ONE transactional execution protocol,
  :meth:`repro.core.engine.TransformationEngine.execute`:
  begin (allocate the order stamp) → run → on failure roll back the
  partial primitive actions, deactivate the record, and mark the
  command ``failed`` → notify ``command_observers`` — so success *and*
  failure journaling live in exactly one code path, for every entry
  point (engine API, edit sessions, server verbs, journal replay);
* a **replay protocol** (:meth:`Command.replay`) deriving recovery from
  the same declaration: re-execute through the real engine and raise
  :class:`ReplayError` on any divergence (wrong stamp, different undo
  set, a journaled failure that succeeds).

:class:`BatchCommand` executes a group of commands as one journaled
unit: observers see a single notification (one journal record, one
fsync), which is what makes batched execution cheap — see
``benchmarks/bench_e6_recovery.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.core.undo import UndoError
from repro.lang.ast_nodes import Expr, ExprPath, Stmt
from repro.transforms.base import ApplyContext, Opportunity


# ---------------------------------------------------------------------------
# Exception vocabulary (engine re-exports ApplyError for compatibility)
# ---------------------------------------------------------------------------


class CommandError(RuntimeError):
    """Base class for command construction/execution protocol errors."""


class ApplyError(CommandError):
    """Raised when a transformation cannot be applied."""


class RegistryError(ApplyError):
    """A registry collision or other registration misconfiguration.

    Subclasses :class:`ApplyError` so existing ``except ApplyError``
    callers keep working, while new callers can distinguish
    misconfiguration from an apply that genuinely failed.
    """


class ReplayError(CommandError):
    """A journaled command did not replay the way it originally ran."""


class CommandDecodeError(ReplayError):
    """A journal dict does not decode to any registered command."""


# ---------------------------------------------------------------------------
# The command registry
# ---------------------------------------------------------------------------

#: ``op`` tag -> command class; populated by :func:`register_command`.
COMMANDS: Dict[str, Type["Command"]] = {}


def register_command(cls: Type["Command"]) -> Type["Command"]:
    """Class decorator: file a command class under its ``op`` tag."""
    if not cls.op:
        raise RegistryError(f"{cls.__name__} declares no op tag")
    if cls.op in COMMANDS:
        raise RegistryError(f"command op {cls.op!r} already registered")
    COMMANDS[cls.op] = cls
    return cls


def decode_command(doc: Dict[str, Any]) -> "Command":
    """Rebuild a command from its canonical (journal) dict.

    Accepts both current encodings and the v1 journal dicts of the PR-2
    session service (which lacked the ``stamp`` field on edits and the
    ``undone`` field on failed undos — those decode as ``None`` and the
    corresponding replay checks are skipped).
    """
    if not isinstance(doc, dict):
        raise CommandDecodeError(
            f"expected a command dict, got {type(doc).__name__}")
    cls = COMMANDS.get(doc.get("op"))
    if cls is None:
        raise CommandDecodeError(f"unknown journaled op {doc.get('op')!r}")
    return cls.from_doc(doc)


def _serde():
    """The service-layer value codec, imported lazily.

    Commands are core-layer objects; only their *encoding* needs the
    JSON codec, so the core -> service dependency stays confined to the
    moment a command is journaled or decoded.
    """
    from repro.service import serde

    return serde


# ---------------------------------------------------------------------------
# The command protocol
# ---------------------------------------------------------------------------


class Command:
    """One logical session command (the unit of journaling and replay).

    Subclasses declare their ``op`` tag, their ``failure_types`` (the
    exceptions that mean *this command failed and must be journaled as
    such*, as opposed to protocol errors that never consumed a stamp),
    and the four hooks the transactional executor calls:

    ``_begin(engine)``
        Resolve arguments and allocate the order stamp (returns the new
        history record, or ``None`` for commands that do not create
        one).  Exceptions here propagate raw — nothing was consumed, so
        nothing is journaled.
    ``_run(engine, rec)``
        Perform the state change; return the caller-visible result.
    ``_note_failure(exc)``
        Record failure details (e.g. the partially-undone stamps an
        :class:`UndoError` carries) before the command is journaled.
    ``_surface(exc)``
        The exception to raise to the caller (default: the original).
    """

    op: ClassVar[str] = ""
    failure_types: ClassVar[Tuple[type, ...]] = (Exception,)
    #: analysis-work delta of the last execution; set by
    #: ``TransformationEngine.execute`` from two WorkCounters snapshots.
    work: Dict[str, Any] = {}
    #: causal provenance tree (doc form) of the last execution; set by
    #: the undo commands from the undo engines' reports.  Deliberately
    #: NOT part of :meth:`encode` — the journal format must not change —
    #: it rides into the *audit log* instead (see
    #: :func:`repro.obs.provenance.audit_entry`).
    provenance: Optional[Dict[str, Any]] = None

    # -- encoding ------------------------------------------------------------

    def encode(self) -> Dict[str, Any]:
        """The canonical JSON-safe dict (exactly the journal format)."""
        doc: Dict[str, Any] = {"op": self.op}
        doc.update(self._encode_fields())
        if self.failed:
            doc["failed"] = True
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Command":
        """Rebuild a command from :meth:`encode` output (or a v1 dict)."""
        cmd = cls(**cls._decode_fields(doc))
        cmd.failed = bool(doc.get("failed"))
        return cmd

    def _encode_fields(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def _decode_fields(cls, doc: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    # -- execution -----------------------------------------------------------

    def execute(self, engine):
        """Run through the engine's single transactional path."""
        return engine.execute(self)

    def _begin(self, engine) -> Optional[TransformationRecord]:
        return None

    def _run(self, engine, rec: Optional[TransformationRecord]):
        raise NotImplementedError

    def _note_failure(self, exc: BaseException) -> None:
        pass

    def _surface(self, exc: BaseException) -> BaseException:
        return exc

    # -- replay --------------------------------------------------------------

    def _fresh(self) -> "Command":
        """A pristine copy to re-execute (decoded anew, never-failed)."""
        doc = self.encode()
        doc.pop("failed", None)
        return decode_command(doc)

    def replay(self, engine) -> None:
        """Re-execute against ``engine``; raise on any divergence."""
        fresh = self._fresh()
        if self.failed:
            self._replay_expect_failure(engine, fresh)
        else:
            self._replay_expect_success(engine, fresh)

    def _replay_expect_failure(self, engine, fresh: "Command") -> None:
        try:
            engine.execute(fresh)
        except self.failure_types:
            self._check_replayed_failure(fresh)
            return
        raise ReplayError(
            f"{self.describe_op()} was journaled as failed but succeeded "
            "on replay — journal and state have diverged")

    def _replay_expect_success(self, engine, fresh: "Command") -> None:
        try:
            engine.execute(fresh)
        except self.failure_types as exc:
            raise ReplayError(
                f"{self.describe_op()} was journaled as a success but "
                f"failed on replay: {exc}") from exc
        self._check_replayed_success(fresh)

    def _check_replayed_failure(self, fresh: "Command") -> None:
        pass

    def _check_replayed_success(self, fresh: "Command") -> None:
        pass

    # -- display -------------------------------------------------------------

    def describe_op(self) -> str:
        """Short ``op``-level label for error messages."""
        return self.op

    def describe(self) -> str:
        """One-line outcome rendering for server/CLI responses."""
        return f"{self.describe_op()}{' FAILED' if self.failed else ''}"


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


@register_command
@dataclass
class ApplyCommand(Command):
    """Apply one transformation opportunity.

    Three construction modes, resolved in this order at ``_begin``:
    a live ``opportunity`` (the engine's own fast path), exact ``params``
    match against the current opportunities (journal replay), or the
    ``index``-th current opportunity of ``name`` (protocol verbs).
    """

    op: ClassVar[str] = "apply"
    failure_types: ClassVar[Tuple[type, ...]] = (Exception,)

    name: str = ""
    params: Optional[Dict[str, Any]] = None
    stamp: Optional[int] = None
    failed: bool = False
    #: pick the index-th opportunity when ``params`` is None.
    index: int = 0
    #: live opportunity (never serialized; skips the find() pass).
    opportunity: Optional[Opportunity] = field(
        default=None, repr=False, compare=False)

    @classmethod
    def from_opportunity(cls, opportunity: Opportunity) -> "ApplyCommand":
        return cls(name=opportunity.name, params=dict(opportunity.params),
                   opportunity=opportunity)

    # -- encoding ------------------------------------------------------------

    def _encode_fields(self) -> Dict[str, Any]:
        if self.params is None:
            raise CommandError(
                f"apply {self.name!r} is unresolved (execute it first)")
        return {"name": self.name,
                "params": _serde().value_to_doc(self.params),
                "stamp": self.stamp}

    @classmethod
    def _decode_fields(cls, doc: Dict[str, Any]) -> Dict[str, Any]:
        return {"name": doc["name"],
                "params": _serde().value_from_doc(doc["params"]),
                "stamp": doc.get("stamp")}

    # -- execution -----------------------------------------------------------

    def _resolve(self, engine) -> Opportunity:
        if self.opportunity is not None:
            return self.opportunity
        opps = engine.find(self.name)
        if self.params is None:
            if not 0 <= self.index < len(opps):
                raise ApplyError(
                    f"no {self.name} opportunity at index {self.index} "
                    f"(have {len(opps)})")
            return opps[self.index]
        for opp in opps:
            if opp.params == self.params:
                return opp
        raise ApplyError(
            f"no {self.name} opportunity matching {self.params!r}")

    def _begin(self, engine) -> TransformationRecord:
        self._opp = self._resolve(engine)
        # unknown transformation = protocol error (KeyError), raised
        # before the order stamp is consumed
        self._transform = engine.registry[self.name]
        self.params = dict(self._opp.params)
        rec = engine.history.new_record(self.name, **self._opp.params)
        self.stamp = rec.stamp
        return rec

    def _run(self, engine, rec: TransformationRecord) -> TransformationRecord:
        ctx = ApplyContext(engine.program, engine.applier, engine.cache, rec)
        self._transform.apply_actions(ctx, self._opp)
        return rec

    def _surface(self, exc: BaseException) -> BaseException:
        return ApplyError(f"applying {self.name} failed: {exc}")

    # -- replay --------------------------------------------------------------

    def replay(self, engine) -> None:
        if self.failed:
            # the opportunity may not be findable at all — frequently the
            # very reason the original apply failed — so rebuild it from
            # the journaled params and require the same failure
            fresh = ApplyCommand(
                name=self.name, params=dict(self.params),
                opportunity=Opportunity(self.name, dict(self.params),
                                        "journal replay"))
            self._replay_expect_failure(engine, fresh)
            return
        fresh = ApplyCommand(name=self.name, params=dict(self.params))
        try:
            engine.execute(fresh)
        except ApplyError as exc:
            if fresh.stamp is None:
                raise ReplayError(
                    f"no {self.name} opportunity matching {self.params!r} "
                    "during replay") from exc
            raise ReplayError(
                f"replayed {self.name} was journaled as a success but "
                f"failed: {exc}") from exc
        self._check_replayed_success(fresh)

    def _check_replayed_success(self, fresh: "Command") -> None:
        if self.stamp is not None and fresh.stamp != self.stamp:
            raise ReplayError(
                f"replayed {self.name} got stamp {fresh.stamp}, journal "
                f"recorded {self.stamp}")

    # -- display -------------------------------------------------------------

    def describe_op(self) -> str:
        return f"apply {self.name}"

    def describe(self) -> str:
        if self.failed:
            return f"apply {self.name} FAILED (t{self.stamp})"
        return f"applied t{self.stamp}: {self.name}"


# ---------------------------------------------------------------------------
# undo / undo_lifo
# ---------------------------------------------------------------------------


@register_command
@dataclass
class UndoCommand(Command):
    """Independent-order undo of one stamp (the paper's Figure 4)."""

    op: ClassVar[str] = "undo"
    failure_types: ClassVar[Tuple[type, ...]] = (UndoError,)

    stamp: int = 0
    #: stamps actually undone; on a failed command, the partial progress
    #: the cascade committed before the failure (``None`` = unrecorded,
    #: as in v1 journals — the replay comparison is then skipped).
    undone: Optional[List[int]] = None
    failed: bool = False

    def _engine_call(self, engine):
        return engine._undo_engine.undo(self.stamp)

    def _run(self, engine, rec):
        report = self._engine_call(engine)
        self.undone = list(report.undone)
        if report.provenance is not None:
            self.provenance = report.provenance.to_doc()
        return report

    def _note_failure(self, exc: BaseException) -> None:
        # a cascade can commit partial undos before failing; UndoError
        # surfaces them (core/undo.py) so the journal records them
        partial = getattr(exc, "undone", None)
        self.undone = list(partial) if partial is not None else None
        self.provenance = getattr(exc, "provenance", None)

    # -- encoding ------------------------------------------------------------

    def _encode_fields(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"stamp": self.stamp}
        if self.undone is not None:
            doc["undone"] = list(self.undone)
        return doc

    @classmethod
    def _decode_fields(cls, doc: Dict[str, Any]) -> Dict[str, Any]:
        return {"stamp": doc["stamp"], "undone": doc.get("undone")}

    # -- replay --------------------------------------------------------------

    def _check_replayed_success(self, fresh: "Command") -> None:
        self._check_undone(fresh)

    def _check_replayed_failure(self, fresh: "Command") -> None:
        self._check_undone(fresh)

    def _check_undone(self, fresh: "Command") -> None:
        if self.undone is not None and fresh.undone is not None and \
                list(fresh.undone) != list(self.undone):
            raise ReplayError(
                f"{self.describe_op()} undid {fresh.undone}, journal "
                f"recorded {self.undone}")

    # -- display -------------------------------------------------------------

    def describe_op(self) -> str:
        return f"{self.op} t{self.stamp}"

    def describe(self) -> str:
        if self.failed:
            partial = f" (rolled through {self.undone})" if self.undone \
                else ""
            return f"{self.describe_op()} FAILED{partial}"
        return f"undone: {self.undone}"


@register_command
@dataclass
class UndoLifoCommand(UndoCommand):
    """Reverse-order (LIFO) undo back to one stamp — the [5] baseline."""

    op: ClassVar[str] = "undo_lifo"

    def _engine_call(self, engine):
        return engine._reverse_engine.undo_to(self.stamp)

    def describe(self) -> str:
        if self.failed:
            return super().describe()
        return f"undone (last-first): {self.undone}"


# ---------------------------------------------------------------------------
# edit
# ---------------------------------------------------------------------------

#: edit kind -> the argument fields it requires.
EDIT_KINDS: Dict[str, Tuple[str, ...]] = {
    "add": ("stmt", "loc"),
    "delete": ("sid",),
    "move": ("sid", "loc"),
    "modify": ("sid", "path", "expr"),
}


@register_command
@dataclass
class EditCommand(Command):
    """One user edit (add/delete/move/modify), first-class in history.

    Edits consume an order stamp and leave annotations exactly like
    transformations; executing through the engine means they notify
    ``command_observers`` like every other command — an edit on a
    journaled engine can no longer silently bypass the journal.
    """

    op: ClassVar[str] = "edit"
    failure_types: ClassVar[Tuple[type, ...]] = (Exception,)

    kind: str = ""
    sid: Optional[int] = None
    stmt: Optional[Stmt] = None
    loc: Optional[Location] = None
    path: Optional[ExprPath] = None
    expr: Optional[Expr] = None
    stamp: Optional[int] = None
    failed: bool = False

    def __post_init__(self):
        required = EDIT_KINDS.get(self.kind)
        if required is None:
            raise CommandError(f"unknown edit kind {self.kind!r}")
        missing = [f for f in required if getattr(self, f) is None]
        if missing:
            raise CommandError(
                f"edit {self.kind} is missing {', '.join(missing)}")
        # capture the JSON form of the arguments *now*, before execution:
        # the applier assigns sids into an added statement in place, and
        # replay must decode the pre-assignment form to reproduce them
        self._args_doc = self._encode_args()

    def _encode_args(self) -> Dict[str, Any]:
        serde = _serde()
        doc: Dict[str, Any] = {"kind": self.kind}
        if self.sid is not None:
            doc["sid"] = self.sid
        if self.stmt is not None:
            doc["stmt"] = serde.stmt_to_doc(self.stmt)
        if self.loc is not None:
            doc["loc"] = serde.value_to_doc(self.loc)
        if self.path is not None:
            doc["path"] = serde.value_to_doc(self.path)
        if self.expr is not None:
            doc["expr"] = serde.value_to_doc(self.expr)
        return doc

    # -- encoding ------------------------------------------------------------

    def _encode_fields(self) -> Dict[str, Any]:
        doc = dict(self._args_doc)
        if self.stamp is not None:
            doc["stamp"] = self.stamp
        return doc

    @classmethod
    def _decode_fields(cls, doc: Dict[str, Any]) -> Dict[str, Any]:
        serde = _serde()
        kind = doc.get("kind")
        if kind not in EDIT_KINDS:
            raise CommandDecodeError(f"unknown edit kind {kind!r}")
        out: Dict[str, Any] = {"kind": kind, "sid": doc.get("sid"),
                               "stamp": doc.get("stamp")}
        if "stmt" in doc:
            out["stmt"] = serde.stmt_from_doc(doc["stmt"])
        if "loc" in doc:
            out["loc"] = serde.value_from_doc(doc["loc"])
        if "path" in doc:
            out["path"] = serde.value_from_doc(doc["path"])
        if "expr" in doc:
            out["expr"] = serde.value_from_doc(doc["expr"])
        return out

    # -- execution -----------------------------------------------------------

    def _begin(self, engine) -> TransformationRecord:
        params = {"kind": self.kind}
        if self.sid is not None:
            params["sid"] = self.sid
        rec = engine.history.new_record("edit", **params)
        self.stamp = rec.stamp
        return rec

    def _run(self, engine, rec: TransformationRecord):
        from repro.edit.edits import EditReport

        applier = engine.applier
        cursor = applier.events.cursor()
        if self.kind == "add":
            act = applier.add(rec.stamp, self.stmt, self.loc)
        elif self.kind == "delete":
            act = applier.delete(rec.stamp, self.sid)
        elif self.kind == "move":
            act = applier.move(rec.stamp, self.sid, self.loc)
        else:  # modify (EDIT_KINDS-validated at construction)
            act = applier.modify(rec.stamp, self.sid, self.path, self.expr)
        rec.actions.append(act)
        return EditReport(record=rec, event_cursor=cursor)

    # -- replay --------------------------------------------------------------

    def _check_replayed_success(self, fresh: "Command") -> None:
        self._check_stamp(fresh)

    def _check_replayed_failure(self, fresh: "Command") -> None:
        # a failed edit still consumed an order stamp and left a
        # deactivated record; re-failing must reproduce both
        self._check_stamp(fresh)

    def _check_stamp(self, fresh: "Command") -> None:
        if self.stamp is not None and fresh.stamp != self.stamp:
            raise ReplayError(
                f"replayed edit {self.kind} got stamp {fresh.stamp}, "
                f"journal recorded {self.stamp}")

    # -- display -------------------------------------------------------------

    def describe_op(self) -> str:
        return f"edit {self.kind}"

    def describe(self) -> str:
        if self.failed:
            return f"edit {self.kind} FAILED (t{self.stamp})"
        return f"edit t{self.stamp}: {self.kind}"


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """What one batch execution did."""

    #: per-command results of the successfully executed prefix.
    results: List[Any] = field(default_factory=list)
    #: the commands that actually ran, in order (last may be failed).
    executed: List[Command] = field(default_factory=list)
    #: the exception that stopped the batch (``None`` = all ran).
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@register_command
@dataclass
class BatchCommand(Command):
    """Execute a group of commands as ONE journaled unit.

    Sub-commands run in order through the same transactional path;
    their observer notifications are collected instead of dispatched,
    and the batch notifies once with the full group — one journal
    record, one (amortized) fsync.  A failing sub-command stops the
    batch: the journal records exactly the executed prefix, with the
    failing command marked ``failed`` at its position, so replay
    reproduces the identical state.  Earlier sub-commands are NOT
    rolled back (undo is available for that, by design of the paper).
    """

    op: ClassVar[str] = "batch"
    #: the batch itself never journals as a top-level failure — failure
    #: is recorded per sub-command, at its position in the group.
    failure_types: ClassVar[Tuple[type, ...]] = ()

    commands: List[Command] = field(default_factory=list)
    failed: bool = False

    def _run(self, engine, rec) -> BatchResult:
        executed: List[Command] = []
        results: List[Any] = []
        error: Optional[BaseException] = None
        engine._push_batch(executed)
        try:
            for sub in self.commands:
                try:
                    results.append(engine.execute(sub))
                except Exception as exc:
                    # a failed sub-command already journaled itself into
                    # the group (via the collected notification); stop
                    error = exc
                    break
        finally:
            engine._pop_batch()
        self.commands = executed
        self.failed = any(sub.failed for sub in executed)
        return BatchResult(results=results, executed=executed, error=error)

    # -- encoding ------------------------------------------------------------

    def _encode_fields(self) -> Dict[str, Any]:
        return {"commands": [sub.encode() for sub in self.commands]}

    @classmethod
    def _decode_fields(cls, doc: Dict[str, Any]) -> Dict[str, Any]:
        return {"commands": [decode_command(d) for d in doc["commands"]]}

    # -- replay --------------------------------------------------------------

    def replay(self, engine) -> None:
        """Replay the executed group, sub-command by sub-command."""
        for sub in self.commands:
            sub.replay(engine)

    # -- display -------------------------------------------------------------

    def describe_op(self) -> str:
        return f"batch[{len(self.commands)}]"

    def describe(self) -> str:
        n_failed = sum(1 for sub in self.commands if sub.failed)
        status = f", {n_failed} failed" if n_failed else ""
        return f"batch: {len(self.commands)} command(s){status}"


# ---------------------------------------------------------------------------
# Protocol-verb parsing (shared by the line server and the CLI)
# ---------------------------------------------------------------------------

#: verb -> builder; the single place protocol text becomes commands.
_VERBS: Dict[str, Callable[[List[str]], Command]] = {
    "apply": lambda args: ApplyCommand(
        name=args[0], index=int(args[1]) if len(args) > 1 else 0),
    "undo": lambda args: UndoCommand(stamp=int(args[0])),
    "undo-lifo": lambda args: UndoLifoCommand(stamp=int(args[0])),
    "edit-del": lambda args: EditCommand(kind="delete", sid=int(args[0])),
}


def parse_verb(verb: str, args: List[str]) -> Command:
    """Parse one protocol verb (``apply cse 0``, ``undo 3``, ...)."""
    builder = _VERBS.get(verb)
    if builder is None:
        raise ValueError(f"unknown command verb {verb!r}")
    return builder(args)


def parse_batch(args: List[str]) -> BatchCommand:
    """Parse ``;``-separated verb groups into one :class:`BatchCommand`."""
    groups: List[List[str]] = [[]]
    for token in args:
        if token == ";":
            groups.append([])
        else:
            groups[-1].append(token)
    commands = [parse_verb(group[0], group[1:]) for group in groups if group]
    if not commands:
        raise ValueError("empty batch")
    return BatchCommand(commands=commands)
