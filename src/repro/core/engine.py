"""The user-facing transformation engine.

Ties the pieces together the way the paper's PIVOT environment [5] does:
a program, its two-level representation (annotations included), the
analysis cache, the transformation catalog, and the undo engines.

Typical session::

    from repro import TransformationEngine, parse_program

    engine = TransformationEngine(parse_program(source))
    opportunities = engine.find("cse")
    record = engine.apply(opportunities[0])
    ...
    engine.undo(record.stamp)        # independent order (Figure 4)
    engine.undo_reverse_to(stamp)    # LIFO baseline of [5]

Every state change flows through ONE transactional path,
:meth:`TransformationEngine.execute`, which takes a typed
:class:`repro.core.commands.Command`: ``apply``/``undo``/
``undo_reverse_to`` are thin constructors over it, and so are user
edits (:class:`repro.edit.edits.EditSession`), the line-protocol
server, and journal replay.  ``execute_batch`` runs a group of
commands as a single journaled unit.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.incremental import AnalysisCache, WorkCounters
from repro.core.actions import ActionApplier
from repro.core.annotations import AnnotationStore
from repro.core.commands import (
    ApplyCommand,
    ApplyError,
    BatchCommand,
    BatchResult,
    Command,
    RegistryError,
    UndoCommand,
    UndoLifoCommand,
)
from repro.core.events import EventLog
from repro.core.history import History, TransformationRecord
from repro.core.reverse_undo import ReverseUndoEngine, ReverseUndoReport
from repro.core.undo import UndoEngine, UndoReport, UndoStrategy
from repro.lang.ast_nodes import Program
from repro.lang.printer import format_program
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer, current_request
from repro.transforms.base import (
    CheckContext,
    Opportunity,
    SafetyResult,
)

__all__ = ["ApplyError", "RegistryError", "TransformationEngine"]

#: where isolated observer failures are logged (see ``_notify``).
_log = logging.getLogger("repro.obs")


class TransformationEngine:
    """Apply, inspect, and undo transformations on one program."""

    def __init__(self, program: Program,
                 strategy: Optional[UndoStrategy] = None,
                 extra_transformations: Optional[Sequence] = None,
                 *, history: Optional[History] = None,
                 store: Optional[AnnotationStore] = None,
                 events: Optional[EventLog] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[obs_metrics.MetricsRegistry] = None):
        from repro.transforms.registry import REGISTRY

        from repro.core.locations import make_sibling_orderer

        self.program = program
        # a private copy so per-engine registration never leaks globally
        self.registry = dict(REGISTRY)
        # ``history``/``store``/``events`` let the durable-session layer
        # rebuild an engine around previously persisted state
        # (:func:`repro.service.serde.engine_from_doc`); normal sessions
        # leave them None and start empty.
        self.applier = ActionApplier(program, store=store, events=events)
        self.history = history if history is not None else History()
        self.applier.orderer = make_sibling_orderer(self.history)
        # dirty-record tracking for the incremental fingerprint: any
        # action that mutates a record's content marks its stamp.
        self.applier.note = self.history.note_mutation
        #: journal hook point: callables invoked with the executed
        #: :class:`~repro.core.commands.Command` after every top-level
        #: command — including *failed* ones that consumed an order
        #: stamp or mutated state, so a journal replay reproduces
        #: stamps exactly.  During a batch, sub-command notifications
        #: are collected into the enclosing batch instead.
        self.command_observers: List[Callable[[Command], None]] = []
        #: batch collection stack: while non-empty, notifications go to
        #: the innermost batch's group instead of the observers.
        self._batch_sinks: List[List[Command]] = []
        #: span source; defaults to the shared zero-cost disabled tracer
        #: (``Tracer.disabled``) so untraced engines pay ~nothing.
        self.tracer = tracer if tracer is not None else Tracer.disabled
        #: counter/histogram home; defaults to the process-wide registry.
        self.metrics = metrics if metrics is not None \
            else obs_metrics.REGISTRY
        if self.tracer.enabled:
            # ring wrap-around is otherwise silent; the counter is the
            # only record of how many spans the flight recorder lost.
            # A session's tracer labels them, so one registry answers
            # both the session's counts and the manager's totals.
            session = self.tracer.common.get("session")
            labels = {} if session is None else {"session": session}
            self.tracer.recorder.count_in(
                self.metrics.counter(
                    "repro_spans_total",
                    "spans the flight recorder completed", **labels),
                self.metrics.counter(
                    "repro_trace_dropped_total",
                    "spans evicted off the flight-recorder ring", **labels))
        #: recent isolated observer failures, newest last — a raising
        #: ``command_observers`` callback is logged and recorded here,
        #: never allowed to corrupt the already-committed command.
        self.observer_errors: "deque[Tuple[str, BaseException]]" = \
            deque(maxlen=16)
        self.strategy = strategy if strategy is not None else UndoStrategy()
        self.cache = AnalysisCache(program, events=self.applier.events,
                                   policy=self.strategy)
        self._undo_engine = UndoEngine(program, self.applier, self.history,
                                       self.cache, self.registry,
                                       self.strategy, metrics=self.metrics)
        self._reverse_engine = ReverseUndoEngine(program, self.applier,
                                                 self.history,
                                                 metrics=self.metrics)
        if extra_transformations:
            for t in extra_transformations:
                self.register(t)

    def register(self, transformation) -> None:
        """Add a transformation (e.g. spec-compiled) to this engine.

        Registered transformations are first-class: ``find``/``apply``
        offer them and both undo engines handle them through the same
        transformation-independent machinery.  A name collision raises
        :class:`RegistryError` (an :class:`ApplyError` subclass, so the
        misconfiguration is distinguishable from an apply that failed).
        """
        if transformation.name in self.registry:
            raise RegistryError(
                f"transformation {transformation.name!r} already registered")
        self.registry[transformation.name] = transformation

    # -- convenience accessors -----------------------------------------------

    @property
    def store(self) -> AnnotationStore:
        return self.applier.store

    @property
    def events(self) -> EventLog:
        return self.applier.events

    def source(self, show_labels: bool = False) -> str:
        """Current program text."""
        return format_program(self.program, show_labels=show_labels)

    def active_transformations(self) -> List[TransformationRecord]:
        """Currently applied transformations, in stamp order."""
        return self.history.active()

    # -- applying ---------------------------------------------------------------

    def find(self, name: str) -> List[Opportunity]:
        """Opportunities for transformation ``name`` in the current program.

        The listing is found once per program version and kept on the
        analysis cache; each call returns a new list."""
        return self.cache.listing(self.registry[name])

    def find_all(self) -> Dict[str, List[Opportunity]]:
        """Opportunities for every registered transformation."""
        return {name: self.find(name) for name in self.registry}

    def describe_opps(self, kind: Optional[str] = None) -> str:
        """The ``opps`` reply: a ``  <kind>[<k>]: <description>`` line
        per opportunity of ``kind`` (of every kind, sorted, when
        ``None``), the CLI's and the server's alike."""
        kinds = [kind] if kind is not None else sorted(self.registry)
        lines = [f"  {name}[{k}]: {opp.description}"
                 for name in kinds for k, opp in enumerate(self.find(name))]
        return "\n".join(lines) or "(no opportunities)"

    # -- the transactional command path ------------------------------------------

    def execute(self, command: Command):
        """Run one typed command through THE transactional path.

        The only place command execution is sequenced — for every
        command class and every entry point (engine API, edit sessions,
        server verbs, journal replay):

        1. **begin** — resolve arguments and allocate the order stamp;
           a failure here consumed nothing and propagates raw,
           unjournaled;
        2. **run** — perform the state change;
        3. on a failure the command class declares
           (``Command.failure_types``): roll back the record's partial
           primitive actions, deactivate it — the stamp stays consumed —
           and mark the command ``failed``;
        4. **notify** ``command_observers`` with the command, success
           and failure alike, so a journal replay reproduces stamps
           exactly (inside a batch, the notification is collected into
           the group instead).

        Returns whatever the command's run produced (a
        :class:`~repro.core.history.TransformationRecord` for applies,
        an undo report for undos, ...); the analysis-work delta of the
        execution lands on ``command.work``.
        """
        with self.tracer.span("command", op=command.op) as span:
            started = time.perf_counter()
            before = self.cache.counters.snapshot()
            rec = command._begin(self)
            try:
                result = command._run(self, rec)
            except command.failure_types as exc:
                if rec is not None:
                    # roll the partial run back so the program stays
                    # sound; the record consumed a stamp — deactivate,
                    # don't erase
                    for act in reversed(rec.actions):
                        self.applier.invert(act, rec.stamp)
                    self.history.deactivate(rec.stamp)
                command.failed = True
                command._note_failure(exc)
                command.work = WorkCounters.delta(
                    before, self.cache.counters.snapshot())
                span.tag(stamp=getattr(command, "stamp", None),
                         status="failed",
                         rolled_back=bool(rec is not None and rec.actions))
                self._notify(command)
                self._record_command(command,
                                     time.perf_counter() - started,
                                     "failed")
                surfaced = command._surface(exc)
                if surfaced is exc:
                    raise
                raise surfaced from exc
            command.work = WorkCounters.delta(
                before, self.cache.counters.snapshot())
            # a batch returns rather than raises when a member fails
            status = "failed" if command.failed else "ok"
            span.tag(stamp=getattr(command, "stamp", None), status=status)
            self._notify(command)
            self._record_command(command, time.perf_counter() - started,
                                 status)
            return result

    def execute_batch(self, commands: Sequence[Command]) -> BatchResult:
        """Execute a group of commands as one journaled unit.

        Observers see a single :class:`~repro.core.commands.BatchCommand`
        carrying the executed prefix (one journal record, one fsync).  A
        failing sub-command stops the batch — it is journaled ``failed``
        at its position — and the batch returns rather than raises; see
        :attr:`~repro.core.commands.BatchResult.error`.
        """
        return self.execute(BatchCommand(commands=list(commands)))

    def _notify(self, command: Command) -> None:
        """Hand one executed command to the journal observers (or the
        enclosing batch's group, when one is collecting).

        Observer exceptions are **isolated and logged**, never
        propagated: by the time observers run, the command has already
        committed (or rolled back) and its order stamp is consumed, so
        letting a broken callback unwind the stack would leave callers
        believing a committed command failed — worse than the lost
        notification.  Every failure is logged to the ``repro.obs``
        logger, counted in ``repro_observer_errors_total``, and kept in
        :attr:`observer_errors`; remaining observers still run.  An
        observer that must stop the *session* on failure records the
        error itself and refuses subsequent commands (see
        ``DurableSession._on_command``'s poisoning protocol).
        """
        if self._batch_sinks:
            self._batch_sinks[-1].append(command)
            return
        for observer in list(self.command_observers):
            try:
                observer(command)
            except Exception as exc:
                self.observer_errors.append((repr(observer), exc))
                self.metrics.counter(
                    "repro_observer_errors_total",
                    "command_observers callbacks that raised "
                    "(isolated and logged)").inc()
                _log.warning("command observer %r raised for %s: %s",
                             observer, command.describe_op(), exc,
                             exc_info=True)

    def _record_command(self, command: Command, seconds: float,
                        status: str) -> None:
        """Count one executed command into the metrics registry.

        Batch sub-commands recurse through :meth:`execute`, so they are
        counted individually under their own op labels; the enclosing
        batch's analysis timers and dependence pairs are skipped to
        avoid double-crediting the same analysis work.
        """
        m = self.metrics
        m.counter("repro_commands_total",
                  "commands executed through TransformationEngine.execute",
                  op=command.op, status=status).inc()
        ctx = current_request()
        m.histogram("repro_command_seconds",
                    "end-to-end latency of one executed command",
                    op=command.op).observe(
                        seconds,
                        exemplar=ctx["request"] if ctx else None)
        if command.op != "batch":
            work = command.work
            for key, secs in (work.get("timers") or {}).items():
                m.histogram("repro_analysis_seconds",
                            "per-analysis wall-clock seconds "
                            "(WorkCounters timers)",
                            analysis=key).observe(secs)
            for mode, key in (("full", "dependence_pairs"),
                              ("regional", "incremental_pairs")):
                pairs = work.get(key, 0)
                if pairs:
                    m.counter("repro_analysis_pairs_total",
                              "dependence pairs computed, by analysis "
                              "mode", mode=mode).inc(pairs)

    def _push_batch(self, sink: List[Command]) -> None:
        self._batch_sinks.append(sink)

    def _pop_batch(self) -> None:
        self._batch_sinks.pop()

    # -- thin command constructors ------------------------------------------------

    def apply(self, opportunity: Opportunity) -> TransformationRecord:
        """Apply a previously found opportunity, recording history."""
        return self.execute(ApplyCommand.from_opportunity(opportunity))

    def apply_first(self, name: str, **match) -> TransformationRecord:
        """Find-and-apply the first opportunity whose params match ``match``."""
        for opp in self.find(name):
            if all(opp.params.get(k) == v for k, v in match.items()):
                return self.apply(opp)
        raise ApplyError(f"no {name} opportunity matching {match!r}")

    def undo(self, stamp: int) -> UndoReport:
        """Independent-order undo (Figure 4)."""
        return self.execute(UndoCommand(stamp=stamp))

    def undo_reverse_to(self, stamp: int) -> ReverseUndoReport:
        """Reverse-order (LIFO) undo baseline of [5]."""
        return self.execute(UndoLifoCommand(stamp=stamp))

    # -- safety inspection -----------------------------------------------------------

    def check_context(self) -> CheckContext:
        """The context safety re-checks run against."""
        return CheckContext(program=self.program, cache=self.cache,
                            store=self.store, history=self.history)

    def check_safety(self, stamp: int) -> SafetyResult:
        """Re-validate one applied transformation's safety right now."""
        rec = self.history.by_stamp(stamp)
        return self.registry[rec.name].check_safety(self.check_context(), rec)

    def unsafe_transformations(self) -> List[int]:
        """Stamps of active transformations whose safety no longer holds."""
        out = []
        for rec in self.history.active():
            if not self.check_safety(rec.stamp).safe:
                out.append(rec.stamp)
        return out

    def check_reversibility(self, stamp: int):
        """Post-pattern validation of one applied transformation."""
        rec = self.history.by_stamp(stamp)
        return self.registry[rec.name].check_reversibility(
            self.program, self.store, rec)

    def explain(self, stamp: int) -> Optional[Dict]:
        """Structured *current* verdicts about one recorded stamp.

        Returns ``None`` for an unknown stamp.  For a live non-edit
        record the document carries both check verdicts (doc form, see
        :mod:`repro.obs.provenance`) naming the Table 3 condition, the
        causing record, and the clobbered pattern element; inactive
        records report only their state (their patterns are gone).  The
        session layer joins this with the audit trail for the full
        explanation.
        """
        from repro.obs.provenance import reversibility_verdict, safety_verdict

        if not self.history.has_stamp(stamp):
            return None
        rec = self.history.by_stamp(stamp)
        doc: Dict = {"stamp": stamp, "name": rec.name,
                     "active": rec.active, "is_edit": rec.is_edit}
        if rec.active and not rec.is_edit:
            doc["safety"] = safety_verdict(
                rec, self.check_safety(stamp)).to_doc()
            doc["reversibility"] = reversibility_verdict(
                rec, self.check_reversibility(stamp)).to_doc()
        return doc
