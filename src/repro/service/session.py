"""Durable sessions and the concurrent multi-session front-end.

:class:`DurableSession` wraps one :class:`TransformationEngine` with the
persistence stack: every committed logical command — apply, undo,
reverse-undo, edit, including *failed* ones that consumed an order stamp
— is appended to a write-ahead journal before control returns to the
caller.  The journal is the session's only command history: it is never
truncated, so ``log`` and ``recover(verify=True)`` read it from seq 1.
A snapshot is taken every ``snapshot_every`` commands to bound reopen
latency.  Every :data:`SNAPSHOT_FULL_EVERY`-th snapshot serializes the
whole engine; the ones between are *deltas* against the last full
snapshot — only the statements touched by events since then, the dirty
history records, the annotation tail and the event digest — so steady-state
snapshot cost is O(commands since the last full), not
O(program + history).  The count runs across handles: a reopened
session continues the delta chain of the snapshot it loaded, so an
evict/reopen cycle pays for what changed, not for the history.  Killing
the process at any instant and calling :meth:`DurableSession.open`
reconstructs the exact engine state via
:func:`repro.service.recovery.recover`.

:class:`SessionManager` serves many named sessions from one root
directory with a bounded number live in memory: a global lock guards the
session table, a per-session re-entrant lock serializes commands on each
session, and least-recently-used idle sessions are evicted to disk
(snapshot + close) and transparently reopened on next touch.
"""

from __future__ import annotations

import json
import marshal
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.commands import BatchResult, Command, EditCommand
from repro.core.engine import TransformationEngine
from repro.core.history import TransformationRecord
from repro.core.reverse_undo import ReverseUndoReport
from repro.core.undo import UndoReport, UndoStrategy
from repro.edit.edits import EditReport
from repro.edit.invalidate import InvalidationStats, remove_unsafe
from repro.lang.ast_nodes import ROOT_SID, Expr, ExprPath, Stmt
from repro.lang.parser import parse_program
from repro.core.locations import Location
from repro.obs.check import trace_path
from repro.obs.metrics import Histogram, MetricsRegistry, registry_views
from repro.obs.provenance import (audit_entry, audit_path, entry_events,
                                  read_audit)
from repro.obs.trace import Span, Tracer, annotate_request, open_log
from repro.service.journal import Journal, scan_journal
from repro.service.recovery import (
    JOURNAL_FILE,
    SNAPSHOT_DIR,
    DeltaBase,
    RecoveryResult,
    full_base,
    meta_path,
    read_meta,
    recover,
    strategy_to_doc,
    write_meta,
)
from repro.service.serde import (
    annotation_to_doc,
    engine_to_doc,
    record_to_doc,
    stmt_to_row,
)
from repro.service.snapshot import SnapshotStore

#: every Nth snapshot of a session is full; the ones between are deltas
#: against the last full (1 disables delta snapshots).
SNAPSHOT_FULL_EVERY = 4


class SessionError(RuntimeError):
    """Session-level protocol violations (exists/missing/closed)."""


def _subtree_sids(stmt: Stmt) -> List[int]:
    """Sids of ``stmt`` and every statement nested under it."""
    out = [stmt.sid]
    for slot in stmt.body_slots():
        for child in stmt.get_body(slot):
            out.extend(_subtree_sids(child))
    return out


def _session_tracer(dirpath: str) -> Tracer:
    """An enabled per-session tracer tagged with the session name."""
    name = os.path.basename(os.path.normpath(dirpath)) or dirpath
    return Tracer(session=name)


class DurableSession:
    """One engine whose command history survives process death.

    Construct via :meth:`create` (new session directory) or
    :meth:`open` (recover an existing one); the constructor itself only
    wires an already-recovered engine to its journal.
    """

    def __init__(self, dirpath: str, engine: TransformationEngine,
                 meta: Dict[str, Any], seq: int,
                 recovery: Optional[RecoveryResult] = None):
        self.dirpath = dirpath
        self.engine = engine
        self.meta = meta
        self.seq = seq
        #: how the state was reconstructed (None for a fresh create).
        self.recovery = recovery
        self.snapshot_every = int(meta.get("snapshot_every", 32))
        self.snapshots = SnapshotStore(os.path.join(dirpath, SNAPSHOT_DIR),
                                       metrics=engine.metrics)
        self.journal = Journal(os.path.join(dirpath, JOURNAL_FILE),
                               fsync_every=int(meta.get("fsync_every", 8)),
                               metrics=engine.metrics)
        #: journaled commands, counted next to ``seq`` (a command whose
        #: append failed still counts, so poisoning shows as journal lag).
        self._commands = engine.metrics.counter(
            "repro_session_commands_total",
            "commands durable sessions committed, counted before their "
            "journal append")
        self._since_snapshot = 0
        # the full snapshot the next delta is cut against — the one this
        # handle wrote last, or the one recovery loaded (directly or
        # under a delta), so delta chains continue across handles; None
        # makes the next snapshot full
        self._base: Optional[DeltaBase] = \
            recovery.delta_base if recovery is not None else None
        # the seq of the snapshot this handle loaded or wrote last: a
        # snapshot() at that seq has nothing new to write (any other
        # file at the current seq, e.g. a corrupt one recovery skipped,
        # is rewritten)
        self._snapshot_seq: Optional[int] = \
            recovery.snapshot_seq if recovery is not None else None
        self._pending_edits: List[EditReport] = []
        self._closed = False
        #: the first journaling/snapshot failure, if any; once set, the
        #: session is poisoned and refuses further commands (see
        #: :meth:`_on_command`).
        self.journal_error: Optional[BaseException] = None
        #: analysis-work delta of the most recent command
        #: (:meth:`WorkCounters.delta` of two snapshots — never resets
        #: the engine's live counters).
        self.last_work: Dict[str, Any] = {}
        #: the engine's tracer (an enabled per-session instance wired by
        #: ``create``/``open``); its flight recorder backs the server's
        #: ``trace`` verb.
        self.tracer = engine.tracer
        #: per-session command-latency histogram, fed from completed
        #: top-level command spans via the span sink; surfaces as the
        #: p50/p95 figures in :meth:`metrics`.
        self._latency = Histogram("command_seconds")
        self._trace_fh = open_log(trace_path(dirpath))
        # the append-only audit log: one schema-versioned entry per
        # journaled command, carrying the provenance tree (cross-checked
        # against the journal by repro.obs.check.audit_roundtrip)
        self._audit_fh = open_log(audit_path(dirpath))
        #: audit entries written by this handle (mirrors journal appends).
        self.audit_entries = 0
        # active stamp -> its audit events (entry_events): explain reads
        # one stamp's rows, not the whole audit.jsonl.  Built from the
        # file on this handle's first explain (None until then), folded
        # from each entry written, and a stamp's rows leave when it is
        # undone.  Each row is kept marshalled: bytes are not tracked by
        # the GC, and marshal encodes a plain dict ~3x faster than
        # json.dumps (the format is never written anywhere).
        self._explain_index: Optional[Dict[int, List[bytes]]] = None
        self.tracer.sinks.append(self._on_span)
        # attach AFTER recovery replay so recovered commands are not
        # journaled a second time — this covers the audit log too: a
        # reopen replays through the engine with no observer attached,
        # so audit.jsonl gains no duplicate entries
        engine.command_observers.append(self._on_command)

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, dirpath: str, source: str, *,
               strategy: Optional[UndoStrategy] = None,
               snapshot_every: int = 32,
               fsync_every: int = 8,
               metrics: Optional[MetricsRegistry] = None
               ) -> "DurableSession":
        """Initialise a new session directory around ``source``.

        ``metrics`` is the registry the engine, journal and snapshot
        store count into (the process-wide default when omitted).
        """
        if os.path.exists(meta_path(dirpath)):
            raise SessionError(f"session already exists at {dirpath!r}")
        program = parse_program(source)  # validate before touching disk
        strategy = strategy if strategy is not None else UndoStrategy()
        meta = {"source": source, "strategy": strategy_to_doc(strategy),
                "snapshot_every": snapshot_every,
                "fsync_every": fsync_every}
        write_meta(dirpath, meta)
        engine = TransformationEngine(program, strategy=strategy,
                                      tracer=_session_tracer(dirpath),
                                      metrics=metrics)
        return cls(dirpath, engine, meta, seq=0)

    @classmethod
    def open(cls, dirpath: str, *, verify: bool = False,
             strategy: Optional[UndoStrategy] = None,
             metrics: Optional[MetricsRegistry] = None) -> "DurableSession":
        """Recover a session from disk (crash-safe reopen); ``metrics``
        as in :meth:`create`, recovery included."""
        result = recover(dirpath, strategy=strategy, verify=verify,
                         tracer=_session_tracer(dirpath), metrics=metrics)
        return cls(dirpath, result.engine, result.meta, seq=result.seq,
                   recovery=result)

    def close(self) -> None:
        """Detach from the engine and durably close the journal."""
        if self._closed:
            return
        self._closed = True
        try:
            self.engine.command_observers.remove(self._on_command)
        except ValueError:
            pass
        try:
            self.tracer.sinks.remove(self._on_span)
        except ValueError:
            pass
        try:
            self._trace_fh.close()
        except OSError:
            pass
        try:
            self._audit_fh.close()
        except OSError:
            pass
        self.journal.close()

    def __enter__(self) -> "DurableSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- journaling ----------------------------------------------------------

    def _on_span(self, span: Span) -> None:
        """Stream one completed span to ``trace.jsonl`` (the tracer sink).

        Runs for *every* span the session tracer completes; top-level
        command spans additionally feed the per-session latency
        histogram behind :meth:`metrics`.  Sink exceptions are isolated
        by the tracer (``Tracer.sink_errors``), so a full disk degrades
        telemetry, never command execution.
        """
        self._trace_fh.write(span.to_line() + "\n")
        if span.parent_id is None and span.name == "command":
            # the request tag (when the command ran under a request
            # context) rides along as the bucket's exemplar, so a slow
            # fleet-latency bucket names a request `repro collect` can
            # explain
            self._latency.observe(span.duration,
                                  exemplar=span.tags.get("request"))

    def _on_command(self, command: Command) -> None:
        """Journal one executed command (the engine-observer hook).

        The engine notifies with the typed command — success and failure
        alike, batches as one group — and this observer is the ONLY
        place commands become journal records: one ``encode()``, one
        append, one (amortized) fsync.  Also samples the command's
        analysis-work delta into ``last_work`` for :meth:`metrics`, and
        annotates the still-open command span with the journal sequence
        number — the join key :func:`repro.obs.check.trace_roundtrip`
        relies on.

        The engine isolates observer exceptions (a committed command
        must not look failed), so a persistence failure cannot propagate
        from here; instead it **poisons** the session — ``journal_error``
        is set and every later command entry point refuses via
        :meth:`_check_open` before an order stamp is consumed.  The
        journal therefore never silently falls behind the engine by more
        than the one command whose append failed.
        """
        if self._closed:
            raise SessionError("session is closed")
        try:
            enc = command.encode()
            self.seq += 1
            self._commands.inc()
            self.tracer.annotate(seq=self.seq)
            syncs_before = self.journal.syncs
            with self.tracer.span("journal.append") as append:
                self.journal.append(self.seq, enc)
            # feed the slow-request forensics: where a slow command's
            # time went (journal vs analysis) for the server's slow log
            annotate_request(
                journal_append_ms=append.duration * 1e3,
                journal_fsyncs=self.journal.syncs - syncs_before,
                analysis_ms=sum(command.work.get("timers", {}).values())
                * 1e3)
            # audit AFTER the journal append so an audit entry never
            # describes a command the journal lost; a failure here
            # poisons the session exactly like a journal failure (the
            # audit trail is evidence — it must not silently fall behind)
            entry = audit_entry(command, self.seq)
            self._audit_fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self.audit_entries += 1
            self.last_work = dict(command.work)
            self._since_snapshot += 1
            if self.snapshot_every \
                    and self._since_snapshot >= self.snapshot_every:
                self.snapshot()
        except BaseException as exc:
            self.journal_error = exc
            raise
        # outside the poisoning try: the index is derived from the
        # audit log, which is already written.  A fold that raises drops
        # the index (the next explain rebuilds it from the file) and
        # reaches the engine's observer-error log, not journal_error.
        index = self._explain_index
        if index is not None:
            try:
                self._index_events(index, entry)
                for stamp in [s for s in index if not self._indexed(s)]:
                    del index[stamp]
            except BaseException:
                self._explain_index = None
                raise

    def _indexed(self, stamp: Any) -> bool:
        """Whether ``stamp``'s events belong in the explain index: it
        names an active transformation.  An undone stamp never becomes
        active again, so its dropped rows are never needed."""
        history = self.engine.history
        if not history.has_stamp(stamp):
            return False
        record = history.by_stamp(stamp)
        return record.active and not record.is_edit

    def _index_events(self, index: Dict[int, List[bytes]],
                      entry: Dict[str, Any]) -> None:
        """Fold one audit entry's events about active stamps into
        ``index``."""
        for stamp, event in entry_events(entry):
            if self._indexed(stamp):
                index.setdefault(stamp, []).append(marshal.dumps(event))

    def snapshot(self) -> Optional[str]:
        """Cut a snapshot (full or delta) now.

        Returns the snapshot path, or ``None`` when the snapshot this
        handle loaded or wrote already covers ``seq``.  A delta is
        written when the base full snapshot (this handle's, or the one
        recovery loaded) is still on disk and fewer than
        ``SNAPSHOT_FULL_EVERY - 1`` deltas followed it; otherwise a full
        snapshot is cut and becomes the base.  The ordering is
        load-bearing: the journal is fsynced through ``seq`` *before*
        the snapshot is written and renamed, and only then are old
        snapshots pruned — so a durable snapshot never covers a command
        the journal could still lose.  The journal is never truncated,
        so a fallback from a corrupt newest snapshot can always replay
        forward from an older one.
        """
        if self.seq == 0 or self.seq == self._snapshot_seq:
            self._since_snapshot = 0
            return None
        base = self._base
        as_delta = (base is not None
                    and base.chain < SNAPSHOT_FULL_EVERY - 1
                    and (base.full_seq, None) in self.snapshots.entries())
        with self.tracer.span("snapshot"):
            self.journal.sync()
            if as_delta:
                path = self.snapshots.write(self.seq,
                                            self._delta_payload(base),
                                            base=base.full_seq)
                base.chain += 1
            else:
                payload = {"journal_seq": self.seq,
                           "engine": engine_to_doc(self.engine)}
                path = self.snapshots.write(self.seq, payload)
                self._base = full_base(self.seq, self.engine)
            self.snapshots.prune(keep=2)
        self._snapshot_seq = self.seq
        self._since_snapshot = 0
        return path

    def _delta_payload(self, base: DeltaBase) -> Dict[str, Any]:
        """Build a delta payload against the base full snapshot.

        Changed statements are found from the event log: every event
        since the full snapshot contributes the subtree of its subject
        statement (still registered — sids are never retired) plus the
        owners of its touched containers, whose child lists changed.
        Events from before a reopen are gone, so the rows a loaded delta
        carried (``base.sids``) seed the set.  Labels and expressions
        only change through evented actions, so the union is exact, and
        recovery's fingerprint verification would catch any gap.
        """
        engine = self.engine
        program = engine.program
        cursors = base.cursors
        changed = set(base.sids)
        for event in engine.events.since(cursors["events"]):
            info = program._infos.get(event.sid)
            if info is not None:
                changed.update(_subtree_sids(info.stmt))
            for container in event.containers:
                owner = container[0]
                if owner != ROOT_SID and owner in program._infos:
                    changed.add(owner)
        rows = {str(sid): stmt_to_row(program._infos[sid].stmt)
                for sid in sorted(changed)}
        detached = [sid for sid in sorted(program._infos)
                    if not program._infos[sid].attached
                    and program._infos[sid].parent is None]
        dirty_stamps = set(base.stamps)
        dirty_stamps.update(engine.history.mutations[cursors["hist"]:])
        history = {str(stamp): record_to_doc(engine.history.by_stamp(stamp))
                   for stamp in dirty_stamps}
        ops = base.ops + [[op, annotation_to_doc(ann)]
                          for op, ann in engine.store.oplog[cursors["anns"]:]]
        applier = engine.applier
        return {
            "journal_seq": self.seq,
            "delta_of": base.full_seq,
            "chain": base.chain + 1,
            "program": {"rows": rows,
                        "roots": [s.sid for s in program.body],
                        "detached": detached,
                        "next_sid": program._next_sid,
                        "version": program.version,
                        "version_hwm": program._version_hwm},
            "history": history,
            "annotations_ops": ops,
            "events_digest": engine.events.digest,
            "events_base": base.events_digest,
            "applier": {"next_action_id": applier.next_action_id,
                        "applied": applier.applied_count,
                        "inverted": applier.inverted_count},
        }

    def _check_open(self) -> None:
        """Refuse commands on a closed session *before* they run.

        A command on a closed session would mutate the engine and then
        fail journaling (the observer raises), leaving state the journal
        does not describe — so every command entry point guards first,
        while no stamp has been consumed.  The same guard enforces
        poisoning: after a persistence failure the engine holds one
        command the journal does not, and running more would widen the
        divergence.
        """
        if self._closed:
            raise SessionError("session is closed")
        if self.journal_error is not None:
            raise SessionError(
                "session poisoned by an earlier persistence failure: "
                f"{self.journal_error!r}")

    # -- command API ---------------------------------------------------------

    def execute(self, command: Command):
        """Run one typed command through the journaled engine.

        THE generic entry point (the server's verb parser lands here);
        the named wrappers below are conveniences over it.  Journaling
        happens via the engine's observer notification — success and
        failure alike — so there is nothing session-specific to do
        beyond the closed guard.
        """
        self._check_open()
        return self.engine.execute(command)

    def batch(self, commands) -> BatchResult:
        """Execute a group of commands as ONE journal record + fsync."""
        self._check_open()
        return self.engine.execute_batch(commands)

    def apply(self, name: str, k: int = 0) -> TransformationRecord:
        """Apply the ``k``-th current opportunity of ``name``."""
        self._check_open()
        opps = self.engine.find(name)
        if not 0 <= k < len(opps):
            raise SessionError(
                f"no {name} opportunity at index {k} "
                f"(have {len(opps)})")
        return self.engine.apply(opps[k])

    def apply_params(self, name: str, **match) -> TransformationRecord:
        """Apply the first ``name`` opportunity matching ``match``."""
        self._check_open()
        return self.engine.apply_first(name, **match)

    def undo(self, stamp: int) -> UndoReport:
        """Independent-order undo (Figure 4), journaled."""
        self._check_open()
        return self.engine.undo(stamp)

    def undo_lifo(self, stamp: int) -> ReverseUndoReport:
        """Reverse-order undo baseline, journaled."""
        self._check_open()
        return self.engine.undo_reverse_to(stamp)

    def _edit(self, command: EditCommand) -> EditReport:
        """Run one edit command; track its report for ``edit_unsafe``.

        Journaling needs no session-side handling any more: edits run
        through ``engine.execute`` like every other command, so success
        *and* failure notify the observer with the stamp the edit
        consumed, and replay re-fails a failed edit deterministically.
        """
        self._check_open()
        report = self.engine.execute(command)
        self._pending_edits.append(report)
        return report

    def edit_delete(self, sid: int) -> EditReport:
        """User edit: delete statement ``sid``."""
        return self._edit(EditCommand(kind="delete", sid=sid))

    def edit_modify(self, sid: int, path: ExprPath, expr: Expr) -> EditReport:
        """User edit: replace the expression at ``(sid, path)``."""
        return self._edit(EditCommand(kind="modify", sid=sid, path=path,
                                      expr=expr))

    def edit_move(self, sid: int, loc: Location) -> EditReport:
        """User edit: relocate statement ``sid``."""
        return self._edit(EditCommand(kind="move", sid=sid, loc=loc))

    def edit_add(self, stmt: Stmt, loc: Location) -> EditReport:
        """User edit: insert a new statement at ``loc``."""
        # EditCommand captures the encoded form at construction, before
        # the applier assigns sids into the live statement
        return self._edit(EditCommand(kind="add", stmt=stmt, loc=loc))

    def edit_unsafe(self) -> List[InvalidationStats]:
        """Remove transformations the pending edits made unsafe.

        Needs no journal record of its own: the removals run through the
        public ``engine.undo`` so each cascade is journaled as an
        ordinary undo command and replays deterministically.
        """
        self._check_open()
        out = []
        for report in self._pending_edits:
            out.append(remove_unsafe(self.engine, report))
        self._pending_edits.clear()
        return out

    # -- inspection ----------------------------------------------------------

    def source(self, show_labels: bool = False) -> str:
        """Current program text."""
        return self.engine.source(show_labels=show_labels)

    def log(self) -> List[Dict[str, Any]]:
        """Every committed command (encoded form), read from the journal."""
        records, _valid, _torn = scan_journal(self.journal.path)
        return [rec.cmd for rec in records]

    def explain_events(self, stamp: int) -> Optional[List[Dict[str, Any]]]:
        """``stamp``'s audit events, read from the explain index.

        Equal to :func:`~repro.obs.provenance.stamp_events` over
        ``audit.jsonl``.  ``None`` when ``stamp`` is not active: undone
        and unknown stamps are not indexed, so the caller reads the file.
        """
        if not self._indexed(stamp):
            return None
        if self._explain_index is None:
            index: Dict[int, List[bytes]] = {}
            for entry in read_audit(audit_path(self.dirpath)):
                self._index_events(index, entry)
            # kept only once whole: a build that raises leaves no
            # partial index behind, and the next explain tries again
            self._explain_index = index
        return [marshal.loads(row)
                for row in self._explain_index.get(stamp, ())]

    def metrics(self) -> Dict[str, Any]:
        """Persistence + analysis-work + latency stats for this session.

        The ``latency`` block is derived from completed top-level
        command spans (see :meth:`_on_span`), so it covers every command
        executed through this handle — including failed ones — at the
        span sink's histogram resolution.  ``spans_recorded`` and
        ``spans_dropped`` read the registry counters labelled with this
        session's name, so they cover every handle of the session that
        counted into this registry.  ``explain_index_rows`` and
        ``explain_index_bytes`` size the explain index (0 before this
        handle's first ``explain``).
        """
        index = self._explain_index or {}
        return {"seq": self.seq,
                "commands": self.seq,
                "active": len(self.engine.history.active()),
                "journal_records_written": self.journal.records_written,
                "journal_bytes_written": self.journal.bytes_written,
                "journal_syncs": self.journal.syncs,
                "snapshots_written": self.snapshots.written,
                "snapshots_on_disk": len(self.snapshots.seqs()),
                "spans_recorded": self.tracer.recorder.completed,
                "spans_dropped": self.tracer.recorder.dropped,
                "audit_entries": self.audit_entries,
                "explain_index_rows": sum(map(len, index.values())),
                "explain_index_bytes": sum(len(row) for rows in index.values()
                                           for row in rows),
                "latency": {"count": self._latency.count,
                            "p50_ms": self._latency.quantile(0.5) * 1e3,
                            "p95_ms": self._latency.quantile(0.95) * 1e3},
                "last_work": dict(self.last_work)}


class SessionManager:
    """Thread-safe front-end over many sessions in one root directory.

    Locking protocol: ``_lock`` (global) guards the live table and LRU
    order; each live session carries its own :class:`threading.RLock`
    serializing commands.  The global lock is never held across engine
    work — it is released before a command runs — so slow commands on
    one session do not block the others.
    """

    def __init__(self, root: str, *, max_live: int = 8,
                 snapshot_every: int = 32, fsync_every: int = 8,
                 strategy: Optional[UndoStrategy] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.root = root
        self.max_live = max_live
        self.snapshot_every = snapshot_every
        self.fsync_every = fsync_every
        self.strategy = strategy
        #: the only store of this manager's sessions' counters: their
        #: engines, journals, snapshot stores and recoveries count here
        #: (a private registry unless one is passed), and
        #: :meth:`aggregate_metrics` reads nothing else.
        self.metrics_registry = metrics if metrics is not None \
            else MetricsRegistry()
        self._lock = threading.Lock()
        #: name -> (session, per-session lock); LRU order, oldest first.
        self._live: "OrderedDict[str, Tuple[DurableSession, threading.RLock]]" \
            = OrderedDict()
        self.evictions = 0
        self.reopens = 0

    def path_for(self, name: str) -> str:
        """Directory of one named session (rejects path-escape names)."""
        if not name or "/" in name or name.startswith("."):
            raise SessionError(f"bad session name {name!r}")
        return os.path.join(self.root, name)

    # -- the live table ------------------------------------------------------

    def create(self, name: str, source: str) -> None:
        """Create a brand-new named session."""
        with self._lock:
            if name in self._live:
                raise SessionError(f"session {name!r} already live")
            session = DurableSession.create(
                self.path_for(name), source, strategy=self.strategy,
                snapshot_every=self.snapshot_every,
                fsync_every=self.fsync_every,
                metrics=self.metrics_registry)
            self._live[name] = (session, threading.RLock())
            self._evict_idle_locked(keep=name)

    def _entry(self, name: str) -> Tuple[DurableSession, threading.RLock]:
        """Return (and LRU-touch) a live entry, reopening from disk."""
        with self._lock:
            if name in self._live:
                self._live.move_to_end(name)
                return self._live[name]
            dirpath = self.path_for(name)
            if not os.path.exists(meta_path(dirpath)):
                raise SessionError(f"no session named {name!r}")
            session = DurableSession.open(dirpath, strategy=self.strategy,
                                          metrics=self.metrics_registry)
            self.reopens += 1
            self._live[name] = (session, threading.RLock())
            self._evict_idle_locked(keep=name)
            return self._live[name]

    def _evict_idle_locked(self, keep: str = "") -> None:
        """Push LRU *idle* sessions to disk until under capacity.

        Holds the global lock; a session whose lock cannot be acquired
        without blocking is mid-command and is skipped this round, as is
        ``keep`` — the session the caller is about to hand out (when the
        rest of the table is busy, eviction could otherwise reap the
        very session that was just opened).
        """
        if len(self._live) <= self.max_live:
            return
        for name in list(self._live):
            if len(self._live) <= self.max_live:
                break
            if name == keep:
                continue
            session, lock = self._live[name]
            if not lock.acquire(blocking=False):
                continue  # busy — not idle, not evictable
            try:
                session.snapshot()
                session.close()
                del self._live[name]
                self.evictions += 1
            finally:
                lock.release()

    @contextmanager
    def session(self, name: str) -> Iterator[DurableSession]:
        """Exclusive access to one session for a block of commands.

        The per-session lock's acquire wait and hold time land in the
        ``repro_session_lock_wait_seconds`` /
        ``repro_session_lock_hold_seconds`` histograms — the two numbers
        that distinguish "the engine is slow" from "the sessions are
        contended".
        """
        session, lock = self._entry(name)
        m = self.metrics_registry
        waited = time.perf_counter()
        lock.acquire()
        acquired = time.perf_counter()
        m.histogram("repro_session_lock_wait_seconds",
                    "time spent waiting to acquire a session lock").observe(
                        acquired - waited)
        annotate_request(lock_wait_ms=(acquired - waited) * 1e3)
        try:
            if session._closed:
                # evicted between lookup and acquire — take the fresh one
                with self.session(name) as fresh:
                    yield fresh
                    return
            yield session
        finally:
            lock.release()
            m.histogram("repro_session_lock_hold_seconds",
                        "time a session lock was held").observe(
                            time.perf_counter() - acquired)

    # -- convenience command wrappers ---------------------------------------

    def apply(self, name: str, transform: str, k: int = 0):
        """Apply ``transform``'s ``k``-th opportunity in one session."""
        with self.session(name) as s:
            return s.apply(transform, k)

    def undo(self, name: str, stamp: int):
        """Independent-order undo of ``stamp`` in one session."""
        with self.session(name) as s:
            return s.undo(stamp)

    def undo_lifo(self, name: str, stamp: int):
        """Reverse-order undo to ``stamp`` in one session."""
        with self.session(name) as s:
            return s.undo_lifo(stamp)

    def source(self, name: str, show_labels: bool = False) -> str:
        """Current program text of one session."""
        with self.session(name) as s:
            return s.source(show_labels=show_labels)

    def metrics(self, name: str) -> Dict[str, Any]:
        """Persistence + analysis-work stats of one session."""
        with self.session(name) as s:
            return s.metrics()

    # -- bookkeeping ---------------------------------------------------------

    def list_sessions(self) -> List[str]:
        """Every session under the root, live or on disk."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for entry in sorted(os.listdir(self.root)):
            if os.path.exists(meta_path(os.path.join(self.root, entry))):
                out.append(entry)
        return out

    def stats(self) -> Dict[str, Any]:
        """Live/on-disk session names and eviction/reopen counts."""
        with self._lock:
            return {"live": list(self._live),
                    "on_disk": self.list_sessions(),
                    "evictions": self.evictions,
                    "reopens": self.reopens}

    def aggregate_metrics(self) -> Dict[str, Any]:
        """Totals across every session this manager served.

        ``registry`` is :attr:`metrics_registry`'s document; ``totals``,
        ``latency`` and ``analytics`` are its
        :func:`~repro.obs.metrics.registry_views`.  The registry is
        written as sessions work, so the totals are monotonic across
        evictions and scoped to *this* manager.  Served by the line
        protocol's manager-level ``_ metrics`` verb.
        """
        registry = self.metrics_registry.to_doc()
        return {**self.stats(), "registry": registry,
                **registry_views(registry)}

    def close_all(self) -> None:
        """Snapshot and close every live session (shutdown path)."""
        with self._lock:
            for name, (session, lock) in list(self._live.items()):
                with lock:
                    session.snapshot()
                    session.close()
                del self._live[name]
