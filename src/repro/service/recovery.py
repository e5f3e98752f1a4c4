"""Session recovery: snapshot load + journal-tail replay + verification.

Reopening a durable session:

1. **Repair** the journal — a crash mid-append leaves a torn final
   record, which is detected and cleanly truncated
   (:func:`repro.service.journal.repair_journal`).
2. **Migrate** a directory whose snapshots still carry the command
   list, once (:func:`migrate_journal`).
3. **Load** the latest *valid* snapshot (corrupt ones are skipped and
   counted); if none exists, start from the session's genesis program
   source.  The snapshot's :class:`DeltaBase` lets the reopened session
   cut its next snapshot as a delta against the full one on disk.
4. **Replay** the journal tail — every command with a sequence number
   beyond the snapshot — through the *real* engine.  Replay is not a
   simulation: it runs the same ``find``/``apply``/``undo`` code paths
   the original session ran, including commands that failed (a failed
   apply consumed an order stamp; re-failing it keeps stamps aligned).
5. Optionally **verify**: rebuild a second engine by replaying the
   whole journal — never truncated, it holds every command from seq 1
   — from the genesis source and compare semantic fingerprints.

The recovery invariant (tested property): for any byte-truncation of
the journal, recovery yields the state produced by some *prefix* of the
committed command sequence — never a torn or mixed state — and never
less than the newest valid snapshot covers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

# the exception's canonical home is the command module (replay is part
# of the command protocol); re-exported here for compatibility
from repro.core.commands import ReplayError, decode_command
from repro.core.engine import TransformationEngine
from repro.core.undo import UndoStrategy
from repro.lang.parser import parse_program
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer
from repro.service.journal import (
    JournalRecord,
    repair_journal,
    rewrite_journal,
)
from repro.service.serde import (
    KIND_META,
    SerdeError,
    engine_from_doc,
    loads_envelope,
    state_fingerprint,
)
from repro.service.snapshot import SnapshotStore, write_envelope

#: On-disk layout of one session directory.
META_FILE = "session.json"
JOURNAL_FILE = "journal.jsonl"
SNAPSHOT_DIR = "snapshots"


class RecoveryError(RuntimeError):
    """The recovered state failed an integrity or verification check."""


# ---------------------------------------------------------------------------
# Session metadata
# ---------------------------------------------------------------------------


def meta_path(dirpath: str) -> str:
    """Path of a session directory's metadata file."""
    return os.path.join(dirpath, META_FILE)


def write_meta(dirpath: str, payload: Dict[str, Any]) -> None:
    """Durably write the session metadata envelope."""
    os.makedirs(dirpath, exist_ok=True)
    write_envelope(meta_path(dirpath), payload, KIND_META)


def read_meta(dirpath: str) -> Dict[str, Any]:
    """Load and checksum-verify the session metadata.

    A missing, unreadable or corrupt file raises :class:`RecoveryError`.
    """
    try:
        with open(meta_path(dirpath), "rb") as fh:
            return loads_envelope(fh.read(), KIND_META)
    except (OSError, SerdeError) as exc:
        raise RecoveryError(
            f"no readable session metadata in {dirpath!r}: {exc}") from exc


def strategy_to_doc(strategy: UndoStrategy) -> Dict[str, Any]:
    """Undo-strategy knobs as a JSON-safe dict."""
    return {"use_heuristic": strategy.use_heuristic,
            "use_regional": strategy.use_regional,
            "use_incremental": strategy.use_incremental,
            "incremental_strategy": strategy.incremental_strategy}


def strategy_from_doc(doc: Dict[str, Any]) -> UndoStrategy:
    """Rebuild an :class:`UndoStrategy` from its serialized knobs."""
    return UndoStrategy(use_heuristic=doc["use_heuristic"],
                        use_regional=doc["use_regional"],
                        use_incremental=doc["use_incremental"],
                        incremental_strategy=doc["incremental_strategy"])


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_command(engine: TransformationEngine, cmd: Dict[str, Any]) -> None:
    """Re-execute one journaled command against a live engine.

    Dispatches through the command registry: the journal dict is decoded
    back into its typed :class:`~repro.core.commands.Command` (the v1
    dicts of earlier journals decode unchanged) and its ``replay``
    protocol re-runs it through the same ``engine.execute`` path the
    original session used — replay is not a simulation.  Raises
    :class:`ReplayError` when the outcome diverges from what the journal
    recorded (wrong stamp, missing opportunity, a different undo set, a
    failure that no longer fails) — any divergence means the journal
    does not describe this state and recovery must not continue
    silently.  Command args are decoded *before* anything runs, so a
    corrupt record raises a decode error rather than being mistaken for
    the journaled failure of a ``failed: true`` command.
    """
    decode_command(cmd).replay(engine)


def replay_from_scratch(source: str, commands: List[Dict[str, Any]],
                        strategy: Optional[UndoStrategy] = None,
                        ) -> TransformationEngine:
    """Rebuild an engine by replaying every command from genesis."""
    engine = TransformationEngine(parse_program(source), strategy=strategy)
    for cmd in commands:
        replay_command(engine, cmd)
    return engine


# ---------------------------------------------------------------------------
# Recovery proper
# ---------------------------------------------------------------------------


def migrate_journal(journal_path: str, records: List[JournalRecord],
                    store: SnapshotStore) -> List[JournalRecord]:
    """Move the history of an older session directory into its journal.

    Older directories kept the commands since genesis in every full
    snapshot (``commands``) and truncated the journal after each one.
    When the journal does not start at seq 1, the oldest readable full
    snapshot's ``commands`` plus the journal records after it atomically
    replace the journal.  Returns the records now on disk.
    """
    if records and records[0].seq == 1:
        return records
    for seq, base in store.entries():
        if base is not None:
            continue
        try:
            payload = store.load(seq)
        except SerdeError:
            continue
        if "commands" not in payload:
            return records
        history = [JournalRecord(i, cmd)
                   for i, cmd in enumerate(payload["commands"], start=1)]
        history += [r for r in records if r.seq > len(history)]
        rewrite_journal(journal_path, history)
        return history
    return records


@dataclass
class DeltaBase:
    """The full snapshot a session's next delta snapshot is cut against.

    ``cursors`` are the extents of the engine's append-only logs
    (``events``, annotation ``anns`` oplog, ``hist`` mutations) and
    ``events_digest`` the log digest at that full snapshot; a delta ships
    what lies beyond the cursors plus the changed-row ``sids``, ``ops``
    and ``stamps`` a delta loaded at reopen carried (the logs restart at
    reopen).  ``chain`` counts the deltas written against ``full_seq``.
    """

    full_seq: int
    cursors: Dict[str, int]
    events_digest: str
    sids: List[int] = field(default_factory=list)
    ops: List[Any] = field(default_factory=list)
    stamps: List[int] = field(default_factory=list)
    chain: int = 0


def full_base(seq: int, engine: TransformationEngine) -> DeltaBase:
    """The delta base of a full snapshot of ``engine`` at ``seq``."""
    return DeltaBase(seq, {"events": len(engine.events),
                           "anns": len(engine.store.oplog),
                           "hist": len(engine.history.mutations)},
                     engine.events.digest)


def _delta_base(seq: int, payload: Dict[str, Any],
                engine: TransformationEngine) -> Optional[DeltaBase]:
    """The delta base a just-restored snapshot leaves its session.

    ``None`` — the next snapshot is full — for a full snapshot that
    still carries ``commands`` (written before the journal held the
    whole history) and for a delta written with an ``events_tail``.
    """
    if "commands" in payload:
        return None
    delta = payload.get("delta")
    if delta is None:
        return full_base(seq, engine)
    if "events_tail" in delta:
        return None
    return replace(full_base(delta["delta_of"], engine),
                   events_digest=delta["events_base"],
                   sids=[int(s) for s in delta["program"]["rows"]],
                   ops=list(delta["annotations_ops"]),
                   stamps=[int(s) for s in delta["history"]],
                   chain=delta["chain"])


@dataclass
class RecoveryResult:
    """What one :func:`recover` call reconstructed, with work stats."""

    engine: TransformationEngine
    #: sequence number of the last applied command.
    seq: int = 0
    #: commands replayed through the live engine (the journal tail).
    replayed: int = 0
    #: snapshot the recovery started from (``None`` = genesis replay).
    snapshot_seq: Optional[int] = None
    #: bytes dropped when truncating a torn journal tail.
    torn_bytes: int = 0
    #: result of the optional from-scratch verification.
    verified: Optional[bool] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: corrupt snapshots skipped on the way to the one loaded.
    skipped_snapshots: int = 0
    #: what the session's next delta snapshot is cut against (``None``:
    #: its next snapshot is full).
    delta_base: Optional[DeltaBase] = None


def recover(dirpath: str, *, strategy: Optional[UndoStrategy] = None,
            verify: bool = False, tracer: Optional[Tracer] = None,
            metrics: Optional[obs_metrics.MetricsRegistry] = None,
            ) -> RecoveryResult:
    """Reconstruct a session's engine from its directory.

    ``verify=True`` additionally replays the *whole* journal from the
    genesis source into a second engine and requires the two semantic
    fingerprints to match (raising :class:`RecoveryError` otherwise) —
    the recovered state must be indistinguishable from one that never
    crashed.  So does a journal missing any seq up to the recovered one,
    which only losing fsynced data can cause.

    ``tracer``/``metrics`` land on the rebuilt engine, and the whole
    reconstruction runs inside one ``recover`` span — the replayed
    commands' spans become its *children* and carry no journal ``seq``
    annotation, so the flight-recorder round-trip check never mistakes
    a replay for a newly committed command.
    """
    tracer = tracer if tracer is not None else Tracer.disabled
    registry = metrics if metrics is not None else obs_metrics.REGISTRY
    started = time.perf_counter()
    meta = read_meta(dirpath)
    if strategy is None:
        strategy = strategy_from_doc(meta["strategy"])

    with tracer.span("recover") as span:
        journal_path = os.path.join(dirpath, JOURNAL_FILE)
        records, torn_bytes = repair_journal(journal_path)
        store = SnapshotStore(os.path.join(dirpath, SNAPSHOT_DIR),
                              metrics=registry)
        records = migrate_journal(journal_path, records, store)
        snap = store.latest()

        if snap is not None:
            snap_seq, payload = snap
            engine = engine_from_doc(payload["engine"], strategy=strategy)
            delta_base = _delta_base(snap_seq, payload, engine)
            tail = [r for r in records if r.seq > snap_seq]
            seq = snap_seq
        else:
            snap_seq = delta_base = None
            engine = TransformationEngine(parse_program(meta["source"]),
                                          strategy=strategy)
            tail = records
            seq = 0
        engine.tracer = tracer
        engine.metrics = registry

        for rec in tail:
            if rec.seq != seq + 1:
                raise RecoveryError(
                    f"journal gap: expected seq {seq + 1}, found {rec.seq}")
            replay_command(engine, rec.cmd)
            seq = rec.seq
        span.tag(replayed=len(tail), snapshot_seq=snap_seq,
                 torn_bytes=torn_bytes,
                 skipped_snapshots=store.skipped_corrupt)

    registry.counter("repro_recoveries_total",
                     "session recoveries performed").inc()
    registry.counter("repro_recovery_replayed_total",
                     "journal-tail commands replayed during recovery"
                     ).inc(len(tail))
    registry.histogram("repro_recovery_seconds",
                       "end-to-end session recovery latency").observe(
                           time.perf_counter() - started)

    result = RecoveryResult(engine=engine, seq=seq, replayed=len(tail),
                            snapshot_seq=snap_seq, torn_bytes=torn_bytes,
                            meta=meta,
                            skipped_snapshots=store.skipped_corrupt,
                            delta_base=delta_base)
    if verify:
        have = {r.seq for r in records}
        missing = [s for s in range(1, seq + 1) if s not in have]
        if missing:
            raise RecoveryError(
                f"cannot verify: the journal is missing seq(s) "
                f"{missing[0]}..{missing[-1]} ({len(missing)} of 1..{seq})")
        fresh = replay_from_scratch(meta["source"],
                                    [r.cmd for r in records],
                                    strategy=strategy)
        result.verified = (state_fingerprint(fresh)
                           == state_fingerprint(engine))
        if not result.verified:
            raise RecoveryError(
                "recovered state diverges from a from-scratch replay of "
                f"{len(records)} command(s)")
    return result
