"""Durable session service: persistence, recovery, and concurrency.

The paper treats transformation history — order stamps, Figure 2
annotations, the event log — as a first-class artifact, yet the core
:class:`~repro.core.engine.TransformationEngine` keeps all of it in
memory.  This package makes engine sessions *durable* and *concurrent*:

* :mod:`repro.service.serde` — versioned, checksummed JSON codecs for
  programs, annotation stores, history records, and the event log;
* :mod:`repro.service.journal` — an append-only write-ahead journal of
  session commands (JSON lines, batched fsync, torn-tail detection),
  the session's only command history;
* :mod:`repro.service.snapshot` — atomic full and delta engine-state
  snapshots that bound reopen latency;
* :mod:`repro.service.recovery` — reopen = latest valid snapshot +
  journal-tail replay through the real engine, optionally verified
  against a from-scratch replay;
* :mod:`repro.service.session` — :class:`DurableSession` (one journaled
  engine) and :class:`SessionManager` (per-session locks, LRU eviction
  of idle sessions to disk);
* :mod:`repro.service.server` — a thread-safe textual command front-end
  surfaced through the ``repro serve`` / ``repro session`` CLI.

See docs/PERSISTENCE.md for the on-disk formats and the recovery
invariants.
"""

from repro.service.journal import Journal, JournalError, scan_journal
from repro.service.recovery import (
    RecoveryError,
    RecoveryResult,
    ReplayError,
    recover,
    replay_command,
    replay_from_scratch,
)
from repro.service.serde import SerdeError, engine_from_doc, engine_to_doc, state_fingerprint
from repro.service.server import SessionServer
from repro.service.session import DurableSession, SessionError, SessionManager
from repro.service.snapshot import SnapshotStore

__all__ = [
    "DurableSession",
    "SessionServer",
    "Journal",
    "JournalError",
    "RecoveryError",
    "RecoveryResult",
    "ReplayError",
    "SerdeError",
    "SessionError",
    "SessionManager",
    "SnapshotStore",
    "engine_from_doc",
    "engine_to_doc",
    "recover",
    "replay_command",
    "replay_from_scratch",
    "scan_journal",
    "state_fingerprint",
]
