"""Action events driving the event-driven regional undo (§4.4).

Every primitive action — forward or inverse — emits an :class:`Event`
describing *where* the program changed: which statements were touched and
which containers (hence basic blocks / PDG regions) are dirty.  The
affected-region computation in :mod:`repro.core.regions` and the
incremental analysis layer consume these instead of re-scanning the whole
program, which is precisely the paper's space-coordinate optimisation.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.lang.ast_nodes import ContainerRef


class EventKind(enum.Enum):
    """What kind of change an action made."""

    STMT_REMOVED = "stmt_removed"
    STMT_INSERTED = "stmt_inserted"
    STMT_MOVED = "stmt_moved"
    EXPR_MODIFIED = "expr_modified"
    HEADER_MODIFIED = "header_modified"


@dataclass(frozen=True)
class Event:
    """One program-change event.

    Attributes
    ----------
    kind:
        The change category.
    sid:
        The statement that was inserted/removed/moved/modified.
    containers:
        Containers whose statement lists or data flow changed — for a
        move these are both the source and the destination containers.
    stamp:
        Order stamp of the transformation (or edit, or undo) responsible.
    action_id:
        Id of the responsible primitive action.
    inverse:
        True when the event was produced by an *inverse* action (undo).
    """

    kind: EventKind
    sid: int
    containers: Tuple[ContainerRef, ...]
    stamp: int
    action_id: int
    inverse: bool = False


def _event_key(event: Event) -> str:
    """Deterministic text encoding of one event (digest preimage)."""
    return (f"{event.kind.value}|{event.sid}|{event.containers!r}|"
            f"{event.stamp}|{event.action_id}|{int(event.inverse)}")


#: Digest of the empty event log.
EMPTY_LOG_DIGEST = hashlib.sha256(b"eventlog").hexdigest()


def chain_digest(events: Iterable[Event],
                 digest: str = EMPTY_LOG_DIGEST) -> str:
    """Extend a chained log digest over ``events``, in order."""
    for event in events:
        digest = hashlib.sha256(
            (digest + _event_key(event)).encode("utf-8")).hexdigest()
    return digest


class EventLog:
    """Accumulates events; consumers drain slices by cursor.

    The log is append-only, so it maintains a *chained* running digest:
    ``digest_{i+1} = sha256(digest_i || key(event_i))``.  The incremental
    fingerprint reads :attr:`digest` in O(1) instead of re-serializing
    the whole log.

    Consumers never re-read a ``since(cursor)`` slice, so snapshots keep
    only the digest: a restored log starts empty, chaining on from
    :attr:`base_digest`, and cursors and :meth:`all` span one handle.
    """

    def __init__(self, digest: str = EMPTY_LOG_DIGEST) -> None:
        self._events: List[Event] = []
        self.base_digest = digest
        self._digest = digest
        #: ``program.version`` right after the latest event (set by the
        #: applier); analysis caches patch from the log only when it
        #: still equals the program's version.
        self.version: Optional[int] = None

    @property
    def digest(self) -> str:
        """Running chained digest over every event emitted so far."""
        return self._digest

    def emit(self, event: Event) -> None:
        """Append an event to the log."""
        self._events.append(event)
        self._digest = chain_digest((event,), self._digest)

    def cursor(self) -> int:
        """Current end-of-log position, for later :meth:`since` calls."""
        return len(self._events)

    def since(self, cursor: int) -> List[Event]:
        """Events emitted at or after ``cursor``."""
        return self._events[cursor:]

    def all(self) -> List[Event]:
        """Every event held since the log was created or restored (copy)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)
