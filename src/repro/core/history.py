"""Transformation history: records, order stamps, pre/post patterns.

A :class:`TransformationRecord` is the unit the undo engines operate on:
one applied transformation = one order stamp = one contiguous sequence of
primitive-action records (§4.1).  The record also stores the
transformation's ``pre_pattern`` and ``post_pattern`` (Table 2) as plain
dictionaries whose schema is owned by the transformation class — the core
machinery never interprets them, preserving transformation independence.

User edits are recorded here too (with ``name="edit"``): they consume an
order stamp and leave annotations like any transformation, but they are
not undoable through the transformation engines (the paper treats edits
as the *trigger* for removing unsafe transformations, not as history).

An undone record never changes again, and only provenance reads it
(Figure 4 re-checks *active* transformations).  A durable session
therefore writes it once to a side file and may hold a
:class:`StoredRecord` in its place: a stub that answers its stamp, name,
state and action-id range, and loads the rest on first read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.actions import ActionRecord


@dataclass
class TransformationRecord:
    """One applied transformation (or user edit)."""

    #: the order stamp ``t`` — position in the application sequence.
    stamp: int
    #: transformation name (``"dce"``, ``"inx"``, ... or ``"edit"``).
    name: str
    #: primitive actions, in application order.
    actions: List[ActionRecord] = field(default_factory=list)
    #: Table 2 pre pattern (schema owned by the transformation class).
    pre_pattern: Dict = field(default_factory=dict)
    #: Table 2 post pattern.
    post_pattern: Dict = field(default_factory=dict)
    #: free-form parameters of the application (e.g. unroll factor).
    params: Dict = field(default_factory=dict)
    #: False once the transformation has been undone.
    active: bool = True

    @property
    def is_edit(self) -> bool:
        return self.name == "edit"

    @property
    def action_ids(self) -> Optional[Tuple[int, int]]:
        """First and last primitive-action id (``None`` without actions).

        One record's actions are applied back to back, so their ids are
        contiguous, and ids grow in stamp order."""
        if not self.actions:
            return None
        return self.actions[0].action_id, self.actions[-1].action_id

    def describe(self) -> str:
        """Compact one-line rendering for reports and the CLI."""
        acts = ", ".join(a.describe() for a in self.actions)
        return f"t{self.stamp}:{self.name}[{acts}]"


class StoredRecord(TransformationRecord):
    """An undone record whose content lives in a store.

    ``stamp``, ``name`` (hence ``is_edit``), ``active`` (always False)
    and :attr:`action_ids` are answered without loading; reading
    ``actions``, the patterns or ``params`` loads the record once through
    ``store.load(self)``.  ``record`` seeds the loaded content (a stub
    made for a record already in memory).
    """

    def __init__(self, stamp: int, name: str,
                 action_ids: Optional[Tuple[int, int]], store,
                 record: Optional[TransformationRecord] = None) -> None:
        self.stamp = stamp
        self.name = name
        self.active = False
        self.store = store
        self._action_ids = action_ids
        self._record = record

    @property
    def loaded(self) -> bool:
        """Whether the content has been read from the store."""
        return self._record is not None

    def load(self) -> TransformationRecord:
        """The full record (read from the store on the first call)."""
        if self._record is None:
            self._record = self.store.load(self)
        return self._record

    @property
    def action_ids(self) -> Optional[Tuple[int, int]]:
        return self._action_ids

    actions = property(lambda self: self.load().actions)
    pre_pattern = property(lambda self: self.load().pre_pattern)
    post_pattern = property(lambda self: self.load().post_pattern)
    params = property(lambda self: self.load().params)


class History:
    """The ordered sequence of applied transformations ``T = {t_1..t_n}``."""

    def __init__(self) -> None:
        self._records: List[TransformationRecord] = []
        self._by_stamp: Dict[int, TransformationRecord] = {}
        self._next_stamp = 1
        # UNDO line 9's map: the first action id of each record with
        # actions, ascending, and its stamp.  Only the newest record can
        # still gain actions, so records before it are mapped once.
        self._id_firsts: List[int] = []
        self._id_stamps: List[int] = []
        self._id_scan = 0  # index in _records where mapping resumes
        #: append-only journal of stamps whose record content changed
        #: (created, deactivated, or mutated through the action applier).
        #: Incremental consumers — the fingerprint maintainer, delta
        #: snapshots — keep a cursor into this list and re-digest only
        #: the records named after it.
        self.mutations: List[int] = []

    def note_mutation(self, stamp: int) -> None:
        """Record that the record with ``stamp`` changed content."""
        self.mutations.append(stamp)

    @classmethod
    def restore(cls, records: Iterable[TransformationRecord]) -> "History":
        """Rebuild a history from deserialized records (stamp order).

        Records are never removed from a history — undone ones are only
        deactivated — so the next free stamp is derivable as
        ``max(stamps) + 1``.  Used by :mod:`repro.service.serde` when a
        durable session is reopened.
        """
        hist = cls()
        for rec in records:
            if rec.stamp in hist._by_stamp:
                raise ValueError(f"duplicate stamp {rec.stamp} in records")
            hist._records.append(rec)
            hist._by_stamp[rec.stamp] = rec
        if hist._records:
            hist._next_stamp = max(hist._by_stamp) + 1
        return hist

    def new_record(self, name: str, **params) -> TransformationRecord:
        """Create, register and return a record with the next order stamp."""
        rec = TransformationRecord(stamp=self._next_stamp, name=name,
                                   params=dict(params))
        self._next_stamp += 1
        self._records.append(rec)
        self._by_stamp[rec.stamp] = rec
        self.mutations.append(rec.stamp)
        return rec

    def by_stamp(self, stamp: int) -> TransformationRecord:
        """The record with order stamp ``stamp`` (KeyError if unknown)."""
        return self._by_stamp[stamp]

    def has_stamp(self, stamp: int) -> bool:
        """Whether a record with this stamp exists."""
        return stamp in self._by_stamp

    def all_records(self) -> List[TransformationRecord]:
        """Every record ever created, in stamp order (including undone)."""
        return list(self._records)

    def active(self) -> List[TransformationRecord]:
        """Currently applied transformations, in stamp order (edits excluded)."""
        return [r for r in self._records if r.active and not r.is_edit]

    def active_after(self, stamp: int) -> List[TransformationRecord]:
        """Active transformations with a stamp strictly greater than ``stamp``.

        Only these can be *affected* by undoing ``stamp`` (§4.2: safety of
        ``t_k`` can only be disabled by reversing a *preceding* ``t_i``).
        """
        return [r for r in self._records
                if r.active and not r.is_edit and r.stamp > stamp]

    def deactivate(self, stamp: int) -> None:
        """Mark the record with ``stamp`` as undone."""
        self._by_stamp[stamp].active = False
        self.mutations.append(stamp)

    def store(self, stubs: Iterable[StoredRecord]) -> None:
        """Hold each stub in place of the undone record with its stamp.

        The content is unchanged, so no mutation is noted."""
        for stub in stubs:
            if self._by_stamp[stub.stamp].active:
                raise ValueError(f"t{stub.stamp} is active; only undone "
                                 "records are stored")
            self._by_stamp[stub.stamp] = stub
        self._records = [self._by_stamp[r.stamp] for r in self._records]

    def stamp_of_action(self, action_id: int) -> Optional[int]:
        """Map a primitive-action id back to its transformation's stamp.

        This is line 9 of the UNDO algorithm: "determine the
        transformation that causes the action".  Answered from the map
        of action-id ranges, so stored records are not loaded."""
        for rec in self._records[self._id_scan:]:
            ids = rec.action_ids
            if ids is not None and (not self._id_stamps
                                    or rec.stamp > self._id_stamps[-1]):
                self._id_firsts.append(ids[0])
                self._id_stamps.append(rec.stamp)
        self._id_scan = max(0, len(self._records) - 1)
        at = bisect_right(self._id_firsts, action_id) - 1
        if at < 0:
            return None
        ids = self._by_stamp[self._id_stamps[at]].action_ids
        return self._id_stamps[at] if action_id <= ids[1] else None

    def __len__(self) -> int:
        return len(self._records)

    def describe(self) -> str:
        """Compact one-line rendering for reports and the CLI."""
        lines = []
        for r in self._records:
            flag = "" if r.active else " (undone)"
            lines.append(f"  {r.describe()}{flag}")
        return "\n".join(lines)
