"""Incremental engine fingerprints built from component digests.

The fingerprint is a checksum over five independently-digested
components instead of one canonical-JSON rendering of the whole engine:

``program``
    Merkle combination of per-statement content hashes
    (:func:`repro.lang.ast_nodes.stmt_hash`) over the attached roots and
    the detached roots (sid order), plus the sid counter.  Version
    counters are excluded — they depend on how many read-only queries
    ran, which the journal deliberately does not record.
``history``
    Per-record digests (canonical JSON of
    :func:`repro.service.serde.record_to_doc`) combined in stamp order.
``annotations``
    The :class:`~repro.core.annotations.AnnotationStore`'s commutative
    multiset digest.
``events``
    The :class:`~repro.core.events.EventLog`'s chained running digest,
    recomputed from its persisted ``base_digest`` over the events held
    (``recover(verify=True)`` replays, so it checks the whole chain).
``applier``
    The id counter and apply/invert totals.

Two implementations produce the same value:

* :func:`scratch_fingerprint` recomputes everything without reading any
  memoized hash — this is what :func:`repro.service.serde.state_fingerprint`
  returns, and what recovery verification replays against.
* :class:`FingerprintMaintainer` reuses memoized statement hashes, the
  O(1) store/log digests, and cached per-record digests refreshed from
  the history's append-only mutation journal — O(delta) per command.

Their equality after arbitrary command sequences is the correctness
property of the whole invalidation discipline, enforced by the property
tests in ``tests/test_compact.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.core.annotations import AnnotationStore, _ann_hash
from repro.core.events import chain_digest
from repro.lang.ast_nodes import Program, stmt_hash, stmt_hash_fresh
from repro.service.serde import canonical_dumps, record_to_doc

__all__ = [
    "FingerprintMaintainer",
    "program_digest",
    "scratch_fingerprint",
]

_SEP = "\x1f"


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_digest(program: Program, *, fresh: bool = False) -> str:
    """Combine per-statement subtree hashes into one program digest.

    O(#roots + #detached) when memoized hashes are warm; ``fresh=True``
    recomputes every subtree hash without touching the memo.
    """
    hash_fn = stmt_hash_fresh if fresh else stmt_hash
    parts: List[str] = [hash_fn(s) for s in program.body]
    parts.append("detached")
    for sid in sorted(program._infos):
        info = program._infos[sid]
        if not info.attached and info.parent is None:
            parts.append(hash_fn(info.stmt))
    parts.append(str(program._next_sid))
    return _hash_text(_SEP.join(parts))


def record_digest(rec) -> str:
    """Digest of one history record's canonical document."""
    return _hash_text(canonical_dumps(record_to_doc(rec)))


def _combine_history(digests_in_stamp_order: List[str]) -> str:
    return _hash_text(_SEP.join(digests_in_stamp_order))


def _store_digest_fresh(store: AnnotationStore) -> str:
    """Recompute the commutative annotation digest from the live set."""
    acc = 0
    for ann in store:
        acc = (acc + _ann_hash(ann)) % (1 << 256)
    return f"{acc:064x}"


def _applier_component(applier) -> Dict[str, int]:
    return {"next_action_id": applier.next_action_id,
            "applied": applier.applied_count,
            "inverted": applier.inverted_count}


def _finish(components: Dict[str, object]) -> str:
    return _hash_text(canonical_dumps(components))


def scratch_fingerprint(engine) -> str:
    """The fingerprint, recomputed with no reuse of any cached digest."""
    components = {
        "program": program_digest(engine.program, fresh=True),
        "history": _combine_history(
            [record_digest(r) for r in engine.history.all_records()]),
        "annotations": _store_digest_fresh(engine.store),
        "events": chain_digest(engine.events.all(), engine.events.base_digest),
        "applier": _applier_component(engine.applier),
    }
    return _finish(components)


class FingerprintMaintainer:
    """O(delta) fingerprint reads over a live engine.

    Holds a cursor into ``engine.history.mutations`` (append-only) and a
    per-stamp record-digest cache; :meth:`current` drains the journal,
    re-digests only the dirty records, and combines the memoized program
    hashes with the store/log running digests.  No per-command hook is
    needed — all state it reads is maintained by the engine itself.
    """

    def __init__(self, engine):
        self.engine = engine
        self._record_digests: Dict[int, str] = {}
        #: instrumentation: history records re-digested so far.
        self.record_updates = 0
        # prime from the existing history (a restored session starts
        # with records but an empty-or-stale mutation journal).
        for rec in engine.history.all_records():
            self._record_digests[rec.stamp] = record_digest(rec)
        self._hist_cursor = len(engine.history.mutations)

    def _drain(self) -> None:
        history = self.engine.history
        mutations = history.mutations
        while self._hist_cursor < len(mutations):
            stamp = mutations[self._hist_cursor]
            self._hist_cursor += 1
            self._record_digests[stamp] = record_digest(history.by_stamp(stamp))
            self.record_updates += 1

    def current(self) -> str:
        """The engine's fingerprint, equal to :func:`scratch_fingerprint`."""
        self._drain()
        engine = self.engine
        ordered = [self._record_digests[r.stamp]
                   for r in engine.history.all_records()]
        components = {
            "program": program_digest(engine.program),
            "history": _combine_history(ordered),
            "annotations": engine.store.digest,
            "events": engine.events.digest,
            "applier": _applier_component(engine.applier),
        }
        return _finish(components)
