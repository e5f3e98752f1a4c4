"""Transformation-history annotations (the paper's Figure 2).

Every primitive action leaves a small, *transformation-independent*
annotation on the program representation, keyed by the **order stamp**
``t`` of the transformation that caused it:

=========  =====================================================
``md_t``   an expression (or loop header) was modified
``mv_t``   a statement was moved
``del_t``  a statement was deleted (annotation sits on the ghost)
``add_t``  a statement was added
``cp_t``   a statement is a copy created by the transformation
``cps_t``  a statement was the *source* of a copy
=========  =====================================================

The annotations serve two purposes (§4.1):

1. validating a transformation's **post pattern** — a later-stamped
   annotation overlapping the pattern's footprint reveals an *affecting*
   transformation that must be undone first, and
2. mapping a violating primitive action back to the transformation that
   performed it (``stamp`` → history record), which drives lines 8–9 of
   the UNDO algorithm.

Annotations live in a side table keyed by sid rather than on the AST
nodes themselves, so detached (deleted) statements retain their history
and the AST stays clean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lang.ast_nodes import ExprPath, Program

#: Annotation kinds, matching Figure 2's abbreviations.
ANN_KINDS = ("md", "mv", "del", "add", "cp", "cps")


@dataclass(frozen=True)
class Annotation:
    """One history annotation on a statement (or expression path)."""

    kind: str
    #: order stamp of the transformation (or edit) that caused the action.
    stamp: int
    #: the action's global id, for exact attribution.
    action_id: int
    #: sid of the annotated statement.
    sid: int
    #: expression path for ``md`` annotations (``None`` otherwise, except
    #: the special ``("header",)`` path used for loop-header modifies).
    path: Optional[ExprPath] = None

    def short(self) -> str:
        """Compact rendering like ``md_3`` as drawn in Figure 2."""
        return f"{self.kind}_{self.stamp}"


_DIGEST_MOD = 1 << 256


def _ann_key(ann: Annotation) -> str:
    """Deterministic text encoding of one annotation (digest preimage)."""
    return f"{ann.kind}|{ann.stamp}|{ann.action_id}|{ann.sid}|{ann.path!r}"


def _ann_hash(ann: Annotation) -> int:
    return int.from_bytes(
        hashlib.sha256(_ann_key(ann).encode("utf-8")).digest(), "big")


class AnnotationStore:
    """Side table of annotations, indexed by sid and by stamp.

    The store maintains a *commutative* multiset digest — the sum of
    per-annotation hashes mod 2^256 — updated in :meth:`add` and
    :meth:`remove`, the two mutation chokepoints.  Removal order does not
    matter, which matches the store's semantics (annotations are a set
    keyed by content).  It also keeps an append-only ``oplog`` of
    ``("add"|"remove", annotation)`` entries so delta snapshots can ship
    only the tail since the last full snapshot.
    """

    def __init__(self) -> None:
        self._by_sid: Dict[int, List[Annotation]] = {}
        self._by_stamp: Dict[int, List[Annotation]] = {}
        self._digest_acc = 0
        self.oplog: List[Tuple[str, Annotation]] = []

    @property
    def digest(self) -> str:
        """Commutative content digest of the current annotation multiset."""
        return f"{self._digest_acc:064x}"

    # -- mutation ------------------------------------------------------------

    def add(self, ann: Annotation) -> Annotation:
        """Insert an annotation into both indices; returns it."""
        self._by_sid.setdefault(ann.sid, []).append(ann)
        self._by_stamp.setdefault(ann.stamp, []).append(ann)
        self._digest_acc = (self._digest_acc + _ann_hash(ann)) % _DIGEST_MOD
        self.oplog.append(("add", ann))
        return ann

    def remove(self, ann: Annotation) -> None:
        """Remove one annotation from both indices."""
        self._by_sid[ann.sid].remove(ann)
        if not self._by_sid[ann.sid]:
            del self._by_sid[ann.sid]
        self._by_stamp[ann.stamp].remove(ann)
        if not self._by_stamp[ann.stamp]:
            del self._by_stamp[ann.stamp]
        self._digest_acc = (self._digest_acc - _ann_hash(ann)) % _DIGEST_MOD
        self.oplog.append(("remove", ann))

    def remove_stamp(self, stamp: int) -> None:
        """Remove every annotation belonging to transformation ``stamp``."""
        for ann in list(self._by_stamp.get(stamp, [])):
            self.remove(ann)

    # -- queries ----------------------------------------------------------------

    def for_sid(self, sid: int) -> Sequence[Annotation]:
        """All annotations currently on statement ``sid``."""
        return tuple(self._by_sid.get(sid, ()))

    def for_stamp(self, stamp: int) -> Sequence[Annotation]:
        """All annotations left by transformation ``stamp``."""
        return tuple(self._by_stamp.get(stamp, ()))

    def stamps(self) -> List[int]:
        """Stamps that still have annotations (i.e. active transformations)."""
        return sorted(self._by_stamp)

    def after(self, sid: int, stamp: int,
              kinds: Optional[Iterable[str]] = None) -> List[Annotation]:
        """Annotations on ``sid`` with a stamp strictly greater than ``stamp``.

        These witness *affecting* transformations: actions applied after
        transformation ``stamp`` that touched the same statement.
        """
        ks = set(kinds) if kinds is not None else None
        return [a for a in self._by_sid.get(sid, ())
                if a.stamp > stamp and (ks is None or a.kind in ks)]

    def subtree_after(self, program: Program, sid: int, stamp: int,
                      kinds: Optional[Iterable[str]] = None) -> List[Annotation]:
        """Like :meth:`after` but over ``sid`` and all its descendants."""
        out: List[Annotation] = []
        stack = [program.node(sid)]
        while stack:
            s = stack.pop()
            out.extend(self.after(s.sid, stamp, kinds))
            for slot in s.body_slots():
                stack.extend(s.get_body(slot))
        return out

    def path_modified_after(self, sid: int, path: ExprPath,
                            stamp: int) -> List[Annotation]:
        """``md`` annotations after ``stamp`` whose path overlaps ``path``.

        Two paths overlap when one is a prefix of the other: modifying a
        subtree clobbers both the subtree's and any enclosing pattern.
        """
        out = []
        for a in self._by_sid.get(sid, ()):
            if a.kind != "md" or a.stamp <= stamp or a.path is None:
                continue
            n = min(len(a.path), len(path))
            if a.path[:n] == path[:n]:
                out.append(a)
        return out

    def annotations_view(self, program: Program) -> Dict[int, List[str]]:
        """Map of sid → compact annotation strings for attached statements
        (used by the two-level representation renderers)."""
        out: Dict[int, List[str]] = {}
        for s in program.walk():
            anns = self.for_sid(s.sid)
            if anns:
                out[s.sid] = [a.short() for a in sorted(anns, key=lambda x: x.stamp)]
        return out

    def __iter__(self) -> Iterator[Annotation]:
        for anns in self._by_sid.values():
            yield from anns

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_sid.values())
