"""Program locations with snapshot-based re-resolution.

The inverse of ``Delete(a)`` is ``Add(orig_location, -, a)`` (Table 1).
A raw ``(container, index)`` pair is too brittle: by the time the delete
is undone, other statements may have been inserted or removed around the
original position.  A :class:`Location` therefore snapshots the *entire
ordered sibling list* at capture time, split into the sids before and
after the position, and re-resolves against whichever of them are still
present.

Two restorations interleaving in the same neighbourhood can still be
mutually ambiguous — statement X sits in the gap, and X was absent when
our location was captured.  In that case X's *own* history records the
relative order (our sid appears in X's before/after snapshot), so
resolution accepts an ``orderer`` callback that consults the shared
history (:func:`make_sibling_orderer`).  This is exactly the paper's
claim that "with appropriate transformation history maintained (e.g.,
the original locations of moved and deleted statements), the reversal
... can be performed immediately" (§2) — the history carries enough to
reconstruct original positions.

Resolution *fails* (returns ``None``) only when the container itself is
no longer part of the live program — the "delete context of the
location" reversibility-disabling condition (Table 3).  The companion
condition, "copy context of the location", is detected separately by
the post-pattern checks in :mod:`repro.transforms.base`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.lang.ast_nodes import ContainerRef, Program

#: Relative-order verdicts an orderer can return for a gap statement.
X_FIRST = "x_first"      # the gap statement precedes the restored one
SELF_FIRST = "self_first"  # the restored statement precedes the gap one

#: ``orderer(gap_sid, self_sid) -> X_FIRST | SELF_FIRST | None``
Orderer = Callable[[int, int], Optional[str]]


@dataclass(frozen=True)
class Location:
    """A position inside a statement container.

    Attributes
    ----------
    container:
        ``(sid, slot)`` of the statement list (the program root is
        ``(ROOT_SID, "body")``).
    index:
        The position at capture time (last-resort fallback).
    before_sids / after_sids:
        The full ordered sibling snapshot at capture time, split at the
        position.
    """

    container: ContainerRef
    index: int
    before_sids: Tuple[int, ...] = ()
    after_sids: Tuple[int, ...] = ()

    @property
    def prev_sid(self) -> Optional[int]:
        """The immediately preceding sibling at capture time."""
        return self.before_sids[-1] if self.before_sids else None

    @property
    def next_sid(self) -> Optional[int]:
        """The immediately following sibling at capture time."""
        return self.after_sids[0] if self.after_sids else None

    # -- construction -------------------------------------------------------

    @staticmethod
    def of_stmt(program: Program, sid: int) -> "Location":
        """Capture the current location of an attached statement."""
        ref = program.parent_of(sid)
        if ref is None:
            raise ValueError(f"statement {sid} is detached")
        lst = program.container_list(ref)
        idx = program.index_in_container(sid)
        return Location(ref, idx,
                        tuple(s.sid for s in lst[:idx]),
                        tuple(s.sid for s in lst[idx + 1:]))

    @staticmethod
    def at(program: Program, ref: ContainerRef, index: int) -> "Location":
        """Capture an insertion point ``(ref, index)`` with its snapshot."""
        lst = program.container_list(ref)
        index = max(0, min(index, len(lst)))
        return Location(ref, index,
                        tuple(s.sid for s in lst[:index]),
                        tuple(s.sid for s in lst[index:]))

    @staticmethod
    def before(program: Program, sid: int) -> "Location":
        """The insertion point immediately before statement ``sid``."""
        ref = program.parent_of(sid)
        if ref is None:
            raise ValueError(f"statement {sid} is detached")
        return Location.at(program, ref, program.index_in_container(sid))

    @staticmethod
    def after(program: Program, sid: int) -> "Location":
        """The insertion point immediately after statement ``sid``."""
        ref = program.parent_of(sid)
        if ref is None:
            raise ValueError(f"statement {sid} is detached")
        return Location.at(program, ref, program.index_in_container(sid) + 1)

    # -- resolution -----------------------------------------------------------

    def resolve(self, program: Program, *, orderer: Optional[Orderer] = None,
                self_sid: Optional[int] = None,
                ) -> Optional[Tuple[ContainerRef, int]]:
        """Re-resolve to a live ``(container, index)`` insertion point.

        Returns ``None`` when the container is no longer attached.  The
        position honours every sibling from the snapshot that is still
        present; statements *not* in the snapshot (inserted since the
        capture) are ordered via ``orderer`` when their history knows the
        relative order, and are otherwise left after the insertion point.
        """
        if not program.container_alive(self.container):
            return None
        lst = program.container_list(self.container)
        pos_of = {s.sid: i for i, s in enumerate(lst)}
        lo = 0
        for sid in self.before_sids:
            if sid in pos_of:
                lo = max(lo, pos_of[sid] + 1)
        hi = len(lst)
        for sid in self.after_sids:
            if sid in pos_of:
                hi = min(hi, pos_of[sid])
        if hi < lo:
            # siblings were reordered around the gap; trust the later bound
            return (self.container, lo)
        pos = lo
        if orderer is not None and self_sid is not None:
            for i in range(lo, hi):
                verdict = orderer(lst[i].sid, self_sid)
                if verdict == X_FIRST:
                    pos = i + 1
                elif verdict == SELF_FIRST:
                    break
        elif lo == 0 and hi == len(lst) and not pos_of:
            # nothing from the snapshot survives: fall back to the raw index
            pos = max(0, min(self.index, len(lst)))
        return (self.container, pos)

    def describe(self, program: Program) -> str:
        """Human-readable rendering for reports and error messages."""
        sid, slot = self.container
        where = "program" if sid == 0 else f"{type(program.node(sid)).__name__}#{sid}.{slot}"
        return f"{where}[{self.index}]"


class SiblingOrderer:
    """An orderer that consults the shared transformation history.

    Every location snapshot in the history totally orders the statements
    it saw (``before + [located stmt] + after``).  We combine all
    snapshots into a precedence relation — for each statement pair, the
    *latest* snapshot containing both wins (statements legitimately move,
    so old evidence is superseded) — and answer relative-order queries by
    transitive reachability.  Transitivity matters: a statement created
    *after* another was deleted shares no snapshot with it, but both
    share snapshots with common neighbours (e.g. a strip-mining outer
    loop is tied to the loop it wrapped, which the deleted statement's
    own snapshot orders).

    The relation is kept across queries; each query folds in only the
    actions appended since, found through a cursor into
    ``history.mutations``.  Action ids grow in stamp order and within a
    record, and actions are only appended (rollback inverts, never
    removes), so a newly folded snapshot wins every pair it contains and
    overwrites them with set operations.  An action whose id is not
    above the last folded one breaks that invariant and refolds the
    whole history in id order, as the first query does.
    """

    def __init__(self, history) -> None:
        self.history = history
        #: statement → statements it precedes.
        self._succ: Dict[int, Set[int]] = {}
        #: stamp → how many of that record's actions are folded in.
        self._folded: Dict[int, int] = {}
        self._cursor: Optional[int] = None  # None = refold everything
        self._last_id = 0
        #: instrumentation: folds of the whole history.
        self.refolds = 0

    def _fold(self, acts) -> None:
        succ = self._succ
        for act in acts:
            for loc in (act.from_loc, act.to_loc):
                if loc is None:
                    continue
                seq = loc.before_sids + (act.sid,) + loc.after_sids
                for i, u in enumerate(seq):
                    s = succ.setdefault(u, set())
                    s.difference_update(seq[:i])
                    s.update(seq[i + 1:])
                    s.discard(u)
            self._last_id = act.action_id

    def _catch_up(self) -> None:
        history = self.history
        if self._cursor is None:
            # first query, or a broken invariant: fold every record
            self.refolds += 1
            self._succ.clear()
            self._folded.clear()
            self._last_id = 0
            stamps = [rec.stamp for rec in history.all_records()]
        else:
            stamps = dict.fromkeys(history.mutations[self._cursor:])
        self._cursor = len(history.mutations)
        new = []
        for stamp in stamps:
            actions = history.by_stamp(stamp).actions
            new.extend(actions[self._folded.get(stamp, 0):])
            self._folded[stamp] = len(actions)
        new.sort(key=lambda a: a.action_id)
        if new and new[0].action_id <= self._last_id:
            self._cursor = None
            self._catch_up()
        else:
            self._fold(new)

    def _reachable(self, src: int, dst: int) -> bool:
        succ = self._succ
        seen = {src}
        stack = [src]
        while stack:
            cur = stack.pop()
            for nxt in succ.get(cur, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def __call__(self, x_sid: int, self_sid: int) -> Optional[str]:
        self._catch_up()
        x_first = self._reachable(x_sid, self_sid)
        self_first = self._reachable(self_sid, x_sid)
        if x_first and not self_first:
            return X_FIRST
        if self_first and not x_first:
            return SELF_FIRST
        return None


def make_sibling_orderer(history) -> Orderer:
    """The :class:`SiblingOrderer` over ``history``."""
    return SiblingOrderer(history)
