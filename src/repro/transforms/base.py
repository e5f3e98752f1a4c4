"""Transformation base protocol: find / apply / safety / reversibility.

Every transformation implements four operations:

``find``
    Detect application opportunities (validating Table 2's pre patterns
    against the current analyses).
``apply_actions``
    Perform the transformation as a sequence of primitive actions through
    the shared :class:`~repro.core.actions.ActionApplier`, filling in the
    record's pre/post patterns.
``check_safety``
    Re-validate the pre pattern on the *current* program: does the
    transformation still preserve the original program's meaning?  Used
    after undos (rippling effects) and after edits (Table 3's
    safety-disabling conditions, including the †-edit-only ones).
``check_reversibility``
    Validate the post pattern: can the inverse actions run right now?
    When not, each :class:`Violation` names the disabling condition *and
    the primitive action that caused it*, which the UNDO algorithm maps
    back to the affecting transformation (Figure 4 lines 7–9).

This module also provides the shared post-pattern predicates the
concrete transformations compose — statement liveness, location-context
integrity (deleted/copied context), later-modification detection — so
the per-transformation code states only its own conditions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.incremental import AnalysisCache
from repro.core.actions import ActionApplier
from repro.core.annotations import AnnotationStore
from repro.core.history import TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import ExprPath, Program, Stmt


@dataclass(frozen=True)
class Opportunity:
    """One detected application opportunity."""

    name: str
    params: Dict
    description: str = ""

    def __str__(self) -> str:  # pragma: no cover - display aid
        return f"{self.name}({self.description})"


@dataclass(frozen=True)
class Violation:
    """One disabling condition (Table 3), with its causing action.

    ``action_id`` identifies the primitive action that created the
    condition (line 8 of the algorithm); it is ``None`` only for
    conditions caused by something outside the recorded history, which
    the engine reports as an unrecoverable :class:`UndoError`.

    ``code`` is a stable machine-readable identifier of the condition
    (``"<transform>.<check>.<slug>"`` for per-transformation conditions,
    ``"post.<slug>"`` for the shared post-pattern predicates below);
    ``witness`` names the clobbered pattern element or annotation that
    evidenced the condition.  Both feed the provenance layer
    (:mod:`repro.obs.provenance`); ``condition`` remains the
    human-readable message everything else renders.
    """

    condition: str
    action_id: Optional[int] = None
    stamp: Optional[int] = None
    code: str = ""
    witness: Optional[Dict] = None


@dataclass
class SafetyResult:
    """Outcome of a safety re-check."""

    safe: bool
    #: human-readable disabling conditions found (empty when safe).
    reasons: List[str] = field(default_factory=list)
    #: structured form of the same conditions (parallel to ``reasons``
    #: where the check provides them; may be shorter for legacy sites).
    violations: List[Violation] = field(default_factory=list)

    @staticmethod
    def ok() -> "SafetyResult":
        return SafetyResult(True)

    @staticmethod
    def broken(*reasons) -> "SafetyResult":
        """Unsafe, for the given reasons (strings or :class:`Violation`)."""
        texts: List[str] = []
        violations: List[Violation] = []
        for r in reasons:
            if isinstance(r, Violation):
                texts.append(r.condition)
                violations.append(r)
            else:
                texts.append(str(r))
                violations.append(Violation(str(r)))
        return SafetyResult(False, texts, violations)


@dataclass
class ReversibilityResult:
    """Outcome of a post-pattern validation."""

    reversible: bool
    violations: List[Violation] = field(default_factory=list)

    @staticmethod
    def ok() -> "ReversibilityResult":
        return ReversibilityResult(True)

    @staticmethod
    def blocked(*violations: Violation) -> "ReversibilityResult":
        return ReversibilityResult(False, list(violations))


@dataclass
class CheckContext:
    """Everything a safety re-check needs.

    Safety re-validation must distinguish *benign* divergence from the
    recorded pre pattern (caused by an **active later transformation**,
    which by §4.2 can never destroy safety — the programs compose) from
    *genuine* divergence (caused by an undo's inverse actions or a user
    edit).  That attribution needs the annotation store and the history,
    hence this context.
    """

    program: Program
    cache: AnalysisCache
    store: AnnotationStore
    history: object  # History; untyped to avoid an import cycle

    # -- attribution helpers --------------------------------------------------

    def _active_transform_stamp(self, stamp: int) -> bool:
        """Is ``stamp`` an active, non-edit transformation?"""
        h = self.history
        return (h is not None and h.has_stamp(stamp)
                and h.by_stamp(stamp).active
                and not h.by_stamp(stamp).is_edit)

    def attributed_to_active(self, sid: int, stamp: int,
                             kinds: Sequence[str]) -> bool:
        """Does ``sid`` carry a later annotation from an active transform?

        True means the divergence observed on this statement is the work
        of a legal, still-applied transformation — benign for safety.
        """
        for ann in self.store.for_sid(sid):
            if ann.stamp > stamp and ann.kind in kinds and \
                    self._active_transform_stamp(ann.stamp):
                return True
        return False

    def deleted_by_active(self, sid: int, stamp: int) -> bool:
        """Was the (detached) statement deleted by an active transform?

        Climbs the detached subtree like the reversibility checks do.
        """
        cur = sid
        guard = 0
        while guard < 10_000:
            guard += 1
            for ann in self.store.for_sid(cur):
                if ann.kind == "del" and ann.stamp > stamp:
                    return self._active_transform_stamp(ann.stamp)
            parent = self.program.parent_of(cur)
            if parent is None or parent[0] == 0:
                return False
            cur = parent[0]
        return False

    def subtree_touched_by_active(self, sid: int, stamp: int) -> bool:
        """Any active-transform annotation inside the statement's subtree?"""
        for ann in self.store.subtree_after(self.program, sid, stamp):
            if self._active_transform_stamp(ann.stamp):
                return True
        return False


@dataclass
class ApplyContext:
    """Everything a transformation needs while applying itself."""

    program: Program
    applier: ActionApplier
    cache: AnalysisCache
    record: TransformationRecord

    @property
    def stamp(self) -> int:
        return self.record.stamp

    # convenience: perform an action and append it to the record
    def delete(self, sid: int):
        """Perform ``Delete`` and append it to the record."""
        act = self.applier.delete(self.stamp, sid)
        self.record.actions.append(act)
        return act

    def add(self, stmt: Stmt, loc: Location):
        """Perform ``Add`` and append it to the record."""
        act = self.applier.add(self.stamp, stmt, loc)
        self.record.actions.append(act)
        return act

    def move(self, sid: int, loc: Location):
        """Perform ``Move`` and append it to the record."""
        act = self.applier.move(self.stamp, sid, loc)
        self.record.actions.append(act)
        return act

    def copy(self, src_sid: int, loc: Location):
        """Perform ``Copy`` and append it to the record."""
        act = self.applier.copy(self.stamp, src_sid, loc)
        self.record.actions.append(act)
        return act

    def modify(self, sid: int, path: ExprPath, new_expr):
        """Perform ``Modify`` and append it to the record."""
        act = self.applier.modify(self.stamp, sid, path, new_expr)
        self.record.actions.append(act)
        return act

    def modify_header(self, loop_sid: int, new_header):
        """Perform a loop-header ``Modify`` and append it to the record."""
        act = self.applier.modify_header(self.stamp, loop_sid, new_header)
        self.record.actions.append(act)
        return act


class Transformation(abc.ABC):
    """Abstract base for all transformations."""

    #: short code (``"dce"``), also the registry key.
    name: str = ""
    #: display name.
    full_name: str = ""
    #: Table 4 row: transformation codes this one can *enable* (and whose
    #: safety its reversal can therefore destroy).
    enables: frozenset = frozenset()
    #: True when the row was published in the paper; False for rows we
    #: derived (see DESIGN.md §2).
    enables_published: bool = True

    @abc.abstractmethod
    def find(self, program: Program, cache: AnalysisCache) -> List[Opportunity]:
        """Detect application opportunities in the current program."""

    @abc.abstractmethod
    def apply_actions(self, ctx: ApplyContext, opp: Opportunity) -> None:
        """Perform the transformation via primitive actions."""

    @abc.abstractmethod
    def check_safety(self, ctx: "CheckContext",
                     record: TransformationRecord) -> SafetyResult:
        """Re-validate the pre pattern on the current program.

        Divergences attributable (via the annotation store) to an active
        later transformation are benign; only changes from undos or user
        edits may report the transformation as unsafe.
        """

    @abc.abstractmethod
    def check_reversibility(self, program: Program, store: AnnotationStore,
                            record: TransformationRecord) -> ReversibilityResult:
        """Validate the post pattern (immediate reversibility)."""

    # -- documentation hooks (Tables 2 and 3) --------------------------------

    def table2_row(self) -> Dict[str, str]:
        """The transformation's Table 2 row (pattern documentation)."""
        return {"transformation": self.full_name, "pre_pattern": "",
                "primitive_actions": "", "post_pattern": ""}

    def table3_row(self) -> Dict[str, List[str]]:
        """The transformation's Table 3 row (disabling conditions)."""
        return {"safety": [], "reversibility": []}


def candidate_stmts(program: Program, bits: int) -> Iterator[Stmt]:
    """The attached statements in sid bitset ``bits``, in source order.

    A finder that scans only its index candidates this way lists its
    opportunities in the order a full ``program.walk()`` scan would."""
    if bits:
        for s in program.walk():
            if bits >> s.sid & 1:
                yield s


# ---------------------------------------------------------------------------
# Shared post-pattern predicates
# ---------------------------------------------------------------------------


def stmt_deleted_after(program: Program, store: AnnotationStore,
                       sid: int, stamp: int) -> Optional[Violation]:
    """Was the statement (or an enclosing statement) deleted after ``stamp``?"""
    if program.is_attached(sid):
        return None
    # climb the detached subtree to the node carrying the del annotation
    cur = sid
    guard = 0
    while guard < 10_000:
        guard += 1
        for ann in store.for_sid(cur):
            if ann.kind == "del" and ann.stamp > stamp:
                return Violation(
                    f"statement S{sid} was deleted (context S{cur})",
                    action_id=ann.action_id, stamp=ann.stamp,
                    code="post.context-deleted",
                    witness={"sid": sid, "context_sid": cur,
                             "annotation": "del"})
        parent = program.parent_of(cur)
        if parent is None or parent[0] == 0:
            break
        cur = parent[0]
    return Violation(f"statement S{sid} is detached by an unknown action",
                     code="post.detached-unknown", witness={"sid": sid})


def container_context_violation(program: Program, store: AnnotationStore,
                                loc: Location, stamp: int) -> Optional[Violation]:
    """Table 3's DCE reversibility conditions, generalized.

    The original location cannot be determined when

    * its context was *deleted* — the container (or an ancestor) was
      detached after ``stamp`` — or
    * its context was *copied* — the container statement or an ancestor
      was the source of a ``Copy`` after ``stamp`` (e.g. the enclosing
      loop's body was duplicated by loop unrolling), making the restore
      target ambiguous.
    """
    csid, _slot = loc.container
    if csid != 0:
        if not program.is_attached(csid):
            return stmt_deleted_after(program, store, csid, stamp)
        # copied context: the container or any ancestor was a copy source
        for node_sid in [csid] + program.ancestors(csid):
            for ann in store.for_sid(node_sid):
                if ann.kind == "cps" and ann.stamp > stamp:
                    return Violation(
                        f"context S{node_sid} of the location was copied",
                        action_id=ann.action_id, stamp=ann.stamp,
                        code="post.context-copied",
                        witness={"context_sid": node_sid,
                                 "annotation": "cps"})
    # members of the container copied after stamp also duplicate the context
    if program.container_alive(loc.container):
        for member in program.container_list(loc.container):
            for ann in store.for_sid(member.sid):
                if ann.kind == "cps" and ann.stamp > stamp:
                    return Violation(
                        f"contents of the location's container were copied "
                        f"(S{member.sid})",
                        action_id=ann.action_id, stamp=ann.stamp,
                        code="post.context-copied",
                        witness={"member_sid": member.sid,
                                 "annotation": "cps"})
    return None


def moved_after(program: Program, store: AnnotationStore,
                sid: int, stamp: int) -> Optional[Violation]:
    """Was the statement moved by a later transformation?"""
    anns = store.after(sid, stamp, kinds=("mv",))
    if anns:
        a = min(anns, key=lambda x: x.stamp)
        return Violation(f"statement S{sid} was moved after t{stamp}",
                         action_id=a.action_id, stamp=a.stamp,
                         code="post.moved",
                         witness={"sid": sid, "annotation": "mv"})
    return None


def modified_after(program: Program, store: AnnotationStore, sid: int,
                   path: ExprPath, stamp: int) -> Optional[Violation]:
    """Was the recorded expression path modified by a later transformation?"""
    anns = store.path_modified_after(sid, path, stamp)
    if anns:
        a = min(anns, key=lambda x: x.stamp)
        return Violation(
            f"expression S{sid}:{'.'.join(path)} was modified after t{stamp}",
            action_id=a.action_id, stamp=a.stamp, code="post.modified",
            witness={"sid": sid, "path": list(path), "annotation": "md"})
    return None


def subtree_touched_after(program: Program, store: AnnotationStore,
                          sid: int, stamp: int,
                          kinds: Sequence[str] = ("md", "mv", "del", "add", "cp", "cps"),
                          ) -> Optional[Violation]:
    """Any later-stamped annotation anywhere in the statement's subtree?"""
    anns = store.subtree_after(program, sid, stamp, kinds)
    if anns:
        a = min(anns, key=lambda x: x.stamp)
        return Violation(
            f"subtree of S{sid} was changed after t{stamp} ({a.short()})",
            action_id=a.action_id, stamp=a.stamp, code="post.subtree-changed",
            witness={"sid": sid, "annotation": a.kind})
    return None


def unexplained_occupant(program: Program, store: AnnotationStore,
                         container: Tuple[int, str], stamp: int,
                         exclude: Set[int]) -> Optional[int]:
    """Sid of a container member not in ``exclude`` with no later
    annotation explaining its presence (``None`` if all explained)."""
    if not program.container_alive(container):
        return None
    for member in program.container_list(container):
        if member.sid in exclude:
            continue
        anns = [a for a in store.for_sid(member.sid)
                if a.stamp > stamp and a.kind in ("mv", "add", "cp")]
        if not anns:
            return member.sid
    return None
