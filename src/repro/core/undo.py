"""The independent-order UNDO algorithm (the paper's Figure 4).

::

    Procedure UNDO(t_i)
      while post_pattern(t_i) is invalidated:            # lines 4-11
        determine a disabling condition of reversibility
        determine the primitive action causing it
        determine the transformation t_j that caused the action
        UNDO(t_j)                                        # affecting
      perform inverse actions of t_i                     # line 12
      dependence_and_data_flow_update                    # line 13
      determine affected region                          # line 15
      for t_k in affected region, k > i:                 # lines 16-29
        if reverse-destroy[t_i, t_k] marked 'x':         # heuristic
          if not safety(t_k): UNDO(t_k)                  # affected

The engine exposes three strategy knobs so the deferred experimental
studies can quantify each ingredient:

``use_heuristic``
    Apply the Table 4 reverse-destroy filter before safety re-checks
    (off = re-check every subsequent transformation, the exhaustive
    baseline of §4.4's first paragraph).
``use_regional``
    Restrict candidates to the affected region (off = order coordinate
    only).
``use_incremental``
    Update the dependence information from change events instead of
    re-running the whole analysis.  ``incremental_strategy`` selects the
    updater: ``"regional"`` (default) lets each cached analysis patch
    itself from the events on its first read after them, while
    ``"full"`` reruns the from-scratch analysis — the baseline the
    benchmarks compare against (see docs/PERFORMANCE.md).  Turning
    ``use_incremental`` off selects the same from-scratch getters as
    ``"full"``; both fields stay because ``session.json`` stores them.

Line 13 is not a call: the :class:`AnalysisCache` getters read the
event log since each analysis's own cursor, so the inverse actions'
events are folded in by whichever check reads an analysis next.

All three default to on — the paper's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.incremental import AnalysisCache
from repro.core.actions import ActionApplier, ActionError
from repro.obs import metrics as obs_metrics
from repro.obs.provenance import (
    FANOUT_BUCKETS,
    ProvenanceNode,
    count_cascade,
    count_check,
    count_skip,
    reversibility_verdict,
    safety_verdict,
)
from repro.core.annotations import AnnotationStore
from repro.core.history import History, TransformationRecord
from repro.core.regions import (
    affected_names,
    affected_regions,
    record_in_region,
    record_names,
)
from repro.lang.ast_nodes import Program


class UndoError(RuntimeError):
    """Raised when a transformation cannot be undone.

    This happens when a reversibility-disabling condition was caused by
    something outside the recorded history (e.g. a user edit destroyed
    the post pattern): the algorithm has no affecting transformation to
    remove first.

    Instances raised by the top-level undo entry points surface their
    partial progress: ``target`` is the stamp the caller asked to undo
    and ``undone`` lists the stamps the cascade committed before the
    failure (a failed undo can still have mutated state — the journal
    records exactly that, so replay re-fails it identically).  Both are
    ``None`` when the error came from a context with no report.
    """

    #: the stamp the failed undo targeted (``None`` = unrecorded).
    target: Optional[int] = None
    #: stamps the cascade committed before failing (``None`` = unrecorded).
    undone: Optional[List[int]] = None
    #: partial provenance tree (doc form) of the failed cascade
    #: (``None`` = unrecorded); journaled into the audit log so a failed
    #: undo still explains how far it got and what stopped it.
    provenance: Optional[Dict] = None


@dataclass
class UndoReport:
    """What one UNDO invocation did, with work counters."""

    #: the stamp the user asked to undo.
    target: int
    #: every stamp undone, in the order the inverse actions ran
    #: (affecting transformations first, then the target, then affected).
    undone: List[int] = field(default_factory=list)
    #: stamps undone because they blocked the target's reversibility.
    affecting: List[int] = field(default_factory=list)
    #: stamps undone because the removal broke their safety.
    affected: List[int] = field(default_factory=list)
    # --- work counters (the "redundant analysis" the paper wants cut) ---
    reversibility_checks: int = 0
    safety_checks: int = 0
    #: candidates skipped by the Table 4 reverse-destroy heuristic.
    heuristic_skips: int = 0
    #: candidates skipped because they were outside the affected region.
    region_skips: int = 0
    #: primitive inverse actions performed.
    actions_inverted: int = 0
    #: causal tree of the cascade: every re-check, Table 4 / region
    #: skip, and forced undo, linked to the verdict that forced it.
    provenance: Optional[ProvenanceNode] = None

    def work(self) -> int:
        """Total checks performed (the comparison metric for E1/E2)."""
        return self.reversibility_checks + self.safety_checks


@dataclass
class UndoStrategy:
    """Strategy knobs (paper configuration = all on)."""

    use_heuristic: bool = True
    use_regional: bool = True
    use_incremental: bool = True
    #: ``"regional"`` (patch on read from the events) or ``"full"``
    #: (from-scratch baseline); only consulted when ``use_incremental``
    #: is on.
    incremental_strategy: str = "regional"


class UndoEngine:
    """Implements Figure 4 against a program + history + analyses."""

    def __init__(self, program: Program, applier: ActionApplier,
                 history: History, cache: AnalysisCache,
                 registry: Optional[Dict] = None,
                 strategy: Optional[UndoStrategy] = None,
                 metrics: Optional[obs_metrics.MetricsRegistry] = None):
        from repro.transforms.registry import REGISTRY

        self.program = program
        self.applier = applier
        self.history = history
        self.cache = cache
        self.registry = registry if registry is not None else REGISTRY
        self.strategy = strategy if strategy is not None else UndoStrategy()
        self.metrics = metrics if metrics is not None else obs_metrics.REGISTRY

    @property
    def store(self) -> AnnotationStore:
        return self.applier.store

    # -- public API -----------------------------------------------------------

    def undo(self, stamp: int) -> UndoReport:
        """Undo transformation ``stamp`` in independent order.

        On failure the raised :class:`UndoError` carries the partial
        progress (``target``/``undone``) the cascade committed before
        the failing step, so callers — the command pipeline in
        particular — can journal exactly what happened.
        """
        rec = self.history.by_stamp(stamp)
        report = UndoReport(target=stamp)
        root = ProvenanceNode(kind="undo", stamp=stamp, name=rec.name,
                              role="target")
        report.provenance = root
        try:
            if not rec.active:
                raise UndoError(f"t{stamp} ({rec.name}) is not active")
            if rec.is_edit:
                raise UndoError(
                    "user edits are not undoable through the engine")
            self._undo(rec, report, set(), root)
        except UndoError as exc:
            exc.target = stamp
            exc.undone = list(report.undone)
            # attach the partial tree: a failed undo still explains how
            # far the cascade got and which verdict stopped it.
            exc.provenance = root.to_doc()
            raise
        finally:
            count_cascade(self.metrics, root)
            self.metrics.histogram(
                "repro_undo_collateral",
                "stamps undone beyond the requested target",
                buckets=FANOUT_BUCKETS).observe(
                    max(0, len(report.undone) - 1))
        return report

    # -- Figure 4 --------------------------------------------------------------

    def _undo(self, rec: TransformationRecord, report: UndoReport,
              in_progress: Set[int], node: ProvenanceNode) -> None:
        if not rec.active:
            return
        if rec.stamp in in_progress:
            raise UndoError(
                f"cyclic affecting-transformation chain at t{rec.stamp}")
        in_progress.add(rec.stamp)
        transform = self.registry[rec.name]

        # lines 4-11: undo affecting transformations until reversible
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise UndoError(
                    f"reversibility of t{rec.stamp} did not converge")
            report.reversibility_checks += 1
            rr = transform.check_reversibility(self.program, self.store, rec)
            verdict = reversibility_verdict(rec, rr,
                                            triggered_by=report.target)
            count_check(self.metrics, verdict)
            if rr.reversible:
                node.add(ProvenanceNode(kind="check", stamp=rec.stamp,
                                        name=rec.name, verdict=verdict))
                break
            node.add(ProvenanceNode(kind="check", stamp=rec.stamp,
                                    name=rec.name, verdict=verdict))
            violation = rr.violations[0]
            if violation.action_id is None:
                raise UndoError(
                    f"t{rec.stamp} ({rec.name}) is irreversible: "
                    f"{violation.condition} (no recorded action caused it)")
            t_j = self.history.stamp_of_action(violation.action_id)
            if t_j is None:
                raise UndoError(
                    f"action {violation.action_id} blocking t{rec.stamp} "
                    "belongs to no recorded transformation")
            blocker = self.history.by_stamp(t_j)
            if blocker.is_edit:
                raise UndoError(
                    f"t{rec.stamp} ({rec.name}) was invalidated by a user "
                    f"edit (t{t_j}): {violation.condition}")
            if t_j == rec.stamp or not blocker.active:
                raise UndoError(
                    f"t{rec.stamp} blocked by its own/inactive action "
                    f"(t{t_j}): {violation.condition}")
            report.affecting.append(t_j)
            child = node.add(ProvenanceNode(
                kind="undo", stamp=t_j, name=blocker.name, role="affecting",
                verdict=verdict,
                detail=f"its action {violation.action_id} blocks "
                       f"t{rec.stamp}: {violation.condition}"))
            self._undo(blocker, report, in_progress, child)

        # Generalized affecting condition: this record's inverse actions
        # will *remove* the statements its Add/Copy actions created.  Any
        # later active record whose actions reference those statements —
        # as a target, a copy source, or a location container — depends
        # on structure that is about to vanish and must be peeled first.
        # (Example: a fusion whose deleted-loop restore point lies inside
        # a strip-mining outer loop; undoing the strip mining deletes the
        # container the fusion needs.)
        from repro.core.actions import ActionKind

        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise UndoError(
                    f"structural dependents of t{rec.stamp} did not converge")
            doomed = {act.sid for act in rec.actions
                      if act.kind in (ActionKind.ADD, ActionKind.COPY)}
            blocker_rec = None
            if doomed:
                for r in self.history.active_after(rec.stamp):
                    if not r.active or r.stamp in in_progress:
                        continue
                    if _references(r, doomed):
                        blocker_rec = r
                        break
            if blocker_rec is None:
                break
            report.affecting.append(blocker_rec.stamp)
            child = node.add(ProvenanceNode(
                kind="undo", stamp=blocker_rec.stamp, name=blocker_rec.name,
                role="affecting", reason="structural-dependent",
                detail=f"references statements t{rec.stamp}'s inverse "
                       "actions will remove"))
            self._undo(blocker_rec, report, in_progress, child)

        # line 12: perform inverse actions (reverse application order)
        cursor = self.applier.events.cursor()
        for act in reversed(rec.actions):
            try:
                self.applier.invert(act, rec.stamp)
            except ActionError as exc:
                raise UndoError(
                    f"inverse action of t{rec.stamp} failed: {exc}") from exc
            report.actions_inverted += 1
        self.history.deactivate(rec.stamp)
        report.undone.append(rec.stamp)

        # line 13: dependence and data flow update — done by the cache's
        # getters, each patching its analysis on the first read after
        # these events
        events = self.applier.events.since(cursor)

        # line 15: determine affected region (code + data-flow coordinates)
        region: Optional[Set[int]] = None
        names: Optional[Set[str]] = None
        if self.strategy.use_regional:
            region = affected_regions(self.program, self.cache, events)
            # the undone record's own names cover expressions its inverse
            # actions removed from the program
            names = affected_names(self.program, events) | \
                record_names(self.program, rec)

        # lines 16-29: undo affected transformations
        for t_k in self.history.active_after(rec.stamp):
            if t_k.stamp in in_progress:
                continue
            # line 20: reverse-destroy heuristic (via this engine's own
            # registry, so spec-registered transformations participate).
            # Extension transformations (names outside Table 4) are never
            # skipped: the published rows cannot know what enables them,
            # so the heuristic would be unsound for them.
            from repro.transforms.registry import TABLE4_ORDER

            if self.strategy.use_heuristic and \
                    t_k.name in TABLE4_ORDER and \
                    t_k.name not in self.registry[rec.name].enables:
                report.heuristic_skips += 1
                count_skip(self.metrics, "table4-heuristic")
                node.add(ProvenanceNode(
                    kind="skip", stamp=t_k.stamp, name=t_k.name,
                    reason="table4-heuristic",
                    detail=f"Table 4: undoing {rec.name} cannot destroy "
                           f"{t_k.name}'s safety ({rec.name} never "
                           f"enables it)"))
                continue
            # line 15/16: space coordinate
            if region is not None and not record_in_region(
                    self.program, self.cache, t_k, region, names):
                report.region_skips += 1
                count_skip(self.metrics, "outside-region")
                node.add(ProvenanceNode(
                    kind="skip", stamp=t_k.stamp, name=t_k.name,
                    reason="outside-region",
                    detail="outside the inverse actions' affected region"))
                continue
            # line 22: safety conditions given the inverse-action events
            from repro.transforms.base import CheckContext

            report.safety_checks += 1
            ctx = CheckContext(program=self.program, cache=self.cache,
                               store=self.store, history=self.history)
            sr = self.registry[t_k.name].check_safety(ctx, t_k)
            verdict = safety_verdict(t_k, sr, triggered_by=rec.stamp)
            count_check(self.metrics, verdict)
            node.add(ProvenanceNode(kind="check", stamp=t_k.stamp,
                                    name=t_k.name, verdict=verdict))
            if not sr.safe:
                report.affected.append(t_k.stamp)
                reason = sr.reasons[0] if sr.reasons else "unsafe"
                child = node.add(ProvenanceNode(
                    kind="undo", stamp=t_k.stamp, name=t_k.name,
                    role="affected", verdict=verdict,
                    detail=f"undoing t{rec.stamp} broke its safety: "
                           f"{reason}"))
                self._undo(t_k, report, in_progress, child)

        in_progress.discard(rec.stamp)


def _references(record: TransformationRecord, sids: Set[int]) -> bool:
    """Does any of the record's actions reference one of ``sids``?"""
    for act in record.actions:
        if act.sid in sids or act.src_sid in sids:
            return True
        for loc in (act.from_loc, act.to_loc):
            if loc is not None and loc.container[0] in sids:
                return True
    return False
