"""Reverse-order (LIFO) undo — the prior art baseline of [5].

"For undo in order, the first time the undo command is issued, the last
transformation is undone.  Consecutive repetitions of the undo command
continue to reverse earlier transformations.  Each transformation is
undone by applying its inverse actions."  (§2)

Because transformations are peeled strictly last-first, every post
pattern is intact when its turn comes — no reversibility analysis is
needed.  The price is collateral damage: removing ``t_i`` requires
first removing all of ``t_{i+1} … t_n``, wanted or not.  ``undo_to``
reports that collateral set so the E3 benchmark can compare it against
the independent-order engine's dependence cone.  Like the main engine,
it leaves the analysis cache alone: each cached analysis patches itself
from the inverse actions' events on its next read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.actions import ActionApplier, ActionError
from repro.core.history import History
from repro.core.undo import UndoError
from repro.obs import metrics as obs_metrics
from repro.obs.provenance import ProvenanceNode, count_cascade
from repro.lang.ast_nodes import Program


@dataclass
class ReverseUndoReport:
    """Outcome of a LIFO undo-to-target."""

    target: int
    #: every stamp undone, most recent first (the target is last).
    undone: List[int] = field(default_factory=list)
    #: stamps that were undone only because they were in the way.
    collateral: List[int] = field(default_factory=list)
    actions_inverted: int = 0
    #: flat causal chain: the target at the root, each peeled record a
    #: child in peel order (LIFO needs no checks, so no check nodes).
    provenance: Optional[ProvenanceNode] = None


class ReverseUndoEngine:
    """Strict LIFO undo over the same history/applier as the main engine."""

    def __init__(self, program: Program, applier: ActionApplier,
                 history: History,
                 metrics: Optional[obs_metrics.MetricsRegistry] = None):
        self.program = program
        self.applier = applier
        self.history = history
        self.metrics = metrics if metrics is not None else obs_metrics.REGISTRY

    def undo_last(self) -> int:
        """Undo the most recently applied active transformation."""
        active = self.history.active()
        if not active:
            raise UndoError("no active transformation to undo")
        rec = active[-1]
        for act in reversed(rec.actions):
            try:
                self.applier.invert(act, rec.stamp)
            except ActionError as exc:  # cannot happen under strict LIFO
                raise UndoError(
                    f"LIFO inverse of t{rec.stamp} failed: {exc}") from exc
        self.history.deactivate(rec.stamp)
        return rec.stamp

    def undo_to(self, stamp: int) -> ReverseUndoReport:
        """Peel transformations last-first until ``stamp`` is undone.

        Like :meth:`repro.core.undo.UndoEngine.undo`, a raised
        :class:`UndoError` carries ``target``/``undone`` so the command
        pipeline can journal the partial progress of a failed peel.
        """
        rec = self.history.by_stamp(stamp)
        report = ReverseUndoReport(target=stamp)
        root = ProvenanceNode(kind="undo", stamp=stamp, name=rec.name,
                              role="target")
        report.provenance = root
        try:
            if not rec.active:
                raise UndoError(f"t{stamp} is not active")
            while rec.active:
                undone = self.undo_last()
                report.undone.append(undone)
                report.actions_inverted += len(
                    self.history.by_stamp(undone).actions)
                if undone != stamp:
                    report.collateral.append(undone)
                    root.add(ProvenanceNode(
                        kind="undo", stamp=undone,
                        name=self.history.by_stamp(undone).name,
                        role="collateral",
                        detail=f"applied after t{stamp}; LIFO order peels "
                               "it first"))
        except UndoError as exc:
            exc.target = stamp
            exc.undone = list(report.undone)
            exc.provenance = root.to_doc()
            raise
        finally:
            count_cascade(self.metrics, root)
        return report
