"""Unsafe-transformation detection and removal after edits.

The incremental path (the paper's, via [13]):

1. the edit's change events give the affected region;
2. only active transformations whose footprint meets the region (plus
   dependence propagation) are safety-rechecked;
3. the unsafe ones are removed with the independent-order undo engine —
   everything else stays in the code.

The baseline (:func:`redo_all_baseline`) models the non-incremental
world: throw all transformations away and re-derive them from scratch,
counting the re-analysis work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.engine import TransformationEngine
from repro.core.regions import (
    affected_names,
    affected_regions,
    record_in_region,
    record_names,
)
from repro.core.undo import UndoError
from repro.edit.edits import EditReport


@dataclass
class InvalidationStats:
    """Work accounting for the edit-invalidation comparison (E4)."""

    candidates: int = 0
    safety_checks: int = 0
    region_skips: int = 0
    unsafe: List[int] = field(default_factory=list)
    removed: List[int] = field(default_factory=list)
    #: stamps that could not be removed automatically (edit destroyed
    #: their post pattern too).
    unrecoverable: List[int] = field(default_factory=list)


def find_unsafe(engine: TransformationEngine, report: EditReport,
                *, use_regional: bool = True) -> InvalidationStats:
    """Identify transformations whose safety the edit destroyed."""
    stats = InvalidationStats()
    # events from this edit only: its slice of the log onwards
    edit_ids = {a.action_id for a in report.record.actions}
    events = [e for e in engine.events.since(report.event_cursor)
              if e.action_id in edit_ids]
    region: Optional[Set[int]] = None
    names = None
    if use_regional:
        region = affected_regions(engine.program, engine.cache, events)
        names = affected_names(engine.program, events) | \
            record_names(engine.program, report.record)
    for rec in engine.history.active():
        stats.candidates += 1
        if region is not None and not record_in_region(
                engine.program, engine.cache, rec, region, names):
            stats.region_skips += 1
            continue
        stats.safety_checks += 1
        if not engine.check_safety(rec.stamp).safe:
            stats.unsafe.append(rec.stamp)
    report.unsafe = list(stats.unsafe)
    return stats


def remove_unsafe(engine: TransformationEngine, report: EditReport,
                  stats: Optional[InvalidationStats] = None,
                  *, use_regional: bool = True) -> InvalidationStats:
    """Find and undo every transformation the edit made unsafe."""
    if stats is None:
        stats = find_unsafe(engine, report, use_regional=use_regional)
    for stamp in stats.unsafe:
        if not engine.history.by_stamp(stamp).active:
            stats.removed.append(stamp)  # removed as part of a cascade
            continue
        try:
            undo_rep = engine.undo(stamp)
        except UndoError:
            stats.unrecoverable.append(stamp)
            continue
        stats.removed.extend(undo_rep.undone)
    report.removed = list(stats.removed)
    return stats


@dataclass
class RedoAllStats:
    """Work accounting of the redo-everything baseline."""

    transformations_discarded: int = 0
    reanalysis_runs: int = 0
    safety_checks_equiv: int = 0


def redo_all_baseline(engine: TransformationEngine) -> RedoAllStats:
    """Model the non-incremental response to an edit.

    Counts (without mutating the program) the work of discarding every
    active transformation and re-deriving the optimization state: one
    full re-analysis plus a fresh opportunity scan per transformation
    kind — the redundant analysis the paper's approach avoids.
    """
    stats = RedoAllStats()
    active = engine.history.active()
    stats.transformations_discarded = len(active)
    engine.cache.invalidate()
    engine.cache.dataflow()
    engine.cache.dependences()
    stats.reanalysis_runs = 1
    for name in engine.registry:
        stats.safety_checks_equiv += len(engine.find(name))
    stats.safety_checks_equiv += stats.transformations_discarded
    return stats
