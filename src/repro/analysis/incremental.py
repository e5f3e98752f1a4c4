"""Instrumented analysis cache with event-driven incremental updates.

The undo engine needs fresh data-flow and dependence information after
every inverse action (Figure 4, line 13).  This cache provides:

* **version-checked laziness** — analyses are recomputed only when the
  program actually changed since they were built;
* **getters that catch up from the log** — a stale dependence graph,
  control tree, summary set or PDG is patched by
  :meth:`AnalysisCache.update_after_events` (after applies as after
  undos) when the log accounts for the program's current version: the
  applier stamps ``program.version`` on the log after every event.  A
  mutation outside the log (the spec compiler's safety pre-image)
  leaves the two apart; the getter then rebuilds, and what it builds
  gets no cursor, so it is never patched.  A non-regional ``policy``
  always rebuilds;
* **genuinely regional dependence updates** — after a change-event batch
  :meth:`AnalysisCache.update_dependences` re-examines only the pairs
  with an endpoint in the touched region, via the persistent
  :class:`~repro.analysis.regional.DefUseIndex`.  There is **no
  full-program fallback** on this path; the from-scratch run lives
  behind ``strategy=FULL`` as the benchmark baseline;
* **event-threaded downstream patching** —
  :meth:`AnalysisCache.update_after_events` pushes the same event batch
  through the control-dependence tree, the region summaries, and the
  PDG, so an undo no longer drops those caches wholesale;
* **regional data-flow updates** — on their first read after a batch,
  the getter carries the data-flow facts forward: the local facts come
  from the index, and only the loops and blocks that a block whose
  transfer function or edges changed can reach are re-solved
  (:func:`~repro.analysis.dataflow.update_dataflow`).  Facts of a
  version the log does not account for, and facts under
  ``strategy=FULL``, are from-scratch runs;
* **work counters and wall-clock timers** — every path counts the node
  visits / pairs it examines and accumulates ``perf_counter`` time per
  analysis, so the benchmarks can compare incremental vs. from-scratch
  by measured time, not just by visited-pair counts.

Cursor discipline: the cache holds the engine's :class:`EventLog` and a
per-analysis cursor recording the log position each cached analysis is
current with.  Updates always consume the *authoritative* slice
``log.since(cursor)`` rather than trusting the caller-supplied batch, so
a cache that missed intermediate batches still patches soundly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.control_dep import (
    ControlDepTree,
    build_control_dep_tree,
    update_control_tree,
)
from repro.analysis.dataflow import (
    DataflowResult,
    analyze_dataflow,
    update_dataflow,
)
from repro.analysis.depend import (
    Dependence,
    DependenceGraph,
    analyze_dependences,
)
from repro.analysis.pdg import PDG, build_pdg
from repro.analysis.regional import (
    DefUseIndex,
    analyze_dependences_region,
    splice_dependences,
    touched_statements,
)
from repro.analysis.summaries import (
    RegionSummaries,
    build_summaries,
    update_summaries,
)
from repro.core.events import Event, EventLog
from repro.lang.ast_nodes import Program

#: incremental-update strategy: regional fast path (the default).
REGIONAL = "regional"
#: incremental-update strategy: from-scratch baseline for benchmarks.
FULL = "full"


@dataclass
class WorkCounters:
    """Analysis-work instrumentation: visit counters plus wall-clock timers."""

    dataflow_runs: int = 0
    dataflow_nodes: int = 0
    #: regional data-flow updates, and the nodes they visited.
    dataflow_updates: int = 0
    dataflow_update_nodes: int = 0
    dependence_runs: int = 0
    dependence_pairs: int = 0
    incremental_updates: int = 0
    #: pairs actually examined by incremental updates (the honest count).
    incremental_pairs: int = 0
    control_tree_updates: int = 0
    summary_updates: int = 0
    pdg_assemblies: int = 0
    #: analysis key → cumulative wall-clock seconds (``perf_counter``).
    timers: Dict[str, float] = field(default_factory=dict)

    def add_time(self, key: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock time under ``key``."""
        self.timers[key] = self.timers.get(key, 0.0) + seconds

    def time(self, key: str) -> float:
        """Cumulative seconds recorded under ``key`` (0.0 when never timed)."""
        return self.timers.get(key, 0.0)

    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        """Context manager timing its body into ``timers[key]``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(key, time.perf_counter() - start)

    def count_dataflow(self, result: DataflowResult) -> None:
        """Count one from-scratch data-flow run and the nodes it visited."""
        self.dataflow_runs += 1
        self.dataflow_nodes += result.visited_nodes

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict copy of the counters and timers (for reports)."""
        out: Dict[str, object] = {k: v for k, v in self.__dict__.items()
                                  if k != "timers"}
        out["timers"] = dict(self.timers)
        return out

    def reset(self) -> None:
        """Zero every counter and timer in place.

        For callers that own the counters outright (a fresh benchmark
        phase).  Request-scoped samplers must NOT reset shared counters —
        that would clobber a concurrently running benchmark's timers; they
        take two :meth:`snapshot` copies and diff them with :meth:`delta`.
        """
        for name in self.__dataclass_fields__:
            if name == "timers":
                self.timers.clear()
            else:
                setattr(self, name, 0)

    @staticmethod
    def delta(before: Dict[str, object],
              after: Dict[str, object]) -> Dict[str, object]:
        """Per-field ``after - before`` of two :meth:`snapshot` dicts.

        The non-destructive way to attribute analysis work to one request:
        sample before, run, sample after, diff — the live counters keep
        accumulating for whoever else is watching them.  Timer keys absent
        on either side count as 0; zero-valued timer deltas are dropped.
        """
        out: Dict[str, object] = {}
        for key, end in after.items():
            if key == "timers":
                continue
            out[key] = end - before.get(key, 0)  # type: ignore[operator]
        timers: Dict[str, float] = {}
        b_timers = before.get("timers", {})
        for key, end in after.get("timers", {}).items():  # type: ignore
            diff = end - b_timers.get(key, 0.0)  # type: ignore[union-attr]
            if diff:
                timers[key] = diff
        out["timers"] = timers
        return out


class AnalysisCache:
    """Version-checked, event-patchable cache of every analysis.

    The cache only *maintains* what is materialized: an event batch
    patches the analyses that exist and leaves the rest to be lazily
    (re)built on demand — a LIFO-only session that never asks for the
    dependence graph pays nothing for it.
    """

    def __init__(self, program: Program, events: Optional[EventLog] = None,
                 policy=None):
        self.program = program
        self.events = events
        #: the engine's ``UndoStrategy``: getters catch up from the log
        #: only under a regional one (``None`` counts as regional).
        self.policy = policy
        self.counters = WorkCounters()
        self._cfg: Optional[Tuple[int, CFG]] = None
        self._dataflow: Optional[Tuple[int, DataflowResult]] = None
        self._deps: Optional[Tuple[int, DependenceGraph]] = None
        self._tree: Optional[Tuple[int, ControlDepTree]] = None
        self._pdg: Optional[Tuple[int, PDG]] = None
        self._summaries: Optional[Tuple[int, RegionSummaries]] = None
        #: the persistent name → statement index behind regional updates.
        self._index: Optional[DefUseIndex] = None
        #: an index built at a version the maintained one cannot serve.
        self._built_index: Optional[Tuple[int, DefUseIndex]] = None
        #: transformation → its opportunity listing at ``_listing_version``.
        self._listings: Dict[object, tuple] = {}
        self._listing_version: Optional[int] = None
        # log positions the index and each cached analysis are current
        # with (None: built at a version the log does not account for)
        self._index_cursor = 0
        self._dep_cursor: Optional[int] = 0
        self._tree_cursor: Optional[int] = 0
        self._summ_cursor: Optional[int] = 0

    # -- event-log plumbing ----------------------------------------------------

    def _log_end(self) -> int:
        return self.events.cursor() if self.events is not None else 0

    def _logged(self) -> bool:
        """Whether the log accounts for the program's current version."""
        return (self.events is not None
                and self.events.version == self.program.version)

    def _anchor(self) -> Optional[int]:
        """Cursor for an analysis built now (``None``: not patchable)."""
        if self.events is not None and not self._logged():
            return None
        return self._log_end()

    def _regional(self) -> bool:
        """Whether the policy patches analyses (``None`` counts as yes)."""
        policy = self.policy
        return policy is None or (policy.use_incremental and
                                  policy.incremental_strategy == REGIONAL)

    def _catch_up(self, entry: Optional[Tuple[int, object]]) -> None:
        """Patch a stale ``entry`` (and its peers) from the log, if the
        log and the policy allow; otherwise the getter rebuilds it."""
        if entry is None or entry[0] == self.program.version:
            return
        if self._logged() and self._regional():
            self.update_after_events()

    def _slice_since(self, cursor: int,
                     fallback: Optional[Sequence[Event]]) -> List[Event]:
        """The authoritative event slice since ``cursor``.

        Falls back to the caller-supplied batch only when the cache was
        constructed without an event log (direct library use)."""
        if self.events is not None:
            return self.events.since(cursor)
        return list(fallback or ())

    # -- cached getters -------------------------------------------------------

    def cfg(self) -> CFG:
        """The (version-checked) control-flow graph."""
        v = self.program.version
        if self._cfg is None or self._cfg[0] != v:
            self._cfg = (v, build_cfg(self.program))
        return self._cfg[1]

    def dataflow(self) -> DataflowResult:
        """The (version-checked, log-patched) data-flow facts.

        Stale facts are carried forward here, on their first read after
        a batch, not by :meth:`update_after_events`.  A rebuild at a
        version the log accounts for reads the local facts from the
        def/use index under a regional policy; facts of an unlogged
        version (a trial inside ``program.probe()``) are derived fresh
        and not kept, so a trial never costs the patchable facts."""
        v = self.program.version
        if self._anchor() is None:
            return self._run_dataflow(None)
        if self._dataflow is not None and self._dataflow[0] != v:
            self._update_dataflow()
        if self._dataflow is None:
            index = (self.defuse_index()
                     if self._logged() and self._regional() else None)
            self._dataflow = (v, self._run_dataflow(index))
        return self._dataflow[1]

    def _run_dataflow(self, index: Optional[DefUseIndex]) -> DataflowResult:
        with self.counters.timed("dataflow"):
            res = analyze_dataflow(self.program, self.cfg(), index)
        self.counters.count_dataflow(res)
        return res

    def dependences(self) -> DependenceGraph:
        """The (version-checked, log-patched) dependence graph."""
        self._catch_up(self._deps)
        v = self.program.version
        if self._deps is None or self._deps[0] != v:
            with self.counters.timed("dependence_full"):
                g = analyze_dependences(self.program)
            self.counters.dependence_runs += 1
            self.counters.dependence_pairs += g.visited_pairs
            self._deps = (v, g)
            self._dep_cursor = self._anchor()
        return self._deps[1]

    def control_tree(self) -> ControlDepTree:
        """The (version-checked, log-patched) control-dependence tree."""
        self._catch_up(self._tree)
        v = self.program.version
        if self._tree is None or self._tree[0] != v:
            with self.counters.timed("control_tree"):
                self._tree = (v, build_control_dep_tree(self.program))
            self._tree_cursor = self._anchor()
        return self._tree[1]

    def pdg(self) -> PDG:
        """The (version-checked, log-patched) program dependence graph."""
        self._catch_up(self._pdg)
        v = self.program.version
        if self._pdg is None or self._pdg[0] != v:
            with self.counters.timed("pdg_assemble"):
                self._pdg = (v, build_pdg(self.program, self.control_tree(),
                                          self.dependences()))
        return self._pdg[1]

    def summaries(self) -> RegionSummaries:
        """The (version-checked, log-patched) region-node summaries."""
        self._catch_up(self._summaries)
        v = self.program.version
        if self._summaries is None or self._summaries[0] != v:
            with self.counters.timed("summaries_build"):
                self._summaries = (v, build_summaries(
                    self.program, self.control_tree(), self.dependences()))
            self._summ_cursor = self._anchor()
        return self._summaries[1]

    def index(self) -> DefUseIndex:
        """A def/use index current with the program.

        The event-maintained index when the log accounts for the
        program's version under a regional policy; otherwise one built
        at this version and kept until the version moves.  A trial that
        re-attaches deleted statements (which the index does not hold)
        may read the facts of every other statement here, if it asks
        before the trial."""
        if self._logged() and self._regional():
            return self.defuse_index()
        v = self.program.version
        if self._built_index is None or self._built_index[0] != v:
            self._built_index = (v, DefUseIndex.build(self.program))
        return self._built_index[1]

    def listing(self, transformation) -> list:
        """``transformation.find`` at the program's current version.

        Found once per version and kind; every call returns a new list,
        so a caller mutating it never changes the next listing."""
        v = self.program.version
        if self._listing_version != v:
            self._listings.clear()
            self._listing_version = v
        got = self._listings.get(transformation)
        if got is None:
            got = self._listings[transformation] = tuple(
                transformation.find(self.program, self))
        return list(got)

    def defuse_index(self) -> DefUseIndex:
        """The persistent def/use index, built once and event-maintained."""
        if self._index is None:
            self._index = DefUseIndex.build(self.program)
            self._index_cursor = self._log_end()
        else:
            self._sync_index()
        return self._index

    def _sync_index(self, fallback: Optional[Sequence[Event]] = None) -> None:
        """Replay unseen events into the index (no-op when not built)."""
        if self._index is None:
            return
        evs = self._slice_since(self._index_cursor, fallback)
        self._index_cursor = self._log_end()
        if evs:
            self._index.refresh(self.program,
                                touched_statements(self.program, evs))

    def invalidate(self) -> None:
        """Drop everything (used by the from-scratch baseline strategies)."""
        self._cfg = None
        self._dataflow = None
        self._deps = None
        self._tree = None
        self._pdg = None
        self._summaries = None
        self._index = None
        self._built_index = None
        self._listings.clear()

    # -- event-driven incremental updates --------------------------------------

    def update_dependences(self, events: Optional[Sequence[Event]] = None,
                           strategy: str = REGIONAL) -> DependenceGraph:
        """Refresh the dependence graph after a change-event batch.

        ``strategy=REGIONAL`` (default) re-examines only touched × live
        candidate pairs via the def/use index — never the whole program.
        ``strategy=FULL`` reruns :func:`analyze_dependences`, the honest
        from-scratch baseline the benchmarks compare against.  In both
        cases ``incremental_pairs`` advances by the pairs *actually
        examined*.
        """
        if self._deps is None or self._dep_cursor is None:
            self._deps = None  # nothing the log can patch
            return self.dependences()
        v = self.program.version
        if self._deps[0] == v:
            # graph already current; just advance the cursor
            self._dep_cursor = self._anchor()
            return self._deps[1]

        if strategy == FULL:
            with self.counters.timed("dependence_update"):
                graph = analyze_dependences(self.program)
            self.counters.incremental_updates += 1
            self.counters.incremental_pairs += graph.visited_pairs
        else:
            with self.counters.timed("dependence_update"):
                index = self.defuse_index()
                evs = self._slice_since(self._dep_cursor, events)
                touched = touched_statements(self.program, evs)
                old = self._deps[1]
                result = analyze_dependences_region(self.program, touched,
                                                    index)
                merged = splice_dependences(old.deps, result)
                graph = DependenceGraph(self.program, merged,
                                        result.visited_pairs)
            self.counters.incremental_updates += 1
            self.counters.incremental_pairs += result.visited_pairs

        self._deps = (v, graph)
        self._dep_cursor = self._anchor()
        return graph

    def update_after_events(self, events: Optional[Sequence[Event]] = None,
                            strategy: str = REGIONAL) -> None:
        """Patch every *materialized* analysis after a change-event batch.

        This is Figure 4's line 13 ("dependence and data flow update")
        made regional: the dependence graph is spliced, the control tree
        is patched in place (preserving untouched region ids), the
        summaries are re-hung only where an endpoint was touched, and
        the PDG is reassembled from the patched parts.  Analyses that
        were never asked for are *not* built — the version-checked
        getters handle them lazily, and :meth:`dataflow` carries the
        data-flow facts forward on its next read.  ``strategy=FULL``
        instead rebuilds the dependence graph from scratch and drops
        the downstream caches wholesale (the pre-regional baseline
        behavior).
        """
        if strategy == FULL:
            if self._deps is not None:
                self.update_dependences(events, strategy=FULL)
            self._dataflow = None
            self._tree = None
            self._pdg = None
            self._summaries = None
            self._index = None
            return

        # analyses built off the log cannot be patched from it
        if self._tree_cursor is None:
            self._tree = None
        if self._summ_cursor is None:
            self._summaries = None
        v = self.program.version
        graph: Optional[DependenceGraph] = None
        touched_for_summ: Set[int] = set()
        if self._summaries is not None:
            # capture the summary-relevant touched set before any cursor moves
            evs = self._slice_since(self._summ_cursor, events)
            touched_for_summ = touched_statements(self.program, evs)

        if self._deps is not None:
            graph = self.update_dependences(events, strategy=REGIONAL)
        else:
            self._sync_index(events)

        tree: Optional[ControlDepTree] = None
        if self._tree is not None:
            tree = self._tree[1]
            if self._tree[0] != v:
                with self.counters.timed("control_tree_update"):
                    evs = self._slice_since(self._tree_cursor, events)
                    update_control_tree(tree, self.program, evs)
                self.counters.control_tree_updates += 1
                self._tree = (v, tree)
            self._tree_cursor = self._anchor()

        if self._summaries is not None:
            summ = self._summaries[1]
            if tree is None or graph is None:
                # cannot patch without the (id-stable) tree and the graph
                self._summaries = None
            else:
                if self._summaries[0] != v:
                    with self.counters.timed("summaries_update"):
                        update_summaries(summ, self.program, tree,
                                         touched_for_summ, graph)
                    self.counters.summary_updates += 1
                    self._summaries = (v, summ)
                self._summ_cursor = self._anchor()

        if self._pdg is not None:
            if tree is None or graph is None:
                self._pdg = None
            elif self._pdg[0] != v:
                with self.counters.timed("pdg_assemble"):
                    self._pdg = (v, PDG(self.program, tree, graph))
                self.counters.pdg_assemblies += 1

    def _update_dataflow(self) -> None:
        """Carry the data-flow facts to the current version, regionally.

        Only facts built from the index's universe can be carried, and
        only when the log accounts for the version under a regional
        policy; otherwise they are dropped for the getter to rebuild."""
        prev = self._dataflow[1]
        index = self.defuse_index() if self._index is not None else None
        if (index is None or prev.universe is not index.universe
                or not self._logged() or not self._regional()):
            self._dataflow = None
            return
        with self.counters.timed("dataflow_update"):
            res = update_dataflow(prev, self.cfg(), index)
        self.counters.dataflow_updates += 1
        self.counters.dataflow_update_nodes += res.visited_nodes
        self._dataflow = (self.program.version, res)
