"""Decision analytics: the paper's undo machinery, measured in aggregate.

Provenance trees (:mod:`repro.obs.provenance`) explain *one* undo;
operators need the distribution: which Table 3 conditions fire and how
often, how deep cascades run and how much collateral they drag along,
how often the Table 4 heuristic lets the engine skip a re-check versus
being forced into one, and how much dependence work regional analysis
saved over full re-analysis.  :class:`DecisionAnalytics` is a
``command_observers`` callback that folds every executed command into
the :class:`~repro.obs.metrics.MetricsRegistry`:

=====================================  =====================================
instrument                             meaning
=====================================  =====================================
``repro_decision_commands_total``      commands seen, by op and status
``repro_undo_nodes_total``             provenance ``undo`` nodes by role
                                       (target / affecting / affected /
                                       collateral)
``repro_undo_checks_total``            safety / reversibility re-checks by
                                       verdict
``repro_undo_skips_total``             skipped re-checks by reason
                                       (``table4-heuristic`` /
                                       ``outside-region``)
``repro_violation_total``              violations by stable Table 3 code
``repro_undo_cascade_depth``           histogram: provenance tree depth of
                                       each undo
``repro_undo_collateral``              histogram: extra stamps undone
                                       beyond the target
``repro_analysis_pairs_total``         dependence pairs computed, full vs.
                                       regional (incremental) analysis
=====================================  =====================================

Counters live in the manager's ordinary registry, so they ship across
shard pipes inside the ``_ metrics`` document's ``registry``, merge
with every other instrument
(:func:`~repro.obs.metrics.merge_registry_docs` — counters sum,
histograms merge bucket-wise), and render in ``/metrics`` and ``/varz``
through the same exposition paths.  The document's ``analytics`` key
is the :data:`~repro.obs.metrics.ANALYTICS_PREFIXES` subset of it.

Observer discipline: :meth:`DecisionAnalytics.observe` is wired through
``engine.command_observers``, whose caller isolates exceptions — but an
analytics pass must still never *mutate* the command, so everything
here reads doc-form provenance (plain dicts) and scalar attributes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import ANALYTICS_PREFIXES, MetricsRegistry, REGISTRY

__all__ = ["DecisionAnalytics", "ANALYTICS_PREFIXES"]

#: buckets for cascade depth and collateral fan-out — small integers,
#: not latencies (Fibonacci-ish so the tail still resolves).
DEPTH_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)
FANOUT_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)


class DecisionAnalytics:
    """Aggregates per-command decision telemetry into a registry.

    Attach once per engine (:meth:`attach`); one instance may serve
    every engine of a :class:`~repro.service.session.SessionManager`,
    since instruments are already get-or-create and thread-safe.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else REGISTRY
        #: top-level commands observed (batch members count separately).
        self.commands = 0

    def attach(self, engine) -> "DecisionAnalytics":
        """Register on one engine's ``command_observers``; returns self."""
        engine.command_observers.append(self.observe)
        return self

    # -- the observer --------------------------------------------------------

    def observe(self, command) -> None:
        """Fold one executed command into the registry (the callback)."""
        self.commands += 1
        self._observe(command, top=True)

    def _observe(self, command, top: bool) -> None:
        m = self.registry
        op = getattr(command, "op", "unknown")
        status = "failed" if getattr(command, "failed", False) else "ok"
        m.counter("repro_decision_commands_total",
                  "commands folded into decision analytics",
                  op=op, status=status).inc()
        if op == "batch":
            # sub-commands carry their own work/provenance; the batch's
            # work is their sum, so only recurse — never count both
            for sub in getattr(command, "commands", None) or []:
                self._observe(sub, top=False)
            return
        work = getattr(command, "work", None) or {}
        full = work.get("dependence_pairs", 0)
        regional = work.get("incremental_pairs", 0)
        if full:
            m.counter("repro_analysis_pairs_total",
                      "dependence pairs computed, by analysis mode",
                      mode="full").inc(full)
        if regional:
            m.counter("repro_analysis_pairs_total",
                      mode="regional").inc(regional)
        undone = getattr(command, "undone", None)
        if op == "undo" and undone is not None:
            m.histogram("repro_undo_collateral",
                        "stamps undone beyond the requested target",
                        buckets=FANOUT_BUCKETS).observe(
                            max(0, len(undone) - 1))
        provenance = getattr(command, "provenance", None)
        if isinstance(provenance, dict):
            self._observe_provenance(provenance)

    def _observe_provenance(self, doc: Dict[str, Any]) -> None:
        m = self.registry
        deepest = 0
        stack: List[Any] = [(doc, 1)]
        while stack:
            node, depth = stack.pop()
            kind = node.get("kind")
            if kind == "undo":
                deepest = max(deepest, depth)
                m.counter("repro_undo_nodes_total",
                          "provenance undo nodes, by cascade role",
                          role=node.get("role") or "target").inc()
            elif kind == "check":
                verdict = node.get("verdict") or {}
                m.counter("repro_undo_checks_total",
                          "cascade re-checks, by check and verdict",
                          check=verdict.get("check", "unknown"),
                          verdict="ok" if verdict.get("ok")
                          else "violated").inc()
            elif kind == "skip":
                m.counter("repro_undo_skips_total",
                          "re-checks the cascade skipped, by reason "
                          "(Table 4 heuristic / outside the region)",
                          reason=node.get("reason") or "unknown").inc()
            for violation in (node.get("verdict") or {}).get(
                    "violations", []):
                m.counter("repro_violation_total",
                          "disabling-condition violations by stable "
                          "Table 3 code",
                          code=violation.get("code") or "unknown").inc()
            for child in node.get("children") or []:
                stack.append((child, depth + 1))
        if deepest:
            m.histogram("repro_undo_cascade_depth",
                        "provenance tree depth of each undo cascade",
                        buckets=DEPTH_BUCKETS).observe(deepest)
