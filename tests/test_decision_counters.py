"""The undo engines count each decision once, where they make it.

A differential test against the earlier design, kept here as the
reference: a ``command_observers`` callback that walked every executed
command's provenance document after the fact.  Over a seeded stream of
apply, undo, undo-lifo, failing-undo and batch commands, every decision
family the engines count equals the walk's — except
``repro_violation_total``, which the walk counted twice (on the
``check`` node and again on the ``affecting``/``affected`` undo node
carrying the same verdict).  The engine's count equals the violations
on ``check`` nodes alone.
"""

import random

from repro.core.commands import (
    ApplyCommand,
    ApplyError,
    BatchCommand,
    UndoCommand,
    UndoLifoCommand,
)
from repro.core.engine import TransformationEngine
from repro.core.undo import UndoError
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import DEPTH_BUCKETS, FANOUT_BUCKETS
from repro.transforms.registry import TABLE4_ORDER
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

#: the families both sides count, compared sample by sample.
SHARED_FAMILIES = ("repro_undo_nodes_total", "repro_undo_checks_total",
                   "repro_undo_skips_total", "repro_undo_cascade_depth",
                   "repro_undo_collateral", "repro_analysis_pairs_total")


class ReferenceWalk:
    """The provenance-walking observer the engines' counters replaced."""

    def __init__(self):
        self.registry = MetricsRegistry()
        #: violations on ``check`` nodes only (each decision once).
        self.check_violations = 0

    def observe(self, command):
        m = self.registry
        op = command.op
        m.counter("repro_decision_commands_total", op=op,
                  status="failed" if command.failed else "ok").inc()
        if op == "batch":
            for sub in command.commands:
                self.observe(sub)
            return
        work = command.work or {}
        if work.get("dependence_pairs", 0):
            m.counter("repro_analysis_pairs_total",
                      mode="full").inc(work["dependence_pairs"])
        if work.get("incremental_pairs", 0):
            m.counter("repro_analysis_pairs_total",
                      mode="regional").inc(work["incremental_pairs"])
        undone = getattr(command, "undone", None)
        if op == "undo" and undone is not None:
            m.histogram("repro_undo_collateral",
                        buckets=FANOUT_BUCKETS).observe(
                            max(0, len(undone) - 1))
        if isinstance(command.provenance, dict):
            self._walk(command.provenance)

    def _walk(self, doc):
        m = self.registry
        deepest = 0
        stack = [(doc, 1)]
        while stack:
            node, depth = stack.pop()
            kind = node.get("kind")
            verdict = node.get("verdict") or {}
            if kind == "undo":
                deepest = max(deepest, depth)
                m.counter("repro_undo_nodes_total",
                          role=node.get("role") or "target").inc()
            elif kind == "check":
                m.counter("repro_undo_checks_total",
                          check=verdict.get("check", "unknown"),
                          verdict="ok" if verdict.get("ok")
                          else "violated").inc()
                self.check_violations += len(
                    verdict.get("violations", []))
            elif kind == "skip":
                m.counter("repro_undo_skips_total",
                          reason=node.get("reason") or "unknown").inc()
            for violation in verdict.get("violations", []):
                m.counter("repro_violation_total",
                          code=violation.get("code") or "unknown").inc()
            for child in node.get("children") or []:
                stack.append((child, depth + 1))
        if deepest:
            m.histogram("repro_undo_cascade_depth",
                        buckets=DEPTH_BUCKETS).observe(deepest)


def _samples(doc, name):
    """One family's samples, comparable across registries."""
    out = {}
    for sample in doc.get(name, {}).get("samples", []):
        key = tuple(sorted(sample["labels"].items()))
        if "buckets" in sample:
            out[key] = (sample["buckets"], sample["overflow"],
                        sample["count"], sample["sum"])
        else:
            out[key] = sample["value"]
    return out


def _run_stream(engine, rng):
    """A seeded mix of every command shape that reaches the engines."""
    def active():
        return [r.stamp for r in engine.history.active()]

    def inactive():
        return [r.stamp for r in engine.history.all_records()
                if not r.active]

    apply_greedy(engine, 12, seed=rng.randrange(1000))
    for _ in range(32):
        shape = rng.choice(["apply", "apply", "undo", "undo", "undo",
                            "undo-lifo", "failing-undo", "batch"])
        try:
            if shape == "apply":
                kind = rng.choice(TABLE4_ORDER)
                opps = engine.find(kind)
                if opps:
                    engine.execute(ApplyCommand.from_opportunity(
                        rng.choice(opps)))
            elif shape in ("undo", "undo-lifo") and active():
                # the oldest stamps have the most dependents to cascade
                cls = UndoCommand if shape == "undo" else UndoLifoCommand
                engine.execute(cls(stamp=rng.choice(active()[:3])))
            elif shape == "failing-undo" and inactive():
                engine.execute(UndoCommand(stamp=rng.choice(inactive())))
            elif shape == "batch":
                stamps = active() + inactive()
                subs = [ApplyCommand(name=rng.choice(TABLE4_ORDER))]
                if stamps:
                    subs.append(UndoCommand(stamp=rng.choice(stamps)))
                engine.execute(BatchCommand(commands=subs))
        except (ApplyError, UndoError):
            pass


def test_engine_counters_equal_the_provenance_walk():
    engine_docs, walks = [], []
    for seed in range(4):
        registry = MetricsRegistry()
        engine = TransformationEngine(
            generate_program(seed, GeneratorConfig(blocks=8)),
            metrics=registry)
        walk = ReferenceWalk()
        engine.command_observers.append(walk.observe)
        _run_stream(engine, random.Random(seed))
        engine_docs.append(registry.to_doc())
        walks.append(walk)

    for doc, walk in zip(engine_docs, walks):
        ref = walk.registry.to_doc()
        for name in SHARED_FAMILIES:
            assert _samples(doc, name) == _samples(ref, name), name
        assert _samples(ref, "repro_decision_commands_total") == \
            _samples(doc, "repro_commands_total")
        engine_violations = sum(
            _samples(doc, "repro_violation_total").values())
        assert engine_violations == walk.check_violations

    # the stream exercised every decision, and the walk's double count
    def walked(name, **labels):
        return sum((w.registry.value(name, **labels) or 0) if labels
                   else w.registry.total(name) for w in walks)

    checked = sum(w.check_violations for w in walks)
    assert 0 < checked < walked("repro_violation_total")
    assert walked("repro_undo_nodes_total", role="affecting") > 0
    assert walked("repro_undo_nodes_total", role="affected") > 0
    assert walked("repro_undo_nodes_total", role="collateral") > 0
    assert walked("repro_undo_skips_total") > 0
    assert walked("repro_decision_commands_total", op="undo",
                  status="failed") > 0
    assert walked("repro_decision_commands_total", op="batch",
                  status="ok") > 0
    assert walked("repro_decision_commands_total", op="batch",
                  status="failed") > 0


def test_served_engine_has_one_observer(tmp_path):
    from repro.service.session import SessionManager

    manager = SessionManager(str(tmp_path))
    manager.create("s", "c = 1\nx = c + 2\nwrite x\n")
    with manager.session("s") as session:
        assert session.engine.command_observers == [session._on_command]
    manager.close_all()
