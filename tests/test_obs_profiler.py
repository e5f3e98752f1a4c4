"""The sampling profiler and decision analytics.

Pins the continuous-profiling PR's contracts:

* :class:`repro.obs.profiler.Profiler` — start/stop lifecycle, stack
  sampling with span/request attribution (via
  :func:`repro.obs.trace.thread_activity`), folded-stack and
  self/cumulative exports and drop accounting;
* the folded-stack wire format (``parse_folded`` / ``render_folded`` /
  ``merge_folded``) the sharded router merges per-worker dumps with;
* the command-latency exemplars the engine records per request;
* the decision counters the engine bumps where it decides (per-op
  commands, undo nodes, cascade depth and collateral, analysis pairs),
  and their trip through the cross-shard registry document
  (``registry_views`` / ``merge_registry_docs`` /
  ``MetricsRegistry.from_doc``).
"""

import json
import threading
import time

import pytest

from repro.core.commands import ApplyCommand, UndoCommand
from repro.core.engine import TransformationEngine
from repro.lang.parser import parse_program
from repro.obs.metrics import (
    MetricsError,
    MetricsRegistry,
    merge_registry_docs,
    registry_views,
)
from repro.obs.profiler import (
    IDLE_ROOT,
    Profiler,
    merge_folded,
    parse_folded,
    render_folded,
)
from repro.obs.trace import Tracer, request_context, thread_activity

SRC = "c = 1\nx = c + 2\nwrite x\n"


def spin(stop: threading.Event, tracer=None, span=None, request=None):
    """Busy-loop until told to stop, optionally inside a span/request."""
    def body():
        while not stop.is_set():
            sum(range(100))

    if tracer is not None and span is not None:
        ctx = {"request": request} if request else None
        with request_context(ctx):
            with tracer.span(span):
                body()
    else:
        body()


class TestProfilerLifecycle:
    def test_start_stop_and_counters(self):
        prof = Profiler(hz=250.0)
        assert not prof.running
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        assert prof.start()
        assert not prof.start()  # already running
        assert prof.running
        time.sleep(0.15)
        assert prof.stop()
        assert not prof.stop()  # already stopped
        stop.set()
        worker.join()
        assert prof.samples > 0
        snap = prof.snapshot()
        assert snap["samples"] == prof.samples
        assert snap["wall_s"] > 0
        assert any("test_obs_profiler.spin" in frame
                   for stack in snap["stacks"]
                   for frame in stack["frames"])

    def test_profile_survives_stop_until_reset(self):
        prof = Profiler(hz=200.0)
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        prof.start()
        time.sleep(0.1)
        prof.stop()
        stop.set()
        worker.join()
        assert prof.folded()
        prof.reset()
        assert prof.folded() == ""
        assert prof.samples > 0  # counters keep accumulating

    def test_rejects_bad_hz(self):
        with pytest.raises(ValueError):
            Profiler(hz=0)
        with pytest.raises(ValueError):
            Profiler().start(hz=-1)


class TestAttribution:
    def test_samples_carry_span_and_request(self):
        tracer = Tracer()
        stop = threading.Event()
        worker = threading.Thread(
            target=spin, args=(stop, tracer, "analysis", "r-feedface"),
            daemon=True)
        prof = Profiler(hz=250.0)
        worker.start()
        time.sleep(0.02)  # let the worker enter its span
        prof.start()
        time.sleep(0.15)
        prof.stop()
        stop.set()
        worker.join()
        attributed = [s for s in prof.snapshot()["stacks"]
                      if s["span"] == "analysis"]
        assert attributed
        assert attributed[0]["request"] == "r-feedface"
        # folded lines root on the span name
        assert any(line.startswith("analysis;")
                   for line in prof.folded().splitlines())

    def test_unattributed_samples_root_on_idle(self):
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        prof = Profiler(hz=250.0)
        worker.start()
        prof.start()
        time.sleep(0.1)
        prof.stop()
        stop.set()
        worker.join()
        assert any(line.startswith(IDLE_ROOT + ";")
                   for line in prof.folded().splitlines())

    def test_thread_activity_tracks_spans_and_requests(self):
        tracer = Tracer()
        ident = threading.get_ident()
        assert ident not in thread_activity()
        with request_context({"request": "r-1"}):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    span, request = thread_activity()[ident]
                    assert (span, request) == ("inner", "r-1")
                span, _request = thread_activity()[ident]
                assert span == "outer"
        assert ident not in thread_activity()

    def test_unbalanced_span_exit_leaves_no_activity(self):
        # exiting an outer span with the inner still open drops both
        # from the tracer stack; the activity table must follow, or a
        # dead span name would attribute samples forever
        tracer = Tracer()
        ident = threading.get_ident()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)
        assert ident not in thread_activity()


class TestDrops:
    def test_stack_table_overflow_counts_drops(self):
        prof = Profiler(hz=500.0, max_stacks=1)
        counted = []

        class FakeCounter:
            def inc(self, n):
                counted.append(n)

        prof.drop_counter = FakeCounter()
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        prof.start()
        time.sleep(0.2)
        prof.stop()
        stop.set()
        worker.join()
        assert len(prof.snapshot()["stacks"]) <= 1
        assert prof.dropped > 0
        assert sum(counted) == prof.dropped

    def test_raising_drop_counter_does_not_kill_the_sampler(self):
        prof = Profiler(hz=100.0)

        class Bomb:
            def inc(self, n):
                raise RuntimeError("boom")

        prof.drop_counter = Bomb()
        prof._note_drops(3)
        assert prof.dropped == 3


class TestFoldedFormat:
    def test_parse_render_round_trip(self):
        counts = {"a;b;c": 4, "a;b": 1}
        assert parse_folded(render_folded(counts)) == counts

    def test_parse_is_lenient(self):
        text = "a;b 3\n\nnot-a-count\nx;y 2\nx;y 5\n"
        assert parse_folded(text) == {"a;b": 3, "x;y": 7}

    def test_merge_sums_identical_stacks(self):
        a = render_folded({"s1;f1": 2, "s2;f2": 1})
        b = render_folded({"s1;f1": 3, "s3;f3": 4})
        merged = parse_folded(merge_folded([a, b]))
        assert merged == {"s1;f1": 5, "s2;f2": 1, "s3;f3": 4}

    def test_table_self_and_cumulative(self):
        prof = Profiler()
        prof._stacks = {("", "", ("a", "b")): 3,
                        ("", "", ("a",)): 2,
                        ("", "", ("a", "a")): 1}  # recursion: cum once
        rows = {r["frame"]: r for r in prof.table()}
        assert rows["b"]["self"] == 3
        assert rows["a"]["self"] == 3  # leaf of ("a",) and ("a","a")
        assert rows["a"]["cum"] == 6   # every sample, recursion counted once


class TestEngineWiring:
    def test_command_latency_carries_request_exemplar(self):
        registry = MetricsRegistry()
        engine = TransformationEngine(parse_program(SRC), metrics=registry)
        with request_context({"request": "r-0123456789ab"}):
            opp = engine.find("ctp")[0]
            engine.execute(ApplyCommand.from_opportunity(opp))
        hist = registry.histogram("repro_command_seconds", op="apply")
        exemplars = [e for e in hist.exemplars if e]
        assert exemplars
        assert all(e["request"] == "r-0123456789ab" for e in exemplars)
        assert 'r-0123456789ab' in registry.render()

    def test_no_request_context_means_no_exemplar(self):
        registry = MetricsRegistry()
        engine = TransformationEngine(parse_program(SRC), metrics=registry)
        opp = engine.find("ctp")[0]
        engine.execute(ApplyCommand.from_opportunity(opp))
        hist = registry.histogram("repro_command_seconds", op="apply")
        assert not any(hist.exemplars)


class TestDecisionAnalytics:
    def run_workload(self, registry):
        from repro.workloads.generator import (
            GeneratorConfig,
            generate_program,
        )
        from repro.workloads.scenarios import apply_greedy

        engine = TransformationEngine(
            generate_program(7, GeneratorConfig(blocks=4)),
            metrics=registry)
        applied = apply_greedy(engine, 6, seed=8)
        engine.execute(UndoCommand(stamp=applied[0]))
        return engine

    def test_commands_and_undo_decisions_counted(self):
        registry = MetricsRegistry()
        engine = self.run_workload(registry)
        # PAR's finder reads the dependence graph, which patches it from
        # the undo's events
        engine.execute(ApplyCommand(name="par"))
        assert registry.value("repro_commands_total",
                              op="apply", status="ok") >= 1
        assert registry.value("repro_commands_total",
                              op="undo", status="ok") == 1
        # the undo's provenance produced target nodes and a depth sample
        assert registry.value("repro_undo_nodes_total", role="target") >= 1
        depth = registry.histogram("repro_undo_cascade_depth")
        assert depth.count == 1
        collateral = registry.histogram("repro_undo_collateral")
        assert collateral.count == 1
        # the read ran regional (incremental) dependence analysis
        assert registry.value("repro_analysis_pairs_total",
                              mode="regional") > 0

    def test_failed_commands_counted_as_failed(self):
        # undoing an already-undone stamp raises UndoError, which is in
        # UndoCommand.failure_types — the engine counts the command
        # failed, and its one-node tree as a cascade
        registry = MetricsRegistry()
        engine = self.run_workload(registry)
        # run_workload already undid stamp 1 (the first apply)
        assert not engine.history.by_stamp(1).active
        with pytest.raises(Exception):
            engine.execute(UndoCommand(stamp=1))
        assert registry.value("repro_commands_total",
                              op="undo", status="failed") == 1
        assert registry.histogram("repro_undo_cascade_depth").count == 2

    def test_analytics_doc_filters_to_analytics_prefixes(self):
        registry = MetricsRegistry()
        self.run_workload(registry)
        registry.counter("repro_other_total").inc()
        doc = registry_views(registry.to_doc())["analytics"]
        assert "repro_commands_total" in doc
        assert "repro_other_total" not in doc
        assert json.loads(json.dumps(doc)) == doc

    def test_merge_sums_counters_and_merges_histograms(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        self.run_workload(r1)
        self.run_workload(r2)
        merged = merge_registry_docs([r1.to_doc(), r2.to_doc()])
        rebuilt = MetricsRegistry.from_doc(merged)
        assert rebuilt.value("repro_commands_total",
                             op="undo", status="ok") == 2
        assert rebuilt.histogram("repro_undo_cascade_depth").count == 2
        # rendered through the ordinary exposition path
        assert "repro_undo_cascade_depth_bucket" in rebuilt.render()

    def test_merge_tolerates_disjoint_documents(self):
        r1 = MetricsRegistry()
        self.run_workload(r1)
        merged = merge_registry_docs([r1.to_doc(), {}])
        assert merge_registry_docs([merged]) == merged  # idempotent

    def test_merge_rejects_kind_conflicts(self):
        a = {"repro_undo_collateral": {"kind": "counter", "help": "",
                                       "samples": []}}
        b = {"repro_undo_collateral": {"kind": "histogram", "help": "",
                                       "samples": []}}
        with pytest.raises(MetricsError):
            merge_registry_docs([a, b])

    def test_batch_members_counted_once_each(self):
        from repro.core.commands import BatchCommand

        from repro.workloads.generator import (
            GeneratorConfig,
            generate_program,
        )

        registry = MetricsRegistry()
        engine = TransformationEngine(
            generate_program(7, GeneratorConfig(blocks=4)),
            metrics=registry)
        engine.find_all()  # materialize analyses the batch then patches
        opp = engine.find("ctp")[0]
        batch = BatchCommand(
            commands=[ApplyCommand.from_opportunity(opp),
                      UndoCommand(stamp=1),
                      # PAR's finder reads the graph the undo made stale
                      ApplyCommand(name="par")])
        engine.execute(batch)
        # the batch's work is its members' sum: their pairs count once
        pairs = sum(sub.work.get("dependence_pairs", 0) +
                    sub.work.get("incremental_pairs", 0)
                    for sub in batch.commands)
        assert pairs > 0
        assert registry.total("repro_analysis_pairs_total") == pairs
        assert registry.value("repro_commands_total",
                              op="batch", status="ok") == 1
        assert registry.value("repro_commands_total",
                              op="apply", status="ok") == 2
