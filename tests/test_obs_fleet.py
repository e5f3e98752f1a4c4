"""Fleet-scope observability: trace propagation, collection, exposition.

Pins the contracts of the fleet-observability PR:

* the thread-local request context: ids mint uniquely, contexts nest by
  replacement, every span produced under one carries its ``request``
  tag, and :func:`annotate_request` accumulates the latency breakdown;
* the flight recorder counts ring-wrap drops into
  ``repro_trace_dropped_total`` and the manager's ``spans_dropped``
  aggregate;
* the slow-request log and the rolling-window SLO tracker behind the
  ``_ slow`` / ``_ slo`` verbs, the per-request deadline budget and its
  reply flag, blank lines, the shared ``/healthz`` / ``/varz`` core and
  fresh ``/pprof`` windows — each over both fronts, the single-process
  server and a two-shard router;
* cross-shard metrics merging edge cases (disjoint totals fields,
  missing histograms, percentile re-derivation) and the Prometheus
  rendering of merged documents;
* the HTTP exposition sidecar's three endpoints and their status codes;
* the fleet trace collector and :func:`repro.obs.check.fleet_roundtrip`
  over a real two-shard router;
* the TCP front-end's hostile-input hardening (oversized lines, bad
  UTF-8) — rejected with a normalized error, counted, connection kept.
"""

import glob
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.check import fleet_roundtrip
from repro.obs.collector import (
    ORIGIN_ROUTER,
    RequestTrace,
    collect_requests,
    fleet_trace_files,
)
from repro.obs.expo import ExpoServer
from repro.obs.metrics import (
    REGISTRY,
    TOTALS_SOURCES,
    MetricsRegistry,
    aggregate_to_prometheus,
    merge_aggregate_metrics,
    merge_histogram_docs,
    registry_views,
)
from repro.obs.slo import SloTracker
from repro.obs.slowlog import MAX_LINE_CHARS, SlowLog
from repro.obs.trace import (
    Tracer,
    annotate_request,
    current_request,
    new_request_id,
    request_context,
)
from repro.service.netserver import MAX_LINE_BYTES, NetServer
from repro.service.server import DEADLINE_FLAG, SessionServer
from repro.service.session import SessionManager
from repro.service.shard import ShardRouter, router_trace_path, shard_index

SRC = "c = 1\nx = c + 2\nwrite x\n"


# -- request context ----------------------------------------------------------

class TestRequestContext:
    def test_ids_are_unique_and_well_formed(self):
        ids = {new_request_id() for _ in range(256)}
        assert len(ids) == 256
        assert all(i.startswith("r-") and len(i) == 14 for i in ids)

    def test_context_nests_by_replacement(self):
        assert current_request() is None
        with request_context() as outer:
            assert current_request() is outer
            with request_context({"request": "r-fixed"}) as inner:
                assert current_request() is inner
                assert inner["request"] == "r-fixed"
            assert current_request() is outer
        assert current_request() is None

    def test_context_is_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = current_request()

        with request_context():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["other"] is None

    def test_spans_carry_the_request_tag(self):
        tracer = Tracer()
        with request_context({"request": "r-abc"}):
            with tracer.span("command", op="apply"):
                pass
        with tracer.span("command", op="apply"):
            pass  # outside any context: no tag
        tagged, untagged = tracer.recorder.spans()
        assert tagged.tags["request"] == "r-abc"
        assert "request" not in untagged.tags

    def test_explicit_request_tag_wins(self):
        tracer = Tracer()
        with request_context({"request": "r-ambient"}):
            with tracer.span("command", request="r-mine"):
                pass
        (span,) = tracer.recorder.spans()
        assert span.tags["request"] == "r-mine"

    def test_annotate_accumulates_numbers_and_overwrites_rest(self):
        with request_context() as ctx:
            annotate_request(lock_wait_ms=1.5, note="first")
            annotate_request(lock_wait_ms=2.5, note="second")
            assert ctx["breakdown"]["lock_wait_ms"] == pytest.approx(4.0)
            assert ctx["breakdown"]["note"] == "second"

    def test_annotate_is_a_noop_outside_a_context(self):
        annotate_request(lock_wait_ms=1.0)  # must not raise
        assert current_request() is None


# -- flight-recorder drops ----------------------------------------------------

class TestTraceDrops:
    def _span(self, tracer, name):
        with tracer.span(name):
            pass

    def test_ring_wrap_increments_the_drop_counter(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=2)
        tracer.recorder.drop_counter = registry.counter(
            "repro_trace_dropped_total")
        for k in range(5):
            self._span(tracer, f"s{k}")
        assert tracer.recorder.dropped == 3
        assert registry.value("repro_trace_dropped_total") == 3

    def test_engine_wires_the_drop_metric(self, tmp_path):
        from repro.core.engine import TransformationEngine
        from repro.lang.parser import parse_program

        registry = MetricsRegistry()
        engine = TransformationEngine(parse_program(SRC), tracer=Tracer(),
                                      metrics=registry)
        assert engine.tracer.recorder.drop_counter is \
            registry.counter("repro_trace_dropped_total")

    def test_manager_aggregate_carries_span_totals(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        manager = SessionManager(str(tmp_path),
                                 metrics=MetricsRegistry())
        server = SessionServer(manager)
        assert server.handle_line(f"a init {prog}") == "created a"
        assert server.handle_line("a apply ctp 0").startswith("applied")
        doc = json.loads(server.handle_line("_ metrics"))
        assert doc["totals"]["spans_recorded"] > 0
        assert doc["totals"]["spans_dropped"] == 0
        manager.close_all()


# -- slow log -----------------------------------------------------------------

class TestSlowLog:
    def test_threshold_filters_and_zero_records_everything(self):
        log = SlowLog(threshold_s=0.1)
        assert not log.observe("fast", 0.05)
        assert log.observe("slow", 0.2)
        assert [e["line"] for e in log.entries()] == ["slow"]
        assert log.observed == 2 and log.recorded == 1

        all_log = SlowLog(threshold_s=0.0)
        assert all_log.observe("anything", 0.0)

    def test_none_threshold_disables_and_force_overrides(self):
        log = SlowLog(threshold_s=None)
        assert not log.observe("slow", 99.0)
        assert log.observe("deadline", 0.001, force=True)
        assert [e["line"] for e in log.entries()] == ["deadline"]

    def test_ring_keeps_the_newest(self):
        log = SlowLog(capacity=2, threshold_s=0.0)
        for k in range(4):
            log.observe(f"r{k}", 1.0)
        assert [e["line"] for e in log.entries()] == ["r2", "r3"]
        assert log.recorded == 4

    def test_entry_carries_request_and_breakdown_and_truncates(self):
        log = SlowLog(threshold_s=0.0)
        log.observe("x" * 1000, 0.5, ok=False, layer="shard-01",
                    request="r-1", breakdown={"lock_wait_ms": 3.0})
        (entry,) = log.entries()
        assert len(entry["line"]) == MAX_LINE_CHARS
        assert entry["layer"] == "shard-01"
        assert entry["ok"] is False
        assert entry["request"] == "r-1"
        assert entry["breakdown"] == {"lock_wait_ms": 3.0}
        assert entry["dur_ms"] == pytest.approx(500.0)

    def test_merge_orders_by_wall_clock_and_tails(self):
        a = [{"ts": 3.0, "line": "a3"}, {"ts": 5.0, "line": "a5"}]
        b = [{"ts": 4.0, "line": "b4"}]
        merged = SlowLog.merge([a, b])
        assert [e["line"] for e in merged] == ["a3", "b4", "a5"]
        assert [e["line"] for e in SlowLog.merge([a, b], tail=2)] == \
            ["b4", "a5"]


# -- slo tracker --------------------------------------------------------------

class TestSloTracker:
    def test_empty_window_is_vacuously_healthy(self):
        doc = SloTracker().report()
        assert doc["ok"] and doc["requests"] == 0
        assert doc["availability"] == 1.0 and doc["violations"] == []

    def test_availability_violation(self):
        slo = SloTracker(availability=0.99, p95_ms=1e9)
        for _ in range(9):
            slo.record(0.001, True)
        slo.record(0.001, False)
        doc = slo.report()
        assert doc["availability"] == pytest.approx(0.9)
        assert not doc["ok"]
        assert any("availability" in v for v in doc["violations"])

    def test_p95_violation_uses_real_durations(self):
        slo = SloTracker(p95_ms=10.0)
        for _ in range(99):
            slo.record(0.001, True)
        slo.record(5.0, True)  # one outlier: p95 still fine
        assert slo.report()["ok"]
        for _ in range(20):
            slo.record(0.5, True)  # now the tail is genuinely slow
        doc = slo.report()
        assert not doc["ok"]
        assert any("p95" in v for v in doc["violations"])

    def test_window_prunes_old_samples(self):
        slo = SloTracker(window_s=10.0)
        slo.record(0.001, False, ts=100.0)
        slo.record(0.001, True, ts=109.0)
        doc = slo.report(now=115.0)
        assert doc["requests"] == 1 and doc["errors"] == 0
        assert doc["recorded_total"] == 2

    def test_count_bound_reports_trimming(self):
        slo = SloTracker(max_samples=4)
        for k in range(6):
            slo.record(0.001, True, ts=float(k))
        doc = slo.report(now=5.0)
        assert doc["window_trimmed"] and doc["requests"] == 4

    def test_deadline_exceeded_is_counted(self):
        slo = SloTracker()
        slo.record(0.9, True, deadline_exceeded=True)
        assert slo.report()["deadline_exceeded"] == 1

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SloTracker(window_s=0.0)


# -- metrics merging edge cases ----------------------------------------------

def _hist_doc(registry_values):
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(0.01, 0.1, 1.0))
    for v in registry_values:
        hist.observe(v)
    return hist.sample()


def _registry_doc(latencies=(), **totals):
    """One manager's registry document: each ``totals`` field counted
    into its source instrument, ``latencies`` observed as applies."""
    registry = MetricsRegistry()
    for field, value in totals.items():
        registry.counter(TOTALS_SOURCES[field]).inc(value)
    for seconds in latencies:
        registry.histogram("repro_command_seconds", op="apply").observe(
            seconds)
    return registry.to_doc()


class TestMergeEdgeCases:
    def test_disjoint_totals_fields_union_and_sum(self):
        merged = merge_aggregate_metrics([
            {"registry": _registry_doc(commands=2, journal_syncs=1)},
            {"registry": _registry_doc(commands=3, snapshots_written=7)},
        ])
        assert merged["totals"] == {
            **dict.fromkeys(TOTALS_SOURCES, 0),
            "commands": 5, "journal_syncs": 1, "snapshots_written": 7}
        assert all(type(v) is int for v in merged["totals"].values())
        assert merged["shards"] == 2

    def test_empty_histograms_are_skipped_not_merged(self):
        idle = MetricsRegistry()
        idle.histogram("repro_command_seconds", op="undo")  # no samples
        merged = merge_aggregate_metrics([
            {"registry": idle.to_doc()},
            {"registry": _registry_doc()},
        ])
        assert "latency" not in merged
        merged = merge_aggregate_metrics([
            {"registry": _registry_doc([0.05])}, {"registry": idle.to_doc()}])
        assert merged["latency"]["count"] == 1

    def test_percentiles_rederive_from_merged_buckets(self):
        fast = _hist_doc([0.005] * 90)
        slow = _hist_doc([0.5] * 10)
        merged = merge_histogram_docs([fast, slow])
        assert merged["count"] == 100
        # p95 must land in the slow shard's bucket — averaging the two
        # shard p95s (~0.0055 and ~0.5) could never produce this
        assert merged["p95"] > 0.1
        assert merged["p50"] < 0.01

    def test_mismatched_buckets_refuse_to_merge(self):
        from repro.obs.metrics import MetricsError

        other = MetricsRegistry().histogram("h", buckets=(0.5, 1.0))
        other.observe(0.7)
        with pytest.raises(MetricsError):
            merge_histogram_docs([_hist_doc([0.05]), other.sample()])

    def test_aggregate_to_prometheus_renders_fleet_metrics(self):
        doc = merge_aggregate_metrics([
            {"registry": _registry_doc([0.05], commands=4), "live": ["a"],
             "on_disk": ["a"], "evictions": 1, "reopens": 2},
            {"registry": _registry_doc(commands=6), "live": [],
             "on_disk": ["b"], "evictions": 0, "reopens": 0},
        ])
        text = aggregate_to_prometheus(doc)
        # the merged registry renders under its own names
        assert "repro_session_commands_total 10.0" in text
        assert 'repro_command_seconds_count{op="apply"} 1' in text
        assert "repro_fleet_commands 10.0" in text
        assert "repro_fleet_live_sessions 1" in text
        assert "repro_fleet_sessions_on_disk 2" in text
        assert "repro_fleet_shards 2" in text
        assert "repro_fleet_command_seconds_count 1" in text
        assert 'repro_fleet_command_seconds_bucket{le="+Inf"} 1' in text
        assert "# TYPE repro_fleet_commands counter" in text

    def test_aggregate_to_prometheus_handles_single_manager_doc(self):
        registry = _registry_doc(commands=1)
        text = aggregate_to_prometheus(
            {"registry": registry, **registry_views(registry), "live": [],
             "on_disk": [], "evictions": 0, "reopens": 0})
        assert "repro_fleet_commands 1.0" in text
        assert "repro_fleet_shards" not in text


# -- server-side slow/slo/deadline -------------------------------------------

@pytest.fixture()
def server(tmp_path):
    prog = tmp_path / "p.loop"
    prog.write_text(SRC)
    manager = SessionManager(str(tmp_path), metrics=MetricsRegistry())
    srv = SessionServer(manager, slow_ms=0.0)
    srv.prog = str(prog)
    yield srv
    manager.close_all()


@pytest.fixture()
def make_front(request, tmp_path):
    """Builds the front under test: a SessionServer or a 2-shard router.

    The test class's ``FRONT`` picks which. Both fronts observe requests
    through the same shared code, so the forensics tests run over each;
    ``front.prog`` names a program file to ``init`` sessions from.
    """
    kind = getattr(request.cls, "FRONT", "server")
    prog = tmp_path / "p.loop"
    prog.write_text(SRC)
    built = []

    def make(**kwargs):
        if kind == "server":
            manager = SessionManager(str(tmp_path),
                                     metrics=MetricsRegistry())
            front = SessionServer(manager, **kwargs)
        else:
            front = ShardRouter(str(tmp_path), 2, **kwargs)
        front.prog = str(prog)
        built.append(front)
        return front

    yield make
    for front in built:
        front.close()


@pytest.fixture()
def front(make_front):
    return make_front(slow_ms=0.0)


class TestServerForensics:
    FRONT = "server"

    def test_slow_verb_returns_entries_with_breakdown(self, front):
        assert front.handle_line(f"a init {front.prog}") == "created a"
        with request_context() as ctx:
            out = front.handle_line("a apply ctp 0")
        assert out.startswith("applied")
        entries = json.loads(front.handle_line("_ slow"))
        # the breakdown is collected where the session runs; the
        # router's own entry for the request carries none
        entry = next(e for e in entries
                     if "apply" in e["line"] and e["layer"] != "router")
        assert entry["request"] == ctx["request"]
        breakdown = entry["breakdown"]
        assert "lock_wait_ms" in breakdown
        assert "journal_append_ms" in breakdown
        assert "analysis_ms" in breakdown
        assert breakdown["journal_fsyncs"] >= 0
        # the journal time is the journal.append span's own clock
        root = os.path.dirname(front.prog)
        trace_file, = glob.glob(os.path.join(root, "**", "a", "trace.jsonl"),
                                recursive=True)
        with open(trace_file, encoding="utf-8") as fh:
            append = next(
                span for span in map(json.loads, fh)
                if span["name"] == "journal.append"
                and span["tags"].get("request") == ctx["request"])
        assert breakdown["journal_append_ms"] == \
            pytest.approx(append["dur"] * 1e3)

    def test_slow_verb_tails(self, front):
        for k in range(5):
            front.handle_line("_ slo")
        entries = json.loads(front.handle_line("_ slow 2"))
        assert len(entries) == 2

    def test_slow_verb_rejects_a_bad_tail(self, front):
        out = front.handle_line("_ slow many")
        assert out.startswith("error: bad-request:")
        assert front.errors == 1

    def test_slo_verb_reports_the_window(self, front):
        assert front.handle_line(f"a init {front.prog}") == "created a"
        front.handle_line("a nope")
        doc = json.loads(front.handle_line("_ slo"))
        assert doc["requests"] >= 2
        assert doc["errors"] >= 1
        assert "p95_ms" in doc and "violations" in doc

    def test_deadline_flags_the_reply_and_counts(self, make_front):
        srv = make_front(slow_ms=None, deadline_ms=0.0)
        before = srv.registry.value("repro_deadline_exceeded_total") or 0
        out = srv.handle_line(f"a init {srv.prog}")
        assert out.splitlines()[0] == "created a"
        assert DEADLINE_FLAG in out.splitlines()[1]
        assert srv.deadline_exceeded == 1
        assert srv.registry.value("repro_deadline_exceeded_total") == \
            before + 1
        assert json.loads(srv.handle_line("_ slo").splitlines()[0])[
            "deadline_exceeded"] >= 1
        # deadline breaches are always recorded, even with the slow log
        # threshold disabled
        assert srv.slowlog.entries()

    def test_no_deadline_means_no_flag(self, front):
        out = front.handle_line(f"a init {front.prog}")
        assert out == "created a"

    def test_blank_line_is_not_a_request(self, front):
        # a blank line gets an empty reply and is neither counted nor
        # recorded: it must not dilute the SLO window or the slow log
        assert front.handle_line("") == ""
        assert front.handle_line("  \n") == ""
        assert front.requests == 0
        assert front.slowlog.entries() == []
        assert front.slo.report()["requests"] == 0

    def test_health_and_varz_share_their_core(self, front):
        front.handle_line(f"a init {front.prog}")
        front.handle_line("a nope")
        health = front.expo_health()
        assert health["ok"]
        assert health["requests"] == 2
        assert health["errors"] == 1
        assert health["deadline_exceeded"] == 0
        assert health["mode"] in ("single-process", "sharded")
        varz = front.expo_varz()
        assert {"health", "slo", "slow", "profiler"} <= set(varz)
        assert varz["slo"]["requests"] == 2
        assert varz["profiler"]["running"] is False

    def test_pprof_opens_a_fresh_window(self, front):
        # an idle scrape right after a busy one must not report the
        # busy window's samples again
        front.handle_line(f"a init {front.prog}")
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                front.handle_line("a apply ctp 0")
                front.handle_line("a undo 1")

        worker = threading.Thread(target=churn, daemon=True)
        worker.start()
        try:
            busy = _folded_samples(front.expo_pprof(seconds=0.3, hz=500))
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        idle = _folded_samples(front.expo_pprof(seconds=0.0))
        assert busy >= 50
        assert idle * 5 < busy
        assert front.profiler.running is False


class TestRouterForensics(TestServerForensics):
    """The same forensics contracts over a two-shard router."""
    FRONT = "router"


def _folded_samples(folded):
    """Total sample count of a collapsed-stack profile."""
    return sum(int(line.rpartition(" ")[2])
               for line in folded.splitlines())


# -- http exposition ----------------------------------------------------------

def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestExpo:
    def test_endpoints_over_a_session_server(self, server):
        assert server.handle_line(f"a init {server.prog}") == "created a"
        assert server.handle_line("a apply ctp 0").startswith("applied")
        with ExpoServer(server) as expo:
            host, port = expo.address
            base = f"http://{host}:{port}"

            status, body = _get(base + "/metrics")
            assert status == 200
            assert "repro_fleet_commands" in body

            status, body = _get(base + "/healthz")
            assert status == 200
            doc = json.loads(body)
            assert doc["ok"] and doc["mode"] == "single-process"
            assert doc["pid"] == os.getpid()

            status, body = _get(base + "/varz")
            assert status == 200
            doc = json.loads(body)
            assert {"health", "slo", "slow", "stats"} <= set(doc)

            status, body = _get(base + "/nope")
            assert status == 404

    def test_fleet_metrics_serve_every_registry_instrument(self, tmp_path):
        """After an evict and reopen on a two-shard fleet, ``/metrics``
        carries the workers' own instruments next to the fleet series."""
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        by_shard = {0: [], 1: []}
        for name in (f"s{i}" for i in range(64)):
            by_shard[shard_index(name, 2)].append(name)
        # two sessions on shard 0 to evict each other, one on shard 1
        names = by_shard[0][:2] + by_shard[1][:1]
        with ShardRouter(str(tmp_path / "fleet"), 2,
                         manager_kwargs={"max_live": 1}) as router:
            for name in names:
                assert router.handle_line(f"{name} init {prog}") == \
                    f"created {name}"
                assert router.handle_line(f"{name} apply ctp 0").startswith(
                    "applied")
            # shard 0 reopens its first session, evicting the second
            assert router.handle_line(f"{names[0]} undo 1").startswith(
                "undone")
            with ExpoServer(router) as expo:
                host, port = expo.address
                status, body = _get(f"http://{host}:{port}/metrics")
        assert status == 200
        for family in ("repro_journal_fsync_seconds",
                       "repro_session_lock_wait_seconds",
                       "repro_recovery_seconds", "repro_command_seconds",
                       "repro_fleet_commands", "repro_fleet_shards",
                       "repro_fleet_command_seconds"):
            assert f"# TYPE {family} " in body, family
        assert "repro_fleet_commands 4.0" in body
        assert "repro_fleet_reopens_total 1.0" in body

    def test_unhealthy_front_answers_503(self):
        class Front:
            def expo_health(self):
                return {"ok": False, "reason": "worker down"}

        with ExpoServer(Front()) as expo:
            host, port = expo.address
            status, body = _get(f"http://{host}:{port}/healthz")
            assert status == 503
            assert json.loads(body)["reason"] == "worker down"

    def test_broken_metrics_doc_answers_500_not_crash(self):
        class Front:
            def expo_metrics_doc(self):
                raise RuntimeError("shard 1 unreachable")

            def expo_health(self):
                return {"ok": True}

        with ExpoServer(Front()) as expo:
            host, port = expo.address
            status, body = _get(f"http://{host}:{port}/metrics")
            assert status == 500
            assert "shard 1 unreachable" in body
            # the sidecar survives the failed scrape
            status, _body = _get(f"http://{host}:{port}/healthz")
            assert status == 200

    def test_close_is_idempotent(self):
        class Front:
            pass

        expo = ExpoServer(Front()).start()
        expo.close()
        expo.close()


# -- fleet collection over a real router --------------------------------------

class TestFleetCollection:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        """A two-shard router driven through a scripted conversation."""
        root = tmp_path_factory.mktemp("fleet")
        prog = root / "prog.loop"
        prog.write_text(SRC)
        requests = {}
        with ShardRouter(str(root), 2, slow_ms=0.0) as router:
            for name in ("alpha", "beta"):
                with request_context() as ctx:
                    assert router.handle_line(f"{name} init {prog}") == \
                        f"created {name}"
                with request_context() as ctx:
                    out = router.handle_line(f"{name} apply ctp 0")
                    assert out.startswith("applied"), out
                    requests[f"apply-{name}"] = ctx["request"]
                with request_context() as ctx:
                    assert router.handle_line(f"{name} undo 1").startswith(
                        "undone")
                    requests[f"undo-{name}"] = ctx["request"]
            with request_context() as ctx:
                out = router.handle_line("missing apply ctp 0")
                assert out.startswith("error: session:"), out
                requests["failed"] = ctx["request"]
            slow = json.loads(router.handle_line("_ slow"))
        return str(root), requests, slow

    def test_trace_files_cover_router_and_sessions(self, fleet):
        root, _requests, _slow = fleet
        files = dict(fleet_trace_files(root))
        assert ORIGIN_ROUTER in files
        assert files[ORIGIN_ROUTER] == router_trace_path(root)
        shard_a = f"shard-{shard_index('alpha', 2):02d}/alpha"
        assert shard_a in files

    def test_collector_joins_edge_and_worker_spans(self, fleet):
        root, requests, _slow = fleet
        traces = collect_requests(root)
        trace = traces[requests["apply-alpha"]]
        assert isinstance(trace, RequestTrace)
        edge = trace.edge
        assert edge["tags"]["verb"] == "apply"
        assert edge["tags"]["kind"] == "session"
        # the worker's span tree follows the edge, nested deeper
        worker = [s for s in trace.spans if s["origin"] != ORIGIN_ROUTER]
        assert worker, trace.spans
        command = next(s for s in worker if s["name"] == "command")
        assert command["tags"]["request"] == requests["apply-alpha"]
        assert isinstance(command["tags"]["seq"], int)
        assert command["depth"] > edge["depth"]
        children = [s for s in worker if s.get("parent") == command["id"]]
        assert any(s["name"] == "journal.append" for s in children)

    def test_failed_request_has_edge_but_no_command_span(self, fleet):
        root, requests, _slow = fleet
        trace = collect_requests(root)[requests["failed"]]
        assert trace.edge["status"] == "failed"
        assert not [s for s in trace.spans if s["name"] == "command"]

    def test_render_is_an_indented_tree(self, fleet):
        root, requests, _slow = fleet
        text = collect_requests(root)[requests["apply-alpha"]].render()
        assert text.splitlines()[0].startswith(requests["apply-alpha"])
        assert "route" in text and "command" in text

    def test_fleet_roundtrip_holds(self, fleet):
        root, requests, _slow = fleet
        report = fleet_roundtrip(root)
        assert report.ok, report.describe()
        assert report.checked >= len(requests)
        assert report.command_spans == 4  # apply+undo on two sessions

    def test_fleet_roundtrip_catches_an_orphan_request(self, fleet):
        root, _requests, _slow = fleet
        shard = f"shard-{shard_index('alpha', 2):02d}"
        trace_file = os.path.join(root, shard, "alpha", "trace.jsonl")
        forged = {"name": "command", "id": 99999, "parent": None,
                  "start": 0.0, "dur": 0.0, "status": "ok",
                  "tags": {"request": "r-000000000000", "op": "apply"}}
        with open(trace_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(forged) + "\n")
        try:
            report = fleet_roundtrip(root)
            assert not report.ok
            assert any("r-000000000000" in p for p in report.problems)
        finally:
            # surgically remove the forged line for the other tests
            with open(trace_file, "r", encoding="utf-8") as fh:
                lines = [ln for ln in fh if "99999" not in ln]
            with open(trace_file, "w", encoding="utf-8") as fh:
                fh.writelines(lines)

    def test_merged_slow_log_spans_router_and_shards(self, fleet):
        _root, requests, slow = fleet
        layers = {e["layer"] for e in slow}
        assert "router" in layers
        assert any(layer.startswith("shard-") for layer in layers)
        by_request = [e for e in slow
                      if e.get("request") == requests["apply-alpha"]]
        # the same request appears from both vantage points
        assert {e["layer"] for e in by_request} >= {"router"}
        router_entry = next(e for e in by_request
                            if e["layer"] == "router")
        worker_entries = [e for e in slow
                          if e.get("request") == requests["apply-alpha"]
                          and e["layer"].startswith("shard-")]
        assert worker_entries
        # the router sees the end-to-end time, including the pipe hop
        assert router_entry["dur_ms"] >= worker_entries[0]["dur_ms"]

    def test_router_health_doc(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        with ShardRouter(str(tmp_path), 2) as router:
            assert router.handle_line(f"a init {prog}") == "created a"
            assert router.handle_line("a apply ctp 0").startswith("applied")
            health = router.expo_health()
            assert health["ok"] and health["mode"] == "sharded"
            assert len(health["workers"]) == 2
            assert health["journal"]["lag"] == 0
            varz = router.expo_varz()
            assert varz["health"]["ok"]
            assert varz["metrics"]["totals"]["commands"] >= 1


# -- fleet profiling -----------------------------------------------------------

class TestFleetProfiling:
    def _churn(self, router, prog, seconds):
        """Init two sessions and drive apply/undo traffic for a window."""
        for name in ("alpha", "beta"):
            assert router.handle_line(f"{name} init {prog}") == \
                f"created {name}"
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            for name in ("alpha", "beta"):
                router.handle_line(f"{name} apply ctp 0")
                router.handle_line(f"{name} undo 1")

    def test_prof_fans_out_and_merges_across_shards(self, tmp_path):
        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        with ShardRouter(str(tmp_path), 2, slow_ms=None) as router:
            out = router.handle_line("_ prof start 500")
            assert out == "profiling 2 shard(s) at 500 hz"
            self._churn(router, prog, 0.4)
            dump = router.handle_line("_ prof dump")
            assert dump and dump != "(no samples)"
            assert not dump.startswith("error:")
            for line in dump.splitlines():
                stack, _, count = line.rpartition(" ")
                assert stack and int(count) >= 1
            stopped = json.loads(router.handle_line("_ prof stop"))
            assert stopped["shards"] == 2
            # router + worker samplers together saw the window
            assert stopped["samples"] > 0
            # varz mirrors the router-side profiler state
            assert router.expo_varz()["profiler"]["running"] is False

    def test_prof_errors_propagate(self, tmp_path):
        with ShardRouter(str(tmp_path), 2) as router:
            out = router.handle_line("_ prof frobnicate")
            assert out.startswith("error:") and "bad-request" in out

    def test_pprof_over_http_samples_the_fleet(self, tmp_path):
        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        with ShardRouter(str(tmp_path), 2, slow_ms=None) as router:
            stop = threading.Event()

            def churn():
                for name in ("alpha", "beta"):
                    router.handle_line(f"{name} init {prog}")
                while not stop.is_set():
                    for name in ("alpha", "beta"):
                        router.handle_line(f"{name} apply ctp 0")
                        router.handle_line(f"{name} undo 1")

            worker = threading.Thread(target=churn, daemon=True)
            worker.start()
            try:
                with ExpoServer(router) as expo:
                    host, port = expo.address
                    status, body = _get(
                        f"http://{host}:{port}/pprof?seconds=0.4&hz=500")
                    assert status == 200
                    assert body.strip()
                    for line in body.strip().splitlines():
                        stack, _, count = line.rpartition(" ")
                        assert stack and int(count) >= 1
            finally:
                stop.set()
                worker.join(timeout=10)
            # the on-demand window was closed after the scrape
            assert router.profiler.running is False


# -- tcp hardening ------------------------------------------------------------

class TestNetHardening:
    @pytest.fixture()
    def served(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(SRC)
        net = NetServer(SessionServer(SessionManager(
            str(tmp_path), metrics=MetricsRegistry())))
        net.serve_in_thread()
        yield net, str(prog)
        net.shutdown()

    def _raw(self, net):
        host, port = net.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        return sock

    def _reply(self, fh):
        lines = []
        for line in fh:
            if line.rstrip("\n") == ".":
                return "\n".join(lines)
            lines.append(line.rstrip("\n"))
        raise ConnectionError("connection closed mid-reply")

    def test_oversized_line_is_rejected_connection_survives(self, served):
        net, prog = served
        before = REGISTRY.total("repro_net_bad_lines_total")
        sock = self._raw(net)
        fh = sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            sock.sendall(b"a init " + b"x" * (MAX_LINE_BYTES + 100)
                         + b"\n")
            out = self._reply(fh)
            assert out.startswith("error: bad-request:"), out
            assert str(MAX_LINE_BYTES) in out
            # the same connection still serves real requests
            sock.sendall(f"a init {prog}\n".encode("utf-8"))
            assert self._reply(fh) == "created a"
        finally:
            sock.close()
        assert net.bad_lines == 1
        assert REGISTRY.total("repro_net_bad_lines_total") == before + 1

    def test_invalid_utf8_is_rejected_connection_survives(self, served):
        net, prog = served
        sock = self._raw(net)
        fh = sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            sock.sendall(b"a init \xff\xfe\n")
            out = self._reply(fh)
            assert out.startswith("error: bad-request:"), out
            assert "utf-8" in out
            sock.sendall(f"a init {prog}\n".encode("utf-8"))
            assert self._reply(fh) == "created a"
        finally:
            sock.close()
        assert net.bad_lines == 1

    def test_exactly_max_line_is_served(self, served):
        net, _prog = served
        sock = self._raw(net)
        fh = sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            # a full-length line that is a *valid* (if pointless) request
            pad = b"x" * (MAX_LINE_BYTES - len("a opps \n"))
            sock.sendall(b"a opps " + pad + b"\n")
            out = self._reply(fh)
            # dispatched (and failed on the unknown session), not dropped
            assert "bad-request" not in out
        finally:
            sock.close()
        assert net.bad_lines == 0
