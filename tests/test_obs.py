"""Unit tests for repro.obs: spans, the flight recorder, and metrics."""

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    merge_histogram_docs,
)
from repro.obs.trace import FlightRecorder, Tracer, _NOOP_SPAN, read_trace


class TestSpans:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sib:
                assert sib.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [s.name for s in tracer.recorder.spans()]
        assert names == ["inner", "sibling", "outer"]  # completion order

    def test_duration_and_status(self):
        tracer = Tracer()
        with tracer.span("ok_span"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("bad_span"):
                raise ValueError("boom")
        ok, bad = tracer.recorder.spans()
        assert ok.status == "ok" and ok.duration >= 0
        assert bad.status == "error"

    def test_explicit_status_survives_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("cmd") as sp:
                sp.tag(status="failed")
                raise RuntimeError("declared failure")
        (span,) = tracer.recorder.spans()
        assert span.status == "failed"

    def test_annotate_tags_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(seq=7)
        inner, outer = tracer.recorder.spans()
        assert inner.tags["seq"] == 7
        assert "seq" not in outer.tags

    def test_common_tags_stamped_on_every_span(self):
        tracer = Tracer(session="alpha")
        with tracer.span("a"):
            pass
        with tracer.span("b", extra=1):
            pass
        a, b = tracer.recorder.spans()
        assert a.tags["session"] == "alpha"
        assert b.tags["session"] == "alpha" and b.tags["extra"] == 1

    def test_to_doc_roundtrips_through_json(self):
        tracer = Tracer()
        with tracer.span("cmd", op="apply") as sp:
            sp.tag(stamp=3)
        doc = json.loads(json.dumps(tracer.recorder.spans()[0].to_doc()))
        assert doc["name"] == "cmd" and doc["parent"] is None
        assert doc["tags"] == {"op": "apply", "stamp": 3}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker(label):
            with tracer.span(label) as sp:
                seen[label] = sp.parent_id

        with tracer.span("main_thread"):
            t = threading.Thread(target=worker, args=("other",))
            t.start()
            t.join()
        # the other thread's span must NOT nest under this thread's
        assert seen["other"] is None

    def test_two_tracers_nested_on_one_thread_keep_separate_trees(self):
        a, b = Tracer(), Tracer()
        with a.span("a_outer") as a_outer:
            with a.span("a_inner") as a_inner:
                with b.span("b_span") as b_span:
                    assert b_span.parent_id is None
                    assert a.current() is a_inner
                    assert b.current() is b_span
                    a.annotate(seq=3)
                    b.annotate(origin="b")
                assert b.current() is None
            assert a_inner.parent_id == a_outer.span_id
        assert a_inner.tags["seq"] == 3 and "seq" not in b_span.tags
        assert b_span.tags["origin"] == "b"
        assert "origin" not in a_inner.tags
        assert a.current() is None and b.current() is None

    def test_disabled_tracer_is_free_and_silent(self):
        d = Tracer.disabled
        span = d.span("anything", op="x")
        assert span is _NOOP_SPAN  # shared, preallocated
        with span as sp:
            sp.tag(status="failed")  # all no-ops
        assert d.recorder.completed == 0
        assert d.current() is None
        d.annotate(seq=1)  # must not raise

    def test_unbalanced_exit_recovers_the_stack(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # exit outer first: the stack drops through to outer cleanly
        outer.__exit__(None, None, None)
        assert tracer.current() is None
        with tracer.span("fresh") as sp:
            assert sp.parent_id is None


class TestFlightRecorder:
    def test_ring_drops_oldest(self):
        rec = FlightRecorder(capacity=3)
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.recorder.spans()]
        assert names == ["s2", "s3", "s4"]
        assert tracer.recorder.completed == 5
        assert tracer.recorder.dropped == 2
        assert rec.capacity == 3

    def test_tail_and_clear(self):
        tracer = Tracer()
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.recorder.spans(tail=2)] == ["s2", "s3"]
        tracer.recorder.clear()
        assert tracer.recorder.spans() == []
        assert tracer.recorder.completed == 4  # counters keep accumulating

    def test_clear_drops_nothing(self):
        tracer = Tracer(capacity=3)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.recorder.dropped == 1
        tracer.recorder.clear()
        assert tracer.recorder.dropped == 1
        assert tracer.recorder.completed == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSinks:
    def test_sink_sees_completed_spans(self):
        tracer = Tracer()
        got = []
        tracer.sinks.append(lambda s: got.append(s.name))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert got == ["inner", "outer"]

    def test_raising_sink_is_isolated_and_counted(self):
        tracer = Tracer()
        got = []
        tracer.sinks.append(lambda s: 1 / 0)
        tracer.sinks.append(lambda s: got.append(s.name))
        with tracer.span("cmd"):
            pass
        assert got == ["cmd"]  # later sinks still ran
        assert tracer.sink_errors == 1
        assert tracer.recorder.completed == 1


class TestReadTrace:
    def test_skips_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"name": "cmd", "id": 1, "parent": None,
                           "start": 0.0, "dur": 0.1, "status": "ok",
                           "tags": {}})
        path.write_text(good + "\n{\"name\": \"torn\n" + "not json\n")
        docs = read_trace(str(path))
        assert len(docs) == 1 and docs[0]["name"] == "cmd"

    def test_missing_file_is_empty(self, tmp_path):
        assert read_trace(str(tmp_path / "absent.jsonl")) == []


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("g")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value == 4

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4 and h.sum == pytest.approx(5.6)
        # half the samples fit in the first bucket: p50 is its bound
        assert h.quantile(0.5) == pytest.approx(0.1)
        # p90 interpolates inside the (1.0, 10.0] bucket
        assert 1.0 < h.quantile(0.9) < 10.0
        # everything fits under the largest bound
        assert h.quantile(1.0) <= 10.0

    def test_histogram_overflow_credits_largest_bound(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        h.observe(50.0)
        assert h.quantile(0.5) == 1.0  # honest underestimate

    def test_empty_histogram_quantile_is_zero(self):
        h = Histogram("h")
        assert h.quantile(0.95) == 0.0
        with pytest.raises(MetricsError):
            h.quantile(1.5)

    def test_histogram_needs_buckets(self):
        with pytest.raises(MetricsError):
            Histogram("h", buckets=())

    def test_sample_shape(self):
        h = Histogram("h")
        h.observe(0.003)
        doc = h.sample()
        assert doc["count"] == 1
        assert len(doc["buckets"]) == len(DEFAULT_BUCKETS)
        assert doc["p50"] > 0


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "help", op="apply")
        b = reg.counter("repro_x_total", op="apply")
        c = reg.counter("repro_x_total", op="undo")
        assert a is b and a is not c
        a.inc(2)
        c.inc()
        assert reg.value("repro_x_total", op="apply") == 2
        assert reg.total("repro_x_total") == 3

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(MetricsError):
            reg.gauge("repro_thing")
        with pytest.raises(MetricsError):
            reg.histogram("repro_thing", x="y")

    def test_render_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("repro_ops_total", "ops so far", op="apply").inc(3)
        reg.histogram("repro_lat_seconds", "latency",
                      buckets=(0.1, 1.0)).observe(0.5)
        text = reg.render()
        assert '# HELP repro_ops_total ops so far' in text
        assert '# TYPE repro_ops_total counter' in text
        assert 'repro_ops_total{op="apply"} 3.0' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_lat_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_lat_seconds_count 1' in text

    def test_to_doc_is_json_safe(self):
        reg = MetricsRegistry()
        reg.gauge("repro_live", "live now").set(2)
        reg.histogram("repro_s").observe(0.01)
        doc = json.loads(json.dumps(reg.to_doc()))
        assert doc["repro_live"]["kind"] == "gauge"
        assert doc["repro_s"]["samples"][0]["count"] == 1

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("repro_n").inc()
        reg.reset()
        assert reg.value("repro_n") is None
        assert reg.render() == ""


class TestExpositionEdgeCases:
    """The Prometheus text format's sharp corners."""

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_q_total", cond='says "no"').inc()
        reg.counter("repro_b_total", path="a\\b").inc()
        reg.counter("repro_n_total", msg="two\nlines").inc()
        text = reg.render()
        assert 'cond="says \\"no\\""' in text
        assert 'path="a\\\\b"' in text
        assert 'msg="two\\nlines"' in text
        # one sample per line even with an embedded newline in the value
        samples = [ln for ln in text.splitlines()
                   if not ln.startswith("#")]
        assert len(samples) == 3

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_h_total", "first\nsecond \\ third").inc()
        text = reg.render()
        assert "# HELP repro_h_total first\\nsecond \\\\ third" in text
        assert text.count("# HELP") == 1

    def test_escaping_leaves_doc_form_raw(self):
        reg = MetricsRegistry()
        reg.counter("repro_q_total", cond='a"b\nc').inc()
        doc = json.loads(json.dumps(reg.to_doc()))
        assert doc["repro_q_total"]["samples"][0]["labels"]["cond"] == \
            'a"b\nc'

    def test_empty_histogram_renders_zero_buckets(self):
        reg = MetricsRegistry()
        reg.histogram("repro_idle_seconds", "never observed",
                      buckets=(0.1, 1.0))
        text = reg.render()
        assert 'repro_idle_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_idle_seconds_bucket{le="+Inf"} 0' in text
        assert "repro_idle_seconds_sum 0.0" in text
        assert "repro_idle_seconds_count 0" in text
        sample = reg.histogram("repro_idle_seconds",
                               buckets=(0.1, 1.0)).sample()
        assert sample["count"] == 0 and sample["p50"] == 0.0

    def test_label_set_ordering_is_stable(self):
        """Key order at the call site must not change identity or text."""
        reg = MetricsRegistry()
        a = reg.counter("repro_s_total", op="apply", status="ok")
        b = reg.counter("repro_s_total", status="ok", op="apply")
        assert a is b
        a.inc()
        text = reg.render()
        assert 'repro_s_total{op="apply",status="ok"} 1.0' in text
        doc = reg.to_doc()
        assert doc["repro_s_total"]["samples"][0]["labels"] == \
            {"op": "apply", "status": "ok"}

    def test_samples_sorted_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("repro_m_total", op="undo").inc()
        reg.counter("repro_m_total", op="apply").inc()
        lines = [ln for ln in reg.render().splitlines()
                 if ln.startswith("repro_m_total{")]
        assert lines == sorted(lines)
        # to_doc walks the same sorted order
        ops = [s["labels"]["op"]
               for s in reg.to_doc()["repro_m_total"]["samples"]]
        assert ops == ["apply", "undo"]


class TestExemplars:
    """OpenMetrics-style exemplars: the slowest request id per bucket."""

    def test_slowest_observation_wins_its_bucket(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        h.observe(0.02, exemplar="r-aaa")
        h.observe(0.07, exemplar="r-bbb")   # slower, same bucket: wins
        h.observe(0.04, exemplar="r-ccc")   # faster: ignored
        h.observe(0.5)                      # no exemplar: bucket stays bare
        assert h.exemplars[0] == {"request": "r-bbb", "value": 0.07}
        assert h.exemplars[1] is None
        # overflow lands on the +Inf slot
        h.observe(9.0, exemplar="r-inf")
        assert h.exemplars[-1] == {"request": "r-inf", "value": 9.0}

    def test_render_appends_the_exemplar_suffix(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_x_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.05, exemplar="r-deadbeef")
        text = reg.render()
        line = next(ln for ln in text.splitlines()
                    if 'le="0.1"' in ln)
        assert line.endswith('# {request="r-deadbeef"} 0.05')
        # buckets without an exemplar render exactly as before
        bare = next(ln for ln in text.splitlines() if 'le="1.0"' in ln)
        assert "#" not in bare.split("le=")[1]

    def test_exemplar_label_values_are_escaped(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(0.5, exemplar='we"ird\\id\n')
        suffix = MetricsRegistry._exemplar_str(h.exemplars[0])
        assert '\\"' in suffix and "\\\\" in suffix and "\\n" in suffix

    def test_sample_round_trips_and_stays_backcompat(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        h.observe(0.05)
        doc = h.sample()
        assert "exemplars" not in doc  # no exemplars -> legacy shape
        h.observe(0.5, exemplar="r-123")
        doc = h.sample()
        assert doc["exemplars"][1] == {"request": "r-123", "value": 0.5}
        assert json.loads(json.dumps(doc)) == doc  # JSON-safe

    def test_merge_keeps_the_slowest_exemplar_per_bucket(self):
        a = Histogram("h", buckets=(0.1, 1.0))
        b = Histogram("h", buckets=(0.1, 1.0))
        a.observe(0.03, exemplar="r-a")
        b.observe(0.06, exemplar="r-b")
        merged = merge_histogram_docs([a.sample(), b.sample()])
        assert merged["exemplars"][0] == {"request": "r-b", "value": 0.06}
        assert merged["count"] == 2

    def test_merge_tolerates_docs_without_exemplars(self):
        a = Histogram("h", buckets=(0.1, 1.0))
        b = Histogram("h", buckets=(0.1, 1.0))
        a.observe(0.03, exemplar="r-a")
        b.observe(0.06)  # plain doc, no exemplars key
        merged = merge_histogram_docs([a.sample(), b.sample()])
        assert merged["exemplars"][0] == {"request": "r-a", "value": 0.03}
        legacy = merge_histogram_docs([b.sample(), b.sample()])
        assert "exemplars" not in legacy
