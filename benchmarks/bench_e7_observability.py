"""E7 — observability overhead: tracing the E1 apply/undo loop.

The telemetry layer (``repro.obs``) promises two things:

* **Zero-cost when off** — ``Tracer.disabled`` short-circuits
  ``tracer.span(...)`` to one shared no-op context manager: no Span
  object, no ``perf_counter`` read, no stack touch.  Engines default to
  it, so an untraced engine pays one attribute load and one ``if`` per
  command.
* **Cheap when on** — a full flight recorder (and even a JSONL span
  sink) must stay under 5% end-to-end on a real workload, because the
  analysis work inside a command dwarfs the two clock reads and one
  ring-buffer append around it.

This benchmark measures both against the E1 workload — greedily apply
``N`` transformations to a generated program, then undo every one.
Run-to-run variance on a shared machine is far larger than the true
tracing cost (the loop varies by several percent between *identical*
runs), so the 5% budget is checked two ways:

* **derived** — per-span cost measured in isolation (tight loop, the
  exact ``span``/``tag`` sequence the engine runs) times the spans per
  cycle, over the loop's median wall time.  Deterministic, and an
  honest upper bound: tracing IS that per-span machinery; every other
  instruction is identical between the configurations.  This is the
  asserted number.
* **end-to-end** — paired rounds timing every configuration
  back-to-back (after a warmup, GC paused; in full mode each sample
  reruns the loop ``LOOPS`` times), reporting the median of the
  per-round ratios.  Noisy at the ±5% level, so it only backs a
  loose regression bound; the table reports it for honesty.

Each configuration gets a private ``MetricsRegistry`` so metric
counting (always on) costs all three configurations equally and the
deltas isolate *tracing*.
"""

import gc
import io
import json
import statistics
import time

from repro.bench.reporting import BenchReport, banner, ms, quick
from repro.core.engine import TransformationEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, request_context
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

REPORT = BenchReport("bench_e7_observability")

SEED = 11
N = 8 if quick() else 24
ROUNDS = 3 if quick() else 7
#: ``run_loop`` calls per timed sample, the same for every
#: configuration: in full mode a sample lasts ~0.25 s or more, so host
#: noise is small against it (one loop is ~50-80 ms).
LOOPS = 1 if quick() else 6
#: the documented overhead budget for tracing ON (recorder, no sink).
BUDGET_PCT = 5.0


def run_loop(tracer=None):
    """One E1-style cycle: apply N transformations, undo them all."""
    blocks = max(2, (N + 1) // 2)
    program = generate_program(SEED, GeneratorConfig(blocks=blocks, trip=8))
    engine = TransformationEngine(program, tracer=tracer,
                                  metrics=MetricsRegistry())
    applied = apply_greedy(engine, N, seed=SEED + 1)
    for stamp in reversed(applied):
        if engine.history.by_stamp(stamp).active:
            engine.undo(stamp)
    return engine, len(applied)


def paired_times(configs):
    """Per-config wall times of one loop over ROUNDS paired rounds.

    Every round times each configuration once, back-to-back with GC
    paused, so machine drift lands on all of them equally; callers
    compare per-round ratios, where that drift cancels.  A sample runs
    the loop LOOPS times and records the mean per loop.
    """
    times = {label: [] for label, _ in configs}
    run_loop(None)  # warmup: caches, imports, allocator
    for _ in range(ROUNDS):
        for label, make_tracer in configs:
            tracer = make_tracer()
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                for _ in range(LOOPS):
                    run_loop(tracer)
                times[label].append(
                    (time.perf_counter() - started) / LOOPS)
            finally:
                gc.enable()
    return times


def median_ratio(times, label, base="disabled"):
    """Median per-round ratio of ``label``'s time to the baseline's."""
    return statistics.median(
        t / b for t, b in zip(times[label], times[base]))


def span_cost(tracer, reps=20000):
    """Measured seconds per span: the exact open/tag/close sequence
    ``engine.execute`` wraps around every command."""
    started = time.perf_counter()
    for _ in range(reps):
        with tracer.span("command", op="apply") as sp:
            sp.tag(stamp=1, status="ok")
    return (time.perf_counter() - started) / reps


def jsonl_tracer():
    """An enabled tracer streaming every span to an in-memory JSONL sink
    (the same serialization work the durable session's trace.jsonl
    sink does, minus the disk)."""
    tracer = Tracer()
    buf = io.StringIO()
    tracer.sinks.append(
        lambda span: buf.write(json.dumps(span.to_doc()) + "\n"))
    return tracer


def test_e7_tracing_overhead():
    banner(f"E7 — tracing overhead on the E1 apply/undo loop "
           f"(N={N}, median over {ROUNDS} paired rounds)")
    times = paired_times([("disabled", lambda: None),
                          ("traced", Tracer),
                          ("sink", jsonl_tracer)])
    engine, _ = run_loop(None)
    commands = int(engine.metrics.total("repro_commands_total"))

    base_s = statistics.median(times["disabled"])

    def derived_pct(cost_per_span):
        return cost_per_span * commands / base_s * 100.0

    costs = {"disabled": span_cost(Tracer.disabled),
             "traced": span_cost(Tracer()),
             "sink": span_cost(jsonl_tracer())}

    t = REPORT.table(["configuration", "median wall time", "per span",
                      "derived overhead %", "end-to-end ratio"],
                     "E7 — tracing overhead (lower is better)")
    for label, title in [("disabled", "Tracer.disabled (default)"),
                         ("traced", "flight recorder"),
                         ("sink", "recorder + JSONL sink")]:
        t.add(title, ms(statistics.median(times[label])),
              f"{costs[label] * 1e6:.2f}us",
              round(derived_pct(costs[label] - costs["disabled"]), 3),
              f"{median_ratio(times, label):.3f}x")
    t.show()
    print(f"\n{commands} command(s) per cycle; tracing budget "
          f"{BUDGET_PCT:.0f}% (asserted on the derived column — the "
          f"end-to-end ratio carries machine noise at the same scale)")

    REPORT.value("commands_per_cycle", commands)
    REPORT.value("tracing_overhead_pct",
                 round(derived_pct(costs["traced"] - costs["disabled"]), 3))
    REPORT.value("sink_overhead_pct",
                 round(derived_pct(costs["sink"] - costs["disabled"]), 3))
    REPORT.value("end_to_end_ratio_traced",
                 round(median_ratio(times, "traced"), 3))
    REPORT.value("end_to_end_ratio_sink",
                 round(median_ratio(times, "sink"), 3))

    assert derived_pct(costs["traced"] - costs["disabled"]) < BUDGET_PCT, (
        f"flight-recorder tracing costs "
        f"{derived_pct(costs['traced'] - costs['disabled']):.2f}% "
        f"(budget {BUDGET_PCT}%)")
    # the sink adds JSON serialization per span; hold it to a looser
    # bound so the benchmark still flags a pathological regression
    assert derived_pct(costs["sink"] - costs["disabled"]) < 4 * BUDGET_PCT
    # end-to-end backstop: tracing must never show up as a gross,
    # unmistakable slowdown.  Quick mode's loops are milliseconds, so a
    # single scheduler hiccup lands whole-digit percentages on one
    # configuration; give the backstop the headroom to match.
    e2e_bound = 1.5 if quick() else 1.25
    assert median_ratio(times, "traced") < e2e_bound
    assert median_ratio(times, "sink") < e2e_bound


def ctx_span_cost(tracer, reps=20000):
    """Per-request cost of the fleet path: enter a request context, run
    the engine's span sequence under it (which now also looks up and
    stamps the ``request`` tag)."""
    started = time.perf_counter()
    for _ in range(reps):
        with request_context():
            with tracer.span("command", op="apply") as sp:
                sp.tag(stamp=1, status="ok")
    return (time.perf_counter() - started) / reps


def test_e7_request_context_overhead():
    """Trace-context propagation rides the existing 5% tracing budget.

    The fleet join key costs three things per request: minting the id
    (``os.urandom``), the thread-local enter/exit, and one dict lookup
    plus one store per span.  Measured exactly like the base tracing
    cost — per-operation microcost times operations per cycle over the
    cycle's wall time — and asserted against the same budget, because
    the edge enters a context around every request whether or not
    anything downstream reads it.
    """
    banner(f"E7 — request-context propagation overhead (N={N})")
    times = paired_times([("disabled", lambda: None)])
    engine, _ = run_loop(None)
    commands = int(engine.metrics.total("repro_commands_total"))
    base_s = statistics.median(times["disabled"])

    plain = span_cost(Tracer())
    with_ctx = ctx_span_cost(Tracer())
    added = max(0.0, with_ctx - plain)
    derived = added * commands / base_s * 100.0

    t = REPORT.table(["path", "per request", "derived overhead %"],
                     "E7 — request-context propagation (lower is better)")
    t.add("span only", f"{plain * 1e6:.2f}us", 0.0)
    t.add("request_context + stamped span", f"{with_ctx * 1e6:.2f}us",
          round(derived, 3))
    t.show()

    REPORT.value("request_ctx_us_per_request", round(with_ctx * 1e6, 3))
    REPORT.value("request_ctx_overhead_pct", round(derived, 3))
    assert derived < BUDGET_PCT, (
        f"request-context propagation costs {derived:.2f}% "
        f"(budget {BUDGET_PCT}%)")


def test_e7_collector_merge_cost():
    """Fleet trace collection stays linear and cheap per request.

    The collector runs *offline* (an operator command, the CI smoke) so
    it has no hot-path budget, but a regression to quadratic grouping
    would make ``repro collect`` useless on a real root — pin an
    order-of-magnitude bound per request instead.
    """
    import os
    import tempfile

    from repro.obs.collector import collect_requests

    requests = 200 if quick() else 1000
    root = tempfile.mkdtemp(prefix="bench_collect_")
    os.makedirs(os.path.join(root, "shard-00", "sess"), exist_ok=True)
    with open(os.path.join(root, "router-trace.jsonl"), "w") as router_fh, \
            open(os.path.join(root, "shard-00", "sess", "trace.jsonl"),
                 "w") as worker_fh:
        for k in range(requests):
            rid = f"r-{k:012x}"
            router_fh.write(json.dumps(
                {"name": "route", "id": k + 1, "parent": None,
                 "start": float(k), "dur": 0.001, "status": "ok",
                 "tags": {"request": rid, "kind": "session",
                          "verb": "apply", "shard": 0}}) + "\n")
            for j, (name, parent) in enumerate(
                    [("command", None), ("journal.append", 1)]):
                worker_fh.write(json.dumps(
                    {"name": name, "id": 2 * k + j + 1,
                     "parent": 2 * k + parent if parent else None,
                     "start": float(k) + j * 0.1, "dur": 0.0005,
                     "status": "ok",
                     "tags": {"request": rid, "seq": k + 1}}) + "\n")

    started = time.perf_counter()
    traces = collect_requests(root)
    elapsed = time.perf_counter() - started
    per_request_us = elapsed / requests * 1e6

    banner(f"E7 — collector merge: {requests} request(s), "
           f"{3 * requests} span(s)")
    t = REPORT.table(["requests", "spans", "total", "per request"],
                     "E7 — fleet trace collection (offline path)")
    t.add(requests, 3 * requests, ms(elapsed),
          f"{per_request_us:.1f}us")
    t.show()

    REPORT.value("collector_requests", requests)
    REPORT.value("collector_us_per_request", round(per_request_us, 3))
    assert len(traces) == requests
    assert all(len(tr.spans) == 3 for tr in traces.values())
    # offline-tool bound: far above any observed cost, low enough to
    # catch an accidental quadratic join
    assert per_request_us < 1000, (
        f"collector costs {per_request_us:.0f}us/request")


def test_e7_profiler_overhead():
    """100 hz sampling rides the same 5% observability budget.

    A sampling profiler's cost model is not per-operation but per-tick:
    the sampler thread steals the GIL once per period to walk every
    live thread's stack.  The derived overhead is therefore the
    measured cost of one full sampling tick times the tick rate — the
    fraction of every wall-clock second spent sampling — asserted
    against the tracing budget.  The paired end-to-end ratio is
    reported for honesty, with the same caveat as tracing: machine
    noise at the ±5% level.
    """
    from repro.obs.profiler import Profiler

    banner(f"E7 — sampling-profiler overhead at 100 hz (N={N})")
    hz = 100.0
    prof = Profiler(hz=hz)
    reps = 500 if quick() else 2000
    started = time.perf_counter()
    for _ in range(reps):
        # own=0 matches no real thread id, so the tick walks every
        # live thread including this one — the full per-tick cost
        prof._sample_once(0)
    per_tick = (time.perf_counter() - started) / reps
    derived = per_tick * hz * 100.0  # fraction of each second, as %

    times = {"off": [], "on": []}
    run_loop(None)  # warmup
    for _ in range(ROUNDS):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            run_loop(None)
            times["off"].append(time.perf_counter() - t0)
        finally:
            gc.enable()
        live = Profiler(hz=hz)
        live.start()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            run_loop(None)
            times["on"].append(time.perf_counter() - t0)
        finally:
            gc.enable()
            live.stop()
    ratio = statistics.median(
        t / b for t, b in zip(times["on"], times["off"]))

    t = REPORT.table(["path", "per tick", "derived overhead %",
                      "end-to-end ratio"],
                     "E7 — sampling profiler at 100 hz (lower is better)")
    t.add("sampler off", "-", 0.0, "1.000x")
    t.add("sampler on", f"{per_tick * 1e6:.2f}us", round(derived, 3),
          f"{ratio:.3f}x")
    t.show()

    REPORT.value("profiler_us_per_tick", round(per_tick * 1e6, 3))
    REPORT.value("profiler_overhead_pct", round(derived, 3))
    REPORT.value("profiler_end_to_end_ratio", round(ratio, 3))
    assert prof.samples > 0  # the measured ticks really sampled stacks
    assert derived < BUDGET_PCT, (
        f"100 hz sampling costs {derived:.2f}% (budget {BUDGET_PCT}%)")


def test_e7_analytics_cost():
    """Decision analytics stays a sub-budget per-command observer.

    ``DecisionAnalytics.observe`` walks each command's provenance doc
    and bumps counters — work proportional to the cascade, not the
    program — so its derived overhead (measured microcost per observed
    command times commands per cycle over the cycle's wall time) must
    ride the same budget as tracing: it runs on every command of every
    engine a SessionManager serves.
    """
    from repro.obs.analytics import DecisionAnalytics

    banner(f"E7 — decision-analytics observer cost (N={N})")
    blocks = max(2, (N + 1) // 2)
    program = generate_program(SEED, GeneratorConfig(blocks=blocks, trip=8))
    engine = TransformationEngine(program, metrics=MetricsRegistry())
    captured = []
    engine.command_observers.append(captured.append)
    applied = apply_greedy(engine, N, seed=SEED + 1)
    for stamp in reversed(applied):
        if engine.history.by_stamp(stamp).active:
            engine.undo(stamp)
    commands = int(engine.metrics.total("repro_commands_total"))
    assert captured, "the loop must observe at least one command"

    loop_times = []
    run_loop(None)  # warmup
    for _ in range(3):
        t0 = time.perf_counter()
        run_loop(None)
        loop_times.append(time.perf_counter() - t0)
    base_s = statistics.median(loop_times)

    analytics = DecisionAnalytics(registry=MetricsRegistry())
    reps = 20 if quick() else 50
    started = time.perf_counter()
    for _ in range(reps):
        for cmd in captured:
            analytics.observe(cmd)
    per_cmd = (time.perf_counter() - started) / (reps * len(captured))
    derived = per_cmd * commands / base_s * 100.0

    t = REPORT.table(["observer", "per command", "derived overhead %"],
                     "E7 — decision analytics (lower is better)")
    t.add("DecisionAnalytics.observe", f"{per_cmd * 1e6:.2f}us",
          round(derived, 3))
    t.show()

    REPORT.value("analytics_us_per_command", round(per_cmd * 1e6, 3))
    REPORT.value("analytics_overhead_pct", round(derived, 3))
    # the observer really folded decisions into instruments
    assert analytics.commands == reps * len(captured)
    assert derived < BUDGET_PCT, (
        f"decision analytics costs {derived:.2f}% (budget {BUDGET_PCT}%)")


def test_e7_disabled_tracer_produces_nothing():
    engine, applied = run_loop(tracer=None)
    assert applied > 0
    assert engine.tracer is Tracer.disabled
    assert engine.tracer.recorder.completed == 0


def test_e7_traced_loop_records_every_command():
    tracer = Tracer(capacity=16384)
    engine, _ = run_loop(tracer)
    commands = int(engine.metrics.total("repro_commands_total"))
    spans = [s for s in tracer.recorder.spans() if s.name == "command"]
    assert len(spans) == commands
    assert all(s.status == "ok" for s in spans)
