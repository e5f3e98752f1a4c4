"""Tests of the benchmark's own tracing: ``python3 -m pytest perfbench``.

* the wrappers :func:`layertrace.install` adds are all removed again by
  :meth:`layertrace.Patches.restore`;
* on a real traced fleet, self time attributed to the spans plus the
  unattributed remainder equals the clients' measured wall time, and
  every span's self time is non-negative;
* latency and throughput count only the windows in which the host
  stole little CPU time.
"""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layertrace  # noqa: E402
import run  # noqa: E402

_MISSING = object()


def test_restore_puts_back_every_original():
    from repro.analysis import dataflow
    from repro.service.shard import ShardRouter
    from repro.transforms import dce

    original_route = ShardRouter.handle_line
    original_dataflow = dataflow.analyze_dataflow
    patches = layertrace.install(layertrace.Recorder())
    targets = patches.targets
    try:
        assert ShardRouter.handle_line is not original_route
        # patched where the caller imported it, not only at home
        assert dce.analyze_dataflow is not original_dataflow
        assert dce.analyze_dataflow is dataflow.analyze_dataflow
    finally:
        patches.restore()
    assert len(targets) > len(layertrace.SPANS)
    for owner, attr, original in targets:
        assert vars(owner).get(attr, _MISSING) is original, (owner, attr)
    assert ShardRouter.handle_line is original_route
    assert dce.analyze_dataflow is original_dataflow
    assert patches.targets == []


def test_budget_joins_cross_process_children():
    client = layertrace.CLIENT_SPAN
    spans = [(client, 0.0, 10.0, 0.0),
             ("shard.route", 1.0, 8.0, 7.0),
             ("shard.pipe", 1.5, 7.0, 0.0),
             ("server.dispatch", 2.0, 5.0, 3.0),
             ("engine.execute", 2.5, 3.0, 0.0)]
    budget = layertrace.layer_budget(spans)
    assert budget["netserver.edge"]["self"] == pytest.approx(2.0)
    assert budget["shard.route"]["self"] == pytest.approx(1.0)
    assert budget["shard.pipe"]["self"] == pytest.approx(2.0)
    assert budget["server.dispatch"]["self"] == pytest.approx(2.0)
    assert budget["engine.execute"]["self"] == pytest.approx(3.0)
    assert sum(r["self"] for r in budget.values()) == pytest.approx(10.0)


def _phase(steal_per_window, samples):
    """A phase of 1 s windows with the given stolen shares (100 ticks of
    CPU time per window) and one client that measured ``samples``."""
    steal, stolen = [], 0
    for k in range(len(steal_per_window) * 4 + 1):
        steal.append((k * 0.25, stolen, k * 25))
        if k < len(steal_per_window) * 4:
            stolen += round(steal_per_window[k // 4] * 25)
    client = types.SimpleNamespace(samples=samples)
    return run.Phase(0.0, [client], 0.0, float(len(steal_per_window)), 0.0,
                     "", None, {}, steal)


def test_metrics_count_only_quiet_windows():
    # one request completing in the middle of each window
    samples = [(True, k + 0.25, 0.5) for k in range(4)]
    phase = _phase([0.0, 0.2, 0.0, 0.4], samples)
    assert phase.quiet_windows() == [(0.0, 1.0), (2.0, 3.0)]
    assert phase.quiet_samples == [samples[0], samples[2]]
    assert run.throughput([phase]) == pytest.approx(1.0)
    # no quiet window: the least stolen quarter of the phase counts
    phase = _phase([0.3, 0.2, 0.5, 0.4], samples)
    assert phase.quiet_windows() == [(1.0, 2.0)]
    assert phase.quiet_samples == [samples[1]]


def test_traced_fleet_accounts_for_wall_time(tmp_path):
    workload = run.WORKLOADS["small-strict"]
    plan = run.Plan(seed=3, workdir=str(tmp_path))
    workload.plan(plan)
    phase = run.run_phase(workload, plan, "traced", 1.0, trace=True)
    assert phase.problems == []
    assert run.verify_roots([phase.root]) == []

    budget, wall, ncmd = run.traced_budget(phase)
    assert ncmd == len(phase.samples) > 0
    assert set(budget) <= set(layertrace.SPANS)
    for name in ("netserver.edge", "shard.route", "shard.pipe",
                 "server.dispatch"):
        assert budget[name]["calls"] == ncmd, name
    for name, row in budget.items():
        assert row["self"] >= -1e-6, (name, row)
    attributed = sum(row["self"] for row in budget.values())
    round_trips = sum(d for _w, _s, d in phase.samples)
    assert attributed == pytest.approx(round_trips, rel=1e-9)
    metrics = run.per_layer(phase, phase)
    unattributed = metrics["unattributed.ms_per_cmd"] * ncmd / 1e3
    assert unattributed >= 0
    assert attributed + unattributed == pytest.approx(wall, rel=1e-9)
