#!/usr/bin/env python
"""End-to-end smoke of the sharded TCP service — the CI shard job.

Spawns the real thing (``python -m repro serve ROOT --port 0 --shards
2 --slow-ms 0 --metrics-port 0`` as a subprocess), reads the bound
ports from its ``metrics on`` and ``listening on`` lines, then drives
a scripted conversation over a real socket: init, apply/undo, a batch,
an audit round-trip check, ``opps``/``apply``/``undo`` on a generated
program mirrored by an in-process engine, the merged ``_`` verbs, the forensics verbs
(``_ slow``/``_ slo``), a scrape of the HTTP sidecar (``/healthz``,
``/metrics``), a fleet profiling window (``_ prof start|dump|stop``
and ``/pprof?seconds=1`` under live apply/undo traffic, asserting
attributed ``engine.execute`` stacks merged across shards), and
finally a clean ``_ shutdown`` — asserting the server process exits
0.  After shutdown it replays the fleet's trace
files through :func:`repro.obs.collector.collect_requests` and
:func:`repro.obs.check.fleet_roundtrip`, asserting that a TCP request
produced a collector-merged trace joining the router's route span to
the worker's engine span tree under one request id.  Run from the
repository root:

    PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.netserver import LineClient  # noqa: E402

SRC = "c = 1\nx = c + 2\nd = e + f\nwrite x\nwrite d\n"

#: a parallel program: one declared doall plus a loop PAR can transform
PAR_SRC = ("doall i = 1, 4\n"
           "  C(i) = D(i) * 2\n"
           "enddoall\n"
           "do i = 1, 8\n"
           "  A(i) = B(i) + 1\n"
           "enddo\n"
           "write A(3)\n"
           "write C(2)\n")

STAMP_RE = re.compile(r"t(\d+)")


def mirror_conversation(client, root: str) -> None:
    """``opps``/``apply``/``undo`` on a generated program, every reply
    compared with an in-process engine that runs the same commands.

    The listing's order is on the wire (``apply <kind> <k>`` indexes
    it), so each ``opps`` reply must equal the in-process listing, and
    each command reply the in-process command's description.  The
    in-process engine drops its analyses and listings before each
    ``opps``, so it finds from scratch: a stale cached listing on the
    server shows as a difference."""
    from repro.core.commands import parse_verb
    from repro.core.engine import TransformationEngine
    from repro.lang.parser import parse_program
    from repro.lang.printer import format_program
    from repro.workloads.generator import GeneratorConfig, generate_program

    source = format_program(generate_program(7, GeneratorConfig(blocks=4)))
    path = os.path.join(root, "mirror.loop")
    with open(path, "w") as fh:
        fh.write(source)
    expect("init echo (generated program)",
           client.request(f"echo init {path}"), "created echo")
    engine = TransformationEngine(parse_program(source))

    def fresh_opps(*kind: str) -> str:
        engine.cache.invalidate()
        return engine.describe_opps(*kind)

    def both(line: str, local: str) -> None:
        got = client.request(f"echo {line}")
        if got != local:
            raise SystemExit(f"FAIL mirror {line!r}: wire {got!r} != "
                             f"in-process {local!r}")

    def run(verb: str, *args: str) -> None:
        cmd = parse_verb(verb, list(args))
        engine.execute(cmd)
        both(" ".join((verb,) + args), cmd.describe())

    kinds = sorted(engine.registry) * 2
    steps = 0
    for step, kind in enumerate(kinds):
        both(f"opps {kind}", fresh_opps(kind))
        opps = engine.find(kind)
        if opps:
            run("apply", kind, str(step % len(opps)))
            steps += 1
        active = engine.history.active()
        if step % 3 == 2 and active:
            run("undo", str(active[0].stamp))
            steps += 1
    both("opps", fresh_opps())
    print(f"ok: mirror: {steps} apply/undo step(s) and "
          f"{len(kinds) + 1} opps listing(s) equal in-process")


def verify_traces(root: str, exemplars: list) -> None:
    """Replay the fleet's trace files through the collector.

    This is the acceptance check for cross-shard tracing: a command
    sent over TCP must come back as one causally-ordered trace — the
    router's ``route`` span at depth 0 joined (by request id) to the
    worker's ``command`` span tree — and the whole root must pass
    ``fleet_roundtrip``.  The request ids scraped off ``/metrics``
    exemplars must resolve here too: an exemplar is only useful if
    ``repro collect --request <id>`` can explain it.
    """
    from repro.obs.check import fleet_roundtrip
    from repro.obs.collector import collect_requests

    traces = collect_requests(root)
    assert traces, f"no request traces collected under {root}"
    resolved = [rid for rid in exemplars if rid in traces]
    assert resolved, f"no /metrics exemplar resolves: {exemplars}"
    print(f"ok: exemplars: {len(resolved)}/{len(exemplars)} /metrics "
          f"exemplar request id(s) resolve to collected traces")
    joined = [tr for tr in traces.values()
              if tr.edge is not None
              and tr.edge["tags"].get("verb") == "apply"
              and any(s["name"] == "command" and s["depth"] == 1
                      for s in tr.spans)]
    assert joined, "no apply request joined a router span to a worker tree"
    sample = joined[0]
    origins = sample.origins()
    assert "router" in origins and len(origins) >= 2, origins
    print(f"ok: collector: {len(traces)} request trace(s); "
          f"{sample.request} joins {', '.join(sorted(origins))}")
    report = fleet_roundtrip(root)
    if not report.ok:
        raise SystemExit(f"FAIL fleet_roundtrip: {report.describe()}")
    print(f"ok: fleet_roundtrip: {report.describe().splitlines()[0]}")


def expect(label: str, got: str, want_prefix: str) -> str:
    if not got.startswith(want_prefix):
        raise SystemExit(f"FAIL {label}: expected {want_prefix!r}..., "
                         f"got {got!r}")
    print(f"ok: {label}: {got.splitlines()[0]}")
    return got


def main() -> int:
    root = tempfile.mkdtemp(prefix="shard_smoke_")
    prog = os.path.join(root, "prog.loop")
    with open(prog, "w") as fh:
        fh.write(SRC)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", root,
         "--port", "0", "--shards", "2",
         "--slow-ms", "0", "--metrics-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    try:
        # the expo sidecar banner prints first, then the TCP one
        banner = server.stdout.readline().strip()
        m = re.match(r"metrics on ([\d.]+):(\d+)$", banner)
        if not m:
            raise SystemExit(f"FAIL startup: unexpected banner {banner!r}")
        expo_url = f"http://{m.group(1)}:{m.group(2)}"
        print(f"ok: expo startup: {banner}")
        banner = server.stdout.readline().strip()
        m = re.match(r"listening on ([\d.]+):(\d+)$", banner)
        if not m:
            raise SystemExit(f"FAIL startup: unexpected banner {banner!r}")
        host, port = m.group(1), int(m.group(2))
        print(f"ok: startup: {banner}")

        with LineClient(host, port) as client:
            for name in ("alpha", "bravo", "charlie"):
                expect(f"init {name}",
                       client.request(f"{name} init {prog}"),
                       f"created {name}")
            out = expect("apply", client.request("alpha apply ctp 0"),
                         "applied")
            stamp = int(STAMP_RE.search(out).group(1))
            expect("undo", client.request(f"alpha undo {stamp}"), "undone")
            expect("batch",
                   client.request("bravo batch apply ctp 0 ; apply dce 0"),
                   "batch: 2 command(s)")
            expect("audit check", client.request("bravo audit check"),
                   "ok:")
            expect("error format", client.request("charlie undo 999"),
                   "error: ")

            # a parallel-program session: doall source over the wire,
            # PAR applied, the undo explained, audit round-trip intact
            par_prog = os.path.join(root, "par.loop")
            with open(par_prog, "w") as fh:
                fh.write(PAR_SRC)
            expect("init delta (doall program)",
                   client.request(f"delta init {par_prog}"),
                   "created delta")
            out = expect("apply par", client.request("delta apply par 0"),
                         "applied")
            par_stamp = int(STAMP_RE.search(out).group(1))
            expect("undo par", client.request(f"delta undo {par_stamp}"),
                   "undone")
            explained = client.request(f"delta explain {par_stamp}")
            assert "par" in explained and "undo" in explained, explained
            print(f"ok: explain: {explained.splitlines()[0]}")
            expect("audit check (delta)",
                   client.request("delta audit check"), "ok:")
            mirror_conversation(client, root)

            sessions = client.request("_ sessions").split()
            assert {"alpha", "bravo", "charlie"} <= set(sessions), sessions
            print(f"ok: _ sessions: {' '.join(sessions)}")
            shards = json.loads(client.request("_ shards"))
            assert shards["shards"] == 2, shards
            assert all(w["alive"] for w in shards["workers"]), shards
            print(f"ok: _ shards: 2 workers alive")
            merged = json.loads(client.request("_ metrics"))
            assert merged["shards"] == 2, merged
            # apply + undo + batch = three top-level commands journaled
            assert merged["totals"]["commands"] >= 3, merged
            print(f"ok: _ metrics: {merged['totals']['commands']} "
                  f"commands across 2 shards")

            # forensics: --slow-ms 0 records every request, each entry
            # carrying its request id and latency breakdown
            slow = json.loads(client.request("_ slow"))
            assert slow, "slow log empty despite --slow-ms 0"
            assert all(e["request"].startswith("r-") for e in slow), slow
            print(f"ok: _ slow: {len(slow)} entries with request ids")
            # the scripted conversation includes one deliberate error
            # (undo 999), so the tracker must count it — and flag the
            # availability objective, proving the gate has teeth
            slo = json.loads(client.request("_ slo"))
            assert slo["requests"] > 0, slo
            assert slo["errors"] == 1 and not slo["ok"], slo
            assert any("availability" in v for v in slo["violations"]), slo
            print(f"ok: _ slo: {slo['requests']} request(s), "
                  f"availability {slo['availability']:.4f}, scripted "
                  f"error flagged")

            # the HTTP sidecar: liveness and Prometheus exposition
            with urllib.request.urlopen(f"{expo_url}/healthz",
                                        timeout=10) as resp:
                health = json.load(resp)
                assert resp.status == 200 and health["ok"], health
            print(f"ok: /healthz: 200, {health['shards']} shard(s)")
            with urllib.request.urlopen(f"{expo_url}/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode("utf-8")
                assert resp.status == 200, resp.status
                assert "repro_fleet_commands" in text, text[:400]
                assert "repro_fleet_command_seconds_bucket" in text
            exemplars = re.findall(r'# \{request="(r-[0-9a-f]{12})"\}', text)
            assert exemplars, "no request exemplars on /metrics"
            assert "repro_undo_nodes_total" in text, \
                "decision analytics missing from /metrics"
            print(f"ok: /metrics: prometheus exposition with fleet "
                  f"totals, analytics, {len(exemplars)} exemplar(s)")

            # fleet profiling: a background driver keeps the workers
            # executing commands while two CPU windows are taken — an
            # operator window over the wire (`_ prof`) and an on-demand
            # scrape (`/pprof`) — both must come back with attributed,
            # shard-merged engine stacks
            stop = threading.Event()

            def churn() -> None:
                with LineClient(host, port) as worker:
                    while not stop.is_set():
                        out = worker.request("alpha apply ctp 0")
                        if out.startswith("applied"):
                            stamp = int(STAMP_RE.search(out).group(1))
                            worker.request(f"alpha undo {stamp}")

            driver = threading.Thread(target=churn, daemon=True)
            driver.start()
            try:
                expect("_ prof start",
                       client.request("_ prof start 500"),
                       "profiling 2 shard(s)")
                time.sleep(1.0)
                dump = client.request("_ prof dump")
                assert dump and dump != "(no samples)", "empty profile"
                assert not dump.startswith("error:"), dump
                assert "engine.execute" in dump, dump[:400]
                for ln in dump.splitlines():
                    stack, _, count = ln.rpartition(" ")
                    assert stack and int(count) >= 1, ln
                print(f"ok: _ prof dump: {len(dump.splitlines())} merged "
                      f"stack(s) with engine.execute frames")
                stopped = json.loads(client.request("_ prof stop"))
                assert stopped["shards"] == 2, stopped
                assert stopped["samples"] > 0, stopped
                print(f"ok: _ prof stop: {stopped['samples']} sample(s) "
                      f"across {stopped['shards']} shards, "
                      f"{stopped['dropped']} dropped")

                with urllib.request.urlopen(f"{expo_url}/pprof?seconds=1",
                                            timeout=30) as resp:
                    body = resp.read().decode("utf-8")
                    assert resp.status == 200, resp.status
                assert body.strip(), "empty /pprof body"
                assert "engine.execute" in body, body[:400]
                print(f"ok: /pprof: {len(body.strip().splitlines())} "
                      f"collapsed stack(s) from a 1s on-demand window")
            finally:
                stop.set()
                driver.join(timeout=15)

            expect("shutdown", client.request("_ shutdown"),
                   "shutting down")
            client.close(quit=False)

        code = server.wait(timeout=30)
        if code != 0:
            raise SystemExit(f"FAIL shutdown: server exited {code}")
        print("ok: clean exit 0")

        verify_traces(root, exemplars)
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    raise SystemExit(main())
