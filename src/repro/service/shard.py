"""Sharded session workers behind one routing front-end.

``SessionServer`` serves every session from one process; this module
scales it out while keeping the paper's invariant sacred: all commands
of one session execute in their causal order, while sessions that share
nothing run freely in parallel (Hoey & Ulidowski's reversing-concurrent-
programs discipline, mapped onto processes).  The design:

* **Shard by session name.**  :func:`shard_index` hashes the name with
  CRC-32 (stable across processes and runs — never the seeded builtin
  ``hash``), so every request for a session lands on the same shard and
  a session's journal, snapshots, trace, and audit files live entirely
  inside that shard's root (``<root>/shard-NN/<session>``).  All of the
  durability, recovery, and provenance guarantees are therefore exactly
  the per-session guarantees of :class:`~repro.service.session.
  DurableSession` — sharding adds no new crash states.
* **One worker process per shard.**  :func:`worker_main` runs a plain
  :class:`~repro.service.server.SessionServer` over a duplex pipe, one
  request at a time — the per-shard serialization that preserves
  per-session order without any cross-process locking.
* **A router in the front-end process.**  :class:`ShardRouter` speaks
  the same line protocol as ``SessionServer`` and shares its request
  observer and operator surfaces (:class:`~repro.service.server.Front`):
  it forwards each request to its shard and streams the response back,
  fanning ``_ sessions`` / ``_ stats`` / ``_ metrics`` / ``_ slow`` /
  ``_ prof`` out to every shard and merging the answers (each worker
  manager's metrics registry merged with the router's own by
  :func:`repro.obs.metrics.merge_aggregate_metrics` — counters summed,
  histograms merged bucket-wise — slow logs by wall clock, collapsed
  profiler stacks summed line-wise by
  :func:`repro.obs.profiler.merge_folded`).  The router answers
  ``_ slo`` itself, so workers keep no SLO window.
* **Worker death is detected, reported, and repaired.**  A request to a
  dead worker gets a clear ``error: shard: ...`` reply (never a hang);
  the router restarts the worker, and the shard's sessions recover on
  next touch by the ordinary journal-replay path — nothing acknowledged
  before the crash is lost, and the command that died mid-flight is
  either journaled (it happened) or not (it didn't), exactly the
  torn-process contract recovery already honours.

Workers are spawned with the ``spawn`` start method: restarts happen
from serving threads, where forking a threaded process would be unsafe,
and spawn keeps the workers free of inherited locks.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import zlib
from multiprocessing.connection import Connection, wait as _pipe_wait
from threading import Lock
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    merge_aggregate_metrics,
    registry_totals,
)
from repro.obs.profiler import merge_folded
from repro.obs.slowlog import SlowLog
from repro.obs.trace import (Tracer, current_request, open_log,
                             request_context)
from repro.service.server import (
    BAD_SHAPE,
    ERROR_PREFIX,
    FRONT_VERBS,
    NO_SAMPLES,
    Front,
    error_reply,
)

#: shard roots under the service root (two digits keeps ls sorted).
SHARD_DIR_FMT = "shard-{:02d}"

#: the router's span stream, next to the shard directories — the edge
#: half of every fleet trace (:mod:`repro.obs.collector` joins it with
#: the per-session ``trace.jsonl`` files inside the shards).
ROUTER_TRACE_FILE = "router-trace.jsonl"


def router_trace_path(root: str) -> str:
    """The router's span-stream file under one service root."""
    return os.path.join(root, ROUTER_TRACE_FILE)

#: manager-level verbs the router fans out to every shard (plus its own
#: ``shards`` verb, answered without a round trip).
AGGREGATE_VERBS = ("sessions", "stats", "metrics")


class ShardError(RuntimeError):
    """A shard worker died or could not serve a request."""


def shard_index(name: str, nshards: int) -> int:
    """The shard a session name routes to — stable across processes.

    CRC-32 rather than ``hash()``: the builtin is randomized per process
    (PYTHONHASHSEED), and the shard assignment must equal the on-disk
    layout written by every previous run.
    """
    if nshards < 1:
        raise ValueError("nshards must be >= 1")
    return zlib.crc32(name.encode("utf-8")) % nshards


def shard_root(root: str, index: int) -> str:
    """The session root directory of one shard."""
    return os.path.join(root, SHARD_DIR_FMT.format(index))


def worker_main(conn: Connection, root: str,
                manager_kwargs: Optional[Dict[str, Any]] = None,
                server_kwargs: Optional[Dict[str, Any]] = None) -> None:
    """One shard worker: serve pipe requests until told to stop.

    Runs in a child process.  Requests are ``("req", id, line[, ctx])``
    tuples answered with ``(id, response)``; a ``("stop", id)`` message
    (or a closed pipe) drains the manager and exits.  ``ctx``, when
    present, is the trace context the edge minted — the worker serves
    the line inside it, so every span the command produces in this
    process lands in the session's ``trace.jsonl`` stamped with the
    originating request id.  ``handle_line`` never raises by contract,
    but a defect must kill neither the worker nor the protocol framing,
    so the last-resort catch answers with an ``internal`` error instead
    of dying with a request in flight.
    """
    # imported here so a spawned worker pays its import cost itself
    from repro.service.server import SessionServer
    from repro.service.session import SessionManager

    manager = SessionManager(root, **(manager_kwargs or {}))
    # the router answers ``_ slo`` for the fleet; no client reads a
    # worker's window, so the worker keeps none
    server = SessionServer(manager, slo_window_s=None,
                           **(server_kwargs or {}))
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, tuple) or msg[0] == "stop":
                if isinstance(msg, tuple):
                    conn.send((msg[1], "stopping"))
                break
            _kind, rid, line = msg[:3]
            ctx = msg[3] if len(msg) > 3 and isinstance(msg[3], dict) \
                else None
            try:
                with request_context(dict(ctx) if ctx else None):
                    out = server.handle_line(line)
            except BaseException as exc:  # noqa: BLE001 - framing guard
                out = error_reply("internal", repr(exc))
            conn.send((rid, out))
    finally:
        manager.close_all()


class ShardWorker:
    """Front-end handle on one shard's worker process.

    Owns the pipe, the process, and the per-shard lock that serializes
    request/response pairs on the wire — which is also what preserves
    per-session command order: one shard, one outstanding request.
    """

    def __init__(self, index: int, root: str,
                 manager_kwargs: Optional[Dict[str, Any]] = None,
                 server_kwargs: Optional[Dict[str, Any]] = None):
        self.index = index
        self.root = shard_root(root, index)
        self.manager_kwargs = dict(manager_kwargs or {})
        self.server_kwargs = dict(server_kwargs or {})
        # slow-log entries from this worker name their vantage point
        self.server_kwargs.setdefault("layer", SHARD_DIR_FMT.format(index))
        self.lock = Lock()
        self.restarts = 0
        self.requests = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._rid = 0
        self.conn: Optional[Connection] = None
        self.process = None

    def start(self) -> None:
        """Spawn (or re-spawn) the worker process for this shard."""
        parent, child = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=worker_main, args=(child, self.root, self.manager_kwargs,
                                      self.server_kwargs),
            name=f"repro-shard-{self.index}", daemon=True)
        self.process.start()
        child.close()  # the worker holds its own copy
        self.conn = parent

    @property
    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process is not None and self.process.is_alive()

    def request(self, line: str,
                ctx: Optional[Dict[str, Any]] = None) -> str:
        """One request/response round trip (caller holds ``self.lock``).

        ``ctx`` is the trace context forwarded to the worker (request id
        only — the per-process breakdown scratchpad stays local).
        Raises :class:`ShardError` when the worker dies before
        answering — the wait watches the reply pipe *and* the process
        sentinel in one select, so a crashed worker surfaces as a
        prompt error, never a hang, without polling.
        """
        if self.conn is None or self.process is None:
            raise ShardError(f"shard {self.index} worker is not running")
        self._rid += 1
        self.requests += 1
        try:
            self.conn.send(("req", self._rid, line, ctx))
            while self.conn not in _pipe_wait(
                    [self.conn, self.process.sentinel]):
                # sentinel fired first: the worker exited.  The pipe may
                # still hold a final reply (exit right after answering),
                # so only a drained pipe is a death mid-request.
                if not self.conn.poll(0):
                    raise ShardError(
                        f"shard {self.index} worker died mid-request")
            rid, out = self.conn.recv()
        except ShardError:
            raise
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ShardError(
                f"shard {self.index} worker died mid-request "
                f"({type(exc).__name__})") from exc
        if rid != self._rid:
            raise ShardError(
                f"shard {self.index} answered request {rid}, "
                f"expected {self._rid}")
        return out

    def stop(self, timeout: float = 5.0) -> None:
        """Drain and terminate the worker (idempotent)."""
        if self.process is None:
            return
        try:
            if self.conn is not None and self.process.is_alive():
                self._rid += 1
                self.conn.send(("stop", self._rid))
                self.conn.poll(timeout)  # "stopping" ack, best-effort
        except (EOFError, OSError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.conn is not None:
            self.conn.close()
        self.conn = None
        self.process = None


class ShardRouter(Front):
    """The line-protocol front-end over N shard worker processes.

    Drop-in for :class:`~repro.service.server.SessionServer` wherever a
    ``handle_line`` object is expected (the stdio loop, the TCP server,
    the tests), and observed by the same shared
    :class:`~repro.service.server.Front` code: every TCP request passes
    here, so the router's SLO window IS the fleet view.  Its own
    instruments (deadline, profiler-drop and rejected-line counters)
    live in a private registry merged into the fleet ``_ metrics``.
    Per-session requests forward to the session's shard under a
    ``route`` span, manager-level ``_`` verbs aggregate across every
    shard, and the extra ``_ shards`` verb reports worker liveness
    without a round trip.  Workers run their own slow logs at the same
    threshold and ``_ slow`` merges all of them.  ``manager_kwargs``
    are forwarded to every shard's
    :class:`~repro.service.session.SessionManager` (``max_live``,
    ``snapshot_every``, ``fsync_every``) and must stay identical across
    restarts, so they are fixed at construction.
    """

    mode = "sharded"
    #: bound in this class's own namespace: the per-layer benchmark
    #: (``perfbench/layertrace.py``) wraps and restores it per front.
    handle_line = Front.handle_line

    def __init__(self, root: str, nshards: int, *,
                 manager_kwargs: Optional[Dict[str, Any]] = None,
                 auto_restart: bool = True,
                 slow_ms: Optional[float] = 250.0,
                 deadline_ms: Optional[float] = None,
                 slo_window_s: float = 300.0):
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        super().__init__(MetricsRegistry(), slow_ms=slow_ms,
                         deadline_ms=deadline_ms,
                         slo_window_s=slo_window_s, layer="router")
        self.root = root
        self.nshards = nshards
        self.auto_restart = auto_restart
        #: the router's own span stream — the edge half of every fleet
        #: trace, joined with per-session worker traces by request id.
        os.makedirs(root, exist_ok=True)
        self.tracer = Tracer(service="router")
        self._trace_fh = open_log(router_trace_path(root))
        self.tracer.sinks.append(
            lambda span: self._trace_fh.write(span.to_line() + "\n"))
        server_kwargs = {"slow_ms": slow_ms}
        self.workers: List[ShardWorker] = [
            ShardWorker(k, root, manager_kwargs, server_kwargs)
            for k in range(nshards)]
        for worker in self.workers:
            worker.start()
        self._closed = False

    # -- request path --------------------------------------------------------

    def _answer(self, parts: List[str], line: str) -> str:
        """Route one request under a ``route`` span in the router's
        trace — the record the collector joins with the worker's span
        tree to reconstruct the whole request."""
        target, verb = parts[0], parts[1] if len(parts) > 1 else ""
        with self.tracer.span("route", target=target, verb=verb) as span:
            if len(parts) < 2:
                out = BAD_SHAPE
                span.tag(kind="bad-request")
            elif target == "_" and verb == "shards":
                out = json.dumps(self.shard_status(), sort_keys=True)
                span.tag(kind="local")
            elif target == "_" and verb in FRONT_VERBS:
                out = self._front_verb(verb, parts[2:])
                span.tag(kind="local" if verb == "slo" else "fanout")
            elif target == "_" and verb in AGGREGATE_VERBS:
                out = self._aggregate(verb, parts[2:])
                span.tag(kind="fanout")
            else:
                shard = shard_index(target, self.nshards)
                span.tag(kind="session", shard=shard)
                out = self._request(self.workers[shard], line)
            if out.startswith(ERROR_PREFIX):
                span.tag(status="failed")
        return out

    def _slow(self, tail: Optional[int]) -> str:
        """The fleet slow-request listing: every shard's log + the
        router's own, merged by wall clock (the ``_ slow [n]`` verb).

        Worker entries carry the in-process latency breakdown (lock
        wait, analysis timers, journal fsyncs); the router entries for
        the same request ids carry the end-to-end time including the
        pipe round trip — both sides of a slow request's story.
        """
        answers, failures = self._fanout("_ slow")
        if failures:
            return failures[0]
        groups = [json.loads(out) for out in answers]
        groups.append(self.slowlog.entries())
        return json.dumps(SlowLog.merge(groups, tail), sort_keys=True)

    def _request(self, worker: ShardWorker, line: str) -> str:
        """Forward one line to one shard, repairing a dead worker.

        The in-flight client gets an explicit error — its command may or
        may not have committed, and only the journal knows, so the reply
        says exactly that.  The restarted worker recovers the shard's
        sessions lazily through the ordinary replay path on next touch.
        """
        ctx = current_request()
        wire_ctx = {"request": ctx["request"]} if ctx else None
        with worker.lock:
            try:
                return worker.request(line, wire_ctx)
            except ShardError as exc:
                restarted = ""
                if self.auto_restart and not self._closed:
                    worker.stop()
                    worker.start()
                    worker.restarts += 1
                    restarted = ("; worker restarted, sessions recover "
                                 "from their journals on next use")
                return error_reply(
                    "shard", f"{exc} — the request may or may not have "
                    f"committed (check the session log){restarted}")

    # -- aggregation ---------------------------------------------------------

    def _fanout(self, line: str) -> Tuple[List[str], List[str]]:
        """One request to every shard: (answers, error replies)."""
        answers, failures = [], []
        for worker in self.workers:
            out = self._request(worker, line)
            (failures if out.startswith(ERROR_PREFIX) else answers).append(
                out)
        return answers, failures

    def _aggregate(self, verb: str, args: List[str]) -> str:
        """Fan one ``_`` verb out to every shard and merge the answers.

        A shard that fails to answer fails the whole aggregate loudly —
        a silently partial total would read as "traffic dropped", which
        is worse than an error.
        """
        answers, failures = self._fanout(" ".join(["_", verb, *args]))
        if failures:
            return failures[0]
        if verb == "sessions":
            names = sorted(
                name for out in answers if out != "(none)"
                for name in out.split())
            return " ".join(names) or "(none)"
        docs = [json.loads(out) for out in answers]
        if verb == "metrics":
            return json.dumps(self._fleet_metrics(docs, args),
                              sort_keys=True)
        # stats: summed counters, concatenated session lists, and the
        # untouched per-shard documents for drill-down
        merged = {
            "shards": self.nshards,
            "live": sorted(n for d in docs for n in d["live"]),
            "on_disk": sorted(n for d in docs for n in d["on_disk"]),
            "evictions": sum(d["evictions"] for d in docs),
            "reopens": sum(d["reopens"] for d in docs),
            "per_shard": docs,
        }
        return json.dumps(merged, sort_keys=True)

    def _prof(self, args: List[str]) -> str:
        """The fleet ``_ prof`` verbs: the router's profiler plus every
        worker's.

        The router's own half is the shared in-process verb, so
        ``start`` opens a fresh profile in every process; ``stop`` sums
        the per-process sample/drop counts; ``dump`` merges
        per-process collapsed stacks by summing identical lines
        (:func:`repro.obs.profiler.merge_folded`) — the profile
        equivalent of the bucket-wise histogram merge.
        """
        local = super()._prof(args)
        if local.startswith(ERROR_PREFIX):
            return local
        action = args[0] if args else "dump"
        answers, failures = self._fanout(
            " ".join(["_", "prof", action, *args[1:]]))
        if failures:
            return failures[0]
        if action == "start":
            return (f"profiling {self.nshards} shard(s) at "
                    f"{self.profiler.hz:g} hz")
        if action == "stop":
            totals = json.loads(local)
            for out in answers:
                doc = json.loads(out)
                totals["samples"] += doc.get("samples", 0)
                totals["dropped"] += doc.get("dropped", 0)
            totals["shards"] = self.nshards
            return json.dumps(totals, sort_keys=True)
        dumps = [out for out in (*answers, local) if out != NO_SAMPLES]
        return merge_folded(dumps) or NO_SAMPLES

    def _fleet_metrics(self, docs: List[Dict[str, Any]],
                       args: List[str]) -> Dict[str, Any]:
        """Merge the workers' ``_ metrics [totals]`` answers with the
        router's own registry (its profiler gauge set first)."""
        self._note_profiler()
        local = self.registry.to_doc()
        if args[:1] == ["totals"]:
            return {field: value + sum(doc[field] for doc in docs)
                    for field, value in registry_totals(local).items()}
        return merge_aggregate_metrics(docs, local=local)

    def shard_metrics(self, *args: str) -> List[Dict[str, Any]]:
        """Per-shard ``_ metrics [args]`` answers: ``aggregate_metrics``
        documents, or their ``totals`` views (test/ops surface)."""
        answers, failures = self._fanout(" ".join(["_", "metrics", *args]))
        if failures:
            raise ShardError(failures[0])
        return [json.loads(out) for out in answers]

    def shard_status(self) -> Dict[str, Any]:
        """Router-local worker liveness (the ``_ shards`` verb)."""
        return {"shards": self.nshards,
                "workers": [{"shard": w.index,
                             "pid": w.process.pid if w.process else None,
                             "alive": w.alive,
                             "restarts": w.restarts,
                             "requests": w.requests}
                            for w in self.workers]}

    # -- exposition hooks ----------------------------------------------------

    def expo_metrics_doc(self) -> Dict[str, Any]:
        """The fleet-merged metrics document behind ``/metrics``."""
        return self._fleet_metrics(self.shard_metrics(), [])

    def _health_detail(self) -> Dict[str, Any]:
        """Worker liveness plus journal lag for ``/healthz``.

        ``ok`` (every worker alive, and the fleet totals assembled)
        decides the HTTP status; the lag is reported, not judged.  The
        journal block compares fleet-wide committed commands against
        journal records actually written — a lag means a session was
        poisoned after committing a command its journal did not record;
        surfacing the number is how an operator sees it.  Workers send
        only their ``totals`` view, not their whole registries.
        """
        status = self.shard_status()
        doc: Dict[str, Any] = {
            "ok": all(w["alive"] for w in status["workers"]), **status}
        try:
            totals = self._fleet_metrics(self.shard_metrics("totals"),
                                         ["totals"])
            commands = totals.get("commands", 0)
            records = totals.get("journal_records_written", 0)
            doc["journal"] = {"commands": commands, "records": records,
                              "lag": commands - records}
        except (ShardError, KeyError, ValueError) as exc:
            doc["ok"] = False
            doc["journal"] = {"error": str(exc)}
        return doc

    def _varz_detail(self) -> Dict[str, Any]:
        try:
            return {"metrics": self.expo_metrics_doc()}
        except ShardError as exc:
            return {"metrics": {"error": str(exc)}}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (each drains its manager before exiting)."""
        self._closed = True
        self.profiler.stop()
        for worker in self.workers:
            with worker.lock:
                worker.stop()
        try:
            self._trace_fh.close()
        except OSError:
            pass

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
