"""Line-protocol front-end over a :class:`SessionManager`.

One request per line, ``<session> <verb> [args...]``; one text response
per request (multi-line responses are terminated by a lone ``.`` so the
stream stays parseable).  The protocol is transport-agnostic — the CLI's
``repro serve`` runs it over stdin/stdout, the concurrency tests drive
:meth:`SessionServer.handle_line` directly from many threads.

Verbs::

    <s> init <file>        create session <s> from a program file
    <s> source [labels]    current program text
    <s> opps [name]        list opportunities (all kinds, or one)
    <s> apply <name> [k]   apply the k-th opportunity
    <s> undo <stamp>       independent-order undo (Figure 4)
    <s> undo-lifo <stamp>  reverse-order undo baseline
    <s> edit-del <sid>     user edit: delete a statement
    <s> batch <verb args> [; <verb args>]...
                           execute a ;-separated group as ONE journal
                           record (single fsync); a failure stops the
                           group and is journaled at its position
    <s> log                committed command history
    <s> metrics            persistence + analysis-work stats
    <s> trace [n]          newest [n] flight-recorder spans (JSON lines)
    <s> explain <stamp> [json|dot]
                           why <stamp> is (un)safe / (ir)reversible now,
                           plus its audit trail; ``dot`` exports the
                           provenance trees that mention it
    <s> audit [n|check]    newest [n] audit entries (JSON lines), or
                           cross-check audit.jsonl against the journal
    <s> snapshot           cut a snapshot now
    _ sessions             list sessions (no target session)
    _ stats                manager stats
    _ metrics [totals]     aggregate persistence totals across sessions
                           (``totals``: only the totals view)
    _ slow [n]             newest [n] slow-request entries (JSON array)
    _ slo                  rolling-window SLO report (JSON)
    _ prof start [hz]      open a fresh sampling-profiler window
    _ prof stop            stop sampling (profile is kept)
    _ prof dump            collapsed-stack profile (flamegraph.pl input)

Every failure reply is one line of the form ``error: <kind>: <detail>``
(see :func:`error_reply`); ``<kind>`` comes from a fixed vocabulary so
clients parse failures by tag, never by exception text.  The sharded
front-end (:mod:`repro.service.shard`) speaks the same protocol and the
same error format, adding the ``shard`` kind for routing failures.

Both fronts subclass :class:`Front`, the one implementation of request
observation and of the operator surfaces (``_ slo``, ``_ slow``,
``_ prof``, ``/pprof``, ``/healthz``, ``/varz``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, IO, List, Optional

from repro.core.commands import CommandError, parse_batch, parse_verb
from repro.core.undo import UndoError
from repro.lang.parser import ParseError
from repro.obs.check import audit_roundtrip
from repro.obs.metrics import registry_totals
from repro.obs.profiler import Profiler
from repro.obs.slo import SloTracker
from repro.obs.slowlog import SlowLog
from repro.obs.trace import current_request, request_context
from repro.obs.provenance import (
    audit_path,
    explain_doc,
    provenance_to_dot,
    read_audit,
    render_explanation,
    stamp_events,
    stamp_trees,
)
from repro.service.recovery import RecoveryError
from repro.service.session import SessionError, SessionManager

#: request verbs parsed straight into typed commands (one code path
#: from the wire to ``engine.execute``).
COMMAND_VERBS = ("apply", "undo", "undo-lifo", "edit-del")

#: every failure reply starts with this token.
ERROR_PREFIX = "error:"

#: exception class -> the stable machine-parseable error kind clients
#: switch on (first path component of the reply).  Order matters:
#: subclasses must precede their bases.
ERROR_KINDS = (
    (SessionError, "session"),
    (UndoError, "undo"),
    (CommandError, "command"),
    (ParseError, "parse"),
    (RecoveryError, "recovery"),
    (OSError, "io"),
)


#: the reply line appended to a request that blew its deadline budget —
#: clients that care dispatch on the prefix, like they do on ``error:``.
DEADLINE_FLAG = "! deadline-exceeded:"


def flag_deadline(out: str, dur_ms: float, budget_ms: float) -> str:
    """Append the deadline-exceeded marker line to a reply.

    The reply body is unchanged (the command *did* run — late is not
    failed); the marker rides the multi-line framing the protocol
    already has, so existing clients that ignore unknown lines keep
    working and deadline-aware ones alert on the prefix.
    """
    marker = (f"{DEADLINE_FLAG} {dur_ms:.1f}ms > "
              f"{budget_ms:.1f}ms budget")
    return f"{out}\n{marker}" if out else marker


def error_reply(kind: str, detail: str) -> str:
    """The one failure-reply format: ``error: <kind>: <detail>``.

    ``kind`` is a stable lowercase tag from a fixed vocabulary
    (``session``, ``undo``, ``command``, ``parse``, ``recovery``,
    ``io``, ``bad-request``, ``unknown-verb``, ``batch``,
    ``audit-mismatch``, ``shard``, ``internal``) so clients can parse
    failures without matching on free-form exception text.  Pinned by
    the protocol tests — changing the shape is a wire-format change.
    """
    return f"{ERROR_PREFIX} {kind}: {detail}"


#: the reply to a request line without a verb.
BAD_SHAPE = error_reply("bad-request",
                        "expected '<session> <verb> [args...]'")

#: the ``_`` verbs every front answers through :meth:`Front._front_verb`.
FRONT_VERBS = ("slo", "slow", "prof")

#: the ``_ prof dump`` reply when the profile is empty.
NO_SAMPLES = "(no samples)"


def write_reply(out_stream: IO[str], text: str) -> None:
    """Frame one reply onto a text stream: its lines, then a lone ``.``.

    The one framing implementation both transports share — the stdio
    loop below and the TCP handler (:mod:`repro.service.netserver`)
    write every reply through here, so a framing change cannot fork.
    The framed reply goes out in one write: on TCP each write is its
    own ``sendall``, and with Nagle off its own segment.
    """
    out_stream.write("\n".join(text.splitlines()) + "\n.\n")
    out_stream.flush()


def serve_stream(front, in_stream: IO[str], out_stream: IO[str]) -> int:
    """Serve line requests from a stream until EOF or ``quit``.

    ``front`` is anything with a ``handle_line`` method — the in-process
    :class:`SessionServer` or the sharded router — so the stdio loop and
    the TCP connection handler share one framing implementation: one
    request line in, the response's lines out, a lone ``.`` terminator.
    Returns the number of requests handled; closing ``front`` is the
    caller's job.
    """
    handled = 0
    for line in in_stream:
        if line.strip() in ("quit", "exit"):
            break
        write_reply(out_stream, front.handle_line(line))
        handled += 1
    return handled


class Front:
    """The request observer and operator surface every front shares.

    :class:`SessionServer` (one process) and the sharded router
    (:class:`repro.service.shard.ShardRouter`) both serve the protocol
    through :meth:`handle_line`, which times every request into the
    ``requests`` / ``errors`` counters, a
    rolling-window :class:`~repro.obs.slo.SloTracker` (``_ slo``; none
    when ``slo_window_s`` is ``None``, as in shard workers, whose
    router keeps the fleet's window) and,
    past ``slow_ms``, a :class:`~repro.obs.slowlog.SlowLog` entry
    (``_ slow``) carrying the latency breakdown the session layer
    accumulated onto the request context.  A reply later than the
    optional ``deadline_ms`` budget is flagged (:func:`flag_deadline`)
    and counted in ``registry``'s ``repro_deadline_exceeded_total``.

    A front answers a split request line in :meth:`_answer` and adds
    its own ``/healthz`` and ``/varz`` fields in :meth:`_health_detail`
    and :meth:`_varz_detail`.
    """

    #: the ``mode`` field of ``/healthz``.
    mode = ""

    def __init__(self, registry, *, slow_ms: Optional[float],
                 deadline_ms: Optional[float],
                 slo_window_s: Optional[float], layer: str):
        self.registry = registry
        self.requests = 0
        self.errors = 0
        self.layer = layer
        self.deadline_ms = deadline_ms
        self.slowlog = SlowLog(
            threshold_s=None if slow_ms is None else slow_ms / 1e3)
        self.slo = SloTracker(slo_window_s) \
            if slo_window_s is not None else None
        #: the process sampling profiler behind ``_ prof`` / ``/pprof``;
        #: idle until started, so attaching it is free.
        self.profiler = Profiler(hz=100.0)
        self.profiler.drop_counter = registry.counter(
            "repro_prof_dropped_total",
            "profiler samples lost to overrun ticks or stack-table "
            "overflow")

    # -- request path --------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Serve one request; never raises for a malformed request.

        This is the trace *edge*: every request runs inside a request
        context (a fresh one unless the caller entered one), so its
        spans, its slow-log entry and whatever a shard worker does for
        it share one fleet-unique request id.
        A blank line is not a request: it gets an empty reply and is
        neither counted nor observed.
        """
        parts = line.split()
        if not parts:
            return ""
        if current_request() is None:
            with request_context():
                return self._serve(line, parts)
        return self._serve(line, parts)

    def _serve(self, line: str, parts: List[str]) -> str:
        self.requests += 1
        started = time.perf_counter()
        try:
            out = self._answer(parts, line)
        except (SessionError, CommandError, UndoError, ParseError,
                RecoveryError, OSError) as exc:
            # OSError covers ``init`` naming an unreadable file — one bad
            # request must not take down every other session's server
            kind = next(k for cls, k in ERROR_KINDS if isinstance(exc, cls))
            out = error_reply(kind, str(exc))
        except (KeyError, IndexError, ValueError) as exc:
            out = error_reply("bad-request", str(exc) or repr(exc))
        if out.startswith(ERROR_PREFIX):
            self.errors += 1
        return self._observe(line, out, time.perf_counter() - started)

    def _answer(self, parts: List[str], line: str) -> str:
        """The reply to one non-blank request line (split as ``parts``)."""
        raise NotImplementedError

    def _observe(self, line: str, out: str, duration_s: float) -> str:
        """Record one served request (SLO, slow log, deadline budget)."""
        ok = not out.startswith(ERROR_PREFIX)
        dur_ms = duration_s * 1e3
        exceeded = self.deadline_ms is not None and dur_ms > self.deadline_ms
        if exceeded:
            self.registry.counter(
                "repro_deadline_exceeded_total",
                "requests that blew their deadline budget").inc()
        if self.slo is not None:
            self.slo.record(duration_s, ok, deadline_exceeded=exceeded)
        ctx = current_request()
        self.slowlog.observe(line, duration_s, ok=ok, layer=self.layer,
                             request=ctx.get("request"),
                             breakdown=ctx.get("breakdown"),
                             force=exceeded)
        if exceeded:
            out = flag_deadline(out, dur_ms, self.deadline_ms)
        return out

    # -- operator verbs ------------------------------------------------------

    def _front_verb(self, verb: str, args: List[str]) -> str:
        """The ``_ slo`` / ``_ slow [n]`` / ``_ prof ...`` verbs."""
        if verb == "slo":
            if self.slo is None:
                return error_reply("bad-request",
                                   "this front keeps no SLO window")
            return json.dumps(self.slo.report(), sort_keys=True)
        if verb == "slow":
            return self._slow(int(args[0]) if args else None)
        return self._prof(args)

    def _slow(self, tail: Optional[int]) -> str:
        """The newest ``tail`` slow-request entries (JSON array)."""
        return json.dumps(self.slowlog.entries(tail), sort_keys=True)

    def _prof(self, args: List[str]) -> str:
        """The ``_ prof start|stop|dump`` verb family, in this process.

        ``start`` opens a fresh profile (the last window's stacks are
        dropped) and returns at once — the sampler is a daemon thread,
        so the front keeps serving (and being sampled) while profiling
        runs; ``stop`` keeps the profile for a later ``dump``.
        """
        action = args[0] if args else "dump"
        if action == "start":
            hz = float(args[1]) if len(args) > 1 else None
            if not self.profiler.running:
                self.profiler.reset()
            if self.profiler.start(hz):
                return f"profiling at {self.profiler.hz:g} hz"
            return f"already profiling at {self.profiler.hz:g} hz"
        if action == "stop":
            self.profiler.stop()
            return json.dumps({"samples": self.profiler.samples,
                               "dropped": self.profiler.dropped},
                              sort_keys=True)
        if action == "dump":
            return self.profiler.folded() or NO_SAMPLES
        return error_reply("bad-request",
                           f"prof expects start|stop|dump, got {action!r}")

    # -- exposition hooks ----------------------------------------------------
    #
    # the surface repro.obs.expo.ExpoServer serves over HTTP, together
    # with each front's own ``expo_metrics_doc``.

    def _note_profiler(self) -> None:
        """Set ``registry``'s ``repro_prof_samples`` gauge from this
        front's profiler, before its registry is read."""
        self.registry.gauge(
            "repro_prof_samples",
            "samples the front's profiler folded so far").set(
                self.profiler.samples)

    def expo_pprof(self, seconds: float = 1.0,
                   hz: Optional[float] = None) -> str:
        """The ``/pprof`` document: collapsed stacks, sampled on demand.

        When an operator already opened a window (``_ prof start``) this
        dumps it without disturbing it; otherwise it opens a fresh
        ``seconds``-long window through the ``_ prof`` verbs — the
        handler thread sleeps while the front keeps serving — and
        closes it again.  Over the router the verbs reach every worker,
        so the dump is the fleet's.
        """
        if self.profiler.running:
            return _pprof_body(self._prof(["dump"]))
        try:
            _pprof_body(self._prof(
                ["start"] if hz is None else ["start", str(hz)]))
            time.sleep(max(0.0, seconds))
            return _pprof_body(self._prof(["dump"]))
        finally:
            self._prof(["stop"])

    def expo_health(self) -> Dict[str, Any]:
        """The ``/healthz`` document (``ok`` decides the HTTP status)."""
        return {"ok": True, "mode": self.mode,
                "requests": self.requests, "errors": self.errors,
                "deadline_exceeded": int(self.registry.total(
                    "repro_deadline_exceeded_total")),
                **self._health_detail()}

    def expo_varz(self) -> Dict[str, Any]:
        """The ``/varz`` document: everything an operator drills into."""
        return {"health": self.expo_health(),
                "slo": self.slo.report() if self.slo else None,
                "slow": self.slowlog.entries(32),
                "profiler": {"running": self.profiler.running,
                             "hz": self.profiler.hz,
                             "samples": self.profiler.samples,
                             "dropped": self.profiler.dropped},
                **self._varz_detail()}

    def _health_detail(self) -> Dict[str, Any]:
        """This front's own ``/healthz`` fields (may override ``ok``)."""
        return {}

    def _varz_detail(self) -> Dict[str, Any]:
        """This front's own ``/varz`` fields."""
        return {}


def _pprof_body(reply: str) -> str:
    """A ``_ prof`` reply as ``/pprof`` text; an error reply raises."""
    if reply.startswith(ERROR_PREFIX):
        raise RuntimeError(reply)
    return "" if reply == NO_SAMPLES else reply


class SessionServer(Front):
    """The in-process front: dispatches request lines onto a manager."""

    mode = "single-process"
    #: bound in this class's own namespace: the per-layer benchmark
    #: (``perfbench/layertrace.py``) wraps and restores it per front.
    handle_line = Front.handle_line

    def __init__(self, manager: SessionManager, *,
                 slow_ms: Optional[float] = 250.0,
                 deadline_ms: Optional[float] = None,
                 slo_window_s: Optional[float] = 300.0,
                 layer: str = "server"):
        super().__init__(manager.metrics_registry, slow_ms=slow_ms,
                         deadline_ms=deadline_ms,
                         slo_window_s=slo_window_s, layer=layer)
        self.manager = manager

    def _answer(self, parts: List[str], line: str) -> str:
        if len(parts) < 2:
            return BAD_SHAPE
        name, verb, args = parts[0], parts[1], parts[2:]
        if verb == "sessions":
            return " ".join(self.manager.list_sessions()) or "(none)"
        if verb == "stats":
            return json.dumps(self.manager.stats(), sort_keys=True)
        if verb == "metrics" and name == "_":
            # manager-level aggregate, or just its totals view (what the
            # router's /healthz reads); "<s> metrics" below stays
            # per-session
            if args[:1] == ["totals"]:
                self._note_profiler()
                return json.dumps(registry_totals(self.registry.to_doc()),
                                  sort_keys=True)
            return json.dumps(self.expo_metrics_doc(), sort_keys=True)
        if verb in FRONT_VERBS and name == "_":
            return self._front_verb(verb, args)
        if verb == "init":
            with open(args[0]) as fh:
                source = fh.read()
            self.manager.create(name, source)
            return f"created {name}"
        if verb == "source":
            return self.manager.source(
                name, show_labels=bool(args and args[0] == "labels"))
        with self.manager.session(name) as session:
            if verb == "opps":
                return session.engine.describe_opps(*args[:1])
            if verb in COMMAND_VERBS:
                cmd = parse_verb(verb, args)
                session.execute(cmd)
                return cmd.describe()
            if verb == "batch":
                cmd = parse_batch(args)
                result = session.execute(cmd)
                if result.error is not None:
                    return error_reply(
                        "batch", f"stopped after {len(result.executed)} "
                        f"command(s): {result.error}")
                return cmd.describe()
            if verb == "log":
                return "\n".join(
                    json.dumps(cmd, sort_keys=True)
                    for cmd in session.log()) or "(empty log)"
            if verb == "metrics":
                return json.dumps(session.metrics(), sort_keys=True)
            if verb == "trace":
                tail = int(args[0]) if args else None
                spans = session.tracer.recorder.spans(tail)
                return "\n".join(s.to_line() for s in spans) \
                    or "(no spans)"
            if verb == "explain":
                stamp = int(args[0])
                mode = args[1] if len(args) > 1 else ""
                if mode == "dot":
                    trees = stamp_trees(
                        read_audit(audit_path(session.dirpath)), stamp)
                    if not trees:
                        return "(no provenance recorded)"
                    return provenance_to_dot(trees, title=f"t{stamp}")
                history = session.explain_events(stamp)
                if history is None:
                    history = stamp_events(
                        read_audit(audit_path(session.dirpath)), stamp)
                doc = explain_doc(session.engine.explain(stamp), history,
                                  stamp)
                if mode == "json":
                    return json.dumps(doc, sort_keys=True)
                return render_explanation(doc)
            if verb == "audit":
                if args and args[0] == "check":
                    report = audit_roundtrip(session.dirpath)
                    if report.ok:
                        return report.describe()
                    return error_reply("audit-mismatch",
                                       "; ".join(report.problems))
                # counts mean what ``tail_of`` says, as for ``trace``
                tail = int(args[0]) if args else None
                entries = read_audit(audit_path(session.dirpath), tail=tail)
                return "\n".join(json.dumps(e, sort_keys=True)
                                 for e in entries) or "(no audit entries)"
            if verb == "snapshot":
                path = session.snapshot()
                return f"snapshot: {path}" if path else "(nothing new)"
        return error_reply("unknown-verb", repr(verb))

    def expo_metrics_doc(self) -> Dict[str, Any]:
        """The ``_ metrics`` document: the manager's aggregate.

        The front's own instruments share the manager's registry, so
        the profiler's drop counter and the TCP edge's rejected-line
        counter are already in it; the profiler's sample count is set
        as the ``repro_prof_samples`` gauge first.  Together with the
        span drops, every observability loss channel (flight-recorder
        rings, profiler ticks) is countable from one document, and sums
        across shards in
        :func:`repro.obs.metrics.merge_aggregate_metrics`.
        """
        self._note_profiler()
        return self.manager.aggregate_metrics()

    def _health_detail(self) -> Dict[str, Any]:
        return {"pid": os.getpid()}

    def _varz_detail(self) -> Dict[str, Any]:
        return {"stats": self.manager.stats()}

    def close(self) -> None:
        """Shutdown hook: stop sampling, snapshot and close sessions."""
        self.profiler.stop()
        self.manager.close_all()

    def serve(self, in_stream: IO[str], out_stream: IO[str]) -> int:
        """Serve requests until EOF; returns requests handled."""
        handled = serve_stream(self, in_stream, out_stream)
        self.close()
        return handled
