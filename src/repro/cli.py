"""An interactive transformation session — PIVOT's textual cousin.

The paper's undo facility lives in an interactive parallelization
environment [5]; this module provides a command-line equivalent::

    python -m repro program.loop

Commands (also ``help`` inside the session)::

    show [labels]        print the current program
    opps [name]          list opportunities (all kinds, or one)
    apply <name> [k]     apply the k-th opportunity of a transformation
    history              the applied-transformation history
    undo <stamp>         independent-order undo (Figure 4)
    undo-lifo <stamp>    reverse-order undo to a target [5]
    safety [stamp]       safety re-check (one record or all)
    revers [stamp]       reversibility (post-pattern) status
    view                 the two-level APDG/ADAG representation
    cost                 static cost/parallelism estimate
    table4               the interaction matrix
    edit-del <sid>       user edit: delete statement
    edit-unsafe          find & remove transformations edits broke
    batch <verb args> [; <verb args>]...
                         run a ;-separated command group as one unit
    quit

Every command is a pure function of the session state, so the test
suite drives the same code paths the interactive loop uses.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional

from repro.core.commands import (
    ApplyCommand,
    CommandError,
    EditCommand,
    UndoCommand,
    UndoLifoCommand,
    parse_batch,
)
from repro.core.engine import TransformationEngine
from repro.core.interactions import render_table4
from repro.core.undo import UndoError
from repro.edit.edits import EditReport
from repro.edit.invalidate import remove_unsafe
from repro.lang.parser import ParseError, parse_program
from repro.model.costmodel import estimate_cost
from repro.repr2 import TwoLevelRepresentation


class CliSession:
    """One interactive session over one program."""

    def __init__(self, source: str):
        self.engine = TransformationEngine(parse_program(source))
        self._pending_edits: List[EditReport] = []
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "show": self.cmd_show,
            "opps": self.cmd_opps,
            "apply": self.cmd_apply,
            "history": self.cmd_history,
            "undo": self.cmd_undo,
            "undo-lifo": self.cmd_undo_lifo,
            "safety": self.cmd_safety,
            "revers": self.cmd_revers,
            "view": self.cmd_view,
            "cost": self.cmd_cost,
            "table2": self.cmd_table2,
            "table3": self.cmd_table3,
            "table4": self.cmd_table4,
            "edit-del": self.cmd_edit_del,
            "edit-unsafe": self.cmd_edit_unsafe,
            "batch": self.cmd_batch,
            "help": self.cmd_help,
        }

    # -- dispatch --------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the text to display."""
        parts = line.strip().split()
        if not parts:
            return ""
        cmd, args = parts[0], parts[1:]
        fn = self._commands.get(cmd)
        if fn is None:
            return f"unknown command {cmd!r} (try 'help')"
        try:
            return fn(args)
        except (CommandError, UndoError, ParseError) as exc:
            return f"error: {exc}"
        except (KeyError, IndexError, ValueError) as exc:
            return f"error: bad argument ({exc})"

    # -- commands ----------------------------------------------------------------

    def cmd_show(self, args: List[str]) -> str:
        """``show [labels]`` — print the current program."""
        return self.engine.source(show_labels=bool(args and
                                                   args[0] == "labels"))

    def cmd_opps(self, args: List[str]) -> str:
        """``opps [name]`` — list opportunities."""
        return self.engine.describe_opps(*args[:1])

    def cmd_apply(self, args: List[str]) -> str:
        """``apply <name> [k]`` — apply the k-th opportunity."""
        name = args[0]
        k = int(args[1]) if len(args) > 1 else 0
        opps = self.engine.find(name)
        if not opps:
            return f"no {name} opportunity"
        if not 0 <= k < len(opps):
            return f"index {k} out of range (0..{len(opps) - 1})"
        cmd = ApplyCommand.from_opportunity(opps[k])
        self.engine.execute(cmd)
        return f"applied t{cmd.stamp}: {name} — {opps[k].description}"

    def cmd_history(self, args: List[str]) -> str:
        """``history`` — the transformation history."""
        text = self.engine.history.describe()
        return text if text else "(empty history)"

    def cmd_undo(self, args: List[str]) -> str:
        """``undo <stamp>`` — independent-order undo (Figure 4)."""
        stamp = int(args[0])
        report = self.engine.execute(UndoCommand(stamp=stamp))
        out = [f"undone: {report.undone}"]
        if report.affecting:
            out.append(f"affecting (peeled first): {report.affecting}")
        if report.affected:
            out.append(f"affected (rippled): {report.affected}")
        out.append(f"checks: {report.reversibility_checks} reversibility, "
                   f"{report.safety_checks} safety "
                   f"({report.heuristic_skips} heuristic skips, "
                   f"{report.region_skips} region skips)")
        return "\n".join(out)

    def cmd_undo_lifo(self, args: List[str]) -> str:
        """``undo-lifo <stamp>`` — reverse-order undo [5]."""
        stamp = int(args[0])
        report = self.engine.execute(UndoLifoCommand(stamp=stamp))
        return (f"undone (last-first): {report.undone}\n"
                f"collateral removals: {report.collateral}")

    def cmd_safety(self, args: List[str]) -> str:
        """``safety [stamp]`` — safety re-check status."""
        records = ([self.engine.history.by_stamp(int(args[0]))] if args
                   else self.engine.history.active())
        lines = []
        for rec in records:
            if not rec.active or rec.is_edit:
                continue
            result = self.engine.check_safety(rec.stamp)
            status = "safe" if result.safe else \
                f"UNSAFE: {'; '.join(result.reasons)}"
            lines.append(f"  t{rec.stamp} {rec.name}: {status}")
        return "\n".join(lines) if lines else "(nothing applied)"

    def cmd_revers(self, args: List[str]) -> str:
        """``revers [stamp]`` — reversibility (post-pattern) status."""
        records = ([self.engine.history.by_stamp(int(args[0]))] if args
                   else self.engine.history.active())
        lines = []
        for rec in records:
            if not rec.active or rec.is_edit:
                continue
            rr = self.engine.check_reversibility(rec.stamp)
            if rr.reversible:
                lines.append(f"  t{rec.stamp} {rec.name}: "
                             "immediately reversible")
            else:
                v = rr.violations[0]
                who = f" (undo t{v.stamp} first)" if v.stamp else ""
                lines.append(f"  t{rec.stamp} {rec.name}: BLOCKED — "
                             f"{v.condition}{who}")
        return "\n".join(lines) if lines else "(nothing applied)"

    def cmd_view(self, args: List[str]) -> str:
        """``view`` — the two-level APDG/ADAG representation."""
        return TwoLevelRepresentation.of(self.engine).render()

    def cmd_cost(self, args: List[str]) -> str:
        """``cost`` — static cost/parallelism estimate."""
        est = estimate_cost(self.engine.program)
        return (f"ops={est.total_ops:.0f} parallel_fraction="
                f"{est.parallel_fraction:.2f} est_speedup={est.speedup:.2f}x "
                f"doall_loops={est.doall_loops}")

    def cmd_table2(self, args: List[str]) -> str:
        """``table2`` — generated Table 2 rows for the catalog."""
        lines = []
        for name in sorted(self.engine.registry):
            row = self.engine.registry[name].table2_row()
            lines.append(f"{row['transformation']}")
            lines.append(f"  pre:     {row['pre_pattern']}")
            lines.append(f"  actions: {row['primitive_actions']}")
            lines.append(f"  post:    {row['post_pattern']}")
        return "\n".join(lines)

    def cmd_table3(self, args: List[str]) -> str:
        """``table3`` — generated disabling-condition rows."""
        lines = []
        for name in sorted(self.engine.registry):
            row = self.engine.registry[name].table3_row()
            lines.append(f"{name.upper()}:")
            for c in row["safety"]:
                lines.append(f"  safety: {c}")
            for c in row["reversibility"]:
                lines.append(f"  reversibility: {c}")
        return "\n".join(lines)

    def cmd_table4(self, args: List[str]) -> str:
        """``table4`` — the interaction matrix."""
        return render_table4()

    def cmd_edit_del(self, args: List[str]) -> str:
        """``edit-del <sid>`` — user edit: delete a statement."""
        sid = int(args[0])
        report = self.engine.execute(EditCommand(kind="delete", sid=sid))
        self._pending_edits.append(report)
        return f"edit t{report.record.stamp}: deleted S{sid}"

    def cmd_batch(self, args: List[str]) -> str:
        """``batch <verb args> [; ...]`` — one transactional group."""
        cmd = parse_batch(args)
        result = self.engine.execute(cmd)
        lines = [sub.describe() for sub in cmd.commands]
        if result.error is not None:
            lines.append(f"batch stopped: {result.error}")
        return "\n".join(lines)

    def cmd_edit_unsafe(self, args: List[str]) -> str:
        """``edit-unsafe`` — remove transformations pending edits broke."""
        if not self._pending_edits:
            return "(no pending edits)"
        lines = []
        for report in self._pending_edits:
            stats = remove_unsafe(self.engine, report)
            lines.append(f"edit t{report.record.stamp}: "
                         f"checked {stats.safety_checks}, "
                         f"skipped {stats.region_skips}, "
                         f"removed {stats.removed or 'nothing'}")
        self._pending_edits.clear()
        return "\n".join(lines)

    def cmd_help(self, args: List[str]) -> str:
        """``help`` — the command reference."""
        return __doc__.split("Commands", 1)[1]


USAGE = """\
usage: python -m repro <program file>            interactive session
       python -m repro serve <root> [--shards N] [--port P] [--host H]
                                    [--metrics-port M] [--slow-ms S]
                                    [--deadline-ms D]
           line-protocol server: on stdio by default, on TCP with
           --port (0 picks a free port, printed as 'listening on ...');
           --shards N routes sessions across N worker processes by
           hashing the session name (see docs/SCALING.md);
           --metrics-port M serves /metrics /healthz /varz over HTTP
           (0 picks a free port, printed as 'metrics on ...');
           --slow-ms S sets the slow-request log threshold (0 records
           every request); --deadline-ms D flags and counts requests
           over their budget
       python -m repro collect <root> [--request R] [--check] [--json]
           merge the fleet's span streams (router-trace.jsonl + every
           session trace.jsonl) into per-request end-to-end traces;
           --check verifies the cross-shard round-trip (exit 1 on any
           mismatch)
       python -m repro session <root> <name> <verb> [args...]
           verbs: init <file> | apply <name> [k] | undo <stamp>
                  undo-lifo <stamp> | edit-del <sid> | log | show
                  batch <verb args ; verb args ...> | metrics
                  snapshot | reopen [--verify]
       python -m repro trace <root> <name> [--tail N] [--check]
           print a session's recorded spans (trace.jsonl); --check joins
           them against the journal (exit 1 on any mismatch)
       python -m repro audit <root> <name> [--tail N] [--check]
           print a session's audit log (audit.jsonl); --check joins it
           against the journal (exit 1 on any mismatch)
       python -m repro explain <root> <name> <stamp> [--json | --dot]
           why <stamp> is (un)safe / (ir)reversible now, plus its audit
           trail; --dot exports the provenance trees that mention it
       python -m repro prof <root> [--hz N] [--seconds S] [--out FILE]
           sample the engine hot path with the built-in sampling
           profiler: drives a scratch session under <root> through the
           apply/undo workload for S seconds (default 2) at N hz
           (default 100), prints the hottest frames, and with --out
           writes the collapsed-stack profile (flamegraph.pl input);
           profile a live server with '_ prof start|stop|dump' or
           'GET /pprof' instead"""


def _main_serve(argv: List[str]) -> int:
    """``repro serve <root> [--shards N] [--port P] [--host H] ...``.

    Stdio by default (the PR 2 behaviour, unchanged); ``--port`` starts
    the TCP front-end instead and prints ``listening on <host>:<port>``
    once it is accepting — with ``--port 0`` that line is how callers
    learn the bound port.  ``--shards N`` (either transport) routes
    sessions across N worker processes by name hash.  ``--metrics-port``
    starts the HTTP exposition sidecar (``/metrics`` ``/healthz``
    ``/varz``) next to either transport and prints ``metrics on
    <host>:<port>`` the same way; ``--slow-ms`` / ``--deadline-ms``
    tune the slow-request log threshold and the per-request deadline
    budget (see docs/OBSERVABILITY.md).
    """
    from repro.service.server import SessionServer, serve_stream
    from repro.service.session import SessionManager

    host, port, shards = "127.0.0.1", None, 0
    metrics_port: Optional[int] = None
    slow_ms: Optional[float] = 250.0
    deadline_ms: Optional[float] = None
    pos: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--port", "--host", "--shards", "--metrics-port",
                   "--slow-ms", "--deadline-ms"):
            i += 1
            if i >= len(argv):
                print(USAGE)
                return 2
            if arg == "--port":
                port = int(argv[i])
            elif arg == "--host":
                host = argv[i]
            elif arg == "--metrics-port":
                metrics_port = int(argv[i])
            elif arg == "--slow-ms":
                slow_ms = float(argv[i])
            elif arg == "--deadline-ms":
                deadline_ms = float(argv[i])
            else:
                shards = int(argv[i])
        else:
            pos.append(arg)
        i += 1
    if len(pos) != 1 or shards < 0:
        print(USAGE)
        return 2

    obs_kwargs = {"slow_ms": slow_ms, "deadline_ms": deadline_ms}
    if shards:
        from repro.service.shard import ShardRouter
        front = ShardRouter(pos[0], shards, **obs_kwargs)
    else:
        front = SessionServer(SessionManager(pos[0]), **obs_kwargs)
    expo = None
    if metrics_port is not None:
        from repro.obs.expo import ExpoServer
        expo = ExpoServer(front, host=host, port=metrics_port).start()
        expo_host, expo_port = expo.address
        print(f"metrics on {expo_host}:{expo_port}", flush=True)
    if port is None:
        try:
            serve_stream(front, sys.stdin, sys.stdout)
        finally:
            if expo is not None:
                expo.close()
            front.close()
        return 0
    from repro.service.netserver import NetServer
    server = NetServer(front, host=host, port=port)
    bound_host, bound_port = server.address
    print(f"listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if expo is not None:
            expo.close()
        server.shutdown()
    return 0


def _main_collect(argv: List[str]) -> int:
    """``repro collect <root> [--request R] [--check] [--json]``.

    Reads every span stream under a service root (the router's
    ``router-trace.jsonl`` plus each session's ``trace.jsonl``) and
    prints the merged per-request traces — rendered trees by default,
    JSON documents with ``--json``.  ``--request R`` narrows to one
    request id; ``--check`` runs the cross-shard round-trip
    (:func:`repro.obs.check.fleet_roundtrip`) and exits 1 on mismatch.
    """
    import json

    from repro.obs.check import fleet_roundtrip
    from repro.obs.collector import collect_requests

    want: Optional[str] = None
    check = as_json = False
    pos: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--request":
            i += 1
            if i >= len(argv):
                print(USAGE)
                return 2
            want = argv[i]
        elif arg == "--check":
            check = True
        elif arg == "--json":
            as_json = True
        else:
            pos.append(arg)
        i += 1
    if len(pos) != 1:
        print(USAGE)
        return 2
    traces = collect_requests(pos[0])
    if want is not None:
        traces = {rid: t for rid, t in traces.items() if rid == want}
        if not traces:
            print(f"error: collect: no spans for request {want!r}")
            return 1
    try:
        for trace in traces.values():
            if as_json:
                print(json.dumps(trace.to_doc(), sort_keys=True))
            else:
                print(trace.render())
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream closed early (| head, a pager) — swallow the
        # pipe error and suppress the interpreter's flush-at-exit one
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if check:
        report = fleet_roundtrip(pos[0])
        print(report.describe())
        return 0 if report.ok else 1
    return 0


def _main_session(argv: List[str]) -> int:
    """``repro session <root> <name> <verb> [args...]`` — one-shot command."""
    from repro.service.server import SessionServer
    from repro.service.session import DurableSession, SessionManager

    if len(argv) < 3:
        print(USAGE)
        return 2
    root, name, verb, args = argv[0], argv[1], argv[2], argv[3:]
    import os

    if verb == "reopen":
        # explicit crash-recovery entry point, bypassing the manager so
        # --verify can request the from-scratch replay check
        session = DurableSession.open(os.path.join(root, name),
                                      verify="--verify" in args)
        r = session.recovery
        print(f"reopened {name}: seq {r.seq}, replayed {r.replayed} "
              f"command(s) from "
              f"{'snapshot ' + str(r.snapshot_seq) if r.snapshot_seq else 'genesis'}"
              + (f", dropped {r.torn_bytes} torn byte(s)" if r.torn_bytes
                 else "")
              + (", verified" if r.verified else ""))
        session.snapshot()
        session.close()
        return 0
    if verb == "show":
        verb, args = "source", ["labels"]
    manager = SessionManager(root)
    server = SessionServer(manager)
    out = server.handle_line(" ".join([name, verb] + args))
    manager.close_all()
    if out:
        print(out)
    return 1 if out.startswith("error:") else 0


def _main_log(kind: str, argv: List[str]) -> int:
    """``repro trace|audit <root> <name> [--tail N] [--check]``.

    Reads a session's on-disk ``trace.jsonl`` or ``audit.jsonl`` (no
    live session or lock needed — both logs are append-only), prints
    the records as JSON lines, and with ``--check`` joins the log
    against the journal (:func:`repro.obs.check.trace_roundtrip` or
    :func:`~repro.obs.check.audit_roundtrip`), exiting 1 on any
    mismatch.
    """
    import json
    import os

    from repro.obs.check import (audit_roundtrip, trace_path,
                                 trace_roundtrip)
    from repro.obs.provenance import audit_path, read_audit
    from repro.obs.trace import read_trace

    path_of, read, roundtrip = {
        "trace": (trace_path, read_trace, trace_roundtrip),
        "audit": (audit_path, read_audit, audit_roundtrip)}[kind]
    tail: Optional[int] = None
    check = False
    pos: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--tail":
            i += 1
            if i >= len(argv):
                print(USAGE)
                return 2
            tail = int(argv[i])
        elif arg == "--check":
            check = True
        else:
            pos.append(arg)
        i += 1
    if len(pos) != 2:
        print(USAGE)
        return 2
    dirpath = os.path.join(pos[0], pos[1])
    for doc in read(path_of(dirpath), tail):
        print(json.dumps(doc, sort_keys=True))
    if check:
        report = roundtrip(dirpath)
        print(report.describe())
        return 0 if report.ok else 1
    return 0


def _main_explain(argv: List[str]) -> int:
    """``repro explain <root> <name> <stamp> [--json | --dot]``.

    One-shot wrapper over the server's ``explain`` verb so the CLI and
    the line protocol share one code path (live verdicts need the
    recovered engine, so the session is opened like any other one-shot
    command).
    """
    from repro.service.server import SessionServer
    from repro.service.session import SessionManager

    mode = ""
    pos: List[str] = []
    for arg in argv:
        if arg == "--json":
            mode = "json"
        elif arg == "--dot":
            mode = "dot"
        else:
            pos.append(arg)
    if len(pos) != 3:
        print(USAGE)
        return 2
    root, name, stamp = pos
    manager = SessionManager(root)
    server = SessionServer(manager)
    out = server.handle_line(" ".join([name, "explain", stamp, mode]))
    manager.close_all()
    if out:
        print(out)
    return 1 if out.startswith("error:") else 0


def _main_prof(argv: List[str]) -> int:
    """``repro prof <root> [--hz N] [--seconds S] [--out FILE]``.

    The offline profiling entry point: creates a *scratch* durable
    session in a temporary directory under ``<root>`` (removed
    afterwards — never touches existing sessions), drives the
    deterministic apply/undo hot-path workload for ``--seconds`` of
    wall clock under the sampling profiler
    (:class:`repro.obs.profiler.Profiler`), and prints the hottest
    frames by self samples.  ``--out`` additionally writes the
    collapsed-stack profile — feed it straight to ``flamegraph.pl``.
    Live servers are profiled in place instead: ``_ prof
    start|stop|dump`` over the line protocol, or ``GET
    /pprof?seconds=N`` on the metrics sidecar.
    """
    import os
    import shutil
    import tempfile
    import time

    from repro.lang.printer import format_program
    from repro.obs.profiler import Profiler
    from repro.service.session import DurableSession
    from repro.workloads.generator import GeneratorConfig, generate_program
    from repro.workloads.scenarios import apply_greedy

    hz, seconds = 100.0, 2.0
    out_path: Optional[str] = None
    pos: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--hz", "--seconds", "--out"):
            i += 1
            if i >= len(argv):
                print(USAGE)
                return 2
            if arg == "--hz":
                hz = float(argv[i])
            elif arg == "--seconds":
                seconds = float(argv[i])
            else:
                out_path = argv[i]
        else:
            pos.append(arg)
        i += 1
    if len(pos) != 1 or hz <= 0 or seconds <= 0:
        print(USAGE)
        return 2
    os.makedirs(pos[0], exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="prof-", dir=pos[0])
    profiler = Profiler(hz=hz)
    source = format_program(generate_program(23, GeneratorConfig(blocks=24)))
    commands = 0
    try:
        session = DurableSession.create(
            os.path.join(scratch, "session"), source, snapshot_every=16)
        profiler.start()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            # apply a couple, then undo them — undo restores the
            # opportunities, so the mix sustains for the whole window
            # and exercises every phase: parse (once), analyze, check,
            # mutate, journal append, fsync, periodic delta snapshots
            stamps = apply_greedy(session.engine, 2, seed=23 + commands)
            commands += len(stamps)
            for stamp in reversed(stamps):
                if session.engine.history.by_stamp(stamp).active:
                    session.undo(stamp)
                    commands += 1
            if not stamps:
                break
        profiler.stop()
        session.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    snap = profiler.snapshot()
    print(f"profiled {commands} command(s) at {profiler.hz:g} hz: "
          f"{snap['samples']} sample(s), {snap['dropped']} dropped, "
          f"{snap['wall_s']:.2f}s wall")
    rows = profiler.table()[:20]
    if rows:
        width = max(len(r["frame"]) for r in rows)
        print(f"{'frame':<{width}}  {'self':>6} {'cum':>6} "
              f"{'self_s':>8} {'cum_s':>8}")
        for r in rows:
            print(f"{r['frame']:<{width}}  {r['self']:>6} {r['cum']:>6} "
                  f"{r['self_s']:>8.3f} {r['cum_s']:>8.3f}")
    if out_path is not None:
        folded = profiler.folded()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(folded + ("\n" if folded else ""))
        print(f"collapsed stacks written to {out_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        print(USAGE)
        return 2
    if argv[0] == "serve":
        return _main_serve(argv[1:])
    if argv[0] == "collect":
        return _main_collect(argv[1:])
    if argv[0] == "session":
        return _main_session(argv[1:])
    if argv[0] in ("trace", "audit"):
        return _main_log(argv[0], argv[1:])
    if argv[0] == "explain":
        return _main_explain(argv[1:])
    if argv[0] == "prof":
        return _main_prof(argv[1:])
    with open(argv[0]) as fh:
        source = fh.read()
    session = CliSession(source)
    print("repro interactive session — 'help' for commands")
    print(session.cmd_show(["labels"]))
    while True:
        try:
            line = input("repro> ")
        except EOFError:
            break
        if line.strip() in ("quit", "exit"):
            break
        out = session.execute(line)
        if out:
            print(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
