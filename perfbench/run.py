"""Service benchmark: closed-loop clients against a real 2-shard fleet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One load-generating process runs two client threads, each on its own
TCP connection, against the fleet :mod:`fleet` spawns (a ``ShardRouter``
with two spawned workers behind a ``NetServer``).  Every client is a
closed loop: it sends its next request only after the previous reply.
Inputs (programs, session names, command choices) derive from
``--seed``; the fleet sees only the generated request lines.

``--trace 0`` reports the end-to-end metrics of untraced fleets.
``--trace 1`` measures one untraced and one traced fleet and reports
the per-layer budget (:mod:`layertrace`) plus the tracing overhead.
Every reply is checked as it arrives and every session directory is
verified after shutdown; the last line of standard output is the JSON
result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from layertrace import (CLIENT_SPAN, SPANS, clock, layer_budget,
                        load_spans)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything a run writes (service roots, program files, span dumps).
WORK = os.path.join(HERE, "work")

NSHARDS = 2
NCLIENTS = 2
#: fleets per ``--trace 0`` run, one after another, each measured for a
#: third of ``--seconds``: ``setup_s`` is the median of their set-up
#: times, and the other metrics pool their measured phases, so that no
#: one fleet's start (hash seeds, memory layout, what the host ran
#: then) sets a run's figures.
FLEETS = 3
#: seconds between samples of the CPU time the host steals.
STEAL_SAMPLE_S = 0.25
#: the measured phase is cut into windows of about this many seconds;
#: latency and throughput count only the requests that complete in its
#: quiet windows (see :meth:`Phase.quiet_windows`).
WINDOW_S = 1.0
#: a window is quiet when the host stole at most this share of the
#: machine's CPU time in it ...
QUIET_STEAL = 0.03
#: ... unless quiet windows cover less than this share of the phase;
#: then the windows with the least stolen time that cover it count.
MIN_QUIET_SHARE = 0.25
#: a reply slower than this counts as a client timeout.
CLIENT_TIMEOUT_S = 60.0
#: the whole run, build-free, must end well inside the 180 s limit.
RUN_ALARM_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_rps": "req/s",
    "write_p50_ms": "ms", "write_p99_ms": "ms", "read_p50_ms": "ms",
    "worker_rss_mb": "MB", "disk_bytes_per_cmd": "B",
}

#: the three-statement program of the E8 benchmark.
TINY_PROGRAM = "c = 1\nx = c + 2\nwrite x\n"
#: small-strict opens a fresh session after this many commands.
SESSION_COMMANDS = 256
#: large-cascade: applied transformations each session starts with; each
#: cycle applies until the active set exceeds this size, then undoes.
CASCADE_PRELOAD = 40
CASCADE_BLOCKS = 24
#: large-cascade: sessions per client, visited in turn.
CASCADE_SESSIONS = 6
#: long-churn: sessions per client and commands preloaded into each.
CHURN_SESSIONS = 6
CHURN_HISTORY = 100

APPLIED_RE = re.compile(r"applied t(\d+): (\w+)$")
UNDONE_RE = re.compile(r"undone: \[([\d, ]*)\]$")
OPP_RE = re.compile(r"  (\w+)\[(\d+)\]: ")


class Done(Exception):
    """The measured phase's deadline passed."""


class Failure(Exception):
    """A reply failed or did not parse as the workload expects."""


# -- the client -------------------------------------------------------------


class Client:
    """One closed-loop client on its own TCP connection."""

    def __init__(self, index: int, address, seed: int, workload: str):
        from repro.service.netserver import LineClient

        self.index = index
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self.conn = LineClient(*address, timeout=CLIENT_TIMEOUT_S)
        self.deadline: Optional[float] = None
        #: measured requests: (is_write, start, duration).
        self.samples: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        #: journaled commands this client saw commit (setup included).
        self.committed = 0
        #: cascade sizes of measured undos.
        self.undone_sizes: List[int] = []
        self.problem: Optional[str] = None
        self.started = self.ended = 0.0
        #: workload state (session names, active stamps, ...).
        self.state: Dict = {}

    def request(self, line: str, write: bool) -> str:
        """One round trip; raises :class:`Failure` on a failed reply."""
        from repro.service.server import DEADLINE_FLAG, ERROR_PREFIX

        measuring = self.deadline is not None
        if measuring and clock() >= self.deadline:
            raise Done
        if measuring:
            self.attempted += 1
        start = clock()
        try:
            reply = self.conn.request(line)
        except OSError as exc:  # timeouts and dropped connections
            self.failed += measuring
            raise Failure(f"{line!r}: {type(exc).__name__}: {exc}") from exc
        end = clock()
        if reply.startswith(ERROR_PREFIX) or DEADLINE_FLAG in reply:
            self.failed += measuring
            raise Failure(f"{line!r} -> {reply!r}")
        if measuring:
            self.samples.append((write, start, end - start))
            self.ended = end
        return reply

    # typed requests: each checks its reply ------------------------------

    def init(self, name: str, program: str) -> None:
        out = self.request(f"{name} init {program}", True)
        expect(out == f"created {name}", name, out)

    def apply(self, name: str, kind: str, k: int) -> int:
        out = self.request(f"{name} apply {kind} {k}", True)
        m = APPLIED_RE.match(out)
        expect(m is not None and m.group(2) == kind, name, out)
        self.committed += 1
        return int(m.group(1))

    def undo(self, name: str, stamp: int) -> List[int]:
        out = self.request(f"{name} undo {stamp}", True)
        m = UNDONE_RE.match(out)
        undone = [int(s) for s in re.findall(r"\d+", m.group(1))] if m else []
        expect(stamp in undone, name, out)
        self.committed += 1
        if self.deadline is not None:
            self.undone_sizes.append(len(undone))
        return undone

    def opps(self, name: str, kind: str) -> int:
        out = self.request(f"{name} opps {kind}", False)
        if out == "(no opportunities)":
            return 0
        rows = [OPP_RE.match(line) for line in out.splitlines()]
        expect(all(m and m.group(1) == kind and int(m.group(2)) == k
                   for k, m in enumerate(rows)), name, out)
        return len(rows)

    def explain(self, name: str, stamp: int) -> None:
        out = self.request(f"{name} explain {stamp}", False)
        expect(out.startswith(f"t{stamp} ") and "— active" in
               out.splitlines()[0], name, out)

    def source(self, name: str, expected: Optional[str] = None) -> None:
        out = self.request(f"{name} source", False)
        expect(out.strip() != "" and (expected is None
                                      or out == expected), name, out)

    def run(self, loop: Callable[["Client"], None]) -> None:
        """Drive ``loop`` until the deadline; record why it stopped."""
        try:
            loop(self)
        except Done:
            pass
        except Failure as exc:
            self.problem = str(exc)
        except Exception:  # a defect must fail the run, not end a thread
            self.problem = traceback.format_exc()

    def close(self) -> None:
        self.conn.close()


def expect(ok: bool, name: str, reply: str) -> None:
    if not ok:
        raise Failure(f"unexpected reply for session {name}: {reply!r}")


# -- workloads --------------------------------------------------------------


@dataclass
class Plan:
    """The generated inputs of one run (everything derives from seed)."""

    seed: int
    workdir: str
    programs: List[str] = field(default_factory=list)
    #: the tiny program's text before and after ``apply ctp 0``.
    original_source: Optional[str] = None
    expected_source: Optional[str] = None

    def session_name(self, client: int, n: int) -> str:
        """The ``n``-th session name of a client, routed to the client's
        own shard so the two clients never share a shard lock."""
        from repro.service.shard import shard_index

        j = 0
        while True:
            name = f"s{self.seed}c{client}n{n}v{j}"
            if shard_index(name, NSHARDS) == client % NSHARDS:
                return name
            j += 1


def write_program(plan: Plan, name: str, text: str) -> str:
    path = os.path.join(plan.workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def tiny_plan(plan: Plan) -> None:
    """The E8 program and its text after ``apply ctp 0``."""
    from repro.core.engine import TransformationEngine
    from repro.lang.parser import parse_program

    plan.programs = [write_program(plan, "tiny.loop", TINY_PROGRAM)]
    engine = TransformationEngine(parse_program(TINY_PROGRAM))
    plan.original_source = engine.source().rstrip("\n")
    engine.apply(engine.find("ctp")[0])
    # replies carry no trailing newline
    plan.expected_source = engine.source().rstrip("\n")


def tiny_cycle(c: Client, plan: Plan, name: str) -> None:
    """apply ctp 0 -> source -> undo, on one session."""
    stamp = c.apply(name, "ctp", 0)
    c.source(name, plan.expected_source)
    c.undo(name, stamp)


def strict_setup(c: Client, plan: Plan) -> None:
    c.state.update(n=0, commands=0, name=plan.session_name(c.index, 0))
    c.init(c.state["name"], plan.programs[0])


def strict_loop(c: Client, plan: Plan) -> None:
    st = c.state
    while True:
        if st["commands"] >= SESSION_COMMANDS:
            st["n"] += 1
            st["commands"] = 0
            st["name"] = plan.session_name(c.index, st["n"])
            c.init(st["name"], plan.programs[0])
        tiny_cycle(c, plan, st["name"])
        st["commands"] += 2


def churn_setup(c: Client, plan: Plan) -> None:
    c.state["sessions"] = []
    for n in range(CHURN_SESSIONS):
        st = {"name": plan.session_name(c.index, n), "pending": None}
        c.state["sessions"].append(st)
        c.init(st["name"], plan.programs[0])
        for _ in range(CHURN_HISTORY // 2):
            tiny_cycle(c, plan, st["name"])


def churn_loop(c: Client, plan: Plan) -> None:
    """Each touch reopens a session and runs one step of its
    apply ctp 0 -> source -> undo cycle, then reads its source."""
    while True:
        for st in c.state["sessions"]:
            if st["pending"] is None:
                st["pending"] = c.apply(st["name"], "ctp", 0)
                c.source(st["name"], plan.expected_source)
            else:
                c.undo(st["name"], st["pending"])
                st["pending"] = None
                c.source(st["name"], plan.original_source)


def cascade_plan(plan: Plan) -> None:
    """One generated program per session (seeded ``generate_program``)."""
    from repro.lang.printer import format_program
    from repro.workloads.generator import GeneratorConfig, generate_program

    for k in range(NCLIENTS * CASCADE_SESSIONS):
        program = generate_program(plan.seed * NCLIENTS * CASCADE_SESSIONS
                                   + k, GeneratorConfig(blocks=CASCADE_BLOCKS))
        plan.programs.append(write_program(
            plan, f"cascade-{k}.loop", format_program(program)))


def cascade_apply(c: Client, st: Dict) -> None:
    """opps <kind> (kinds round-robin, empty ones skipped), then apply
    a seeded pick from the listing."""
    kinds = c.state["kinds"]
    for _ in range(len(kinds)):
        kind = kinds[st["next_kind"] % len(kinds)]
        st["next_kind"] += 1
        count = c.opps(st["name"], kind)
        if count:
            st["active"].append(c.apply(st["name"], kind,
                                        c.rng.randrange(count)))
            return
    raise Failure(f"session {st['name']}: no opportunities of any kind")


def cascade_setup(c: Client, plan: Plan) -> None:
    from repro.transforms.registry import REGISTRY

    c.state["kinds"] = sorted(REGISTRY)
    c.state["sessions"] = []
    for n in range(CASCADE_SESSIONS):
        st = {"name": plan.session_name(c.index, n), "next_kind": 0,
              "active": []}
        c.state["sessions"].append(st)
        c.init(st["name"], plan.programs[c.index * CASCADE_SESSIONS + n])
        while len(st["active"]) < CASCADE_PRELOAD:
            cascade_apply(c, st)


def cascade_loop(c: Client, plan: Plan) -> None:
    while True:
        for st in c.state["sessions"]:
            # refill what the last cascade took, so every cycle undoes
            while len(st["active"]) <= CASCADE_PRELOAD:
                cascade_apply(c, st)
            undone = set(c.undo(st["name"], min(st["active"])))
            st["active"] = [s for s in st["active"] if s not in undone]
            c.explain(st["name"], c.rng.choice(st["active"]))
            c.source(st["name"])


@dataclass
class Workload:
    """One traffic mix: shard-manager settings (defaults otherwise), the
    generated inputs, each client's set-up, and its closed loop."""

    name: str
    manager: Dict
    plan: Callable[[Plan], None]
    setup: Callable[[Client, Plan], None]
    loop: Callable[[Client, Plan], None]


WORKLOADS = {w.name: w for w in (
    Workload("small-strict", {"fsync_every": 1}, tiny_plan, strict_setup,
             strict_loop),
    Workload("large-cascade", {}, cascade_plan, cascade_setup,
             cascade_loop),
    Workload("long-churn", {"max_live": 2}, tiny_plan, churn_setup,
             churn_loop),
)}


# -- the fleet --------------------------------------------------------------


class Fleet:
    """The fleet process (:mod:`fleet`) and its two shard workers."""

    def __init__(self, root: str, manager: Dict, log_path: str,
                 trace_dir: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        argv = [sys.executable, os.path.join(HERE, "fleet.py"), root,
                json.dumps({"shards": NSHARDS, "manager": manager})]
        if trace_dir is not None:
            argv.append(trace_dir)
        self.log = open(log_path, "a", encoding="utf-8")
        # its own session, so a failed run can stop the workers too
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     env=env, cwd=ROOT, text=True,
                                     start_new_session=True)
        line = self.proc.stdout.readline()
        m = re.match(r"listening on (\S+):(\d+)", line)
        if m is None:
            self.kill()
            raise RuntimeError(f"fleet did not start (see {log_path})")
        self.address = (m.group(1), int(m.group(2)))
        self.worker_pids: List[int] = []

    def read_worker_pids(self, client: Client) -> None:
        doc = json.loads(client.request("_ shards", False))
        self.worker_pids = [w["pid"] for w in doc["workers"]]
        if len(self.worker_pids) != NSHARDS or not all(
                w["alive"] for w in doc["workers"]):
            raise Failure(f"unexpected shard status {doc!r}")

    def worker_rss_mb(self) -> float:
        """Summed peak RSS (``VmHWM``) of the shard workers."""
        total_kb = 0
        for pid in self.worker_pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Clean shutdown: EOF on stdin stops the server and workers;
        returns once every process of the fleet has ended."""
        try:
            self.proc.stdin.close()
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("fleet did not stop within 60 s")
        finally:
            self.log.close()
        # the workers and multiprocessing's resource tracker may outlive
        # the fleet process by a moment
        if not wait_group(self.proc.pid, 10.0):
            self.kill()
            raise RuntimeError("fleet processes outlived the fleet")
        if code != 0:
            raise RuntimeError(f"fleet exited with code {code}")

    def kill(self) -> None:
        """Stop the fleet process and its workers (one process group)
        and wait until all of them have ended."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()
        wait_group(self.proc.pid, 10.0)


# -- child processes --------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    a fleet's workers can still be waited for once the fleet process
    itself has exited."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def processes() -> List[tuple]:
    """(pid, parent pid, process group) of every process."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while being read
        out.append((int(entry), int(fields[1]), int(fields[2])))
    return out


def reap(pids: List[int]) -> None:
    """Collect those of ``pids`` that are this process's ended children."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def wait_group(pgid: int, timeout: float) -> bool:
    """Wait until no process of group ``pgid`` is left, reaping the ones
    this process adopted; after ``timeout`` seconds, kill the rest.
    Returns whether the group ended within ``timeout``."""
    me = os.getpid()
    deadline = clock() + timeout
    killed = False
    while True:
        members = [(pid, ppid) for pid, ppid, group in processes()
                   if group == pgid]
        reap([pid for pid, ppid in members if ppid == me])
        if not members:
            return not killed
        if clock() >= deadline:
            if killed and clock() >= deadline + timeout:
                raise RuntimeError(f"processes {members} would not end")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
        threading.Event().wait(0.01)


def stop_children() -> None:
    """Kill and reap every child still running (there should be none)."""
    me = os.getpid()
    for _ in range(500):
        children = [pid for pid, ppid, _g in processes() if ppid == me]
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap(children)
        threading.Event().wait(0.01)


# -- phases -----------------------------------------------------------------


@dataclass
class Phase:
    """What one fleet's set-up and measured phase produced."""

    setup_s: float
    clients: List[Client]
    start: float
    end: float
    rss_mb: float
    root: str
    trace_dir: Optional[str]
    #: :func:`disk_bytes` of the service root right after shutdown.
    disk: Dict[str, int]
    #: :class:`StealSampler` samples over the measured phase.
    steal: List[tuple]

    @property
    def samples(self) -> List[tuple]:
        return [s for c in self.clients for s in c.samples]

    def windows(self) -> List[tuple]:
        """(stolen share, start, end) of each window of about
        :data:`WINDOW_S` seconds between the steal samples."""
        step = max(1, round(WINDOW_S / STEAL_SAMPLE_S))
        marks = self.steal[::step]
        if (len(self.steal) - 1) % step:
            marks.append(self.steal[-1])
        return [((s1 - s0) / max(1, a1 - a0), t0, t1)
                for (t0, s0, a0), (t1, s1, a1) in zip(marks, marks[1:])]

    def quiet_windows(self) -> List[tuple]:
        """(start, end) of the windows the latency and throughput
        figures count.  The host steals CPU time from this machine in
        bursts of seconds, and a stolen share of ten or twenty percent
        slows the whole fleet by more than that; counting only the
        windows in which it stole little measures the service rather
        than the host."""
        windows = self.windows()
        quiet = [w for w in windows if w[0] <= QUIET_STEAL]
        need = MIN_QUIET_SHARE * sum(t1 - t0 for _s, t0, t1 in windows)
        if sum(t1 - t0 for _s, t0, t1 in quiet) < need:
            quiet, covered = [], 0.0
            for w in sorted(windows):
                if covered >= need:
                    break
                quiet.append(w)
                covered += w[2] - w[1]
        return sorted((t0, t1) for _s, t0, t1 in quiet)

    @property
    def quiet_samples(self) -> List[tuple]:
        """The measured requests that completed in a quiet window."""
        windows = self.quiet_windows()
        starts = [t0 for t0, _t1 in windows]
        out = []
        for sample in self.samples:
            done = sample[1] + sample[2]
            i = bisect.bisect_right(starts, done) - 1
            if i >= 0 and done < windows[i][1]:
                out.append(sample)
        return out

    @property
    def committed(self) -> int:
        return sum(c.committed for c in self.clients)

    @property
    def problems(self) -> List[str]:
        return [c.problem for c in self.clients if c.problem]


def cpu_jiffies() -> tuple:
    """(stolen, all) CPU time of this machine so far, from the first
    line of ``/proc/stat``, in clock ticks; ``steal`` is time the
    host ran something else while a virtual CPU wanted to run."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


class StealSampler:
    """Samples :func:`cpu_jiffies` every :data:`STEAL_SAMPLE_S` seconds
    on a background thread, between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.samples.append((clock(), *cpu_jiffies()))

    def _run(self) -> None:
        while not self._stop.wait(STEAL_SAMPLE_S):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def throughput(phases: List[Phase]) -> float:
    """Requests completed per second in the phases' quiet windows."""
    quiet_s = sum(t1 - t0 for p in phases for t0, t1 in p.quiet_windows())
    return sum(len(p.quiet_samples) for p in phases) / quiet_s


def in_parallel(clients: List[Client], fn: Callable[[Client], None]) -> None:
    """Run ``fn`` once per client, each on its own thread."""
    threads = [threading.Thread(target=c.run, args=(fn,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_phase(workload: Workload, plan: Plan, tag: str, seconds: float,
              trace: bool = False) -> Phase:
    """Spawn a fleet, set it up, measure it, shut it down."""
    root = os.path.join(plan.workdir, f"{tag}-root")
    trace_dir = os.path.join(plan.workdir, f"{tag}-spans") if trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    sampler = StealSampler()
    started = clock()
    fleet = Fleet(root, workload.manager,
                  os.path.join(plan.workdir, f"{tag}-fleet.log"), trace_dir)
    clients: List[Client] = []
    try:
        clients = [Client(i, fleet.address, plan.seed, workload.name)
                   for i in range(NCLIENTS)]
        in_parallel(clients, lambda c: workload.setup(c, plan))
        fail_on_problems(clients, "set-up")
        fleet.read_worker_pids(clients[0])
        start = clock()
        setup_s = start - started
        for c in clients:
            c.deadline = start + seconds
            c.started = start
        sampler.start()
        try:
            in_parallel(clients, lambda c: workload.loop(c, plan))
        finally:
            sampler.stop()
        for c in clients:
            c.deadline = None
        end = max([start] + [c.ended for c in clients])
        rss = fleet.worker_rss_mb()
    except BaseException:
        for c in clients:
            c.close()
        fleet.kill()
        raise
    for c in clients:
        c.close()
    fleet.stop()
    return Phase(setup_s, clients, start, end, rss, root, trace_dir,
                 disk_bytes(root), sampler.samples)


def fail_on_problems(clients: List[Client], what: str) -> None:
    problems = [c.problem for c in clients if c.problem]
    if problems:
        raise Failure(f"{what} failed: " + "; ".join(problems))


# -- checks and probes ------------------------------------------------------


def session_dirs(root: str) -> List[str]:
    from repro.service.recovery import meta_path

    out = []
    for shard in sorted(os.listdir(root)):
        shard_dir = os.path.join(root, shard)
        if not os.path.isdir(shard_dir):
            continue
        for name in sorted(os.listdir(shard_dir)):
            path = os.path.join(shard_dir, name)
            if os.path.exists(meta_path(path)):
                out.append(path)
    return out


def verify_session(path: str) -> List[str]:
    """Check one session directory after shutdown; returns problems."""
    from repro.obs.check import audit_roundtrip, trace_roundtrip
    from repro.service.session import DurableSession

    problems = []
    for check in (audit_roundtrip, trace_roundtrip):
        report = check(path)
        if not report.ok:
            problems.append(f"{path}: {check.__name__}: "
                            + "; ".join(report.problems[:3]))
    try:
        session = DurableSession.open(path, verify=True)
    except Exception as exc:  # report every failing session
        return problems + [f"{path}: open(verify=True): {exc!r}"]
    if session.recovery.verified is not True:
        problems.append(f"{path}: recovered state not verified")
    session.close()
    return problems


def verify_roots(roots: List[str]) -> List[str]:
    """Verify every session directory of stopped fleets in two
    processes at once (the fleets are gone, so both cores are free)."""
    missing = [f"{root}: no session directories" for root in roots
               if not session_dirs(root)]
    if missing:
        return missing
    dirs = [path for root in roots for path in session_dirs(root)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    procs = [subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--verify",
         *dirs[i::NSHARDS]], stdout=subprocess.PIPE, env=env, text=True)
        for i in range(min(NSHARDS, len(dirs)))]
    problems: List[str] = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            if proc.returncode != 0:
                problems.append(f"verifier exited with code "
                                f"{proc.returncode}")
            else:
                problems += json.loads(out.splitlines()[-1])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return problems


def disk_bytes(root: str) -> Dict[str, int]:
    """Bytes under a service root, in total and per kind of file."""
    from repro.obs.check import TRACE_FILE
    from repro.obs.provenance import AUDIT_FILE
    from repro.service.recovery import JOURNAL_FILE, SNAPSHOT_DIR
    from repro.service.shard import ROUTER_TRACE_FILE

    out = {"total": 0, "journal": 0, "snapshot": 0, "trace": 0, "audit": 0}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            size = os.path.getsize(os.path.join(dirpath, name))
            out["total"] += size
            if name == JOURNAL_FILE:
                out["journal"] += size
            elif os.path.basename(dirpath) == SNAPSHOT_DIR:
                out["snapshot"] += size
            elif name in (TRACE_FILE, ROUTER_TRACE_FILE):
                out["trace"] += size
            elif name == AUDIT_FILE:
                out["audit"] += size
    return out


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stolen_share(windows: List[tuple]) -> float:
    """Time-weighted stolen share of :meth:`Phase.windows` entries."""
    span = sum(t1 - t0 for _s, t0, t1 in windows)
    return sum(s * (t1 - t0) for s, t0, t1 in windows) / span if span else 0.0


def latency_ms(samples: List[tuple], q: float) -> float:
    """The ``q`` percentile of the samples' durations, in ms."""
    return percentile([d for _w, _start, d in samples], q) * 1e3


# -- results ----------------------------------------------------------------


def end_to_end(phases: List[Phase]) -> Dict[str, float]:
    quiet = [s for p in phases for s in p.quiet_samples]
    writes = [s for s in quiet if s[0]]
    reads = [s for s in quiet if not s[0]]
    return {
        "setup_s": statistics.median(p.setup_s for p in phases),
        "throughput_rps": throughput(phases),
        "write_p50_ms": latency_ms(writes, 0.50),
        "write_p99_ms": latency_ms(writes, 0.99),
        "read_p50_ms": latency_ms(reads, 0.50),
        "worker_rss_mb": statistics.median(p.rss_mb for p in phases),
        "disk_bytes_per_cmd": sum(p.disk["total"] for p in phases)
        / sum(p.committed for p in phases),
    }


def traced_budget(traced: Phase):
    """(layer budget, client wall seconds, measured requests) of a
    traced phase: every span recorded inside the measured window, plus
    one client span per measured request."""
    files = [os.path.join(traced.trace_dir, f)
             for f in sorted(os.listdir(traced.trace_dir))]
    if len(files) != NSHARDS + 1:
        raise Failure(f"expected {NSHARDS + 1} span files, found {files}")
    spans = [s for s in load_spans(files)
             if s[1] >= traced.start and s[1] + s[2] <= traced.end]
    spans += [(CLIENT_SPAN, start, dur, 0.0)
              for _w, start, dur in traced.samples]
    wall = sum(c.ended - c.started for c in traced.clients)
    return layer_budget(spans), wall, len(traced.samples)


def per_layer(untraced: Phase, traced: Phase) -> Dict[str, float]:
    budget, wall, ncmd = traced_budget(traced)
    out: Dict[str, float] = {}
    zero = {"calls": 0, "total": 0.0, "self": 0.0}
    for name in SPANS:
        row = budget.get(name, zero)
        out[f"{name}.calls_per_cmd"] = row["calls"] / ncmd
        out[f"{name}.ms_per_cmd"] = row["total"] * 1e3 / ncmd
        out[f"{name}.self_ms_per_cmd"] = row["self"] * 1e3 / ncmd
    attributed = sum(row["self"] for row in budget.values())
    out["unattributed.ms_per_cmd"] = (wall - attributed) * 1e3 / ncmd
    for kind in ("journal", "snapshot", "trace", "audit"):
        out[f"{kind}.bytes_per_cmd"] = traced.disk[kind] / traced.committed
    sizes = [n for c in traced.clients for n in c.undone_sizes]
    out["undo.stamps_per_undo"] = float(statistics.mean(sizes)) \
        if sizes else 0.0
    finds = budget.get("engine.find", zero)["calls"]
    out["analysis.dataflow_per_find"] = (
        budget.get("analysis.dataflow", zero)["calls"] / finds
        if finds else 0.0)
    out["trace_overhead_pct"] = 100.0 * (
        1.0 - throughput([traced]) / throughput([untraced]))
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("calls_per_cmd") or name.endswith("_per_find") \
            or name == "undo.stamps_per_undo":
        return "count"
    if name.endswith("ms_per_cmd"):
        return "ms"
    if name.endswith("bytes_per_cmd"):
        return "B"
    return "%"


def budget_table(metrics: Dict[str, float], rtt_ms: float) -> List[str]:
    """The traced per-layer budget as aligned text lines."""
    lines = [f"{'span':32} {'calls/cmd':>10} {'ms/cmd':>9} "
             f"{'self ms/cmd':>12} {'self share':>10}"]
    for name in SPANS:
        self_ms = metrics[f"{name}.self_ms_per_cmd"]
        lines.append(f"{name:32} {metrics[f'{name}.calls_per_cmd']:10.3f} "
                     f"{metrics[f'{name}.ms_per_cmd']:9.3f} "
                     f"{self_ms:12.3f} {100 * self_ms / rtt_ms:9.1f}%")
    un = metrics["unattributed.ms_per_cmd"]
    lines.append(f"{'unattributed':32} {'':10} {'':9} {un:12.3f} "
                 f"{100 * un / rtt_ms:9.1f}%")
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    plan = Plan(seed=seed, workdir=WORK)
    workload.plan(plan)

    problems: List[str] = []
    if trace:
        untraced = run_phase(workload, plan, "untraced", seconds)
        traced = run_phase(workload, plan, "traced", seconds, trace=True)
        measured = [untraced, traced]
    else:
        measured = [run_phase(workload, plan, f"fleet{i}", seconds / FLEETS)
                    for i in range(FLEETS)]
    for phase in measured:
        problems += phase.problems
    problems += verify_roots([phase.root for phase in measured])
    attempted = sum(c.attempted for p in measured for c in p.clients)
    failed = sum(c.failed for p in measured for c in p.clients)

    if not problems:
        if trace:
            metrics = per_layer(untraced, traced)
            units = {name: per_layer_unit(name) for name in metrics}
            rtt_ms = 1e3 * sum(d for _w, _s, d in traced.samples) \
                / len(traced.samples)
            print(f"# {workload_name} seed={seed}: traced per-layer budget "
                  f"(mean client round trip {rtt_ms:.3f} ms, "
                  f"{len(traced.samples)} requests)")
            for line in budget_table(metrics, rtt_ms):
                print("# " + line)
        else:
            metrics = end_to_end(measured)
            units = END_TO_END_UNITS
            windows = [w for p in measured for w in p.windows()]
            quiet = [w for p in measured for w in p.windows()
                     if w[1:] in p.quiet_windows()]
            counted = [s for p in measured for s in p.quiet_samples]
            reads = [s for s in counted if not s[0]]
            print(f"# {workload_name} seed={seed}: "
                  f"{sum(len(p.samples) for p in measured)} requests over "
                  f"{sum(p.end - p.start for p in measured):.2f} s in "
                  f"{FLEETS} fleets; the host stole "
                  f"{100 * stolen_share(windows):.1f}% of the CPU time")
            print(f"# counted: {len(counted) - len(reads)} writes, "
                  f"{len(reads)} reads in {len(quiet)} of {len(windows)} "
                  f"windows ({sum(t1 - t0 for _s, t0, t1 in quiet):.1f} s, "
                  f"{100 * stolen_share(quiet):.1f}% stolen)")
            # reported, not bounded: on small-strict it follows the CPU
            # time the host steals more than the service itself
            print(f"# read_p99_ms = {latency_ms(reads, 0.99):.6g} ms")
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# error_rate = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} requests failed)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    result = {"correct": not problems and failed == 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": {} if problems else {
                  name: {"value": value, "unit": units[name]}
                  for name, value in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    if result["correct"]:
        shutil.rmtree(WORK, ignore_errors=True)
        return 0
    return 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", trace]
            code |= subprocess.run(argv, check=False).returncode
    return code


def _out_of_time(_signum, _frame) -> None:
    raise TimeoutError(f"run exceeded {RUN_ALARM_S} s")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", nargs="+", metavar="SESSION_DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.verify:
        print(json.dumps([p for path in args.verify
                          for p in verify_session(path)]))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    become_subreaper()
    # a terminated run still stops its fleet on the way out
    signal.signal(signal.SIGTERM, lambda _s, _f: sys.exit(143))
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_ALARM_S)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        stop_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
