"""Per-layer spans for the service benchmark, recorded from outside.

:func:`install` wraps the public functions of every layer the benchmark
budgets (see ``SPANS``) in the calling process and returns the
:class:`Patches` that undo it; nothing inside ``src/`` is edited.  The
fleet process installs it before the router spawns its workers, and
:func:`traced_worker_main` installs it again inside each spawned shard
worker.  Spans stay in memory and are written out once, when the
process's fleet role ends.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux),
so spans from the client, the router and the workers share one time
axis.  A span's self time is its duration minus the time its direct
child spans cover; :func:`layer_budget` joins the two cross-process
edges (the client round trip around ``ShardRouter.handle_line`` and the
worker pipe around the worker's ``SessionServer.handle_line``) from
per-layer totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

clock = time.monotonic

#: every span the budget reports, in table order.
SPANS = (
    "netserver.edge",
    "shard.route", "shard.pipe",
    "server.dispatch",
    "session.acquire", "session.open", "session.snapshot",
    "session.observer", "session.span_sink",
    "journal.append", "journal.sync", "journal.truncate",
    "engine.execute", "engine.find", "engine.explain",
    "undo.undo", "locations.orderer",
    "transforms.check_safety", "transforms.check_reversibility",
    "analysis.dataflow", "analysis.dependences", "analysis.update",
    "snapshot.write", "snapshot.latest",
    "serde.engine_to_doc", "serde.engine_from_doc",
    "recovery.recover",
    "provenance.audit_entry", "provenance.read_audit",
    "provenance.explain_doc",
)

#: the client-side span around one request (recorded by the load
#: generator, not by a wrapper); its self time is ``netserver.edge``.
CLIENT_SPAN = "client.request"

#: spans whose caller lives in another process: child -> parent.
CROSS_PARENT = {"shard.route": CLIENT_SPAN, "server.dispatch": "shard.pipe"}

#: one recorded span: (name, start, duration, time covered by children).
Span = Tuple[str, float, float, float]

_MISSING = object()


class Recorder:
    """In-memory span sink for one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> float:
        """Open a span on this thread; returns its start time."""
        self._stack().append(0.0)
        return clock()

    def end(self, name: str, start: float) -> None:
        """Close the innermost span opened by :meth:`begin`."""
        dur = clock() - start
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += dur
        self.spans.append((name, start, dur, child))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name, start)
        return traced

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` as one JSON list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(paths: Iterable[str]) -> List[Span]:
    """Read back the span files :meth:`Recorder.dump` wrote."""
    out: List[Span] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            out.extend(tuple(s) for s in json.load(fh))
    return out


class Patches:
    """Attribute replacements that :meth:`restore` undoes exactly."""

    def __init__(self):
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    @property
    def targets(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original value) for every replacement."""
        return list(self._undo)


class _TracedCallables(list):
    """A callback list that yields each callback wrapped in a span.

    Stores the original callables, so ``remove`` by identity keeps
    working; only iteration (``for cb in lst`` and ``list(lst)``) sees
    the wrappers.
    """

    def __init__(self, rec: Recorder, name: str, items: Iterable[Callable]):
        super().__init__(items)
        self._rec = rec
        self._name = name
        self._wrapped: Dict[Callable, Callable] = {}

    def __iter__(self):
        for fn in list.__iter__(self):
            traced = self._wrapped.get(fn)
            if traced is None:
                traced = self._wrapped[fn] = self._rec.wrap(self._name, fn)
            yield traced


class _TimedEnter:
    """Context manager whose ``__enter__`` is recorded as a span."""

    def __init__(self, rec: Recorder, name: str, cm):
        self._rec, self._name, self._cm = rec, name, cm

    def __enter__(self):
        start = self._rec.begin()
        try:
            return self._cm.__enter__()
        finally:
            self._rec.end(self._name, start)

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def install(rec: Recorder) -> Patches:
    """Wrap every budgeted layer of this process; returns the undo."""
    from repro.analysis import dataflow, depend, incremental
    from repro.core import engine, locations, undo
    from repro.obs import provenance, trace
    from repro.service import (journal, recovery, serde, server, session,
                               shard, snapshot)
    from repro.transforms.registry import REGISTRY

    patches = Patches()

    def method(cls, attr: str, name: str) -> None:
        patches.set(cls, attr, rec.wrap(name, getattr(cls, attr)))

    def everywhere(module, attr: str, replacement: Callable) -> None:
        # replace the function in its home module and in every module
        # that imported it by name
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    vars(mod).get(attr) is original:
                patches.set(mod, attr, replacement)

    def function(module, attr: str, name: str) -> None:
        everywhere(module, attr, rec.wrap(name, getattr(module, attr)))

    method(shard.ShardRouter, "handle_line", "shard.route")
    method(shard.ShardWorker, "request", "shard.pipe")
    method(server.SessionServer, "handle_line", "server.dispatch")

    manager_session = session.SessionManager.session
    patches.set(session.SessionManager, "session",
                functools.wraps(manager_session)(
                    lambda self, name: _TimedEnter(
                        rec, "session.acquire", manager_session(self, name))))
    opener = vars(session.DurableSession)["open"].__func__
    patches.set(session.DurableSession, "open",
                classmethod(rec.wrap("session.open", opener)))
    method(session.DurableSession, "snapshot", "session.snapshot")

    engine_init = engine.TransformationEngine.__init__

    @functools.wraps(engine_init)
    def traced_engine_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        self.command_observers = _TracedCallables(
            rec, "session.observer", self.command_observers)

    patches.set(engine.TransformationEngine, "__init__", traced_engine_init)

    tracer_init = trace.Tracer.__init__

    @functools.wraps(tracer_init)
    def traced_tracer_init(self, *args, **kwargs):
        tracer_init(self, *args, **kwargs)
        self.sinks = _TracedCallables(rec, "session.span_sink", self.sinks)

    patches.set(trace.Tracer, "__init__", traced_tracer_init)

    method(journal.Journal, "append", "journal.append")
    method(journal.Journal, "sync", "journal.sync")
    method(journal.Journal, "truncate_through", "journal.truncate")

    method(engine.TransformationEngine, "execute", "engine.execute")
    method(engine.TransformationEngine, "find", "engine.find")
    method(engine.TransformationEngine, "explain", "engine.explain")
    method(undo.UndoEngine, "undo", "undo.undo")

    make_orderer = locations.make_sibling_orderer
    everywhere(locations, "make_sibling_orderer",
               functools.wraps(make_orderer)(
                   lambda history: rec.wrap("locations.orderer",
                                            make_orderer(history))))

    # collect every original first: a registered class that inherits a
    # check from another registered class must not wrap the wrapper
    checks = [(cls, attr, getattr(cls, attr))
              for cls in sorted({type(t) for t in REGISTRY.values()},
                                key=lambda c: c.__qualname__)
              for attr in ("check_safety", "check_reversibility")]
    for cls, attr, fn in checks:
        patches.set(cls, attr, rec.wrap(f"transforms.{attr}", fn))

    function(dataflow, "analyze_dataflow", "analysis.dataflow")
    function(depend, "analyze_dependences", "analysis.dependences")
    method(incremental.AnalysisCache, "update_after_events",
           "analysis.update")

    method(snapshot.SnapshotStore, "write", "snapshot.write")
    method(snapshot.SnapshotStore, "latest", "snapshot.latest")
    function(serde, "engine_to_doc", "serde.engine_to_doc")
    function(serde, "engine_from_doc", "serde.engine_from_doc")
    function(recovery, "recover", "recovery.recover")
    function(provenance, "audit_entry", "provenance.audit_entry")
    function(provenance, "read_audit", "provenance.read_audit")
    function(provenance, "explain_doc", "provenance.explain_doc")
    return patches


def traced_worker_main(trace_dir: str, conn, root: str,
                       manager_kwargs=None, server_kwargs=None) -> None:
    """A shard worker with every layer wrapped; spans land in
    ``<trace_dir>/spans-<pid>.json`` once the worker stops.

    Spawned workers skip ``atexit``, so the spans are written after
    ``worker_main`` returns, which is after it closed every session.
    """
    from repro.service import shard

    rec = Recorder()
    patches = install(rec)
    try:
        shard.worker_main(conn, root, manager_kwargs, server_kwargs)
    finally:
        patches.restore()
        rec.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.json"))


def layer_budget(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-span ``calls``, busy ``total`` and ``self`` seconds.

    ``spans`` come from every process.  Self time subtracts direct
    children recorded on the same thread, then the cross-process
    children of :data:`CROSS_PARENT`; the client span's self time is
    reported as ``netserver.edge``.  Summed over all spans, self time
    equals the client spans' total.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, _start, dur, child in spans:
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += dur
        row["self"] += dur - child
    for child, parent in CROSS_PARENT.items():
        if child in out:
            if parent not in out:
                raise ValueError(f"{child} spans without any {parent} span")
            out[parent]["self"] -= out[child]["total"]
    if CLIENT_SPAN in out:
        client = out.pop(CLIENT_SPAN)
        out["netserver.edge"] = {"calls": client["calls"],
                                 "total": client["self"],
                                 "self": client["self"]}
    return out
