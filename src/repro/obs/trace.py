"""Tracing spans and the in-memory flight recorder.

The paper's undo machinery works because every transformation leaves a
causally-ordered execution annotation behind (Figure 2); this module
applies the same idea to the *runtime itself*.  A :class:`Tracer`
produces nested :class:`Span` records — one per executed command, with
children for journal appends, fsyncs, snapshot cuts, and recovery
replay — so "where did the time go when this command ran?" has a
recorded answer instead of a guess.

Design points:

* **Monotonic timing** — spans carry a ``perf_counter`` start and a
  duration; they are never compared across processes.
* **Nesting without plumbing** — the tracer keeps a thread-local stack
  of open spans; a span opened while another is open becomes its child
  (``parent`` id), so ``engine.execute`` recursing into batch
  sub-commands yields the correct tree with no explicit parent passing.
* **Flight recorder** — completed spans land in a fixed-capacity ring
  buffer (:class:`FlightRecorder`); when it fills, the oldest spans are
  dropped, never the newest — exactly what is wanted when something
  just went wrong.
* **Sinks** — callables invoked with each completed span; the durable
  session uses one to stream spans to ``trace.jsonl``.  A sink that
  raises is counted and dropped for that span, never propagated:
  observability must not break the host.
* **A zero-cost off switch** — ``Tracer.disabled`` is a shared tracer
  whose :meth:`Tracer.span` returns one preallocated no-op context
  manager: no Span object, no clock read, no stack touch.  Engines
  default to it, so untraced sessions pay one attribute load and one
  ``if`` per command (measured <5% end-to-end in
  ``benchmarks/bench_e7_observability.py`` even with tracing ON).
* **Request context** — a thread-local *fleet* identity for the request
  currently being served.  The front that serves a request line (the
  single-process server or the shard router) mints one request id for
  it and enters :func:`request_context`; every span any tracer on that thread
  produces while the context is active is stamped with a ``request``
  tag.  The sharded router forwards the context over the worker pipe,
  so one TCP request leaves causally joinable spans in the router's
  trace *and* in the worker's per-session ``trace.jsonl`` — the join
  key :mod:`repro.obs.collector` merges fleet traces on.  The context
  dict is also the per-request scratchpad for latency forensics:
  :func:`annotate_request` accumulates breakdown fields (lock wait,
  analysis timers, journal fsyncs) that the slow-request log captures.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Tuple

__all__ = ["Span", "FlightRecorder", "Tracer", "read_trace",
           "new_request_id", "current_request", "request_context",
           "annotate_request", "thread_activity"]


# -- request context ----------------------------------------------------------
#
# One thread serves one request at a time (the stdio loop, a TCP
# connection thread, a shard worker's pipe loop), so a thread-local is
# the whole mechanism: no tracer plumbing, no per-span arguments.

_REQUEST = threading.local()

# -- thread activity ----------------------------------------------------------
#
# The sampling profiler (:mod:`repro.obs.profiler`) reads *other*
# threads' frames through ``sys._current_frames()``, where thread-locals
# are invisible — so span enter/exit and :func:`request_context` also
# maintain this process-wide table: thread ident -> open span names /
# active request id.  Plain dict and list mutations, atomic under the
# GIL, so the hot path takes no lock; the profiler snapshots via
# ``list()`` copies and tolerates the races that remain (a sample
# attributed to the span that just closed is off by one tick at most).

_SPAN_ACTIVITY: Dict[int, List[str]] = {}
_REQUEST_ACTIVITY: Dict[int, str] = {}


def thread_activity() -> Dict[int, Tuple[Optional[str], Optional[str]]]:
    """Snapshot of ``thread ident -> (innermost span name, request id)``.

    The profiler's attribution source: called once per sampling tick,
    from the sampler thread, to tag each thread's captured stack with
    the span (= engine phase) and fleet request it was serving.  Threads
    with neither an open span nor a request context are absent.
    """
    out: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
    for ident, names in list(_SPAN_ACTIVITY.items()):
        if names:
            out[ident] = (names[-1], None)
    for ident, request in list(_REQUEST_ACTIVITY.items()):
        span = out.get(ident, (None, None))[0]
        out[ident] = (span, request)
    return out


def new_request_id() -> str:
    """A fresh fleet-unique request id (``r-`` + 12 hex chars).

    Random rather than sequential: ids minted by different edge threads
    and different front-end processes must never collide, because the
    collector joins multi-process traces on them.
    """
    return "r-" + os.urandom(6).hex()


def current_request() -> Optional[Dict[str, Any]]:
    """The active request context of this thread, or ``None``."""
    return getattr(_REQUEST, "ctx", None)


@contextmanager
def request_context(
        ctx: Optional[Dict[str, Any]] = None) -> Iterator[Dict[str, Any]]:
    """Enter a request context for the duration of the block.

    ``ctx`` must carry at least ``{"request": <id>}``; ``None`` mints a
    fresh id.  Contexts nest by *replacement* (the previous one is
    restored on exit): a worker entering the context forwarded by the
    router replaces any ambient one, so spans are always stamped with
    the id the edge minted, exactly once.
    """
    if ctx is None:
        ctx = {"request": new_request_id()}
    prev = getattr(_REQUEST, "ctx", None)
    _REQUEST.ctx = ctx
    ident = threading.get_ident()
    rid = ctx.get("request")
    if rid is not None:
        _REQUEST_ACTIVITY[ident] = rid
    try:
        yield ctx
    finally:
        _REQUEST.ctx = prev
        prev_rid = prev.get("request") if prev else None
        if prev_rid is not None:
            _REQUEST_ACTIVITY[ident] = prev_rid
        else:
            _REQUEST_ACTIVITY.pop(ident, None)


def annotate_request(**fields: Any) -> None:
    """Accumulate breakdown fields onto the active request context.

    Numeric fields add (a request may wait on several locks and fsync
    more than once); everything else overwrites.  A no-op outside a
    request context, so instrumented seams call it unconditionally.
    """
    ctx = current_request()
    if ctx is None:
        return
    breakdown = ctx.setdefault("breakdown", {})
    for key, value in fields.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            breakdown[key] = breakdown.get(key, 0) + value
        else:
            breakdown[key] = value


class Span:
    """One timed operation: a name, tags, and a place in the span tree.

    Used as a context manager (``with tracer.span("command", op=...) as
    sp``); entering stamps the monotonic start and pushes the span onto
    the tracer's thread-local stack, exiting records the duration and
    hands the completed span to the flight recorder and sinks.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start",
                 "duration", "status", "tags")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 tags: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration = 0.0
        #: "ok", or "failed" (tagged by the instrumented code), or
        #: "error" (an exception escaped the body untagged).
        self.status = "ok"
        self.tags = tags

    def tag(self, **tags: Any) -> None:
        """Attach/overwrite tags; ``status=`` updates the status field."""
        status = tags.pop("status", None)
        if status is not None:
            self.status = status
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        stack = self.tracer._open_stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        _SPAN_ACTIVITY.setdefault(threading.get_ident(), []).append(
            self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        stack = self.tracer._open_stack()
        dropped = [self]
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exit: drop through to this span
            idx = stack.index(self)
            dropped = stack[idx:]
            del stack[idx:]
        ident = threading.get_ident()
        names = _SPAN_ACTIVITY.get(ident)
        if names:
            # an unbalanced exit drops every span above this one too —
            # their activity entries must not outlive them
            for span in dropped:
                for i in range(len(names) - 1, -1, -1):
                    if names[i] == span.name:
                        del names[i]
                        break
            if not names:
                _SPAN_ACTIVITY.pop(ident, None)
        if exc_type is not None and self.status == "ok":
            self.status = "error"
        self.tracer._complete(self)
        return False

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe dict (the ``trace.jsonl`` line format)."""
        return {"name": self.name, "id": self.span_id,
                "parent": self.parent_id, "start": self.start,
                "dur": self.duration, "status": self.status,
                "tags": dict(self.tags)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, status={self.status!r}, "
                f"tags={self.tags!r})")


class _NoopSpan:
    """The shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    #: a disabled tracer times nothing.
    duration = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def tag(self, **tags: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class FlightRecorder:
    """Fixed-capacity ring buffer of the most recent completed spans."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        #: completed spans ever seen (``completed - len(spans())`` were
        #: dropped off the old end of the ring).
        self.completed = 0
        #: optional :class:`repro.obs.metrics.Counter` incremented once
        #: per evicted span — under load the ring wraps *silently*
        #: otherwise, and "how much trace did we lose" is exactly the
        #: question asked after an incident.  Wired by the engine to
        #: ``repro_trace_dropped_total``; any object with ``inc()`` works.
        self.drop_counter: Optional[Any] = None
        #: optional counter incremented once per recorded span — the
        #: registry copy of :attr:`completed`, wired by the engine to
        #: ``repro_spans_total``.
        self.span_counter: Optional[Any] = None

    def add(self, span: Span) -> None:
        """Record one completed span (oldest evicted when full)."""
        if len(self._spans) == self.capacity and \
                self.drop_counter is not None:
            self.drop_counter.inc()
        self._spans.append(span)
        self.completed += 1
        if self.span_counter is not None:
            self.span_counter.inc()

    @property
    def dropped(self) -> int:
        """Spans evicted off the old end of the ring so far."""
        return self.completed - len(self._spans)

    def spans(self, tail: Optional[int] = None) -> List[Span]:
        """The retained spans, oldest first (optionally only the tail)."""
        out = list(self._spans)
        if tail is not None and tail >= 0:
            out = out[len(out) - min(tail, len(out)):]
        return out

    def clear(self) -> None:
        """Forget every retained span (the counters keep accumulating)."""
        self._spans.clear()

    def export_jsonl(self, fh: IO[str], tail: Optional[int] = None) -> int:
        """Write the retained spans as JSON lines; returns lines written."""
        n = 0
        for span in self.spans(tail):
            fh.write(json.dumps(span.to_doc(), sort_keys=True) + "\n")
            n += 1
        return n


class Tracer:
    """Produces spans, remembers the recent ones, streams them to sinks.

    ``common_tags`` (e.g. ``session="alpha"``) are stamped onto every
    span the tracer produces — the durable session uses this to carry
    the session name.  ``Tracer.disabled`` is the documented zero-cost
    instance: its :meth:`span` short-circuits to a shared no-op context
    manager and :meth:`annotate` is a no-op.
    """

    #: the shared zero-cost tracer (assigned after the class body).
    disabled: "Tracer"

    def __init__(self, capacity: int = 4096, *, enabled: bool = True,
                 **common_tags: Any):
        self.enabled = enabled
        self.recorder = FlightRecorder(capacity)
        #: callables invoked with every completed span (isolated).
        self.sinks: List[Callable[[Span], None]] = []
        self.sink_errors = 0
        self.common = dict(common_tags)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open_stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- producing spans -----------------------------------------------------

    def span(self, name: str, **tags: Any):
        """A new span context (or the shared no-op when disabled).

        A span produced while a :func:`request_context` is active is
        stamped with its ``request`` tag — the fleet-wide join key —
        unless the call site already supplied one.
        """
        if not self.enabled:
            return _NOOP_SPAN
        merged = dict(self.common)
        merged.update(tags)
        ctx = current_request()
        if ctx is not None and "request" not in merged:
            merged["request"] = ctx["request"]
        return Span(self, name, next(self._ids), merged)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        if not self.enabled:
            return None
        stack = self._open_stack()
        return stack[-1] if stack else None

    def annotate(self, **tags: Any) -> None:
        """Tag the innermost open span (no-op when disabled or idle).

        This is how code *downstream* of a span reaches back to it: the
        durable session's journal observer runs inside the command span
        and annotates it with the journal sequence number it was
        committed under — the key the flight-recorder round-trip check
        joins on.
        """
        span = self.current()
        if span is not None:
            span.tag(**tags)

    # -- completion ----------------------------------------------------------

    def _complete(self, span: Span) -> None:
        self.recorder.add(span)
        for sink in self.sinks:
            try:
                sink(span)
            except Exception:
                # a broken sink must never take the traced code down
                self.sink_errors += 1


Tracer.disabled = Tracer(capacity=1, enabled=False)


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a ``trace.jsonl`` file written by a session's span sink.

    Unparseable lines (a torn final write under kill -9) are skipped —
    the trace is observability, not a source of truth, so a damaged
    tail merely loses those spans.
    """
    if not os.path.exists(path):
        return []
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "name" in doc:
                out.append(doc)
    return out
