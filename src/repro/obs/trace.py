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
* **Nesting without plumbing** — one process-wide table maps each
  thread to what it is doing: its request context and its open spans,
  innermost last.  A span opened while another span *of the same
  tracer* is open on that thread becomes its child (``parent`` id), so
  ``engine.execute`` recursing into batch sub-commands yields the
  correct tree with no explicit parent passing; two tracers nested on
  one thread keep separate trees.  The same table is what the sampling
  profiler reads (:func:`thread_activity`).
* **Flight recorder** — completed spans land in a fixed-capacity ring
  buffer (:class:`FlightRecorder`); when it fills, the oldest spans are
  dropped, never the newest — exactly what is wanted when something
  just went wrong.
* **Sinks** — callables invoked with each completed span; the durable
  session and the shard router use one to stream spans to a JSON-lines
  file (:func:`open_log`, :meth:`Span.to_line`; read back with
  :func:`read_log`).  A sink that
  raises is counted and dropped for that span, never propagated:
  observability must not break the host.
* **A zero-cost off switch** — ``Tracer.disabled`` is a shared tracer
  whose :meth:`Tracer.span` returns one preallocated no-op context
  manager: no Span object, no clock read, no stack touch.  Engines
  default to it, so untraced sessions pay one attribute load and one
  ``if`` per command (measured <5% end-to-end in
  ``benchmarks/bench_e7_observability.py`` even with tracing ON).
* **Request context** — a per-thread *fleet* identity for the request
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
from typing import (Any, Callable, Dict, IO, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.obs.metrics import Counter

__all__ = ["Span", "FlightRecorder", "Tracer", "open_log", "read_log",
           "read_trace", "tail_of", "new_request_id", "current_request",
           "request_context", "annotate_request", "thread_activity"]


# -- per-thread state ---------------------------------------------------------
#
# One thread serves one request at a time (the stdio loop, a TCP
# connection thread, a shard worker's pipe loop), so one entry per
# thread is the whole mechanism: no tracer plumbing, no per-span
# arguments.  It is keyed by thread ident, not a thread-local, because
# the sampling profiler (:mod:`repro.obs.profiler`) reads *other*
# threads' entries.  Only a thread mutates its own entry, with dict and
# list operations atomic under the GIL, so the hot path takes no lock;
# the profiler copies before it reads and tolerates the races that
# remain (a sample attributed to the span that just closed is off by
# one tick at most).


class _Thread:
    """What one thread is doing: its request context and open spans."""

    __slots__ = ("ctx", "spans")

    def __init__(self) -> None:
        self.ctx: Optional[Dict[str, Any]] = None
        #: the open spans of every tracer on the thread, innermost last.
        self.spans: List["Span"] = []


#: thread ident -> its entry; a thread with neither a request context
#: nor an open span has none.
_THREADS: Dict[int, _Thread] = {}


def _this_thread() -> _Thread:
    """The calling thread's entry, created on first use."""
    ident = threading.get_ident()
    state = _THREADS.get(ident)
    if state is None:
        state = _THREADS[ident] = _Thread()
    return state


def _release(state: _Thread) -> None:
    """Drop the calling thread's entry once it is idle."""
    if state.ctx is None and not state.spans:
        _THREADS.pop(threading.get_ident(), None)


def _innermost(spans: List["Span"], tracer: "Tracer") -> Optional["Span"]:
    """The innermost of ``spans`` that ``tracer`` produced."""
    for span in reversed(spans):
        if span.tracer is tracer:
            return span
    return None


def thread_activity() -> Dict[int, Tuple[Optional[str], Optional[str]]]:
    """Snapshot of ``thread ident -> (innermost span name, request id)``.

    The profiler's attribution source: called once per sampling tick,
    from the sampler thread, to tag each thread's captured stack with
    the span (= engine phase) and fleet request it was serving.  Threads
    with neither an open span nor a request context are absent.
    """
    out: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
    for ident, state in list(_THREADS.items()):
        innermost = state.spans[-1:]
        ctx = state.ctx
        request = ctx.get("request") if ctx is not None else None
        if innermost or request is not None:
            out[ident] = (innermost[0].name if innermost else None, request)
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
    state = _THREADS.get(threading.get_ident())
    return state.ctx if state is not None else None


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
    state = _this_thread()
    prev = state.ctx
    state.ctx = ctx
    try:
        yield ctx
    finally:
        state.ctx = prev
        _release(state)


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
    its thread's open spans, exiting records the duration and hands the
    completed span to the flight recorder and sinks.
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
        spans = _this_thread().spans
        parent = _innermost(spans, self.tracer)
        if parent is not None:
            self.parent_id = parent.span_id
        spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        state = _THREADS.get(threading.get_ident())
        if state is not None:
            spans = state.spans
            if spans and spans[-1] is self:
                spans.pop()
            elif self in spans:
                # an unbalanced exit also closes the spans of this
                # tracer still open above this one
                i = spans.index(self)
                spans[i:] = [s for s in spans[i + 1:]
                             if s.tracer is not self.tracer]
            _release(state)
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

    def to_line(self) -> str:
        """The span as one JSON line, without its newline (the line
        ``trace.jsonl``, ``router-trace.jsonl`` and the ``trace`` verb
        carry)."""
        return json.dumps(self.to_doc(), sort_keys=True)

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
        #: the one store of the recorder's counts: spans recorded, and
        #: spans evicted off the old end of the ring — under load the
        #: ring wraps *silently* otherwise, and "how much trace did we
        #: lose" is exactly the question asked after an incident.
        #: Standalone until :meth:`count_in` moves them into a registry
        #: (the engine: ``repro_spans_total`` and
        #: ``repro_trace_dropped_total``); any object with ``inc()`` and
        #: ``value`` works.
        self.span_counter: Any = Counter("repro_spans_total")
        self.drop_counter: Any = Counter("repro_trace_dropped_total")
        self._registered = False

    def count_in(self, span_counter: Any, drop_counter: Any) -> None:
        """Keep the counts in a registry's counters from now on, carrying
        over what was counted so far.  A recorder already counting in a
        registry keeps its counters."""
        if self._registered:
            return
        span_counter.inc(self.span_counter.value)
        drop_counter.inc(self.drop_counter.value)
        self.span_counter = span_counter
        self.drop_counter = drop_counter
        self._registered = True

    def add(self, span: Span) -> None:
        """Record one completed span (oldest evicted when full)."""
        if len(self._spans) == self.capacity:
            self.drop_counter.inc()
        self._spans.append(span)
        self.span_counter.inc()

    @property
    def completed(self) -> int:
        """Spans recorded so far (retained or not)."""
        return int(self.span_counter.value)

    @property
    def dropped(self) -> int:
        """Spans evicted off the old end of the ring so far."""
        return int(self.drop_counter.value)

    def spans(self, tail: Optional[int] = None) -> List[Span]:
        """The retained spans, oldest first (optionally only the tail)."""
        return tail_of(list(self._spans), tail)

    def clear(self) -> None:
        """Forget every retained span (the counters keep accumulating;
        a cleared span was not dropped)."""
        self._spans.clear()


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
        """The innermost open span of this tracer on this thread."""
        if not self.enabled:
            return None
        state = _THREADS.get(threading.get_ident())
        return _innermost(state.spans, self) if state is not None else None

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


def tail_of(items: List[Any], n: Optional[int]) -> List[Any]:
    """The last ``n`` of ``items``; all of them when ``n`` is ``None``
    or negative, none when it is 0."""
    if n is None or n < 0:
        return items
    return items[len(items) - min(n, len(items)):]


def open_log(path: str) -> IO[str]:
    """Open a JSON-lines log for line-buffered appending.

    The one writer of ``trace.jsonl``, ``audit.jsonl`` and
    ``router-trace.jsonl``.  Line buffering means a killed process
    loses at most the line it was writing.  A torn last line (a crash
    mid-write) is ended with a newline first, so the next record starts
    a line of its own instead of being glued onto the fragment;
    :func:`read_log` skips the fragment.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            torn = fh.read(1) != b"\n"
    except OSError:  # missing or empty
        torn = False
    out = open(path, "a", encoding="utf-8", buffering=1)
    if torn:
        out.write("\n")
    return out


def _record(line: str, keys: Sequence[str]) -> Optional[Dict[str, Any]]:
    """One line's record, or ``None`` for a torn or garbage line."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if isinstance(doc, dict) and all(key in doc for key in keys):
        return doc
    return None


def read_log(path: str, keys: Sequence[str],
             tail: Optional[int] = None) -> List[Dict[str, Any]]:
    """Load a JSON-lines log written through :func:`open_log`.

    A record is a JSON object that has every one of ``keys``; any other
    line (the fragment a crash mid-write leaves, garbage) is skipped.
    The logs are evidence, not a recovery source, so a damaged line
    loses that record only — the round-trip checks of
    :mod:`repro.obs.check` are what notice a gap.  With ``tail``, the
    records :func:`tail_of` keeps, parsing only lines at the end of the
    file.  A missing file is an empty log.
    """
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        if tail is None or tail < 0:
            return list(filter(None, (_record(line, keys) for line in fh)))
        newest = filter(None, (_record(line, keys)
                               for line in reversed(fh.readlines())))
        return list(itertools.islice(newest, tail))[::-1]


def read_trace(path: str,
               tail: Optional[int] = None) -> List[Dict[str, Any]]:
    """Load a span stream (``trace.jsonl``, ``router-trace.jsonl``):
    :func:`read_log` of the records that have a ``name``."""
    return read_log(path, ("name",), tail)
