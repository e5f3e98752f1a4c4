"""Fleet trace collection: join per-process span streams per request.

A sharded service writes spans in several places at once: the router
streams its ``route`` spans to ``router-trace.jsonl`` under the service
root, and every session's engine streams its command span tree to the
session directory's ``trace.jsonl`` inside a shard.  Each span produced
while a request context was active carries the ``request`` tag the edge
minted (:mod:`repro.obs.trace`), so one TCP request leaves joinable
fragments in two processes.  This module performs the join: it sweeps
every span stream under a service root, groups spans by request id, and
orders each group causally into a :class:`RequestTrace`.

Causal order is the only order available.  Span ``start`` values are
``perf_counter`` readings — meaningful within one process, meaningless
between two — so a fleet trace is ordered structurally instead:

* the router's ``route`` span leads (it is the edge: nothing in the
  request happened before it), any other router spans follow in file
  order;
* each worker origin's spans follow as a parent/child tree, siblings
  ordered by their (same-process, hence comparable) ``start``.

Span ids are per-tracer counters, so they are only unique *within* one
origin and one tracer incarnation; parent links are therefore resolved
strictly inside a single origin's spans of a single request, never
across origins or requests.

:func:`fleet_roundtrip` (in :mod:`repro.obs.check`) builds on this to
verify the end-to-end invariant; ``python -m repro collect ROOT``
surfaces both as an operator tool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.check import TRACE_FILE
from repro.obs.trace import read_trace

__all__ = ["RequestTrace", "ORIGIN_ROUTER", "fleet_trace_files",
           "collect_requests"]

#: the origin label of the router's own span stream.
ORIGIN_ROUTER = "router"


def fleet_trace_files(root: str) -> List[Tuple[str, str]]:
    """Every span-stream file under a service root, as (origin, path).

    The router's stream (when present) is listed first under the origin
    ``"router"``; every ``trace.jsonl`` below the root follows, labelled
    with its directory relative to the root — ``shard-00/alpha`` for a
    sharded layout, plain ``alpha`` for a single-process one — in sorted
    order, so the sweep is deterministic.
    """
    # imported lazily: obs stays importable without the service layer
    from repro.service.shard import router_trace_path

    out: List[Tuple[str, str]] = []
    router = router_trace_path(root)
    if os.path.exists(router):
        out.append((ORIGIN_ROUTER, router))
    found: List[Tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        if TRACE_FILE in filenames and os.path.abspath(dirpath) != \
                os.path.abspath(root):
            origin = os.path.relpath(dirpath, root).replace(os.sep, "/")
            found.append((origin, os.path.join(dirpath, TRACE_FILE)))
    out.extend(sorted(found))
    return out


@dataclass
class RequestTrace:
    """One request's spans from every process, causally ordered.

    Each span doc is the ``trace.jsonl`` record augmented with two
    fields: ``origin`` (which stream it came from) and ``depth`` (its
    nesting level inside its origin's span tree — the router's route
    span is depth 0, a worker's top-level command span depth 1, its
    journal append depth 2, and so on).
    """

    request: str
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def edge(self) -> Optional[Dict[str, Any]]:
        """The router's ``route`` span for this request, if recorded."""
        for span in self.spans:
            if span.get("origin") == ORIGIN_ROUTER and \
                    span.get("name") == "route":
                return span
        return None

    def origins(self) -> List[str]:
        """The distinct origins this request touched, in trace order."""
        seen: List[str] = []
        for span in self.spans:
            if span["origin"] not in seen:
                seen.append(span["origin"])
        return seen

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe summary document (the ``collect --json`` format)."""
        return {"request": self.request, "origins": self.origins(),
                "spans": [dict(s) for s in self.spans]}

    def render(self) -> str:
        """A human-readable indented tree of the whole request."""
        lines = [f"{self.request} ({len(self.spans)} span(s), "
                 f"origins: {', '.join(self.origins()) or 'none'})"]
        for span in self.spans:
            tags = span.get("tags", {})
            detail = " ".join(
                f"{k}={tags[k]}" for k in sorted(tags)
                if k not in ("request", "service", "session"))
            status = span.get("status", "ok")
            mark = "" if status == "ok" else f" [{status}]"
            indent = "  " * (1 + span.get("depth", 0))
            lines.append(
                f"{indent}{span['origin']}: {span['name']}"
                f"{(' ' + detail) if detail else ''} "
                f"{span.get('dur', 0.0) * 1e3:.3f}ms{mark}")
        return "\n".join(lines)


def _tree_order(spans: List[Dict[str, Any]],
                base_depth: int = 0) -> List[Dict[str, Any]]:
    """One origin's spans of one request, in parent/child DFS order.

    Roots (no parent, or a parent outside this span set — e.g. a torn
    trace line was dropped) come in ``start`` order; children
    likewise, which is safe because all spans here share a process.
    """
    by_id = {s.get("id"): s for s in spans}
    children: Dict[Any, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    out: List[Dict[str, Any]] = []

    def visit(span: Dict[str, Any], depth: int) -> None:
        copied = dict(span)
        copied["depth"] = depth
        out.append(copied)
        for child in sorted(children.get(span.get("id"), []),
                            key=lambda s: s.get("start", 0.0)):
            visit(child, depth + 1)

    for root_span in sorted(roots, key=lambda s: s.get("start", 0.0)):
        visit(root_span, base_depth)
    return out


def collect_requests(root: str) -> Dict[str, RequestTrace]:
    """Sweep a service root and join its span streams by request id.

    Returns request traces keyed by request id, in arrival order (the
    order ids first appear in the router's stream, then in the sorted
    worker streams).  Spans without a ``request`` tag — nothing
    produced by the served request path lacks one, but a damaged file
    could — are simply not part of any fleet trace.
    """
    per_request: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for origin, path in fleet_trace_files(root):
        for span in read_trace(path):
            request = span.get("tags", {}).get("request")
            if not isinstance(request, str):
                continue
            span = dict(span)
            span["origin"] = origin
            per_request.setdefault(request, {}).setdefault(
                origin, []).append(span)

    out: Dict[str, RequestTrace] = {}
    for request, by_origin in per_request.items():
        trace = RequestTrace(request)
        router_spans = by_origin.pop(ORIGIN_ROUTER, [])
        # the edge leads: the route span (and any siblings) at depth 0,
        # in file order — one router thread wrote them, so file order
        # is completion order, close enough for a listing
        trace.spans.extend(_tree_order(router_spans, base_depth=0))
        for origin in sorted(by_origin):
            trace.spans.extend(_tree_order(by_origin[origin],
                                           base_depth=1))
        out[request] = trace
    return out
