"""Slow-request forensics: a ring-buffered log of the worst requests.

Aggregate latency histograms say *that* requests were slow; an incident
needs to know *which* requests, and where inside them the time went.
The :class:`SlowLog` keeps the most recent requests whose wall time
crossed a threshold, each entry carrying the per-request latency
breakdown the instrumented seams accumulated onto the request context
(:func:`repro.obs.trace.annotate_request`): session-lock wait, analysis
timers (the engine's :class:`~repro.analysis.incremental.WorkCounters`
wall-clock keys), journal append/fsync cost.

Design points, mirroring the flight recorder's:

* **Fixed capacity, newest wins** — a deque with ``maxlen``; a burst of
  slow requests keeps the latest ones, which are the ones the operator
  is paged about.
* **Entries are plain JSON-safe dicts** stamped with a wall-clock
  ``ts`` — unlike spans (monotonic, per-process), slow entries are
  merged *across* processes by the sharded router's ``_ slow`` verb,
  and wall clocks are the only cross-process order available (good
  enough for a forensics listing).
* **Threshold semantics** — ``threshold_s`` is the recording floor;
  ``0.0`` records every request (the smoke test and the CI gate run
  that way), ``None`` disables recording entirely.  ``force=True``
  records regardless (deadline-exceeded requests are always evidence).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.trace import tail_of

__all__ = ["SlowLog"]

#: request lines are truncated to this many characters in an entry — a
#: giant batch line must not turn the ring buffer into a memory hog.
MAX_LINE_CHARS = 200


class SlowLog:
    """Fixed-capacity ring of the most recent slow-request entries."""

    def __init__(self, capacity: int = 256,
                 threshold_s: Optional[float] = 0.25):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.threshold_s = threshold_s
        self._entries: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        #: requests observed (recorded or not) since construction.
        self.observed = 0
        #: entries ever recorded (``recorded - len(entries())`` were
        #: evicted off the old end of the ring).
        self.recorded = 0

    def observe(self, line: str, duration_s: float, *, ok: bool = True,
                layer: str = "server",
                request: Optional[str] = None,
                breakdown: Optional[Dict[str, Any]] = None,
                force: bool = False) -> bool:
        """Consider one served request; returns whether it was recorded.

        ``layer`` names the vantage point (``router``, ``shard-00``,
        ``server``) so merged fleet listings stay attributable;
        ``breakdown`` is the request context's accumulated forensics
        dict (copied — the context is reused scratch).
        """
        self.observed += 1
        if not force and (self.threshold_s is None
                          or duration_s < self.threshold_s):
            return False
        entry: Dict[str, Any] = {
            "ts": time.time(),
            "layer": layer,
            "line": line.strip()[:MAX_LINE_CHARS],
            "dur_ms": round(duration_s * 1e3, 3),
            "ok": ok,
        }
        if request is not None:
            entry["request"] = request
        if breakdown:
            entry["breakdown"] = dict(breakdown)
        self._entries.append(entry)
        self.recorded += 1
        return True

    def entries(self, tail: Optional[int] = None) -> List[Dict[str, Any]]:
        """The retained entries, oldest first (optionally only the tail)."""
        return tail_of(list(self._entries), tail)

    @staticmethod
    def merge(groups: List[List[Dict[str, Any]]],
              tail: Optional[int] = None) -> List[Dict[str, Any]]:
        """Merge per-process entry lists into one fleet listing.

        Ordered by wall-clock ``ts`` (the only cross-process order slow
        entries have), newest last, optionally truncated to the tail —
        the router's ``_ slow [n]`` fan-in.
        """
        return tail_of(sorted((e for group in groups for e in group),
                              key=lambda e: e.get("ts", 0.0)), tail)
