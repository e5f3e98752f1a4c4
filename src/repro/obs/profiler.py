"""A stdlib-only sampling profiler with span and request attribution.

Tracing (:mod:`repro.obs.trace`) answers "what did this command do";
metrics (:mod:`repro.obs.metrics`) answer "what has this process done";
neither answers the ROADMAP's question — *where does the CPU time go* —
without which "as fast as the hardware allows" is a guess.  This module
closes that gap the production way: a background daemon thread walks
``sys._current_frames()`` at a configurable rate and folds each
thread's stack into an in-memory table, so profiling a live server
costs a few stack walks per second instead of cProfile's per-call hook
(which multiplies the very hot path it is supposed to measure).

Design points:

* **Folded stacks** — samples accumulate as ``frame;frame;frame -> n``
  (the collapsed-stack format of Brendan Gregg's ``flamegraph.pl``),
  keyed additionally by the sampled thread's innermost span name and
  request id (read from :func:`repro.obs.trace.thread_activity`), so
  CPU time is attributable per engine phase — ``command``,
  ``journal.append``, ``journal.fsync``, ``snapshot`` — and joinable to
  ``repro collect`` request trees by request id.
* **Frame naming** — ``<module-basename>.<function>`` (``engine.execute``,
  ``dataflow.solve``): short enough to read in a flamegraph, unique
  enough to find in the tree.
* **Bounded cost, counted drops** — sampling overruns (a tick that took
  longer than the period) and distinct-stack table overflow are counted
  in :attr:`Profiler.dropped`, and an attached :attr:`drop_counter`
  (wired to ``repro_prof_dropped_total``) makes the loss visible in
  ``/metrics`` — a profiler that silently under-samples lies with
  authority.

Overhead at the default 100 hz is asserted under the 5% tracing budget
by ``benchmarks/bench_e7_observability.py``; the arithmetic is simple —
one stack walk per live thread per 10ms, each a few microseconds.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import thread_activity

__all__ = ["Profiler", "merge_folded", "parse_folded", "render_folded"]

#: frames deeper than this are truncated (a runaway recursion must not
#: make every sample arbitrarily expensive).
MAX_DEPTH = 128

#: the folded-stack root used for samples with no open span.
IDLE_ROOT = "-"


def _frame_name(frame) -> str:
    """``<module-basename>.<function>`` for one interpreter frame."""
    code = frame.f_code
    mod = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{mod}.{code.co_name}"


class Profiler:
    """Samples every thread's stack from a background daemon thread.

    Lifecycle: :meth:`start` spawns the sampler, :meth:`stop` joins it;
    both are idempotent and report whether they changed anything.  The
    accumulated profile survives stop/start cycles until :meth:`reset`,
    so an operator can profile in windows and dump once.  Thread-safe:
    the sampler owns the table under :attr:`_lock`; readers snapshot.
    """

    def __init__(self, hz: float = 100.0, *, max_stacks: int = 10000):
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        #: samples folded into the table so far (monotonic).
        self.samples = 0
        #: samples lost — overrun ticks plus stack-table overflow.
        self.dropped = 0
        #: optional counter (anything with ``inc(n)``) incremented per
        #: dropped sample; servers wire ``repro_prof_dropped_total``.
        self.drop_counter: Optional[Any] = None
        #: profiled wall-clock seconds across every start/stop window.
        self.wall = 0.0
        #: (span, request, frames) -> sample count; "" = unattributed.
        self._stacks: Dict[Tuple[str, str, Tuple[str, ...]], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampler thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self, hz: Optional[float] = None) -> bool:
        """Begin sampling; returns False when already on."""
        if self.running:
            return False
        if hz is not None:
            if hz <= 0:
                raise ValueError("hz must be > 0")
            self.hz = float(hz)
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-profiler", daemon=True)
        self._thread.start()
        return True

    def stop(self) -> bool:
        """Stop sampling (keeps the profile); returns False when idle."""
        thread = self._thread
        if thread is None:
            return False
        self._stop.set()
        thread.join(timeout=max(1.0, 4.0 / self.hz))
        self.wall += time.perf_counter() - self._started_at
        self._thread = None
        return True

    def reset(self) -> None:
        """Drop the accumulated profile (counters keep accumulating)."""
        with self._lock:
            self._stacks.clear()
        self.wall = 0.0
        if self.running:
            self._started_at = time.perf_counter()

    # -- the sampler thread --------------------------------------------------

    def _run(self) -> None:
        own = threading.get_ident()
        period = 1.0 / self.hz
        next_tick = time.perf_counter() + period
        while not self._stop.wait(max(0.0, next_tick -
                                      time.perf_counter())):
            self._sample_once(own)
            next_tick += period
            now = time.perf_counter()
            if next_tick <= now:
                # the tick overran its period: count the missed samples
                # rather than bursting to catch up
                missed = int((now - next_tick) / period) + 1
                self._note_drops(missed)
                next_tick = now + period

    def _sample_once(self, own: int) -> None:
        activity = thread_activity()
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            chain: List[str] = []
            f = frame
            while f is not None and len(chain) < MAX_DEPTH:
                chain.append(_frame_name(f))
                f = f.f_back
            chain.reverse()
            span, request = activity.get(ident, (None, None))
            key = (span or "", request or "", tuple(chain))
            with self._lock:
                if key in self._stacks:
                    self._stacks[key] += 1
                    self.samples += 1
                elif len(self._stacks) < self.max_stacks:
                    self._stacks[key] = 1
                    self.samples += 1
                else:
                    self._note_drops(1, locked=True)

    def _note_drops(self, n: int, locked: bool = False) -> None:
        if locked:
            self.dropped += n
        else:
            with self._lock:
                self.dropped += n
        counter = self.drop_counter
        if counter is not None:
            try:
                counter.inc(n)
            except Exception:
                pass  # observability must not break the sampler

    # -- exports -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: config, counters, and every attributed stack.

        ``stacks`` entries carry ``span``/``request`` (``None`` when the
        sampled thread had no open span / request context), the frame
        chain root-first, and the sample count.
        """
        with self._lock:
            items = sorted(self._stacks.items())
            samples, dropped = self.samples, self.dropped
        wall = self.wall
        if self.running:
            wall += time.perf_counter() - self._started_at
        return {"hz": self.hz, "running": self.running,
                "samples": samples, "dropped": dropped,
                "wall_s": round(wall, 6),
                "stacks": [{"span": span or None,
                            "request": request or None,
                            "frames": list(frames), "count": count}
                           for (span, request, frames), count in items]}

    def folded(self) -> str:
        """Collapsed-stack text (``flamegraph.pl`` input format).

        One line per distinct stack, ``root;frame;...;leaf count``; the
        root frame is the span name the sample was attributed to
        (:data:`IDLE_ROOT` when none), so a flamegraph groups CPU time
        by engine phase before it fans out into frames.  Request-level
        attribution stays in :meth:`snapshot` — per-request roots would
        explode folded-line cardinality on a long-running server.
        """
        counts: Dict[str, int] = {}
        with self._lock:
            items = list(self._stacks.items())
        for (span, _request, frames), count in items:
            line = ";".join([span or IDLE_ROOT, *frames])
            counts[line] = counts.get(line, 0) + count
        return render_folded(counts)

    def table(self) -> List[Dict[str, Any]]:
        """Per-frame self/cumulative sample table, hottest self first.

        ``self`` counts samples where the frame was the leaf;
        ``cum`` counts samples where it appeared anywhere (once per
        sample, so recursion does not double-credit).  ``*_s`` converts
        to estimated seconds at the sampling rate.
        """
        self_c: Dict[str, int] = {}
        cum_c: Dict[str, int] = {}
        with self._lock:
            items = list(self._stacks.items())
        for (_span, _request, frames), count in items:
            if not frames:
                continue
            leaf = frames[-1]
            self_c[leaf] = self_c.get(leaf, 0) + count
            for frame in set(frames):
                cum_c[frame] = cum_c.get(frame, 0) + count
        rows = [{"frame": frame, "self": self_c.get(frame, 0),
                 "cum": cum, "self_s": round(self_c.get(frame, 0) /
                                             self.hz, 4),
                 "cum_s": round(cum / self.hz, 4)}
                for frame, cum in cum_c.items()]
        rows.sort(key=lambda r: (-r["self"], -r["cum"], r["frame"]))
        return rows



# -- folded-stack text --------------------------------------------------------
#
# The sharded router merges per-worker dumps by summing identical
# lines; these three helpers are that wire format's parser/renderer.

def parse_folded(text: str) -> Dict[str, int]:
    """Parse collapsed-stack text into ``stack -> count`` (lenient:
    lines without a trailing integer count are skipped)."""
    counts: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, tail = line.rpartition(" ")
        if not stack or not tail.isdigit():
            continue
        counts[stack] = counts.get(stack, 0) + int(tail)
    return counts


def render_folded(counts: Dict[str, int]) -> str:
    """Render ``stack -> count`` as sorted collapsed-stack text."""
    return "\n".join(f"{stack} {count}"
                     for stack, count in sorted(counts.items()))


def merge_folded(texts: Sequence[str]) -> str:
    """Merge collapsed-stack dumps by summing identical stacks.

    How ``_ prof dump`` and ``/pprof`` combine per-shard profiles: the
    folded line is already an aggregate, so cross-process merge is
    integer addition — the same shape as the bucket-wise histogram
    merge in :func:`repro.obs.metrics.merge_histogram_docs`.
    """
    merged: Dict[str, int] = {}
    for text in texts:
        for stack, count in parse_folded(text).items():
            merged[stack] = merged.get(stack, 0) + count
    return render_folded(merged)
