"""A process-wide registry of counters, gauges, and latency histograms.

Where :mod:`repro.obs.trace` answers "what happened during *this*
command", the metrics registry answers "what has this process done so
far": commands executed per op and status, journal records/bytes/fsyncs,
snapshot writes, session-lock wait and hold times, analysis seconds per
pass.  Instruments are get-or-created by ``(name, labels)`` so call
sites never coordinate:

    REGISTRY.counter("repro_commands_total", op="apply", status="ok").inc()
    REGISTRY.histogram("repro_command_seconds", op="apply").observe(dt)

Two exposition formats:

* :meth:`MetricsRegistry.render` — Prometheus-style text (``# HELP`` /
  ``# TYPE`` headers, ``name{label="v"} value`` samples, cumulative
  ``_bucket{le=...}`` histogram lines);
* :meth:`MetricsRegistry.to_doc` — a JSON-safe dict (the ``registry``
  of the ``_ metrics`` document and the benchmark JSON reports), which
  :func:`merge_registry_docs` merges across shards and
  :meth:`MetricsRegistry.from_doc` turns back into a registry.

Histograms use fixed latency buckets (100µs .. 10s) so percentile
estimates (:meth:`Histogram.quantile`, linear interpolation inside the
winning bucket) cost O(#buckets) and no sample retention.  All
instruments are thread-safe; the registry itself locks only
get-or-create, never the hot increment path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsError", "DEFAULT_BUCKETS", "REGISTRY",
           "ANALYTICS_PREFIXES", "TOTALS_SOURCES",
           "merge_histogram_docs", "merge_registry_docs", "registry_totals",
           "registry_views",
           "merge_aggregate_metrics", "aggregate_to_prometheus"]

#: fixed latency buckets in seconds (upper bounds; +Inf is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)

LabelItems = Tuple[Tuple[str, str], ...]


class MetricsError(RuntimeError):
    """Instrument re-registered under a different type or buckets."""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def sample(self) -> Dict[str, Any]:
        """JSON-safe snapshot: labels + current count."""
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that goes up and down (e.g. live sessions)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Move the value up by ``amount``."""
        with self._lock:
            self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Move the value down by ``amount``."""
        self.inc(-amount)

    def sample(self) -> Dict[str, Any]:
        """JSON-safe snapshot: labels + current value."""
        return {"labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket distribution with O(#buckets) percentile estimates.

    Each bucket (including +Inf overflow) can carry one OpenMetrics-
    style *exemplar*: the request id and value of the slowest
    observation that landed in it (see :meth:`observe`).  Exemplars are
    the join from a histogram back to a concrete trace — the ``# {...}``
    suffix in :meth:`MetricsRegistry.render` names a request id that
    ``repro collect`` resolves to a full request tree.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "exemplars", "_lock")

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricsError(f"histogram {name} needs at least one bucket")
        # one count per finite bucket plus the +Inf overflow bucket
        self.counts = [0] * (len(self.buckets) + 1)
        #: per-bucket exemplar: None, or {"request": id, "value": obs} of
        #: the largest observation seen in that bucket so far.
        self.exemplars: List[Optional[Dict[str, Any]]] = \
            [None] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float],
                exemplar: Optional[str] = None) -> None:
        """Record one observation (seconds, bytes, whatever the name says).

        ``exemplar`` (a request id, typically from
        :func:`repro.obs.trace.current_request`) attaches the sample to
        its bucket when it is the slowest seen there — so every bucket
        remembers the worst request it ever absorbed, at O(1) cost and
        no sample retention.
        """
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1
            if exemplar is not None:
                prior = self.exemplars[idx]
                if prior is None or value >= prior["value"]:
                    self.exemplars[idx] = {"request": str(exemplar),
                                           "value": float(value)}

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1), interpolated inside the bucket.

        Returns 0.0 for an empty histogram.  Observations in the +Inf
        overflow bucket are credited the largest finite bound — an
        underestimate, which is the honest direction for a latency SLO.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q} outside [0, 1]")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                if i >= len(self.buckets):  # overflow bucket
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                frac = (target - cumulative) / n
                return lo + (hi - lo) * frac
            cumulative += n
        return self.buckets[-1]

    def sample(self) -> Dict[str, Any]:
        """JSON-safe snapshot: per-bucket counts, sum/count, p50/p95.

        When any bucket carries an exemplar, the snapshot includes an
        ``exemplars`` list aligned with ``buckets`` plus the overflow
        slot (entries ``None`` or ``{"request", "value"}``) — the wire
        form the cross-shard merge keeps the slowest of.
        """
        with self._lock:
            counts = list(self.counts)
            exemplars = [dict(e) if e else None for e in self.exemplars]
            total, acc = self.count, self.sum
        doc = {"labels": dict(self.labels),
               "buckets": [list(pair) for pair in
                           zip(self.buckets, counts[:-1])],
               "overflow": counts[-1], "sum": acc, "count": total,
               "p50": self.quantile(0.5), "p95": self.quantile(0.95)}
        if any(e is not None for e in exemplars):
            doc["exemplars"] = exemplars
        return doc


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for a set of instruments.

    The module-level :data:`REGISTRY` is the process-wide default every
    instrumented seam falls back to.  Each
    :class:`~repro.service.session.SessionManager` owns its own registry
    and hands it to its sessions' engines, journals and snapshot stores,
    so its counts cover its sessions and nothing else; tests and
    benchmarks pass their own registry for isolation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, Any]) -> Tuple[str, LabelItems]:
        items = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return name, items

    def _get(self, cls, name: str, help: str, labels: Dict[str, Any],
             **kwargs) -> Instrument:
        key = self._key(name, labels)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                if self._kinds.get(name, cls.kind) != cls.kind:
                    raise MetricsError(
                        f"{name} already registered as "
                        f"{self._kinds[name]}, not {cls.kind}")
                inst = cls(name, key[1], **kwargs)
                self._instruments[key] = inst
                self._kinds[name] = cls.kind
                if help:
                    self._help[name] = help
            elif not isinstance(inst, cls):
                raise MetricsError(
                    f"{name} already registered as {inst.kind}, "
                    f"not {cls.kind}")
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter named ``name`` with exactly these labels."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The gauge named ``name`` with exactly these labels."""
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        """The histogram named ``name`` with exactly these labels."""
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- exposition ----------------------------------------------------------

    def _by_name(self) -> Dict[str, List[Instrument]]:
        with self._lock:
            out: Dict[str, List[Instrument]] = {}
            for (name, _labels), inst in sorted(self._instruments.items()):
                out.setdefault(name, []).append(inst)
        return out

    @staticmethod
    def _escape_label(value: str) -> str:
        """Prometheus label-value escaping: backslash, quote, newline."""
        return (value.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n"))

    @staticmethod
    def _escape_help(text: str) -> str:
        """Prometheus HELP escaping: backslash and newline only."""
        return text.replace("\\", "\\\\").replace("\n", "\\n")

    @classmethod
    def _label_str(cls, labels: LabelItems, extra: str = "") -> str:
        parts = [f'{k}="{cls._escape_label(v)}"' for k, v in labels]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    @classmethod
    def _exemplar_str(cls, exemplar: Optional[Dict[str, Any]]) -> str:
        """The OpenMetrics exemplar suffix for one ``_bucket`` sample:
        `` # {request="r-..."} <value>`` (empty when the bucket has
        none).  The request id is label-escaped like any label value."""
        if not exemplar:
            return ""
        rid = cls._escape_label(str(exemplar.get("request", "")))
        return f' # {{request="{rid}"}} {exemplar.get("value", 0.0)}'

    def render(self) -> str:
        """Prometheus-style text exposition of every instrument."""
        lines: List[str] = []
        for name, instruments in self._by_name().items():
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} "
                             f"{self._escape_help(help_text)}")
            lines.append(f"# TYPE {name} {instruments[0].kind}")
            for inst in instruments:
                if isinstance(inst, Histogram):
                    cumulative = 0
                    for i, (bound, count) in enumerate(
                            zip(inst.buckets, inst.counts)):
                        cumulative += count
                        le = 'le="' + str(bound) + '"'
                        lines.append(
                            f"{name}_bucket"
                            f"{self._label_str(inst.labels, le)}"
                            f" {cumulative}"
                            f"{self._exemplar_str(inst.exemplars[i])}")
                    inf = 'le="+Inf"'
                    lines.append(
                        f"{name}_bucket"
                        f"{self._label_str(inst.labels, inf)}"
                        f" {inst.count}"
                        f"{self._exemplar_str(inst.exemplars[-1])}")
                    lines.append(f"{name}_sum"
                                 f"{self._label_str(inst.labels)} {inst.sum}")
                    lines.append(f"{name}_count"
                                 f"{self._label_str(inst.labels)} "
                                 f"{inst.count}")
                else:
                    lines.append(f"{name}{self._label_str(inst.labels)} "
                                 f"{inst.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe dump: name -> {kind, help, samples: [...]}."""
        out: Dict[str, Any] = {}
        for name, instruments in self._by_name().items():
            out[name] = {"kind": instruments[0].kind,
                         "help": self._help.get(name, ""),
                         "samples": [inst.sample() for inst in instruments]}
        return out

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "MetricsRegistry":
        """A registry holding exactly the instruments of a :meth:`to_doc`
        document.

        The exposition bridge: a document merged across shards (see
        :func:`merge_registry_docs`) has no live registry behind it, so
        ``/metrics`` rebuilds one and renders it with :meth:`render`.
        """
        registry = cls()
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name, entry in doc.items():
            kind, help_text = kinds[entry["kind"]], entry.get("help", "")
            for sample in entry.get("samples", []):
                labels = sample.get("labels", {})
                if kind is not Histogram:
                    registry._get(kind, name, help_text, labels).value = \
                        sample.get("value", 0)
                    continue
                hist = registry._get(
                    Histogram, name, help_text, labels,
                    buckets=[pair[0] for pair in sample["buckets"]])
                hist.counts = [pair[1] for pair in sample["buckets"]] + \
                    [sample.get("overflow", 0)]
                hist.sum = sample.get("sum", 0.0)
                hist.count = sample.get("count", 0)
                for i, exemplar in enumerate(sample.get("exemplars") or []):
                    hist.exemplars[i] = dict(exemplar) if exemplar else None
        return registry

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Convenience: a counter/gauge value (None when absent)."""
        inst = self._instruments.get(self._key(name, labels))
        if inst is None or isinstance(inst, Histogram):
            return None
        return inst.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across every label combination."""
        total = 0.0
        with self._lock:
            for (n, _labels), inst in self._instruments.items():
                if n == name and not isinstance(inst, Histogram):
                    total += inst.value
        return total

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._help.clear()


# -- cross-shard merging ------------------------------------------------------
#
# Each SessionManager's registry is the only store of its sessions'
# counters.  The ``_ metrics`` document ships it as ``to_doc()``; the
# sharded router (repro.service.shard) merges those documents, which
# were sampled in *separate worker processes*, so the merge operates on
# the JSON-safe documents the wire carries, never on live instruments.

#: ``_ metrics`` ``totals`` field -> the instrument summed into it.
TOTALS_SOURCES = {
    "commands": "repro_session_commands_total",
    "journal_records_written": "repro_journal_records_total",
    "journal_bytes_written": "repro_journal_bytes_total",
    "journal_syncs": "repro_journal_fsyncs_total",
    "snapshots_written": "repro_snapshots_total",
    "spans_recorded": "repro_spans_total",
    "spans_dropped": "repro_trace_dropped_total",
    "prof_samples": "repro_prof_samples",
    "prof_dropped": "repro_prof_dropped_total",
}

#: metric-name prefixes of the decision analytics — per-op command
#: counts and the undo engines' decision counters
#: (:mod:`repro.obs.provenance`) — which ``_ metrics`` also shows on
#: their own under ``analytics``.
ANALYTICS_PREFIXES = ("repro_commands_", "repro_undo_",
                      "repro_violation_", "repro_analysis_pairs_")


def merge_histogram_docs(docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Bucket-wise merge of :meth:`Histogram.sample` documents.

    Every document must use the same bucket bounds (they all come from
    the same instrument definition on each shard); counts, overflow,
    sum, and count add bucket-wise, and p50/p95 are re-estimated from
    the merged counts — quantiles of shards cannot be averaged, but
    their bucket counts can be summed exactly.  Exemplars survive the
    merge: each bucket keeps the slowest exemplar any shard recorded
    for it, which preserves the invariant the exemplar states ("the
    worst request this bucket absorbed") across the fleet.
    """
    if not docs:
        raise MetricsError("cannot merge zero histogram documents")
    bounds = [pair[0] for pair in docs[0]["buckets"]]
    merged = Histogram("merged", buckets=bounds)
    for doc in docs:
        if [pair[0] for pair in doc["buckets"]] != bounds:
            raise MetricsError("histogram bucket bounds differ across "
                               "shards; refusing a lossy merge")
        for i, (_bound, count) in enumerate(doc["buckets"]):
            merged.counts[i] += count
        merged.counts[-1] += doc["overflow"]
        merged.sum += doc["sum"]
        merged.count += doc["count"]
        for i, exemplar in enumerate(doc.get("exemplars") or []):
            if exemplar is None:
                continue
            prior = merged.exemplars[i]
            if prior is None or exemplar["value"] >= prior["value"]:
                merged.exemplars[i] = dict(exemplar)
    return merged.sample()


def merge_registry_docs(docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge :meth:`MetricsRegistry.to_doc` documents into one.

    Counter and gauge samples with the same labels sum; histogram
    samples with the same labels merge bucket-wise via
    :func:`merge_histogram_docs`.  Documents may cover different
    instruments (a shard that never ran an undo has no cascade
    histogram): absent means zero.  A name that is a different kind in
    two documents raises :class:`MetricsError`.
    """
    merged: Dict[str, Any] = {}
    groups: Dict[str, Dict[LabelItems, List[Dict[str, Any]]]] = {}
    for doc in docs:
        for name, entry in doc.items():
            target = merged.setdefault(
                name, {"kind": entry["kind"], "help": "", "samples": []})
            if target["kind"] != entry["kind"]:
                raise MetricsError(
                    f"{name} is {target['kind']} in one document and "
                    f"{entry['kind']} in another")
            target["help"] = target["help"] or entry.get("help", "")
            by_labels = groups.setdefault(name, {})
            for sample in entry.get("samples", []):
                key = tuple(sorted(sample.get("labels", {}).items()))
                by_labels.setdefault(key, []).append(sample)
    for name, by_labels in groups.items():
        for key, samples in sorted(by_labels.items()):
            if merged[name]["kind"] == "histogram":
                sample = merge_histogram_docs(samples)
            else:
                sample = {"value": sum(s.get("value", 0) for s in samples)}
            sample["labels"] = dict(key)
            merged[name]["samples"].append(sample)
    return merged


def registry_totals(doc: Dict[str, Any]) -> Dict[str, int]:
    """The ``totals`` view of a :meth:`MetricsRegistry.to_doc` document:
    each :data:`TOTALS_SOURCES` instrument summed over its labels, as
    integers (absent instruments read 0)."""
    return {field: int(sum(s.get("value", 0)
                           for s in doc.get(name, {}).get("samples", [])))
            for field, name in TOTALS_SOURCES.items()}


def registry_views(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The ``totals``, ``latency`` and ``analytics`` views of a
    :meth:`MetricsRegistry.to_doc` document (one manager's or a merge).

    ``totals`` is :func:`registry_totals`.  ``latency`` is
    ``repro_command_seconds`` merged over its ``op`` label, present once
    any command ran.  ``analytics`` is the :data:`ANALYTICS_PREFIXES`
    subset, present once any analytics instrument exists.
    """
    views: Dict[str, Any] = {"totals": registry_totals(doc)}
    latencies = [s for s in doc.get("repro_command_seconds", {}).get(
        "samples", []) if s["count"]]
    if latencies:
        views["latency"] = merge_histogram_docs(latencies)
    analytics = {name: entry for name, entry in doc.items()
                 if name.startswith(ANALYTICS_PREFIXES)}
    if analytics:
        views["analytics"] = analytics
    return views


def merge_aggregate_metrics(
        docs: Sequence[Dict[str, Any]],
        local: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Merge per-shard ``SessionManager.aggregate_metrics()`` documents.

    The session lists concatenate (a session lives on exactly one
    shard, so the union is disjoint), the eviction/reopen counts sum,
    the registries merge by :func:`merge_registry_docs` — together with
    ``local``, the merging process's own registry document, which is
    not a shard — and the ``totals``/``latency``/``analytics`` views
    are read from the merged registry by :func:`registry_views`.
    Served by the sharded router's ``_ metrics`` verb.
    """
    registry = merge_registry_docs(
        [d.get("registry", {}) for d in docs] + ([local] if local else []))
    return {"live": sorted(n for d in docs for n in d.get("live", [])),
            "on_disk": sorted(n for d in docs for n in d.get("on_disk", [])),
            "evictions": sum(d.get("evictions", 0) for d in docs),
            "reopens": sum(d.get("reopens", 0) for d in docs),
            "shards": len(docs),
            "registry": registry,
            **registry_views(registry)}


def _single(kind: str, help_text: str, value: Union[int, float]
            ) -> Dict[str, Any]:
    """A one-sample, unlabelled :meth:`MetricsRegistry.to_doc` entry."""
    return {"kind": kind, "help": help_text,
            "samples": [{"labels": {}, "value": value}]}


def aggregate_to_prometheus(doc: Dict[str, Any]) -> str:
    """Render an ``aggregate_metrics`` document as Prometheus text.

    Every instrument of the document's ``registry`` renders under its
    own name, next to the ``repro_fleet_*`` series read from the
    document's other keys: one counter per ``totals`` field, the session
    gauges, the eviction/reopen counters, the shard count (merged
    documents only) and ``latency`` as ``repro_fleet_command_seconds``.
    Both go through :meth:`MetricsRegistry.from_doc` and the same
    :meth:`MetricsRegistry.render` the tests pin down, which keeps the
    two exposition formats from drifting apart.
    """
    fleet = {f"repro_fleet_{field}": _single(
        "counter", f"{field} summed across the fleet", float(value))
        for field, value in doc.get("totals", {}).items()}
    fleet["repro_fleet_live_sessions"] = _single(
        "gauge", "sessions currently live in a manager",
        len(doc.get("live", [])))
    fleet["repro_fleet_sessions_on_disk"] = _single(
        "gauge", "sessions present on disk", len(doc.get("on_disk", [])))
    fleet["repro_fleet_evictions_total"] = _single(
        "counter", "LRU session evictions", float(doc.get("evictions", 0)))
    fleet["repro_fleet_reopens_total"] = _single(
        "counter", "sessions reopened from disk",
        float(doc.get("reopens", 0)))
    if "shards" in doc:
        fleet["repro_fleet_shards"] = _single(
            "gauge", "shard documents merged into this exposition",
            doc["shards"])
    if doc.get("latency"):
        fleet["repro_fleet_command_seconds"] = {
            "kind": "histogram",
            "help": "end-to-end command latency, merged bucket-wise",
            "samples": [doc["latency"]]}
    return MetricsRegistry.from_doc(
        {**doc.get("registry", {}), **fleet}).render()


#: the process-wide default registry instrumented seams fall back to.
REGISTRY = MetricsRegistry()
