"""Atomic snapshots (full and delta) with corruption-tolerant loading.

A snapshot bounds reopen latency: instead of replaying the whole
command history through the engine, recovery deserializes the latest
snapshot and replays only the journal tail written after it.

A **full** snapshot is one JSON file ``snap-<seq>.json`` in the
session's ``snapshots/`` directory, where ``seq`` is the journal
sequence number of the last command the snapshot covers.  The payload
carries:

``journal_seq``
    commands at or below this seq are inside the snapshot;
``engine``
    the full serialized engine state
    (:func:`repro.service.serde.engine_to_doc`).

A snapshot holds no command history: the journal, never truncated, is
the only copy, and recovery verifies against a replay of it.

A **delta** snapshot is ``snap-<seq>-d<base>.json``: only what changed
since the full snapshot at ``base`` — the flat program rows of touched
statements, the dirty history records, the annotation-oplog tail, and
the event-log tail (see
:func:`repro.service.serde.resolve_snapshot_delta`).  :meth:`latest`
resolves a delta against its base transparently, so consumers always
receive a full payload.  Sessions fall back to a periodic full snapshot
so delta chains stay one link long.

Writes are crash-safe (temp file + fsync + ``os.replace``), and
:meth:`SnapshotStore.latest` skips snapshots whose envelope checksum
does not verify — or whose base does not — falling back to older ones:
a half-written snapshot degrades reopen latency, never correctness.
"""

from __future__ import annotations

import os
import json
import re
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.service.journal import fsync_dir
from repro.service.serde import (
    KIND_SNAPSHOT,
    SerdeError,
    resolve_snapshot_delta,
    unwrap,
    wrap,
)

_SNAP_RE = re.compile(r"^snap-(\d{10})(?:-d(\d{10}))?\.json$")


class SnapshotStore:
    """Reads and writes a session's snapshot directory."""

    def __init__(self, dirpath: str,
                 metrics: Optional[obs_metrics.MetricsRegistry] = None):
        self.dirpath = dirpath
        #: instrumentation for the recovery benchmarks.
        self.written = 0
        self.skipped_corrupt = 0
        self.metrics = metrics if metrics is not None \
            else obs_metrics.REGISTRY

    def path_for(self, seq: int, base: Optional[int] = None) -> str:
        """File path of the snapshot covering journal ``seq``.

        With ``base`` the delta filename is formed directly; without it,
        an existing file for ``seq`` (full or delta) is preferred so
        callers can address any on-disk snapshot by seq alone.
        """
        if base is not None:
            return os.path.join(self.dirpath,
                                f"snap-{seq:010d}-d{base:010d}.json")
        if os.path.isdir(self.dirpath):
            for name in os.listdir(self.dirpath):
                m = _SNAP_RE.match(name)
                if m and int(m.group(1)) == seq:
                    return os.path.join(self.dirpath, name)
        return os.path.join(self.dirpath, f"snap-{seq:010d}.json")

    def entries(self) -> List[Tuple[int, Optional[int]]]:
        """On-disk snapshots as ``(seq, base_or_None)``, seq-ascending."""
        if not os.path.isdir(self.dirpath):
            return []
        out: List[Tuple[int, Optional[int]]] = []
        for name in os.listdir(self.dirpath):
            m = _SNAP_RE.match(name)
            if m:
                out.append((int(m.group(1)),
                            int(m.group(2)) if m.group(2) else None))
        return sorted(out)

    def seqs(self) -> List[int]:
        """Sequence numbers of the snapshots on disk, ascending."""
        return [seq for seq, _base in self.entries()]

    def write(self, seq: int, payload: Dict[str, Any],
              base: Optional[int] = None) -> str:
        """Durably write one snapshot; returns its path.

        ``base`` marks the payload as a delta against the full snapshot
        at that seq (encoded in the filename so pruning and resolution
        never need to open the file).
        """
        started = time.perf_counter()
        os.makedirs(self.dirpath, exist_ok=True)
        path = self.path_for(seq, base)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(wrap(payload, KIND_SNAPSHOT), fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(self.dirpath)
        self.written += 1
        m = self.metrics
        m.counter("repro_snapshots_total", "snapshots durably written").inc()
        m.counter("repro_snapshot_bytes_total",
                  "snapshot bytes durably written").inc(
                      os.path.getsize(path))
        m.histogram("repro_snapshot_write_seconds",
                    "time to durably write one snapshot").observe(
                        time.perf_counter() - started)
        return path

    def load(self, seq: int) -> Dict[str, Any]:
        """Load and checksum-verify one snapshot (SerdeError on failure)."""
        try:
            with open(self.path_for(seq), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SerdeError(f"snapshot {seq} unreadable: {exc}") from exc
        return unwrap(doc, KIND_SNAPSHOT)

    def latest(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest *valid* snapshot as ``(seq, payload)``, or ``None``.

        Delta snapshots are resolved against their base before being
        returned, so the payload is always in full form.  Corrupt or
        torn snapshots — and deltas whose base fails to load — are
        skipped (newest first), so one bad file silently costs extra
        replay work rather than the session.
        """
        for seq, base in reversed(self.entries()):
            try:
                payload = self.load(seq)
                if base is not None:
                    payload = resolve_snapshot_delta(self.load(base), payload)
                return seq, payload
            except SerdeError:
                self.skipped_corrupt += 1
        return None

    def prune(self, keep: int = 2) -> int:
        """Delete all but the ``keep`` newest snapshots; returns removed.

        The full snapshot a retained delta resolves against is retained
        too (bases are read off the filenames — no file is opened), so
        :meth:`latest` never meets a dangling delta.
        """
        entries = self.entries()
        kept = set()
        if keep > 0:
            base_of = dict(entries)
            kept = {seq for seq, _base in entries[-keep:]}
            for seq in list(kept):
                base = base_of.get(seq)
                if base is not None:
                    kept.add(base)
        removed = 0
        for seq, base in entries:
            if seq in kept:
                continue
            try:
                os.remove(self.path_for(seq, base))
                removed += 1
            except OSError:
                pass
        return removed
