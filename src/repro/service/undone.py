"""The undone-record side file: each undone record written once.

Figure 4 re-checks only *active* transformations; an undone record never
changes again, and only provenance reads it.  So a durable session
appends each undone record, once, to ``undone.jsonl`` in its directory,
and its snapshots carry the active records plus short **run rows** for
the undone ones (:func:`repro.service.serde.history_to_doc`).  Reopen
builds a :class:`~repro.core.history.StoredRecord` stub per undone
stamp; a stub loads its record from this file when something reads it.

Each line is CRC-checked like a journal line and names its stamp
(:func:`repro.service.journal.format_line`)::

    {"body":<canonical record document>,"crc":"<16 hex>","stamp":<t>}

A **run** is a maximal group of undone records with consecutive stamps,
one name and one action count, whose lines lie back to back in stamp
order, so their action ids are consecutive too.  Its row is::

    [stamp, count, name, at, size, first_action_id, actions_per_record]

(``first_action_id`` is ``None`` when the records have no actions).
One row covers a long undo history: an apply/undo alternation appends
to one run.  A stub's action-id range follows from its position in the
run, so UNDO line 9 needs no load.

Loading reads the run's byte range once to find its line starts, then
one line per stub; the line's CRC and stamp are checked.  A line that
fails either, or a range past the end of the file, is never used: the
record is rebuilt from a replay of the journal — never truncated, the
source of truth — and counted in ``repro_undone_rebuilds_total``.
Lines no row names (a crash between the side-file fsync and the
snapshot rename leaves some; their records are appended again) are
never read.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, List, Optional

from repro.core.history import History, StoredRecord, TransformationRecord
from repro.obs import metrics as obs_metrics
from repro.service.journal import format_line, line_keys, parse_line
from repro.service.serde import SerdeError, record_from_doc, record_to_doc

#: the side file's name inside a session directory.
UNDONE_FILE = "undone.jsonl"

_KEYS = line_keys("body", "stamp")


class Run:
    """Undone records with consecutive stamps whose lines lie back to
    back in the side file (see the module docstring for the row)."""

    __slots__ = ("file", "stamp", "count", "name", "at", "size",
                 "first_id", "per", "starts")

    def __init__(self, file: "UndoneFile", stamp: int, count: int,
                 name: str, at: int, size: int, first_id: Optional[int],
                 per: int) -> None:
        self.file = file
        self.stamp, self.count, self.name = stamp, count, name
        self.at, self.size = at, size
        self.first_id, self.per = first_id, per
        #: line starts relative to ``at`` (plus the end), read on the
        #: first load.
        self.starts: Optional[List[int]] = None

    def row(self) -> List[Any]:
        """The run's snapshot row."""
        return [self.stamp, self.count, self.name, self.at, self.size,
                self.first_id, self.per]

    def stubs(self) -> List[StoredRecord]:
        """One stub per stamp of the run."""
        out = []
        for i in range(self.count):
            ids = None
            if self.per:
                first = self.first_id + i * self.per
                ids = (first, first + self.per - 1)
            out.append(StoredRecord(self.stamp + i, self.name, ids, self))
        return out

    def load(self, stub: StoredRecord) -> TransformationRecord:
        """Read ``stub``'s record (the stub's store protocol)."""
        return self.file.load(self, stub.stamp)

    def takes(self, rec: TransformationRecord, at: int) -> bool:
        """Whether ``rec``'s line written at ``at`` extends this run."""
        n = len(rec.actions)
        return (self.stamp + self.count == rec.stamp
                and self.at + self.size == at and self.name == rec.name
                and self.per == n
                and (n == 0 or self.first_id + self.count * n
                     == rec.action_ids[0]))


class UndoneFile:
    """A session's append-only undone-record file.

    ``rebuild`` returns the history of a from-scratch journal replay;
    it is called at most once per handle, on the first line that fails
    its checks.
    """

    def __init__(self, path: str, *,
                 rebuild: Optional[Callable[[], History]] = None,
                 metrics: Optional[obs_metrics.MetricsRegistry] = None):
        self.path = path
        self.rebuild = rebuild
        self.metrics = metrics if metrics is not None \
            else obs_metrics.REGISTRY
        self._replayed: Optional[History] = None

    def runs(self, rows: List[List[Any]]) -> List[Run]:
        """The runs of a snapshot's rows."""
        return [Run(self, *row) for row in rows]

    # -- writing ---------------------------------------------------------------

    def append(self, history: History) -> int:
        """Write every undone record ``history`` holds in full; returns
        how many.

        The lines go out in stamp order in one write and one fsync
        (none when nothing is new), and only then does the history hold
        stubs in their place.  A torn final line is ended first, so a
        new line never joins it.
        """
        new = [r for r in history.all_records()
               if not r.active and not isinstance(r, StoredRecord)]
        if not new:
            return 0
        lines = [format_line("body", record_to_doc(r), "stamp", r.stamp)
                 for r in new]
        with open(self.path, "a+b") as fh:
            at = fh.seek(0, os.SEEK_END)
            if at:
                fh.seek(at - 1)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
                    at += 1
            fh.write(b"".join(lines))
            fh.flush()
            os.fsync(fh.fileno())
        stubs: List[StoredRecord] = []
        for rec, line in zip(new, lines):
            prev = stubs[-1] if stubs and stubs[-1].stamp == rec.stamp - 1 \
                else (history.by_stamp(rec.stamp - 1)
                      if history.has_stamp(rec.stamp - 1) else None)
            if isinstance(prev, StoredRecord) and prev.store.takes(rec, at):
                run = prev.store
                run.count += 1
                run.size += len(line)
            else:
                run = Run(self, rec.stamp, 1, rec.name, at, len(line),
                          rec.action_ids[0] if rec.actions else None,
                          len(rec.actions))
            stubs.append(StoredRecord(rec.stamp, rec.name, rec.action_ids,
                                      run, record=rec))
            at += len(line)
        history.store(stubs)
        self.metrics.counter("repro_undone_records_total",
                             "undone records appended to side files"
                             ).inc(len(new))
        return len(new)

    # -- reading ---------------------------------------------------------------

    def load(self, run: Run, stamp: int) -> TransformationRecord:
        """Read, check and decode the record of ``stamp`` in ``run``;
        a line that fails is replaced by the journal's rebuild."""
        self.metrics.counter("repro_undone_loads_total",
                             "undone records loaded from side files").inc()
        try:
            line = self._line(run, stamp - run.stamp)
            parsed = parse_line(line, _KEYS)
            if parsed is not None and parsed[0] == stamp:
                rec = record_from_doc(json.loads(parsed[1]))
                if rec.stamp == stamp and not rec.active:
                    return rec
        except (OSError, ValueError, KeyError, TypeError):
            pass  # SerdeError is a ValueError
        return self._rebuilt(stamp)

    def _line(self, run: Run, i: int) -> bytes:
        with open(self.path, "rb") as fh:
            if run.starts is None:
                fh.seek(run.at)
                region = fh.read(run.size)
                starts = [0]
                while len(starts) <= run.count:
                    nl = region.find(b"\n", starts[-1])
                    if nl < 0:
                        break
                    starts.append(nl + 1)
                run.starts = starts
            if i + 1 >= len(run.starts):
                return b""
            fh.seek(run.at + run.starts[i])
            return fh.read(run.starts[i + 1] - run.starts[i] - 1)

    def _rebuilt(self, stamp: int) -> TransformationRecord:
        if self.rebuild is None:
            raise SerdeError(f"undone record t{stamp} failed its checks "
                             "and no journal can rebuild it")
        if self._replayed is None:
            self._replayed = self.rebuild()
        self.metrics.counter("repro_undone_rebuilds_total",
                             "undone records rebuilt from a journal replay "
                             "after failing their side-file checks").inc()
        rec = self._replayed.by_stamp(stamp)
        if rec.active:
            raise SerdeError(f"journal replay left t{stamp} active")
        return rec
