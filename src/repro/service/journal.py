"""Append-only write-ahead journal of session commands.

One JSON line per *committed* logical command: ``{"seq": 7, "cmd":
<encoded command>, "crc": "9f2a..."}`` — the ``cmd`` payload is the
canonical encoding produced by
:meth:`repro.core.commands.Command.encode` (a batch journals its whole
group as one record, hence one fsync).

Design points:

* **Redo-log discipline** — a command is journaled after the engine
  committed it, so every prefix of the journal is a valid command
  sequence.  Truncating the file at *any* byte offset loses at most the
  suffix of commands, never consistency (the crash-recovery property
  test exercises every offset).
* **Torn-tail detection** — a crash mid-write leaves a final line that
  is incomplete, unparseable, or fails its per-line CRC.  The CRC is
  checked on the bytes as written (:func:`parse_record`), so a scan
  renders nothing and decodes no command.
  :func:`scan_journal` returns the longest valid prefix and the byte
  offset where it ends; :func:`repair_journal` truncates the file
  there.
* **Batched fsync** — every append is written and flushed to the OS
  immediately (so an abandoned process loses nothing that reached the
  file), but the expensive ``fsync`` is issued once per ``fsync_every``
  records and on :meth:`Journal.sync`/:meth:`Journal.close`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics


class JournalError(RuntimeError):
    """Raised on journal protocol violations (bad seq, closed journal)."""


def fsync_dir(dirpath: str) -> None:
    """fsync a directory so a preceding ``os.replace`` survives power loss.

    POSIX only guarantees a rename is durable once the parent directory
    entry itself is flushed; without this, a crash can lose a snapshot
    or migrated-journal rename the caller already relied on.  Platforms that cannot open a directory for
    reading (e.g. Windows) skip silently — there the guarantee degrades
    to process-crash safety, as documented in docs/PERSISTENCE.md.
    """
    try:
        fd = os.open(dirpath or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class JournalRecord:
    """One committed command, as read back from the journal.

    A record parsed from a journal line keeps its ``cmd`` as the bytes
    written and decodes them on first access, so a reopen checks every
    record's CRC but decodes only the tail it replays.
    """

    __slots__ = ("seq", "_cmd", "_raw")

    def __init__(self, seq: int, cmd: Optional[Dict[str, Any]] = None, *,
                 raw: bytes = b""):
        self.seq = seq
        self._cmd = cmd
        self._raw = raw

    @property
    def cmd(self) -> Dict[str, Any]:
        """The encoded command (decoded once, on first use)."""
        if self._cmd is None:
            self._cmd = json.loads(self._raw)
        return self._cmd

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JournalRecord):
            return NotImplemented
        return self.seq == other.seq and self.cmd == other.cmd

    def __repr__(self) -> str:
        return f"JournalRecord(seq={self.seq!r}, cmd={self.cmd!r})"


def _crc(seq: int, cmd: Dict[str, Any]) -> str:
    body = json.dumps({"seq": seq, "cmd": cmd}, sort_keys=True,
                      separators=(",", ":"))
    return _crc_of(body.encode("utf-8"))


def _crc_of(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:16]


def format_record(seq: int, cmd: Dict[str, Any]) -> bytes:
    """Render one journal line (newline-terminated UTF-8)."""
    doc = {"seq": seq, "cmd": cmd, "crc": _crc(seq, cmd)}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


#: a line is ``{"cmd":<cmd>,"crc":"<16 hex>","seq":<seq>}``; the CRC
#: field sits a fixed distance before the ``seq`` key.
_CMD_KEY = b'{"cmd":'
_CRC_KEY = b',"crc":"'
_SEQ_KEY = b',"seq":'
_CRC_FIELD = len(_CRC_KEY) + 16 + 1


def parse_record(line: bytes) -> Optional[JournalRecord]:
    """Parse one journal line; ``None`` when torn or corrupt.

    A line is the canonical rendering of ``{"cmd", "crc", "seq"}``, so
    cutting ``"crc":"<16 hex>",`` out of it leaves exactly the
    ``{"cmd", "seq"}`` body the CRC covers.  The check hashes that slice
    of the bytes as written and reads the seq off the line's tail; the
    command stays undecoded until :attr:`JournalRecord.cmd` is read.
    """
    at = line.rfind(_SEQ_KEY)
    crc_at = at - _CRC_FIELD
    if crc_at < len(_CMD_KEY) or not line.startswith(_CMD_KEY + b"{") \
            or not line.endswith(b"}") \
            or not line.startswith(_CRC_KEY, crc_at) \
            or line[at - 1] != ord('"'):
        return None
    digits = line[at + len(_SEQ_KEY):-1]
    if not digits.isdigit():
        return None
    crc = line[crc_at + len(_CRC_KEY):at - 1]
    if _crc_of(line[:crc_at] + line[at:]).encode("ascii") != crc:
        return None
    return JournalRecord(int(digits), raw=line[len(_CMD_KEY):crc_at])


def scan_journal(path: str) -> Tuple[List[JournalRecord], int, bool]:
    """Read the longest valid record prefix of a journal file.

    Returns ``(records, valid_bytes, torn)``: the committed records, the
    byte offset where the valid prefix ends, and whether anything
    invalid follows it (a torn final write, garbage, or corruption).
    Sequence numbers must be strictly increasing; a regression marks the
    rest of the file invalid.  A missing file is an empty journal.
    """
    if not os.path.exists(path):
        return [], 0, False
    with open(path, "rb") as fh:
        data = fh.read()
    records: List[JournalRecord] = []
    offset = 0
    last_seq = -1
    while offset < len(data):
        nl = data.find(b"\n", offset)
        if nl == -1:
            return records, offset, True  # unterminated tail
        rec = parse_record(data[offset:nl])
        if rec is None or rec.seq <= last_seq:
            return records, offset, True
        records.append(rec)
        last_seq = rec.seq
        offset = nl + 1
    return records, offset, False


def repair_journal(path: str) -> Tuple[List[JournalRecord], int]:
    """Truncate a journal to its valid prefix.

    Returns ``(records, dropped_bytes)``.  Safe to call on a healthy or
    missing journal (both drop zero bytes).
    """
    records, valid_bytes, torn = scan_journal(path)
    dropped = 0
    if torn:
        size = os.path.getsize(path)
        dropped = size - valid_bytes
        with open(path, "r+b") as fh:
            fh.truncate(valid_bytes)
            fh.flush()
            os.fsync(fh.fileno())
    return records, dropped


def rewrite_journal(path: str, records: List[JournalRecord]) -> None:
    """Atomically replace a journal's contents (the one-shot migration
    of :func:`repro.service.recovery.migrate_journal`).

    Written to a temp file, fsynced, then ``os.replace``d so a crash
    leaves either the old or the new journal — never a mix.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for rec in records:
            fh.write(format_record(rec.seq, rec.cmd))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path))


class Journal:
    """Append handle over a journal file with batched fsync."""

    def __init__(self, path: str, *, fsync_every: int = 8,
                 metrics: Optional[obs_metrics.MetricsRegistry] = None):
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = path
        self.fsync_every = fsync_every
        self._fh = open(path, "ab")
        self._unsynced = 0
        #: instrumentation for the recovery/throughput benchmarks.
        self.records_written = 0
        self.bytes_written = 0
        self.syncs = 0
        self.metrics = metrics if metrics is not None \
            else obs_metrics.REGISTRY

    def append(self, seq: int, cmd: Dict[str, Any]) -> None:
        """Append one committed command; fsync per batch policy."""
        if self._fh is None:
            raise JournalError("journal is closed")
        line = format_record(seq, cmd)
        self._fh.write(line)
        self._fh.flush()  # reaches the OS even if the process is killed
        self.records_written += 1
        self.bytes_written += len(line)
        m = self.metrics
        m.counter("repro_journal_records_total",
                  "journal records appended").inc()
        m.counter("repro_journal_bytes_total",
                  "journal bytes appended").inc(len(line))
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Force the batched records to stable storage."""
        if self._fh is None or self._unsynced == 0:
            return
        started = time.perf_counter()
        os.fsync(self._fh.fileno())
        self.syncs += 1
        self._unsynced = 0
        m = self.metrics
        m.counter("repro_journal_fsyncs_total", "journal fsyncs issued").inc()
        m.histogram("repro_journal_fsync_seconds",
                    "time spent inside one journal fsync").observe(
                        time.perf_counter() - started)

    def truncate_through(self, seq: int) -> None:
        """Drop every record with ``seq`` at or below the given one.

        Unused by sessions (the journal is their whole history); kept
        because ``perfbench/layertrace.py`` wraps it by name.
        """
        self.sync()
        self._fh.close()
        records, _valid, _torn = scan_journal(self.path)
        rewrite_journal(self.path, [r for r in records if r.seq > seq])
        self._fh = open(self.path, "ab")
        self._unsynced = 0

    def close(self) -> None:
        """Flush, fsync, and release the file handle (idempotent)."""
        if self._fh is None:
            return
        self.sync()
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
