"""Journal ↔ flight-recorder round-trip verification.

A durable session journals every committed command AND (via its span
sink) streams every completed span to ``trace.jsonl`` in the session
directory.  The two records describe the same execution, so they must
join exactly: every journal record has **exactly one** top-level command
span annotated with its sequence number, and where the command carries
an order stamp (apply/undo/edit — a batch does not), the span's stamp
tag matches it.

:func:`trace_roundtrip` performs that join for one session directory;
the CLI surfaces it as ``python -m repro trace ROOT NAME --check``.

Recovery replay re-executes journaled commands, but those spans are
children of the ``recover`` span and are never annotated with a new
sequence number, so a reopened session does not double-count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import read_trace

#: spans streamed by a session's sink land here (next to the journal).
TRACE_FILE = "trace.jsonl"


def trace_path(dirpath: str) -> str:
    """The span-stream file of one session directory."""
    return os.path.join(dirpath, TRACE_FILE)


@dataclass
class RoundtripReport:
    """Outcome of joining one session's journal against its trace."""

    #: journal records examined (the whole journal).
    checked: int = 0
    #: spans carrying a ``seq`` annotation (committed command spans).
    command_spans: int = 0
    #: human-readable mismatches; empty means the round-trip holds.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        """One line per problem, or the all-clear summary."""
        if self.ok:
            return (f"ok: {self.checked} journaled command(s) round-trip "
                    f"({self.command_spans} command span(s))")
        return "\n".join(self.problems)


def _cmd_stamp(cmd: Dict[str, Any]) -> Optional[int]:
    """The order stamp a journaled command carries (None for batches)."""
    stamp = cmd.get("stamp")
    return stamp if isinstance(stamp, int) else None


def trace_roundtrip(dirpath: str) -> RoundtripReport:
    """Join a session's journal against its recorded spans."""
    # imported here, not at module top: obs must stay importable without
    # the service layer (the engine depends on obs, not vice versa)
    from repro.service.journal import scan_journal
    from repro.service.recovery import JOURNAL_FILE

    records, _bytes, _torn = scan_journal(os.path.join(dirpath, JOURNAL_FILE))
    spans = read_trace(trace_path(dirpath))

    by_seq: Dict[int, List[Dict[str, Any]]] = {}
    command_spans = 0
    for span in spans:
        seq = span.get("tags", {}).get("seq")
        if isinstance(seq, int):
            command_spans += 1
            by_seq.setdefault(seq, []).append(span)

    report = RoundtripReport(command_spans=command_spans)
    for rec in records:
        report.checked += 1
        matches = by_seq.get(rec.seq, [])
        if len(matches) != 1:
            report.problems.append(
                f"seq {rec.seq}: expected exactly one command span, "
                f"found {len(matches)}")
            continue
        span = matches[0]
        if span.get("parent") is not None:
            report.problems.append(
                f"seq {rec.seq}: command span {span.get('id')} is not "
                f"top-level (parent {span.get('parent')})")
        tags = span.get("tags", {})
        if tags.get("op") != rec.cmd.get("op"):
            report.problems.append(
                f"seq {rec.seq}: span op {tags.get('op')!r} != journaled "
                f"op {rec.cmd.get('op')!r}")
        stamp = _cmd_stamp(rec.cmd)
        if stamp is not None and tags.get("stamp") != stamp:
            report.problems.append(
                f"seq {rec.seq}: span stamp {tags.get('stamp')!r} != "
                f"journaled order stamp {stamp}")
    return report


def fleet_roundtrip(root: str) -> RoundtripReport:
    """Join the router's span stream against every worker's, per request.

    The cross-shard analogue of :func:`trace_roundtrip`: where that
    check joins one session's journal against its spans, this one joins
    the *fleet's* span streams against each other on the request ids the
    edge minted.  For every request id found anywhere under the service
    root:

    * **exactly one** router ``route`` span exists — zero means a worker
      recorded spans for a request the router never routed (a context
      leak), two means an id collision;
    * every worker span's ``parent`` resolves among the same origin's
      spans of the same request — no orphan fragments;
    * a routed command verb (``apply``/``undo``/``undo-lifo``/
      ``edit-del``/``batch``) has **exactly one** top-level ``command``
      span across the workers, it lives in the shard the router chose,
      and — when the route succeeded — it carries the ``seq``
      annotation that joins it onward to the shard's journal.

    ``checked`` counts request ids examined; ``command_spans`` counts
    the top-level worker command spans that joined.
    """
    # lazy imports: collector pulls the service layer for path layout
    from repro.obs.collector import ORIGIN_ROUTER, collect_requests
    from repro.service.server import COMMAND_VERBS
    from repro.service.shard import SHARD_DIR_FMT

    command_verbs = set(COMMAND_VERBS) | {"batch"}
    report = RoundtripReport()
    for request, trace in collect_requests(root).items():
        report.checked += 1
        routes = [s for s in trace.spans
                  if s["origin"] == ORIGIN_ROUTER and s["name"] == "route"]
        if len(routes) != 1:
            report.problems.append(
                f"{request}: expected exactly one router route span, "
                f"found {len(routes)}")
            continue
        route = routes[0]
        worker_spans = [s for s in trace.spans
                        if s["origin"] != ORIGIN_ROUTER]
        for span in worker_spans:
            parent = span.get("parent")
            if parent is None:
                continue
            same_origin = {s["id"] for s in worker_spans
                           if s["origin"] == span["origin"]}
            if parent not in same_origin:
                report.problems.append(
                    f"{request}: span {span.get('id')} "
                    f"({span['origin']}: {span['name']}) has unresolved "
                    f"parent {parent}")
        tags = route.get("tags", {})
        if tags.get("kind") != "session" or \
                tags.get("verb") not in command_verbs:
            continue
        commands = [s for s in worker_spans
                    if s["name"] == "command" and s.get("parent") is None]
        routed_ok = route.get("status") == "ok"
        # a failed route may legitimately have zero command spans (the
        # request died before reaching the engine — unknown session,
        # dead worker); more than one is always wrong, and a successful
        # route must have exactly one
        if len(commands) > 1 or (routed_ok and len(commands) != 1):
            report.problems.append(
                f"{request}: routed {tags.get('verb')!r} has "
                f"{len(commands)} top-level worker command span(s), "
                f"expected exactly one")
            continue
        if not commands:
            continue
        report.command_spans += 1
        command = commands[0]
        shard = tags.get("shard")
        if isinstance(shard, int) and not command["origin"].startswith(
                SHARD_DIR_FMT.format(shard) + "/"):
            report.problems.append(
                f"{request}: command span recorded in "
                f"{command['origin']!r}, but the router routed to shard "
                f"{shard}")
        if routed_ok and not isinstance(
                command.get("tags", {}).get("seq"), int):
            report.problems.append(
                f"{request}: committed command span "
                f"{command.get('id')} has no seq annotation")
    return report


def audit_roundtrip(dirpath: str) -> RoundtripReport:
    """Join a session's journal against its audit log.

    The audit log (``audit.jsonl``, see :mod:`repro.obs.provenance`) is
    appended once per journaled command, so the two must agree record
    for record: every journal record joins **exactly one** audit entry
    with the same seq, op, order stamp, failure status, and — for undos
    — the same undone set.  Audit seqs must be unique and strictly
    increasing, which is precisely what recovery-replay double-logging
    would break (replayed commands would re-append entries with already
    -used seqs).  Every audit entry must join a journal record: one with
    a seq *beyond* the journal's last describes a command the journal
    never committed, and one inside it describes a record the journal
    lost.

    Reuses :class:`RoundtripReport`; ``command_spans`` counts audit
    entries here.
    """
    # lazy import for the same layering reason as trace_roundtrip
    from repro.obs.provenance import AUDIT_SCHEMA, audit_path, read_audit
    from repro.service.journal import scan_journal
    from repro.service.recovery import JOURNAL_FILE

    records, _bytes, _torn = scan_journal(os.path.join(dirpath, JOURNAL_FILE))
    entries = read_audit(audit_path(dirpath))

    report = RoundtripReport(command_spans=len(entries))
    by_seq: Dict[int, List[Dict[str, Any]]] = {}
    last_seq = None
    for entry in entries:
        seq = entry.get("seq")
        by_seq.setdefault(seq, []).append(entry)
        if last_seq is not None and seq <= last_seq:
            report.problems.append(
                f"audit seq {seq} follows {last_seq}: entries must be "
                "strictly increasing (recovery replay double-logging?)")
        last_seq = seq
        if entry.get("schema") != AUDIT_SCHEMA:
            report.problems.append(
                f"audit seq {seq}: unknown schema {entry.get('schema')!r}")

    journal_seqs = {rec.seq for rec in records}
    last_journaled = records[-1].seq if records else 0
    for rec in records:
        report.checked += 1
        matches = by_seq.get(rec.seq, [])
        if len(matches) != 1:
            report.problems.append(
                f"seq {rec.seq}: expected exactly one audit entry, "
                f"found {len(matches)}")
            continue
        entry = matches[0]
        if entry.get("op") != rec.cmd.get("op"):
            report.problems.append(
                f"seq {rec.seq}: audit op {entry.get('op')!r} != journaled "
                f"op {rec.cmd.get('op')!r}")
        stamp = _cmd_stamp(rec.cmd)
        if stamp is not None and entry.get("stamp") != stamp:
            report.problems.append(
                f"seq {rec.seq}: audit stamp {entry.get('stamp')!r} != "
                f"journaled order stamp {stamp}")
        failed = bool(rec.cmd.get("failed"))
        if (entry.get("status") == "failed") != failed:
            report.problems.append(
                f"seq {rec.seq}: audit status {entry.get('status')!r} "
                f"disagrees with journaled failed={failed}")
        undone = rec.cmd.get("undone")
        if undone is not None and entry.get("undone") != list(undone):
            report.problems.append(
                f"seq {rec.seq}: audit undone {entry.get('undone')!r} != "
                f"journaled {undone}")
        if rec.cmd.get("op") == "batch":
            j_subs = rec.cmd.get("commands", [])
            a_subs = entry.get("commands", [])
            if len(j_subs) != len(a_subs):
                report.problems.append(
                    f"seq {rec.seq}: audit batch has {len(a_subs)} "
                    f"sub-command(s), journal has {len(j_subs)}")
    # every audit entry must join a journal record
    for seq in by_seq:
        if not isinstance(seq, int):
            report.problems.append(f"audit entry with bad seq {seq!r}")
        elif seq > last_journaled:
            report.problems.append(
                f"audit seq {seq} is beyond the journal tail "
                f"(last journaled seq {last_journaled})")
        elif seq not in journal_seqs:
            report.problems.append(f"audit seq {seq} has no journal record")
    return report
