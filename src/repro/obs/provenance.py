"""Decision provenance: structured verdicts, the causal provenance tree,
and the append-only audit log.

The paper's machinery is a machinery of *decisions*: Table 3's disabling
conditions decide whether a transformation is still safe or reversible,
Table 4's reverse-destroy matrix decides which safety re-checks an undo
may skip, and the Figure 4 cascade decides which other transformations
an undo drags along.  Until this module, those verdicts surfaced as bare
booleans and exception strings — good enough for an interactive user,
useless for an operator of a shared undo service asking "why did undoing
stamp 7 also undo stamps 9 and 12?" after the fact.

Three artifacts, all JSON-safe and schema-versioned:

:class:`Verdict`
    One safety or reversibility decision about one record: which Table 3
    condition fired (a stable machine-readable ``code`` plus the human
    message), which primitive action and record *caused* it, and the
    clobbered pattern element or annotation that witnessed it.  Built
    from the structured :class:`~repro.transforms.base.SafetyResult` /
    :class:`~repro.transforms.base.ReversibilityResult` the check paths
    now return.

:class:`ProvenanceNode`
    One node of the causal tree an undo builds: the target undo at the
    root; re-checks, Table 4 heuristic skips, region skips, and the
    affecting/affected undos they forced as children.  Each forced undo
    carries the verdict that forced it.  The tree rides on
    ``UndoReport.provenance`` / ``ReverseUndoReport.provenance`` and
    exports to text, JSON, and DOT.

the audit log (``audit.jsonl``)
    One append-only entry per journaled command, written by
    :class:`repro.service.session.DurableSession` beside ``trace.jsonl``
    and carrying the command's provenance tree.  Because the session
    attaches its observer only *after* recovery replay, a reopened
    session never double-logs; :func:`repro.obs.check.audit_roundtrip`
    cross-checks the log against the journal the same way
    ``trace_roundtrip`` checks the span stream.

The decision counters (:func:`count_check`, :func:`count_skip`,
:func:`count_cascade`) are how the undo engines count those same
decisions into their metrics registry at the site where each is made,
so every re-check, violation, skip and cascade is counted exactly once
— replayed and bare-engine undos included.

This module is deliberately import-light: it duck-types the result and
report objects it summarizes, so ``obs`` keeps depending on nothing
above it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import read_log

__all__ = ["AUDIT_SCHEMA", "AUDIT_FILE", "Verdict", "ProvenanceNode",
           "audit_path", "safety_verdict", "reversibility_verdict",
           "DEPTH_BUCKETS", "FANOUT_BUCKETS", "count_check", "count_skip",
           "count_cascade",
           "command_audit", "audit_entry", "read_audit", "entry_trees",
           "entry_events", "stamp_events", "stamp_trees", "explain_doc",
           "render_explanation", "provenance_to_dot"]

#: version stamp written into every audit entry; bump on layout changes.
AUDIT_SCHEMA = 1

#: audit entries land here, beside the journal and ``trace.jsonl``.
AUDIT_FILE = "audit.jsonl"


def audit_path(dirpath: str) -> str:
    """The audit-log file of one session directory."""
    return os.path.join(dirpath, AUDIT_FILE)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _violation_doc(v: Any) -> Dict[str, Any]:
    """JSON-safe form of one disabling-condition violation.

    Duck-typed over :class:`repro.transforms.base.Violation` so this
    module needs no import from the transformation layer.
    """
    doc: Dict[str, Any] = {"condition": getattr(v, "condition", str(v))}
    code = getattr(v, "code", "")
    if code:
        doc["code"] = code
    action = getattr(v, "action_id", None)
    if action is not None:
        doc["cause_action"] = action
    stamp = getattr(v, "stamp", None)
    if stamp is not None:
        doc["cause_stamp"] = stamp
    witness = getattr(v, "witness", None)
    if witness:
        doc["witness"] = dict(witness)
    return doc


@dataclass
class Verdict:
    """One safety or reversibility decision about one record."""

    #: ``"safety"`` or ``"reversibility"``.
    check: str
    #: the order stamp of the record that was checked.
    stamp: int
    #: its transformation name.
    name: str
    ok: bool
    #: the disabling conditions that fired (empty when ``ok``); each is
    #: a :func:`_violation_doc` dict — condition text, stable ``code``,
    #: causing action/stamp, and the witnessing pattern element.
    violations: List[Dict[str, Any]] = field(default_factory=list)
    #: the stamp whose undo prompted this re-check (``None`` for a
    #: standalone check outside a cascade).
    triggered_by: Optional[int] = None

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe form (omits empty violations / absent trigger)."""
        doc: Dict[str, Any] = {"check": self.check, "stamp": self.stamp,
                               "name": self.name, "ok": self.ok}
        if self.violations:
            doc["violations"] = [dict(v) for v in self.violations]
        if self.triggered_by is not None:
            doc["triggered_by"] = self.triggered_by
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Verdict":
        return cls(check=doc["check"], stamp=doc["stamp"], name=doc["name"],
                   ok=bool(doc["ok"]),
                   violations=[dict(v) for v in doc.get("violations", [])],
                   triggered_by=doc.get("triggered_by"))

    def describe(self) -> str:
        """One-line human rendering."""
        if self.ok:
            state = "safe" if self.check == "safety" else "reversible"
            return f"{self.check} of t{self.stamp} ({self.name}): {state}"
        v = self.violations[0] if self.violations else {}
        code = f" [{v['code']}]" if v.get("code") else ""
        cause = f" caused by t{v['cause_stamp']}" \
            if v.get("cause_stamp") is not None else ""
        return (f"{self.check} of t{self.stamp} ({self.name}): "
                f"{'UNSAFE' if self.check == 'safety' else 'BLOCKED'} — "
                f"{v.get('condition', '?')}{code}{cause}")


def safety_verdict(record: Any, result: Any,
                   triggered_by: Optional[int] = None) -> Verdict:
    """Structured verdict from a record + its ``check_safety`` result."""
    return Verdict(check="safety", stamp=record.stamp, name=record.name,
                   ok=bool(result.safe),
                   violations=[_violation_doc(v)
                               for v in getattr(result, "violations", [])],
                   triggered_by=triggered_by)


def reversibility_verdict(record: Any, result: Any,
                          triggered_by: Optional[int] = None) -> Verdict:
    """Structured verdict from a ``check_reversibility`` result."""
    return Verdict(check="reversibility", stamp=record.stamp,
                   name=record.name, ok=bool(result.reversible),
                   violations=[_violation_doc(v)
                               for v in getattr(result, "violations", [])],
                   triggered_by=triggered_by)


# ---------------------------------------------------------------------------
# The causal provenance tree
# ---------------------------------------------------------------------------


@dataclass
class ProvenanceNode:
    """One node of the causal tree a cascaded undo builds.

    ``kind`` is one of

    ``"undo"``
        a record whose inverse actions ran; ``role`` says why —
        ``"target"`` (the user asked), ``"affecting"`` (peeled first so
        the parent became reversible), ``"affected"`` (rippled because
        the parent's removal broke its safety), ``"collateral"`` (in the
        way of a LIFO peel).  ``verdict`` is the decision that *forced*
        the undo (``None`` for the target).
    ``"check"``
        one safety/reversibility re-check; ``verdict`` is its outcome.
    ``"skip"``
        a candidate the cascade did not re-check; ``reason`` is
        ``"table4-heuristic"`` or ``"outside-region"``.
    """

    kind: str
    stamp: Optional[int] = None
    name: Optional[str] = None
    role: Optional[str] = None
    reason: Optional[str] = None
    detail: str = ""
    verdict: Optional[Verdict] = None
    children: List["ProvenanceNode"] = field(default_factory=list)

    def add(self, node: "ProvenanceNode") -> "ProvenanceNode":
        """Append and return a child node."""
        self.children.append(node)
        return node

    def walk(self) -> Iterator["ProvenanceNode"]:
        """This node, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def undone_stamps(self) -> List[int]:
        """Stamps of every ``undo`` node, in tree (= commit) order."""
        return [n.stamp for n in self.walk()
                if n.kind == "undo" and n.stamp is not None]

    def to_doc(self) -> Dict[str, Any]:
        """JSON-safe form of the subtree (None fields omitted)."""
        doc: Dict[str, Any] = {"kind": self.kind}
        for key in ("stamp", "name", "role", "reason"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.detail:
            doc["detail"] = self.detail
        if self.verdict is not None:
            doc["verdict"] = self.verdict.to_doc()
        if self.children:
            doc["children"] = [c.to_doc() for c in self.children]
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ProvenanceNode":
        return cls(kind=doc["kind"], stamp=doc.get("stamp"),
                   name=doc.get("name"), role=doc.get("role"),
                   reason=doc.get("reason"), detail=doc.get("detail", ""),
                   verdict=_doc_verdict(doc),
                   children=[cls.from_doc(c)
                             for c in doc.get("children", [])])

    def label(self) -> str:
        """Compact one-line rendering of this node alone."""
        # the node's fields are its doc's keys
        return node_label(vars(self), self.verdict)

    def describe(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the whole tree."""
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


def node_label(node: Dict[str, Any], verdict: Optional[Verdict]) -> str:
    """One-line rendering of one node, from its doc form (children are
    not read) and its decoded ``verdict``."""
    kind = node["kind"]
    if kind == "undo":
        forced = f" — {verdict.describe()}" if verdict else ""
        return (f"undo t{node.get('stamp')} ({node.get('name')}, "
                f"{node.get('role')}){forced}")
    if kind == "check":
        return verdict.describe() if verdict else "check"
    if kind == "skip":
        detail = f": {node['detail']}" if node.get("detail") else ""
        return (f"skip t{node.get('stamp')} ({node.get('name')}) "
                f"[{node.get('reason')}]{detail}")
    return kind  # pragma: no cover - closed kind vocabulary


def _doc_verdict(node: Dict[str, Any]) -> Optional[Verdict]:
    """The decoded verdict a node doc carries, if any."""
    doc = node.get("verdict")
    return Verdict.from_doc(doc) if doc else None


def provenance_to_dot(trees: List[Dict[str, Any]],
                      title: str = "provenance") -> str:
    """Render provenance trees (doc form) as one DOT digraph.

    Undo nodes are boxes, checks are ellipses, skips are dashed; the
    edge from a blocked check to the undo it forced is implicit in the
    tree shape (the forced undo is the check's sibling carrying the
    same verdict), so the graph simply mirrors parent → child.
    """
    lines = [f'digraph "{title}" {{', "  rankdir=TB;",
             '  node [fontname="monospace", fontsize=10];']
    counter = [0]

    def emit(doc: Dict[str, Any], parent: Optional[str]) -> None:
        nid = f"n{counter[0]}"
        counter[0] += 1
        kind = doc["kind"]
        text = node_label(doc, _doc_verdict(doc))
        text = text.replace("\\", "\\\\").replace('"', '\\"')
        shape = {"undo": "box", "check": "ellipse"}.get(kind, "note")
        style = ', style=dashed' if kind == "skip" else ""
        lines.append(f'  {nid} [label="{text}", shape={shape}{style}];')
        if parent is not None:
            lines.append(f"  {parent} -> {nid};")
        for child in doc.get("children", []):
            emit(child, nid)

    for k, tree in enumerate(trees):
        lines.append(f"  subgraph cluster_{k} {{")
        root_at = len(lines)
        emit(tree, None)
        lines.insert(root_at, f'    label="entry {k}";')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Decision counters: each decision counted once, where the engine makes it
# ---------------------------------------------------------------------------

#: buckets for cascade depth and collateral fan-out — small integers,
#: not latencies (Fibonacci-ish so the tail still resolves).
DEPTH_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)
FANOUT_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)


def count_check(metrics: Any, verdict: Verdict) -> None:
    """Count one cascade re-check and each violation it found.

    Called at the check site, so a violation is counted once — not
    again on the ``affecting``/``affected`` undo node that carries the
    same verdict.
    """
    metrics.counter("repro_undo_checks_total",
                    "cascade re-checks, by check and verdict",
                    check=verdict.check,
                    verdict="ok" if verdict.ok else "violated").inc()
    for violation in verdict.violations:
        metrics.counter("repro_violation_total",
                        "disabling-condition violations by stable "
                        "Table 3 code",
                        code=violation.get("code") or "unknown").inc()


def count_skip(metrics: Any, reason: str) -> None:
    """Count one candidate the cascade did not re-check."""
    metrics.counter("repro_undo_skips_total",
                    "re-checks the cascade skipped, by reason "
                    "(Table 4 heuristic / outside the region)",
                    reason=reason).inc()


def count_cascade(metrics: Any, root: ProvenanceNode) -> None:
    """Count one finished (or failed) undo's tree: its ``undo`` nodes
    by role and its depth (the root is depth 1)."""
    deepest = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if node.kind == "undo":
            deepest = max(deepest, depth)
            metrics.counter("repro_undo_nodes_total",
                            "provenance undo nodes, by cascade role",
                            role=node.role or "target").inc()
        stack.extend((child, depth + 1) for child in node.children)
    metrics.histogram("repro_undo_cascade_depth",
                      "provenance tree depth of each undo cascade",
                      buckets=DEPTH_BUCKETS).observe(deepest)


# ---------------------------------------------------------------------------
# The audit log
# ---------------------------------------------------------------------------


def command_audit(command: Any) -> Dict[str, Any]:
    """The audit payload of one executed command (no seq/schema yet).

    Duck-typed over :class:`repro.core.commands.Command`: ``op``,
    ``failed``, the order ``stamp`` where the command carries one, the
    ``undone`` stamps of undo commands, the provenance tree the undo
    engines attached, and — for batches — one nested payload per
    executed sub-command.
    """
    # keyword syntax deliberately: this is the audit payload, not the
    # journal encoding (scripts/check_command_dicts.py enforces that
    # only core/commands.py builds string-keyed command dicts)
    doc: Dict[str, Any] = dict(
        op=command.op,
        status="failed" if getattr(command, "failed", False) else "ok")
    stamp = getattr(command, "stamp", None)
    if isinstance(stamp, int):
        doc["stamp"] = stamp
    undone = getattr(command, "undone", None)
    if undone is not None:
        doc["undone"] = list(undone)
    provenance = getattr(command, "provenance", None)
    if provenance is not None:
        doc["provenance"] = provenance
    if command.op == "batch":
        doc["commands"] = [command_audit(sub)
                           for sub in getattr(command, "commands", [])]
    return doc


def audit_entry(command: Any, seq: int) -> Dict[str, Any]:
    """One full ``audit.jsonl`` entry for a journaled command."""
    doc = {"schema": AUDIT_SCHEMA, "seq": seq}
    doc.update(command_audit(command))
    return doc


def read_audit(path: str,
               tail: Optional[int] = None) -> List[Dict[str, Any]]:
    """Load an ``audit.jsonl`` file: :func:`repro.obs.trace.read_log` of
    the records that have a ``seq`` and an ``op``.

    A torn or garbage line loses that entry only;
    :func:`repro.obs.check.audit_roundtrip` is what notices a gap.
    """
    return read_log(path, ("seq", "op"), tail)


def entry_trees(entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every provenance tree (doc form) one audit entry carries."""
    out: List[Dict[str, Any]] = []
    if entry.get("provenance"):
        out.append(entry["provenance"])
    for sub in entry.get("commands", []):
        if sub.get("provenance"):
            out.append(sub["provenance"])
    return out


# ---------------------------------------------------------------------------
# Explanation: one stamp's story, live state + audit trail
# ---------------------------------------------------------------------------


def _walk_doc(tree: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Every node doc of a tree, depth-first (the order of
    :meth:`ProvenanceNode.walk`)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.get("children", ())))


def entry_events(entry: Dict[str, Any]
                 ) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    """Every ``(stamp, event)`` pair one audit entry holds, in log order.

    Three ways an entry can touch a stamp: a provenance node *about* it
    (it was undone, re-checked, or skipped), a verdict *blaming* it (one
    of its actions fired a disabling condition elsewhere), or the entry
    being the command that created/targeted it.  Reads the doc form
    directly; only nodes that carry a verdict decode it.
    """
    # keyword syntax deliberately, as in command_audit: these are
    # explain rows, not command dicts
    seq, op = entry.get("seq"), entry.get("op")
    stamp = entry.get("stamp")
    if stamp is not None and op in ("apply", "edit"):
        failed = " (failed)" if entry.get("status") == "failed" else ""
        yield stamp, dict(seq=seq, op=op, kind="command",
                          text=f"{op} created t{stamp}{failed}")
    for tree in entry_trees(entry):
        root = tree.get("stamp")
        within = f"undo t{root}" if root is not None else op
        for node in _walk_doc(tree):
            kind, about = node["kind"], node.get("stamp")
            verdict = _doc_verdict(node)
            if about is not None and kind in ("undo", "skip", "check"):
                yield about, dict(
                    seq=seq, op=op, kind=kind, role=node.get("role"),
                    reason=node.get("reason"), within=within,
                    text=node_label(node, verdict),
                    verdict=verdict.to_doc() if verdict else None)
            if verdict is not None and kind == "check":
                for v in verdict.violations:
                    cause = v.get("cause_stamp")
                    if cause is not None and cause != about:
                        yield cause, dict(
                            seq=seq, op=op, kind="blamed", within=within,
                            text=f"t{cause} blamed: {verdict.describe()}")


def stamp_events(entries: List[Dict[str, Any]],
                 stamp: int) -> List[Dict[str, Any]]:
    """Every audit event that touches ``stamp``, oldest first (the
    :func:`entry_events` of ``stamp``)."""
    return [event for entry in entries
            for about, event in entry_events(entry) if about == stamp]


def stamp_trees(entries: List[Dict[str, Any]],
                stamp: int) -> List[Dict[str, Any]]:
    """Every audited provenance tree (doc form) that mentions ``stamp``."""
    return [tree for entry in entries for tree in entry_trees(entry)
            if any(node.get("stamp") == stamp for node in _walk_doc(tree))]


def explain_doc(live: Optional[Dict[str, Any]],
                history: List[Dict[str, Any]],
                stamp: int) -> Dict[str, Any]:
    """The full explanation document for one stamp.

    ``live`` is :meth:`repro.core.engine.TransformationEngine.explain`
    output (current verdicts), ``history`` the stamp's audit events
    (:func:`stamp_events`, or a session's index of them).
    """
    return {"stamp": stamp, "live": live, "history": history}


def render_explanation(doc: Dict[str, Any]) -> str:
    """Human-readable rendering of an :func:`explain_doc` document."""
    stamp = doc["stamp"]
    lines: List[str] = []
    live = doc.get("live")
    if live is not None:
        state = "active" if live.get("active") else "inactive (undone)"
        if live.get("is_edit"):
            state += ", user edit"
        lines.append(f"t{stamp} {live.get('name', '?')} — {state}")
        for key in ("safety", "reversibility"):
            verdict = live.get(key)
            if verdict is not None:
                lines.append("  now: "
                             + Verdict.from_doc(verdict).describe())
    else:
        lines.append(f"t{stamp} — no live record")
    history = doc.get("history", [])
    if history:
        lines.append("audit trail:")
        for ev in history:
            where = f" (during {ev['within']})" if ev.get("within") else ""
            lines.append(f"  seq {ev['seq']}{where}: {ev['text']}")
    else:
        lines.append("audit trail: (no recorded events)")
    return "\n".join(lines)
