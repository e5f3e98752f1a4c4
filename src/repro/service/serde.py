"""Versioned, checksummed JSON serialization of engine state.

Everything the undo machinery needs to keep working across a process
boundary is covered: the program (attached *and* detached statements,
with their exact sids), the annotation store, the transformation
history (records, primitive actions, pre/post patterns), the event
log's chained digest, and the applier's id counters.  A restored engine
can keep applying and undoing as if the process had never exited.

Documents on disk are wrapped in a small envelope: one JSON header
line, then the payload's canonical text (:func:`canonical_dumps`)::

    {"format": "<kind>", "version": 2, "checksum": "<sha256>"}
    {...payload...}

The checksum is the sha256 of exactly the payload bytes after the
first newline.  :func:`dumps_envelope` renders the payload once, and
:func:`loads_envelope` hashes the bytes it read and parses them once —
neither re-renders the payload.  Version-1 files are one JSON object
``{"format", "version": 1, "checksum", "payload"}`` whose checksum is
over the canonical rendering of ``payload``; :func:`loads_envelope`
still reads them, through :func:`unwrap`.  Both reject unknown
formats, other versions, and payloads whose checksum does not match —
a half-written or bit-rotted snapshot is *detected*, never silently
loaded (recovery then falls back to the previous snapshot or to
journal replay, see :mod:`repro.service.recovery`).

Pre/post patterns and opportunity params are free-form dictionaries
whose schema is owned by each transformation class, so they go through
a tagged *generic value codec* that round-trips the Python shapes they
actually use: tuples (expression paths, CSE keys), :class:`Expr`
subtrees, :class:`HeaderSpec` and :class:`Location` snapshots.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.core.actions import ActionKind, ActionRecord, HeaderSpec
from repro.core.annotations import Annotation, AnnotationStore
from repro.core.events import Event, EventKind, EventLog, chain_digest
from repro.core.history import History, StoredRecord, TransformationRecord
from repro.core.locations import Location
from repro.lang.ast_nodes import (
    ROOT_SID,
    ArrayRef,
    Assign,
    BinOp,
    Const,
    Expr,
    IfStmt,
    Loop,
    ParLoop,
    ParSections,
    Program,
    ReadStmt,
    Stmt,
    UnaryOp,
    VarRef,
    WriteStmt,
)

#: On-disk format version; bump on incompatible schema changes.
FORMAT_VERSION = 2

#: Envelope kinds used across the service layer.
KIND_SNAPSHOT = "repro-snapshot"
KIND_META = "repro-session-meta"


class SerdeError(ValueError):
    """Raised when a document cannot be (de)serialized or fails its
    integrity checks (bad checksum, unknown version, unknown node)."""


# ---------------------------------------------------------------------------
# Envelope: canonical JSON + sha256 checksum
# ---------------------------------------------------------------------------


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: Any) -> str:
    """sha256 hex digest of the canonical payload rendering."""
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def dumps_envelope(payload: Any, kind: str) -> Tuple[bytes, bytes]:
    """A payload's envelope as ``(header line, body)`` bytes.

    The body is the payload's canonical text, rendered once; the header
    carries its sha256.  Callers write the two parts back to back.
    """
    body = canonical_dumps(payload).encode("utf-8")
    header = {"format": kind, "version": FORMAT_VERSION,
              "checksum": hashlib.sha256(body).hexdigest()}
    return (json.dumps(header) + "\n").encode("utf-8"), body


def loads_envelope(data: bytes, kind: str) -> Any:
    """Validate the bytes of an envelope file and return its payload.

    A version-2 body is hashed as read and parsed once.  A version-1
    file (one JSON object, no header line) goes through :func:`unwrap`.
    """
    head, _, body = data.partition(b"\n")
    try:
        doc = json.loads(head)
    except ValueError as exc:
        raise SerdeError(f"{kind} header unreadable: {exc}") from exc
    if isinstance(doc, dict) and doc.get("version") == 1:
        return unwrap(doc, kind)
    _check_header(doc, kind, FORMAT_VERSION)
    if hashlib.sha256(body).hexdigest() != doc.get("checksum"):
        raise SerdeError(f"{kind} checksum mismatch (corrupt or torn write)")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise SerdeError(f"{kind} payload unreadable: {exc}") from exc


def unwrap(doc: Any, kind: str) -> Any:
    """Validate a version-1 envelope object and return its payload."""
    _check_header(doc, kind, 1)
    payload = doc.get("payload")
    if checksum(payload) != doc.get("checksum"):
        raise SerdeError(f"{kind} checksum mismatch (corrupt or torn write)")
    return payload


def _check_header(doc: Any, kind: str, version: int) -> None:
    """Reject an envelope header of another kind or version."""
    if not isinstance(doc, dict):
        raise SerdeError(f"expected a {kind} envelope, got {type(doc).__name__}")
    if doc.get("format") != kind:
        raise SerdeError(f"format mismatch: expected {kind!r}, "
                         f"got {doc.get('format')!r}")
    if doc.get("version") != version:
        raise SerdeError(f"unsupported {kind} version {doc.get('version')!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def expr_to_doc(e: Expr) -> Dict[str, Any]:
    """Encode an expression subtree."""
    if isinstance(e, Const):
        return {"k": "const", "v": e.value}
    if isinstance(e, VarRef):
        return {"k": "var", "n": e.name}
    if isinstance(e, ArrayRef):
        return {"k": "arr", "n": e.name,
                "s": [expr_to_doc(s) for s in e.subscripts]}
    if isinstance(e, BinOp):
        return dict(k="bin", op=e.op,
                    l=expr_to_doc(e.left), r=expr_to_doc(e.right))
    if isinstance(e, UnaryOp):
        return dict(k="un", op=e.op, e=expr_to_doc(e.operand))
    raise SerdeError(f"unknown expression node {type(e).__name__}")


def expr_from_doc(doc: Dict[str, Any]) -> Expr:
    """Decode an expression subtree."""
    k = doc.get("k")
    if k == "const":
        return Const(doc["v"])
    if k == "var":
        return VarRef(doc["n"])
    if k == "arr":
        return ArrayRef(doc["n"], [expr_from_doc(s) for s in doc["s"]])
    if k == "bin":
        return BinOp(doc["op"], expr_from_doc(doc["l"]), expr_from_doc(doc["r"]))
    if k == "un":
        return UnaryOp(doc["op"], expr_from_doc(doc["e"]))
    raise SerdeError(f"unknown expression tag {k!r}")


# ---------------------------------------------------------------------------
# Statements and programs (sids preserved exactly)
# ---------------------------------------------------------------------------


def stmt_to_doc(s: Stmt) -> Dict[str, Any]:
    """Encode a statement subtree, keeping sids and labels."""
    base: Dict[str, Any] = {"sid": s.sid, "label": s.label}
    if isinstance(s, Assign):
        base.update(t="assign", target=expr_to_doc(s.target),
                    expr=expr_to_doc(s.expr))
    elif isinstance(s, ParLoop):
        # before Loop: a DOALL must not be flattened into a ``loop`` doc
        base.update(t="parloop", var=s.var, lower=expr_to_doc(s.lower),
                    upper=expr_to_doc(s.upper), step=expr_to_doc(s.step),
                    body=[stmt_to_doc(c) for c in s.body])
    elif isinstance(s, Loop):
        base.update(t="loop", var=s.var, lower=expr_to_doc(s.lower),
                    upper=expr_to_doc(s.upper), step=expr_to_doc(s.step),
                    body=[stmt_to_doc(c) for c in s.body])
    elif isinstance(s, ParSections):
        base.update(t="parsec",
                    sections=[[stmt_to_doc(c) for c in sec]
                              for sec in s.sections])
    elif isinstance(s, IfStmt):
        base.update(t="if", cond=expr_to_doc(s.cond),
                    then=[stmt_to_doc(c) for c in s.then_body],
                    orelse=[stmt_to_doc(c) for c in s.else_body])
    elif isinstance(s, ReadStmt):
        base.update(t="read", target=expr_to_doc(s.target))
    elif isinstance(s, WriteStmt):
        base.update(t="write", expr=expr_to_doc(s.expr))
    else:
        raise SerdeError(f"unknown statement node {type(s).__name__}")
    return base


def stmt_from_doc(doc: Dict[str, Any]) -> Stmt:
    """Decode a statement subtree (sids and labels restored verbatim)."""
    t = doc.get("t")
    if t == "assign":
        s: Stmt = Assign(expr_from_doc(doc["target"]), expr_from_doc(doc["expr"]))
    elif t == "loop":
        s = Loop(doc["var"], expr_from_doc(doc["lower"]),
                 expr_from_doc(doc["upper"]), expr_from_doc(doc["step"]),
                 [stmt_from_doc(c) for c in doc["body"]])
    elif t == "parloop":
        s = ParLoop(doc["var"], expr_from_doc(doc["lower"]),
                    expr_from_doc(doc["upper"]), expr_from_doc(doc["step"]),
                    [stmt_from_doc(c) for c in doc["body"]])
    elif t == "parsec":
        s = ParSections([[stmt_from_doc(c) for c in sec]
                         for sec in doc["sections"]])
    elif t == "if":
        s = IfStmt(expr_from_doc(doc["cond"]),
                   [stmt_from_doc(c) for c in doc["then"]],
                   [stmt_from_doc(c) for c in doc["orelse"]])
    elif t == "read":
        s = ReadStmt(expr_from_doc(doc["target"]))
    elif t == "write":
        s = WriteStmt(expr_from_doc(doc["expr"]))
    else:
        raise SerdeError(f"unknown statement tag {t!r}")
    s.sid = doc["sid"]
    s.label = doc["label"]
    return s


def program_to_doc(program: Program) -> Dict[str, Any]:
    """Encode a program: live tree, detached subtrees, and sid counter.

    Detached statements matter — the history's ``Delete`` records point
    at them and an undo re-attaches them, so they must survive a
    process boundary with their exact identities.
    """
    attached_roots = [stmt_to_doc(s) for s in program.body]
    detached_roots: List[Dict[str, Any]] = []
    for sid in sorted(program._infos):
        info = program._infos[sid]
        if not info.attached and info.parent is None:
            detached_roots.append(stmt_to_doc(info.stmt))
    return {"body": attached_roots, "detached": detached_roots,
            "next_sid": program._next_sid, "version": program.version,
            "version_hwm": program._version_hwm}


def _adopt(program: Program, stmt: Stmt) -> None:
    """Register a decoded subtree into the program's sid index."""
    from repro.lang.ast_nodes import StmtInfo

    if stmt.sid in program._infos:
        raise SerdeError(f"duplicate sid {stmt.sid} in program document")
    program._infos[stmt.sid] = StmtInfo(stmt=stmt)
    for slot in stmt.body_slots():
        for child in stmt.get_body(slot):
            _adopt(program, child)


def program_from_doc(doc: Dict[str, Any]) -> Program:
    """Decode a program, rebuilding the sid index and parent map."""
    program = Program()
    for sdoc in doc["body"]:
        stmt = stmt_from_doc(sdoc)
        _adopt(program, stmt)
        program.body.append(stmt)
        program._infos[stmt.sid].parent = (ROOT_SID, "body")
        program._mark_attached(stmt, True)
    for sdoc in doc["detached"]:
        stmt = stmt_from_doc(sdoc)
        _adopt(program, stmt)
        # children keep parent pointers into the detached subtree so a
        # later re-attachment restores the whole structure at once
        program._mark_attached(stmt, False)
        program._infos[stmt.sid].parent = None
    program._next_sid = doc["next_sid"]
    program.version = doc["version"]
    program._version_hwm = doc["version_hwm"]
    return program


# ---------------------------------------------------------------------------
# Flat per-sid row form of a program (delta snapshots)
# ---------------------------------------------------------------------------
#
# A *row* is one statement's own content — tag, label, expression slots —
# with nested statements referenced by sid instead of inlined.  A program
# in row form is ``{"rows": {str(sid): row}, "roots": [...],
# "detached": [...], "next_sid", "version", "version_hwm"}``.  Delta
# snapshots ship only the changed rows plus the (small) root/detached
# lists; resolution merges rows into the base's row table and
# re-materializes the nested program document.  Sids are never retired
# from a program, so a delta never needs row deletions.


def stmt_to_row(s: Stmt) -> Dict[str, Any]:
    """Encode one statement as a flat row (children by sid)."""
    base: Dict[str, Any] = {"sid": s.sid, "label": s.label}
    if isinstance(s, Assign):
        base.update(t="assign", target=expr_to_doc(s.target),
                    expr=expr_to_doc(s.expr))
    elif isinstance(s, ParLoop):
        base.update(t="parloop", var=s.var, lower=expr_to_doc(s.lower),
                    upper=expr_to_doc(s.upper), step=expr_to_doc(s.step),
                    body=[c.sid for c in s.body])
    elif isinstance(s, Loop):
        base.update(t="loop", var=s.var, lower=expr_to_doc(s.lower),
                    upper=expr_to_doc(s.upper), step=expr_to_doc(s.step),
                    body=[c.sid for c in s.body])
    elif isinstance(s, ParSections):
        base.update(t="parsec",
                    sections=[[c.sid for c in sec] for sec in s.sections])
    elif isinstance(s, IfStmt):
        base.update(t="if", cond=expr_to_doc(s.cond),
                    then=[c.sid for c in s.then_body],
                    orelse=[c.sid for c in s.else_body])
    elif isinstance(s, ReadStmt):
        base.update(t="read", target=expr_to_doc(s.target))
    elif isinstance(s, WriteStmt):
        base.update(t="write", expr=expr_to_doc(s.expr))
    else:
        raise SerdeError(f"unknown statement node {type(s).__name__}")
    return base


def _stmt_doc_to_rows(doc: Dict[str, Any], rows: Dict[str, Any]) -> None:
    row = dict(doc)
    t = doc.get("t")
    if t in ("loop", "parloop"):
        row["body"] = [c["sid"] for c in doc["body"]]
        for c in doc["body"]:
            _stmt_doc_to_rows(c, rows)
    elif t == "if":
        row["then"] = [c["sid"] for c in doc["then"]]
        row["orelse"] = [c["sid"] for c in doc["orelse"]]
        for c in doc["then"]:
            _stmt_doc_to_rows(c, rows)
        for c in doc["orelse"]:
            _stmt_doc_to_rows(c, rows)
    elif t == "parsec":
        row["sections"] = [[c["sid"] for c in sec] for sec in doc["sections"]]
        for sec in doc["sections"]:
            for c in sec:
                _stmt_doc_to_rows(c, rows)
    rows[str(doc["sid"])] = row


def program_doc_to_rows(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a nested program document into row form."""
    rows: Dict[str, Any] = {}
    for sdoc in doc["body"]:
        _stmt_doc_to_rows(sdoc, rows)
    for sdoc in doc["detached"]:
        _stmt_doc_to_rows(sdoc, rows)
    return {"rows": rows,
            "roots": [s["sid"] for s in doc["body"]],
            "detached": [s["sid"] for s in doc["detached"]],
            "next_sid": doc["next_sid"], "version": doc["version"],
            "version_hwm": doc["version_hwm"]}


def _row_to_stmt_doc(rows: Dict[str, Any], sid: int) -> Dict[str, Any]:
    try:
        row = rows[str(sid)]
    except KeyError:
        raise SerdeError(f"delta snapshot references unknown sid {sid}") \
            from None
    doc = dict(row)
    t = row.get("t")
    if t in ("loop", "parloop"):
        doc["body"] = [_row_to_stmt_doc(rows, c) for c in row["body"]]
    elif t == "if":
        doc["then"] = [_row_to_stmt_doc(rows, c) for c in row["then"]]
        doc["orelse"] = [_row_to_stmt_doc(rows, c) for c in row["orelse"]]
    elif t == "parsec":
        doc["sections"] = [[_row_to_stmt_doc(rows, c) for c in sec]
                           for sec in row["sections"]]
    return doc


def rows_to_program_doc(rowsdoc: Dict[str, Any]) -> Dict[str, Any]:
    """Re-materialize a nested program document from row form."""
    rows = rowsdoc["rows"]
    return {"body": [_row_to_stmt_doc(rows, sid) for sid in rowsdoc["roots"]],
            "detached": [_row_to_stmt_doc(rows, sid)
                         for sid in rowsdoc["detached"]],
            "next_sid": rowsdoc["next_sid"], "version": rowsdoc["version"],
            "version_hwm": rowsdoc["version_hwm"]}


# ---------------------------------------------------------------------------
# Generic value codec (pre/post patterns, opportunity params)
# ---------------------------------------------------------------------------

_SCALARS = (bool, int, float, str)


def value_to_doc(v: Any) -> Any:
    """Encode a free-form pattern/params value, preserving Python shapes."""
    if v is None or isinstance(v, _SCALARS):
        return v
    if isinstance(v, tuple):
        return {"$": "tup", "v": [value_to_doc(x) for x in v]}
    if isinstance(v, list):
        return {"$": "list", "v": [value_to_doc(x) for x in v]}
    if isinstance(v, (set, frozenset)):
        # encoded elements can be dicts (tuples, Exprs) or mixed scalar
        # types, which Python cannot compare — order by the canonical
        # JSON rendering instead, which totally orders any encoded value.
        # Decorate-sort-undecorate: render each element exactly once
        # instead of re-serializing per comparison.
        try:
            decorated = [(canonical_dumps(d), d)
                         for d in (value_to_doc(x) for x in v)]
            decorated.sort(key=lambda pair: pair[0])
            docs = [d for _, d in decorated]
        except (TypeError, ValueError) as exc:
            raise SerdeError(f"cannot canonically order set: {exc}") from exc
        return {"$": "set", "v": docs}
    if isinstance(v, dict):
        return {"$": "dict",
                "v": [[value_to_doc(k), value_to_doc(x)] for k, x in v.items()]}
    if isinstance(v, Expr):
        return {"$": "expr", "v": expr_to_doc(v)}
    if isinstance(v, HeaderSpec):
        return {"$": "hdr", "var": v.var, "lower": expr_to_doc(v.lower),
                "upper": expr_to_doc(v.upper), "step": expr_to_doc(v.step)}
    if isinstance(v, Location):
        return {"$": "loc", "c": list(v.container), "i": v.index,
                "b": list(v.before_sids), "a": list(v.after_sids)}
    raise SerdeError(f"cannot serialize value of type {type(v).__name__}")


def value_from_doc(doc: Any) -> Any:
    """Decode a value produced by :func:`value_to_doc`."""
    if doc is None or isinstance(doc, _SCALARS):
        return doc
    if isinstance(doc, list):  # only produced inside tagged containers
        return [value_from_doc(x) for x in doc]
    if not isinstance(doc, dict):
        raise SerdeError(f"cannot decode value {doc!r}")
    tag = doc.get("$")
    if tag == "tup":
        return tuple(value_from_doc(x) for x in doc["v"])
    if tag == "list":
        return [value_from_doc(x) for x in doc["v"]]
    if tag == "set":
        return frozenset(value_from_doc(x) for x in doc["v"])
    if tag == "dict":
        return {value_from_doc(k): value_from_doc(x) for k, x in doc["v"]}
    if tag == "expr":
        return expr_from_doc(doc["v"])
    if tag == "hdr":
        return HeaderSpec(doc["var"], expr_from_doc(doc["lower"]),
                          expr_from_doc(doc["upper"]),
                          expr_from_doc(doc["step"]))
    if tag == "loc":
        return Location(tuple(doc["c"]), doc["i"],
                        tuple(doc["b"]), tuple(doc["a"]))
    raise SerdeError(f"unknown value tag {tag!r}")


# ---------------------------------------------------------------------------
# Annotations, locations, actions, history, events
# ---------------------------------------------------------------------------


def annotation_to_doc(a: Annotation) -> Dict[str, Any]:
    """A Figure 2 annotation as a JSON-safe dict."""
    return {"kind": a.kind, "stamp": a.stamp, "action_id": a.action_id,
            "sid": a.sid, "path": list(a.path) if a.path is not None else None}


def annotation_from_doc(doc: Dict[str, Any]) -> Annotation:
    """Rebuild an :class:`Annotation` (path tuple restored)."""
    path = tuple(doc["path"]) if doc["path"] is not None else None
    return Annotation(kind=doc["kind"], stamp=doc["stamp"],
                      action_id=doc["action_id"], sid=doc["sid"], path=path)


def location_to_doc(loc: Optional[Location]) -> Optional[Dict[str, Any]]:
    """A location (container/index/sibling snapshots) as a dict."""
    if loc is None:
        return None
    return {"c": list(loc.container), "i": loc.index,
            "b": list(loc.before_sids), "a": list(loc.after_sids)}


def location_from_doc(doc: Optional[Dict[str, Any]]) -> Optional[Location]:
    """Rebuild a :class:`Location`; ``None`` passes through."""
    if doc is None:
        return None
    return Location(tuple(doc["c"]), doc["i"], tuple(doc["b"]), tuple(doc["a"]))


def _header_to_doc(h: Optional[HeaderSpec]) -> Optional[Dict[str, Any]]:
    if h is None:
        return None
    return {"var": h.var, "lower": expr_to_doc(h.lower),
            "upper": expr_to_doc(h.upper), "step": expr_to_doc(h.step)}


def _header_from_doc(doc: Optional[Dict[str, Any]]) -> Optional[HeaderSpec]:
    if doc is None:
        return None
    return HeaderSpec(doc["var"], expr_from_doc(doc["lower"]),
                      expr_from_doc(doc["upper"]), expr_from_doc(doc["step"]))


def action_to_doc(a: ActionRecord) -> Dict[str, Any]:
    """One primitive-action record as a JSON-safe dict."""
    return {
        "id": a.action_id, "stamp": a.stamp, "kind": a.kind.value,
        "sid": a.sid, "src_sid": a.src_sid,
        "from": location_to_doc(a.from_loc), "to": location_to_doc(a.to_loc),
        "path": list(a.path) if a.path is not None else None,
        "old_expr": expr_to_doc(a.old_expr) if a.old_expr is not None else None,
        "new_expr": expr_to_doc(a.new_expr) if a.new_expr is not None else None,
        "old_hdr": _header_to_doc(a.old_header),
        "new_hdr": _header_to_doc(a.new_header),
        "anns": [annotation_to_doc(x) for x in a.annotations],
    }


def action_from_doc(doc: Dict[str, Any]) -> ActionRecord:
    """Rebuild an :class:`ActionRecord` with exact ids and stamps."""
    return ActionRecord(
        action_id=doc["id"], stamp=doc["stamp"],
        kind=ActionKind(doc["kind"]), sid=doc["sid"], src_sid=doc["src_sid"],
        from_loc=location_from_doc(doc["from"]),
        to_loc=location_from_doc(doc["to"]),
        path=tuple(doc["path"]) if doc["path"] is not None else None,
        old_expr=expr_from_doc(doc["old_expr"]) if doc["old_expr"] else None,
        new_expr=expr_from_doc(doc["new_expr"]) if doc["new_expr"] else None,
        old_header=_header_from_doc(doc["old_hdr"]),
        new_header=_header_from_doc(doc["new_hdr"]),
        annotations=[annotation_from_doc(x) for x in doc["anns"]],
    )


def record_to_doc(rec: TransformationRecord) -> Dict[str, Any]:
    """A history record (patterns, params, actions) as a dict."""
    return {"stamp": rec.stamp, "name": rec.name, "active": rec.active,
            "params": value_to_doc(rec.params),
            "pre": value_to_doc(rec.pre_pattern),
            "post": value_to_doc(rec.post_pattern),
            "actions": [action_to_doc(a) for a in rec.actions]}


def record_from_doc(doc: Dict[str, Any]) -> TransformationRecord:
    """Rebuild a :class:`TransformationRecord` (activity preserved)."""
    return TransformationRecord(
        stamp=doc["stamp"], name=doc["name"], active=doc["active"],
        params=value_from_doc(doc["params"]),
        pre_pattern=value_from_doc(doc["pre"]),
        post_pattern=value_from_doc(doc["post"]),
        actions=[action_from_doc(a) for a in doc["actions"]])


def history_to_doc(history: History) -> Dict[str, Any]:
    """The stamped history as a JSON-safe dict.

    Records held in full are encoded; stored (undone) records are
    covered by their runs' rows (:mod:`repro.service.undone`), a key
    left out when there are none.
    """
    doc = {"records": [record_to_doc(r) for r in history.all_records()
                       if not isinstance(r, StoredRecord)]}
    rows = undone_rows(history)
    if rows:
        doc["undone"] = rows
    return doc


def undone_rows(history: History) -> List[List[Any]]:
    """The rows of the side-file runs ``history``'s stubs belong to."""
    runs: Dict[int, Any] = {}
    for rec in history.all_records():
        if isinstance(rec, StoredRecord):
            runs.setdefault(id(rec.store), rec.store)
    return [run.row() for run in runs.values()]


def history_from_doc(doc: Dict[str, Any], undone=None) -> History:
    """Rebuild a :class:`History`, deriving the next free stamp.

    The rows of ``doc["undone"]`` become stubs reading ``undone`` (a
    :class:`~repro.service.undone.UndoneFile`).
    """
    records = [record_from_doc(r) for r in doc["records"]]
    rows = doc.get("undone", [])
    if rows:
        if undone is None:
            raise SerdeError("history names undone records but no side "
                             "file was given")
        for run in undone.runs(rows):
            records.extend(run.stubs())
        records.sort(key=lambda r: r.stamp)
    return History.restore(records)


def store_to_doc(store: AnnotationStore) -> List[Dict[str, Any]]:
    """Every live annotation, in store iteration order."""
    return [annotation_to_doc(a) for a in store]


def store_from_doc(doc: List[Dict[str, Any]]) -> AnnotationStore:
    """Rebuild an :class:`AnnotationStore` from its annotation list."""
    store = AnnotationStore()
    for adoc in doc:
        store.add(annotation_from_doc(adoc))
    return store


def events_digest(engine_doc: Dict[str, Any]) -> str:
    """The event-log digest an engine document restores; documents that
    predate it carry the event list, which is chained over once."""
    if "events_digest" in engine_doc:
        return engine_doc["events_digest"]
    return chain_digest(
        Event(EventKind(e["kind"]), e["sid"],
              tuple(map(tuple, e["containers"])), e["stamp"],
              e["action_id"], e["inverse"])
        for e in engine_doc["events"])


# ---------------------------------------------------------------------------
# Whole engines
# ---------------------------------------------------------------------------


def engine_to_doc(engine) -> Dict[str, Any]:
    """Encode a :class:`TransformationEngine`'s complete durable state."""
    return {
        "program": program_to_doc(engine.program),
        "history": history_to_doc(engine.history),
        "annotations": store_to_doc(engine.store),
        "events_digest": engine.events.digest,
        "applier": {"next_action_id": engine.applier.next_action_id,
                    "applied": engine.applier.applied_count,
                    "inverted": engine.applier.inverted_count},
    }


def engine_from_doc(doc: Dict[str, Any], strategy=None, *, tracer=None,
                    metrics=None, undone=None):
    """Rebuild a fully working engine from :func:`engine_to_doc` output.

    The restored engine shares nothing with the document: applying,
    undoing (in either order), safety/reversibility checks, and user
    edits all behave exactly as in the original process.  Analysis
    caches and events are *not* persisted — caches rebuild lazily on
    first use, and the event log restarts from its persisted digest.
    ``tracer``/``metrics`` are handed to the engine's constructor.
    Undone records the document covers by rows stay in ``undone``, the
    session's side file, until read.
    """
    from repro.core.engine import TransformationEngine

    program = program_from_doc(doc["program"])
    history = history_from_doc(doc["history"], undone)
    store = store_from_doc(doc["annotations"])
    events = EventLog(digest=events_digest(doc))
    engine = TransformationEngine(program, strategy=strategy,
                                  history=history, store=store, events=events,
                                  tracer=tracer, metrics=metrics)
    ap = doc["applier"]
    engine.applier.restore_instrumentation(
        ap["next_action_id"], ap["applied"], ap["inverted"])
    return engine


# ---------------------------------------------------------------------------
# Delta snapshots
# ---------------------------------------------------------------------------
#
# A delta snapshot payload carries only what changed since its base full
# snapshot:
#
# ``delta_of``          journal seq of the base full snapshot;
# ``program``           row form with only the *changed* rows, plus the
#                       (small) roots/detached lists and counters;
# ``history``           dirty records held in full, keyed by str(stamp);
# ``undone``            every side-file run row (the rows are few);
# ``annotations_ops``   tail of the store's append-only oplog, as
#                       ``["add"|"remove", annotation_doc]`` pairs;
# ``events_digest``     the event log's chained digest (``events_base``
#                       = the base's digest, a check against resolving
#                       over the wrong base);
# ``applier``           full applier counters (tiny — always shipped).
#
# Resolution is purely at the document level: no engine is constructed.
# An older delta carries ``events_tail`` and a count ``events_base``.


def resolve_snapshot_delta(base: Dict[str, Any],
                           delta: Dict[str, Any]) -> Dict[str, Any]:
    """Merge a delta snapshot payload over its base full payload.

    Returns a payload in full-snapshot form (``journal_seq``,
    ``engine``).  Raises :class:`SerdeError` when the
    delta's recorded base extents do not match the base payload — the
    symptom of a delta resolved against the wrong full snapshot.
    """
    try:
        base_engine = base["engine"]
        dprog = delta["program"]
        dhist = delta["history"]
        dops = delta["annotations_ops"]
    except (KeyError, TypeError) as exc:
        raise SerdeError(f"malformed snapshot payload: {exc}") from exc

    # Program: merge changed rows into the base's row table.
    rowsdoc = program_doc_to_rows(base_engine["program"])
    rowsdoc["rows"].update(dprog["rows"])
    for key in ("roots", "detached", "next_sid", "version", "version_hwm"):
        rowsdoc[key] = dprog[key]
    program_doc = rows_to_program_doc(rowsdoc)

    # History: replace dirty records by stamp, append new ones; the
    # delta's rows (an older delta has none: the base's) cover the
    # stamps now in the side file.
    records = {r["stamp"]: r for r in base_engine["history"]["records"]}
    for stamp_key, rdoc in dhist.items():
        records[int(stamp_key)] = rdoc
    rows = delta.get("undone", base_engine["history"].get("undone", []))
    for stamp, count, *_rest in rows:
        for covered in range(stamp, stamp + count):
            records.pop(covered, None)
    history_doc = {"records": [records[s] for s in sorted(records)],
                   "undone": rows}

    # Annotations: replay the oplog tail over the base's live list.
    anns = list(base_engine["annotations"])
    for op, adoc in dops:
        if op == "add":
            anns.append(adoc)
        elif op == "remove":
            try:
                anns.remove(adoc)
            except ValueError:
                raise SerdeError(
                    "delta snapshot removes an annotation absent from "
                    "its base") from None
        else:
            raise SerdeError(f"unknown annotation op {op!r}")

    # Events: the delta records its base's digest (older: event count).
    if "events_tail" in delta:
        found = len(base_engine["events"])
        events = {"events": base_engine["events"] + delta["events_tail"]}
    else:
        found = events_digest(base_engine)
        events = {"events_digest": delta["events_digest"]}
    if found != delta["events_base"]:
        raise SerdeError(f"delta snapshot expects a base with events "
                         f"{delta['events_base']}, found {found}")

    engine_doc = {"program": program_doc, "history": history_doc,
                  "annotations": anns, "applier": delta["applier"],
                  **events}
    return {"journal_seq": delta["journal_seq"], "engine": engine_doc}


def state_fingerprint(engine) -> str:
    """A digest of the engine's *semantic* state, for recovery checks.

    Covers the program (attached + detached), the history, the
    annotation store (order-insensitively), and the event log.  Cache
    internals — program version counters, work counters — are excluded:
    they depend on how many read-only queries ran, which the journal
    deliberately does not record.

    Since the compact-core refactor this is the *from-scratch* variant
    of the component-digest fingerprint (see
    :mod:`repro.service.fingerprint`): it recomputes every statement
    hash and component digest without reading any memo, so comparing it
    against a live :class:`~repro.service.fingerprint.FingerprintMaintainer`
    value checks the whole invalidation discipline.
    """
    from repro.service.fingerprint import scratch_fingerprint

    return scratch_fingerprint(engine)
