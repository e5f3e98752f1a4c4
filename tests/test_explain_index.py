"""``explain`` reads one active stamp's indexed audit events.

A differential test against the earlier design, kept here as the
reference: every ``explain`` re-read ``audit.jsonl`` and rebuilt every
provenance tree in it (``stamp_events``/``stamp_trees`` over
``ProvenanceNode.from_doc``).  Over a seeded stream of apply, undo,
undo-lifo, failing-undo and batch commands, with a reopen and a torn
audit tail in the middle, the served ``explain`` replies (text, ``json``
and ``dot``) of every stamp ever issued, and of one unknown stamp, equal
the reference's after every command.
"""

import json
import os
import random
import shutil

import pytest

from repro.core.commands import (
    ApplyCommand,
    ApplyError,
    BatchCommand,
    UndoCommand,
    UndoLifoCommand,
)
from repro.core.undo import UndoError
from repro.lang.printer import format_program
from repro.obs.provenance import (
    ProvenanceNode,
    audit_path,
    entry_trees,
    provenance_to_dot,
    read_audit,
    render_explanation,
)
from repro.service import server as server_mod
from repro.service.server import SessionServer
from repro.service.session import DurableSession, SessionManager
from repro.transforms.registry import TABLE4_ORDER
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: the torn fragment a crash mid-write leaves at the end of the log.
TORN = '{"op": "undo", "seq": 2, "sch'


def reference_events(entries, stamp):
    """The earlier ``stamp_events``: every tree rebuilt, every node
    walked, for one stamp."""
    events = []
    for entry in entries:
        seq, op = entry.get("seq"), entry.get("op")
        if entry.get("stamp") == stamp and op in ("apply", "edit"):
            events.append(dict(
                seq=seq, op=op, kind="command",
                text=f"{op} created t{stamp}"
                + (" (failed)" if entry.get("status") == "failed"
                   else "")))
        for tree in entry_trees(entry):
            root = ProvenanceNode.from_doc(tree)
            within = f"undo t{root.stamp}" if root.stamp is not None else op
            for node in root.walk():
                if node.stamp == stamp and node.kind in ("undo", "skip",
                                                         "check"):
                    events.append(dict(
                        seq=seq, op=op, kind=node.kind, role=node.role,
                        reason=node.reason, within=within,
                        text=node.label(),
                        verdict=node.verdict.to_doc()
                        if node.verdict else None))
                if node.verdict is not None and node.kind == "check":
                    for v in node.verdict.violations:
                        if v.get("cause_stamp") == stamp \
                                and node.stamp != stamp:
                            events.append(dict(
                                seq=seq, op=op, kind="blamed",
                                within=within,
                                text=(f"t{stamp} blamed: "
                                      f"{node.verdict.describe()}")))
    return events


def reference_reply(session, stamp, mode):
    """The earlier server's ``explain`` reply, from the whole file."""
    entries = read_audit(audit_path(session.dirpath))
    doc = {"stamp": stamp, "live": session.engine.explain(stamp),
           "history": reference_events(entries, stamp)}
    if mode == "json":
        return json.dumps(doc, sort_keys=True)
    if mode == "dot":
        trees = [tree for entry in entries for tree in entry_trees(entry)
                 if any(node.stamp == stamp for node in
                        ProvenanceNode.from_doc(tree).walk())]
        if not trees:
            return "(no provenance recorded)"
        return provenance_to_dot(trees, title=f"t{stamp}")
    return render_explanation(doc)


def active_stamps(session):
    return {r.stamp for r in session.engine.history.active()}


def check_every_stamp(server, session):
    """Every issued stamp and one unknown stamp explain as the reference
    does; the index holds active stamps only."""
    issued = [r.stamp for r in session.engine.history.all_records()]
    unknown = max(issued, default=0) + 7
    for stamp in issued + [unknown]:
        for mode in ("", "json", "dot"):
            got = server.handle_line(f"s explain {stamp} {mode}".strip())
            assert got == reference_reply(session, stamp, mode), \
                (stamp, mode)
    index = session._explain_index
    if active_stamps(session):
        assert index is not None
    assert set(index or ()) <= active_stamps(session)


def run_stream(manager, server, rng, steps):
    """A seeded mix of every command shape, explained after each."""
    for _ in range(steps):
        with manager.session("s") as session:
            history = session.engine.history
            active = [r.stamp for r in history.active()]
            inactive = [r.stamp for r in history.all_records()
                        if not r.active]
            shape = rng.choice(["apply", "apply", "undo", "undo",
                                "undo-lifo", "failing-undo", "batch"])
            try:
                if shape == "apply":
                    opps = session.engine.find(rng.choice(TABLE4_ORDER))
                    if opps:
                        session.execute(ApplyCommand.from_opportunity(
                            rng.choice(opps)))
                elif shape in ("undo", "undo-lifo") and active:
                    cls = UndoCommand if shape == "undo" \
                        else UndoLifoCommand
                    session.execute(cls(stamp=rng.choice(active[:3])))
                elif shape == "failing-undo" and inactive:
                    session.execute(UndoCommand(stamp=rng.choice(inactive)))
                elif shape == "batch":
                    subs = [ApplyCommand(name=rng.choice(TABLE4_ORDER))]
                    if active or inactive:
                        subs.append(UndoCommand(
                            stamp=rng.choice(active + inactive)))
                    session.execute(BatchCommand(commands=subs))
            except (ApplyError, UndoError):
                pass
            check_every_stamp(server, session)


@pytest.mark.parametrize("seed,blocks", [(0, 8), (1, 16), (2, 24)])
def test_explain_replies_equal_the_full_file_path(tmp_path, seed, blocks):
    rng = random.Random(seed)
    source = format_program(
        generate_program(seed, GeneratorConfig(blocks=blocks)))
    manager = SessionManager(str(tmp_path), snapshot_every=8)
    server = SessionServer(manager)
    manager.create("s", source)
    with manager.session("s") as session:
        apply_greedy(session.engine, 10, seed=seed)
        check_every_stamp(server, session)
        assert session.metrics()["explain_index_rows"] > 0
    run_stream(manager, server, rng, 12)

    # a crash mid-write leaves a torn audit tail; the reopened handle
    # rebuilds its index from the file on its first explain
    manager.close_all()
    with open(audit_path(str(tmp_path / "s")), "a") as fh:
        fh.write(TORN)
    with manager.session("s") as session:
        assert session._explain_index is None
        check_every_stamp(server, session)
    run_stream(manager, server, rng, 12)
    manager.close_all()


def test_active_stamps_do_not_read_the_file(tmp_path, monkeypatch):
    source = format_program(generate_program(3, GeneratorConfig(blocks=8)))
    manager = SessionManager(str(tmp_path))
    server = SessionServer(manager)
    manager.create("s", source)
    with manager.session("s") as session:
        apply_greedy(session.engine, 6, seed=3)
        oldest = min(active_stamps(session))
        server.handle_line(f"s explain {oldest}")  # builds the index
        session.undo(oldest)
        reads = []

        def counted(path, tail=None):
            reads.append(path)
            return read_audit(path, tail)

        monkeypatch.setattr(server_mod, "read_audit", counted)
        monkeypatch.setattr("repro.service.session.read_audit", counted)
        for stamp in sorted(active_stamps(session)):
            server.handle_line(f"s explain {stamp}")
            server.handle_line(f"s explain {stamp} json")
        assert reads == []
        # undone stamps and dot keep their one read of the file
        server.handle_line(f"s explain {oldest}")
        server.handle_line(f"s explain {max(active_stamps(session))} dot")
        assert len(reads) == 2
    manager.close_all()


@pytest.mark.parametrize("version", ["v1", "v2", "v3"])
def test_fixtures_open_verified_and_explain(tmp_path, version):
    work = str(tmp_path / version)
    shutil.copytree(os.path.join(FIXTURES, f"{version}_session"), work)
    session = DurableSession.open(work, verify=True)
    assert session.recovery.verified is True
    stamps = sorted(active_stamps(session)) or \
        [r.stamp for r in session.engine.history.all_records()]
    manager = SessionManager(str(tmp_path))
    server = SessionServer(manager)
    session.close()
    with manager.session(version) as served:
        for stamp in stamps:
            for mode in ("", "json"):
                got = server.handle_line(
                    f"{version} explain {stamp} {mode}".strip())
                assert got == reference_reply(served, stamp, mode)
    manager.close_all()


def undone_session(tmp_path):
    """A closed session whose audit log holds one undo's provenance."""
    source = format_program(generate_program(3, GeneratorConfig(blocks=8)))
    manager = SessionManager(str(tmp_path))
    manager.create("s", source)
    with manager.session("s") as session:
        apply_greedy(session.engine, 6, seed=3)
        session.undo(min(active_stamps(session)))
    manager.close_all()
    return manager, audit_path(str(tmp_path / "s"))


def corrupt_undo_node(path):
    """Drop ``kind`` from the undo entry's provenance root."""
    entries = read_audit(path)
    for entry in entries:
        if entry.get("provenance"):
            del entry["provenance"]["kind"]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(e, sort_keys=True) + "\n" for e in entries)


def corrupt_bytes(path):
    """Put a line that is not UTF-8 in front of the last entry."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    lines.insert(len(lines) - 1, b"\xff\xfe\n")
    with open(path, "wb") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("corrupt", [corrupt_undo_node, corrupt_bytes])
def test_a_corrupt_entry_leaves_no_partial_index(tmp_path, corrupt):
    """An index build that fails part-way keeps nothing: every explain
    of an active stamp fails as the whole-file read does, instead of
    answering from the entries before the bad one."""
    manager, path = undone_session(tmp_path)
    corrupt(path)
    server = SessionServer(manager)
    with manager.session("s") as session:
        for stamp in sorted(active_stamps(session)) * 2:
            assert server.handle_line(f"s explain {stamp}").startswith(
                "error: bad-request")
            assert session._explain_index is None
    manager.close_all()


def test_a_failing_fold_drops_the_index_not_the_session(tmp_path,
                                                        monkeypatch):
    """The index is derived from the written audit log: a fold that
    raises is logged as an observer error, the index is rebuilt from the
    file on the next explain, and later commands still run."""
    manager, _path = undone_session(tmp_path)
    server = SessionServer(manager)
    with manager.session("s") as session:
        stamp = max(active_stamps(session))
        server.handle_line(f"s explain {stamp}")  # builds the index
        assert session._explain_index is not None

        def broken(index, entry):
            raise RuntimeError("fold failed")

        monkeypatch.setattr(session, "_index_events", broken)
        session.undo(stamp)
        assert session._explain_index is None
        assert session.journal_error is None
        assert "fold failed" in repr(session.engine.observer_errors[-1][1])
        monkeypatch.undo()
        apply_greedy(session.engine, 2, seed=4)
        check_every_stamp(server, session)
    manager.close_all()
