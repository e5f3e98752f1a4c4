"""Undone records written once: the premise, the side file's stubs,
UNDO line 9's action-id map, and a damaged side file."""

import os

import numpy as np
import pytest

from tests.helpers import FoldThenFail, user_edit
from repro.core.engine import TransformationEngine
from repro.core.history import StoredRecord
from repro.core.undo import UndoError
from repro.lang.parser import parse_program
from repro.obs.metrics import MetricsRegistry
from repro.service.recovery import recover
from repro.service.serde import canonical_dumps, record_to_doc
from repro.service.server import SessionServer
from repro.service.session import DurableSession, SessionManager
from repro.service.undone import UNDONE_FILE
from repro.spec import CTP_SPEC, DCE_SPEC, compile_spec
from repro.transforms.registry import REGISTRY
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.scenarios import apply_greedy

TINY = "c = 1\nx = c + 2\nwrite x\n"


def scan_stamp_of_action(history, action_id):
    """UNDO line 9 by walking every action of every record."""
    for rec in history.all_records():
        for act in rec.actions:
            if act.action_id == action_id:
                return rec.stamp
    return None


def random_step(engine, rng, step):
    """One apply (kinds drawn from every kind the engine has), undo,
    LIFO undo, failed apply or user edit; returns the kind of step
    taken, or ``None`` when it had nothing to act on."""
    kind = ("apply", "undo", "apply", "lifo", "fail", "edit")[step % 6]
    active = [r for r in engine.history.active() if not r.is_edit]
    if kind == "apply":
        names = [k for k in sorted(engine.registry) if k != "cfo_fail"]
        kinds = [names[int(i)] for i in rng.permutation(len(names))]
        if not apply_greedy(engine, 2, seed=step, kinds=kinds):
            return None
    elif kind in ("undo", "lifo"):
        if not active:
            return None
        target = active[int(rng.integers(0, len(active)))].stamp
        try:
            if kind == "undo":
                engine.undo(target)
            else:
                engine.undo_reverse_to(target)
        except UndoError:
            return None
    elif kind == "fail":
        opps = engine.find("cfo_fail")
        if not opps:
            return None
        with pytest.raises(RuntimeError):
            engine.apply(opps[0])
    else:
        user_edit(engine, rng)
    return kind


# ---------------------------------------------------------------------------
# the premise: an undone record never changes again
# ---------------------------------------------------------------------------


#: a scalar loop for PRV (generated programs offer none), behind CTP/CFO
#: material for the failing fold.
PRV_SRC = """c = 1
x = c + 2
do i = 1, 8
  t = A(i) + x
  B(i) = t * 2
enddo
write B(3)
"""


@pytest.mark.parametrize("seed", [1, 4, 9, 16, "prv"])
def test_undone_records_never_change(seed):
    extras = [compile_spec(spec) for spec in (DCE_SPEC, CTP_SPEC)]
    program = parse_program(PRV_SRC) if seed == "prv" else \
        generate_program(seed, GeneratorConfig(blocks=6))
    engine = TransformationEngine(
        program, extra_transformations=extras + [FoldThenFail()])
    # every registered kind (PAR and PRV included), the spec-compiled
    # DCE and CTP, and a CFO whose apply fails and rolls back
    assert set(REGISTRY) | {"sdce", "sctp", "cfo_fail"} <= set(engine.registry)
    history = engine.history
    frozen = {}
    deactivate = history.deactivate

    def capture(stamp):
        deactivate(stamp)
        frozen[stamp] = canonical_dumps(record_to_doc(history.by_stamp(stamp)))

    history.deactivate = capture
    rng = np.random.default_rng(5 if seed == "prv" else seed)
    seen = set()
    for step in range(48):
        seen.add(random_step(engine, rng, step))
        for stamp, doc in frozen.items():
            assert canonical_dumps(record_to_doc(history.by_stamp(stamp))) \
                == doc, f"t{stamp} changed after it was undone"
    assert {"apply", "undo", "lifo", "fail", "edit"} <= seen
    assert frozen
    if seed == "prv":
        assert {"prv", "par"} <= {history.by_stamp(s).name for s in frozen}
    # the stub's action-id range: one record's ids are contiguous
    for rec in history.all_records():
        ids = [a.action_id for a in rec.actions]
        assert ids == list(range(ids[0], ids[0] + len(ids)) if ids else [])


# ---------------------------------------------------------------------------
# UNDO line 9 from the action-id map
# ---------------------------------------------------------------------------


def assert_map_equals_scan(history, next_id):
    mapped = {i: history.stamp_of_action(i) for i in range(next_id + 2)}
    assert mapped == {i: scan_stamp_of_action(history, i)
                      for i in range(next_id + 2)}


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_action_map_equals_scan_on_random_streams(seed):
    engine = TransformationEngine(
        generate_program(seed, GeneratorConfig(blocks=6)),
        extra_transformations=[FoldThenFail()])
    rng = np.random.default_rng(seed)
    for step in range(30):
        random_step(engine, rng, step)
        assert_map_equals_scan(engine.history,
                               engine.applier.next_action_id)


def drive_durable(session, seed, steps=24):
    rng = np.random.default_rng(seed)
    names = sorted(REGISTRY)
    for step in range(steps):
        active = session.engine.history.active()
        if step % 3 == 2 and active:
            try:
                session.undo(active[int(rng.integers(0, len(active)))].stamp)
            except UndoError:
                pass
        else:
            kinds = [names[int(i)] for i in rng.permutation(len(names))]
            apply_greedy(session.engine, 1, seed=step, kinds=kinds)
        if step % 5 == 4:
            session.snapshot()


@pytest.mark.parametrize("seed", [3, 8])
def test_action_map_after_reopen_loads_nothing(tmp_path, seed):
    sdir = str(tmp_path / "s")
    session = DurableSession.create(
        sdir, generate_program_source(seed), snapshot_every=0)
    drive_durable(session, seed)
    session.snapshot()
    next_id = session.engine.applier.next_action_id
    session.close()
    reopened = DurableSession.open(sdir)
    history = reopened.engine.history
    stubs = [r for r in history.all_records() if isinstance(r, StoredRecord)]
    assert stubs
    mapped = [history.stamp_of_action(i) for i in range(next_id + 2)]
    assert not any(s.loaded for s in stubs)
    assert mapped == [scan_stamp_of_action(history, i)
                      for i in range(next_id + 2)]
    reopened.close()


def generate_program_source(seed):
    from repro.lang.printer import format_program

    return format_program(generate_program(seed, GeneratorConfig(blocks=6)))


# ---------------------------------------------------------------------------
# stubs: what answers without loading, and what loads once
# ---------------------------------------------------------------------------


def tiny_session(sdir, cycles=6):
    """A tiny-program session with ``cycles`` undone CTPs and one active
    CTP, snapshotted and closed; returns the active stamp."""
    session = DurableSession.create(sdir, TINY, snapshot_every=0)
    for _ in range(cycles):
        session.undo(session.apply("ctp", 0).stamp)
    live = session.apply("ctp", 0).stamp
    session.snapshot()
    session.close()
    return live


def test_stub_queries_do_not_load(tmp_path):
    sdir = str(tmp_path / "s")
    live = tiny_session(sdir)
    registry = MetricsRegistry()
    session = DurableSession.open(sdir, metrics=registry)
    engine = session.engine
    history = engine.history
    stubs = [r for r in history.all_records() if isinstance(r, StoredRecord)]
    assert [s.stamp for s in stubs] == list(range(1, live))
    undone = stubs[2].stamp
    assert history.has_stamp(undone)
    assert [r.stamp for r in history.active()] == [live]
    assert [r.stamp for r in history.active_after(1)] == [live]
    assert not session._indexed(undone)
    ctx = engine.check_context()
    assert not ctx._active_transform_stamp(undone)
    for stmt in engine.program.walk():
        ctx.attributed_to_active(stmt.sid, 0, ("modify",))
    assert engine.explain(undone) == {"stamp": undone, "name": "ctp",
                                      "active": False, "is_edit": False}
    with pytest.raises(UndoError, match="is not active"):
        session.undo(undone)
    assert stubs[2].action_ids == (undone, undone)
    assert not any(s.loaded for s in stubs)
    loads = registry.counter("repro_undone_loads_total")
    assert loads.value == 0
    # reading the content loads the record once
    actions = stubs[2].actions
    assert [a.action_id for a in actions] == [undone]
    assert stubs[2].params["var"] == "c"
    assert loads.value == 1
    assert stubs[2].loaded and not stubs[3].loaded
    session.close()


def test_verify_loads_every_stub_and_matches(tmp_path):
    sdir = str(tmp_path / "s")
    tiny_session(sdir)
    registry = MetricsRegistry()
    result = recover(sdir, verify=True, metrics=registry)
    assert result.verified is True
    stubs = [r for r in result.engine.history.all_records()
             if isinstance(r, StoredRecord)]
    assert stubs and all(s.loaded for s in stubs)
    assert registry.counter("repro_undone_rebuilds_total").value == 0


def test_each_undone_record_is_written_once(tmp_path):
    sdir = str(tmp_path / "s")
    session = DurableSession.create(sdir, TINY, snapshot_every=0)
    path = os.path.join(sdir, UNDONE_FILE)
    session.apply("ctp", 0)
    session.snapshot()
    assert not os.path.exists(path)  # nothing undone yet
    for _ in range(3):
        session.undo(session.engine.history.active()[0].stamp)
        session.snapshot()
        session.apply("ctp", 0)
        session.snapshot()
    session.close()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    assert [line.rsplit(b":", 1)[1] for line in lines] == \
        [b"1}", b"2}", b"3}"]
    # one run row covers the whole alternation
    reopened = DurableSession.open(sdir)
    rows = reopened.snapshots.latest()[1]["engine"]["history"]["undone"]
    assert rows == [[1, 3, "ctp", 0, os.path.getsize(path), 1, 1]]
    reopened.close()


# ---------------------------------------------------------------------------
# a damaged side file
# ---------------------------------------------------------------------------


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x01]))


@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_damaged_side_file_is_rebuilt_from_the_journal(tmp_path, damage):
    root = str(tmp_path / "root")
    prog = tmp_path / "tiny.loop"
    prog.write_text(TINY)
    server = SessionServer(SessionManager(root, max_live=1))
    assert server.handle_line(f"s init {prog}") == "created s"
    for _ in range(4):
        out = server.handle_line("s apply ctp")
        stamp = out.split()[1].rstrip(":")[1:]
        server.handle_line(f"s undo {stamp}")
    server.handle_line("s apply ctp")
    assert server.handle_line(f"o init {prog}") == "created o"  # evicts s
    path = os.path.join(root, "s", UNDONE_FILE)
    size = os.path.getsize(path)
    before = [server.handle_line("s undo 1"),
              server.handle_line("s explain 1"),
              server.handle_line("s explain 5")]
    server.handle_line("o source")  # evicts s again
    if damage == "flip":
        flip_byte(path, 40)  # inside t1's record document
    else:
        with open(path, "r+b") as fh:
            fh.truncate(size - 25)  # t4's line loses its tail
    after = [server.handle_line("s explain 1"),
             server.handle_line("s explain 5")]
    after.insert(0, server.handle_line("s undo 1"))
    assert after == before
    assert before[0] == "error: undo: t1 (ctp) is not active"
    # keep working on the damaged file, then verify the whole session
    assert server.handle_line("s undo 5") == "undone: [5]"
    assert server.handle_line("s apply ctp") == "applied t6: ctp"
    server.handle_line("o source")
    server.manager.close_all()
    registry = MetricsRegistry()
    result = recover(os.path.join(root, "s"), verify=True, metrics=registry)
    assert result.verified is True
    assert registry.counter("repro_undone_rebuilds_total").value >= 1
