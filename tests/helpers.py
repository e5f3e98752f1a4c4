"""Shared helpers for the test-suite (imported as ``tests.helpers``)."""

import pytest

from repro.core.engine import TransformationEngine
from repro.core.locations import Location
from repro.edit.edits import EditSession
from repro.lang.ast_nodes import Assign, BinOp, Const, VarRef, programs_equal
from repro.lang.interp import traces_equivalent
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.service.serde import checksum
from repro.transforms.cfo import ConstantFolding


def stmt_by_label(p, label):
    """Statement with the given 1-based source label."""
    for s in p.walk():
        if s.label == label:
            return s
    raise KeyError(label)


def v1_envelope(payload, kind):
    """A version-1 envelope object, the on-disk form before version 2."""
    return {"format": kind, "version": 1, "checksum": checksum(payload),
            "payload": payload}


def make_engine(src):
    """(engine, live program, pristine copy) for a source string."""
    p = parse_program(src)
    return TransformationEngine(p), p, parse_program(src)


def assert_apply_undo_roundtrip(src, name, **match):
    """Apply the first matching opportunity, check semantics, undo, check
    exact restoration.  Returns the engine for further inspection."""
    engine, p, orig = make_engine(src)
    if match:
        rec = engine.apply_first(name, **match)
    else:
        opps = engine.find(name)
        assert opps, f"no {name} opportunity found in:\n{src}"
        rec = engine.apply(opps[0])
    validate_program(p)
    assert traces_equivalent(orig, p), \
        f"{name} changed semantics:\n{engine.source()}"
    report = engine.undo(rec.stamp)
    assert rec.stamp in report.undone
    validate_program(p)
    assert programs_equal(orig, p), \
        f"undo of {name} did not restore the program:\n{engine.source()}"
    assert len(engine.store) == 0
    return engine


class FoldThenFail(ConstantFolding):
    """A CFO whose apply fails after its action: the engine rolls back."""

    name = "cfo_fail"

    def apply_actions(self, ctx, opp):
        super().apply_actions(ctx, opp)
        raise RuntimeError("injected failure after the fold")


def user_edit(engine, rng):
    """One user edit: insert ``v = 1 + 2`` at the top, or delete a
    top-level assignment."""
    program = engine.program
    session = EditSession(engine)
    tops = [s for s in program.body if isinstance(s, Assign)]
    if tops and rng.random() < 0.5:
        session.delete_stmt(tops[int(rng.integers(0, len(tops)))].sid)
    else:
        stmt = Assign(VarRef("e%d" % program.version),
                      BinOp("+", Const(1), Const(2)))
        session.add_stmt(stmt, Location.at(program, (0, "body"), 0))
