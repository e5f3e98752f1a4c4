"""Shared helpers for the test-suite (imported as ``tests.helpers``)."""

import pytest

from repro.core.engine import TransformationEngine
from repro.lang.ast_nodes import programs_equal
from repro.lang.interp import traces_equivalent
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.service.serde import checksum


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
