"""Tests for the versioned, checksummed serialization layer."""

import hashlib
import json
import os

import pytest

from tests.helpers import make_engine, v1_envelope
from repro.edit.edits import EditSession
from repro.lang.ast_nodes import programs_equal
from repro.lang.printer import format_program
from repro.service import serde
from repro.service.recovery import meta_path, read_meta
from repro.service.serde import (
    KIND_META,
    KIND_SNAPSHOT,
    SerdeError,
    canonical_dumps,
    dumps_envelope,
    engine_from_doc,
    engine_to_doc,
    loads_envelope,
    program_from_doc,
    program_to_doc,
    state_fingerprint,
    value_from_doc,
    value_to_doc,
)
from repro.service.session import DurableSession
from repro.service.snapshot import SnapshotStore

SRC = (
    "c = 1\n"
    "x = c + 2\n"
    "d = e + f\n"
    "do i = 1, 8\n"
    "  R(i) = e + f\n"
    "enddo\n"
    "write x\nwrite d\nwrite R(3)\n"
)


def v1_bytes(doc):
    """A version-1 envelope object as its writer stored it."""
    return json.dumps(doc).encode("utf-8")


class TestEnvelope:
    """The version-1 reader: one JSON object holding the payload."""

    def test_roundtrip(self):
        doc = v1_envelope({"a": [1, 2]}, KIND_SNAPSHOT)
        assert loads_envelope(v1_bytes(doc), KIND_SNAPSHOT) == {"a": [1, 2]}

    def test_checksum_tamper_detected(self):
        doc = v1_envelope({"a": 1}, KIND_SNAPSHOT)
        doc["payload"]["a"] = 2
        with pytest.raises(SerdeError):
            loads_envelope(v1_bytes(doc), KIND_SNAPSHOT)

    def test_wrong_kind_rejected(self):
        doc = v1_envelope({}, KIND_SNAPSHOT)
        with pytest.raises(SerdeError):
            loads_envelope(v1_bytes(doc), KIND_META)

    def test_future_version_rejected(self):
        doc = v1_envelope({}, KIND_SNAPSHOT)
        doc["version"] = 99
        with pytest.raises(SerdeError):
            loads_envelope(v1_bytes(doc), KIND_SNAPSHOT)


class TestEnvelopeV2:
    """A header line with the payload's sha256, then the payload text."""

    @pytest.fixture()
    def session_dir(self, tmp_path):
        sdir = str(tmp_path / "s")
        s = DurableSession.create(sdir, SRC, snapshot_every=0)
        s.apply("ctp", 0)
        s.snapshot()
        s.close()
        return sdir

    def _snapshot_path(self, sdir):
        store = SnapshotStore(os.path.join(sdir, "snapshots"))
        (seq, base), = store.entries()
        return store, seq, store.path_for(seq, base)

    def test_layout_is_header_line_then_canonical_payload(self, session_dir):
        store, seq, snap = self._snapshot_path(session_dir)
        for path, kind, payload in (
                (snap, KIND_SNAPSHOT, store.load(seq)),
                (meta_path(session_dir), KIND_META, read_meta(session_dir))):
            with open(path, "rb") as fh:
                head, _, body = fh.read().partition(b"\n")
            assert body == canonical_dumps(payload).encode("utf-8")
            assert json.loads(head) == {
                "format": kind, "version": 2,
                "checksum": hashlib.sha256(body).hexdigest()}

    def test_loading_never_renders_the_payload(self, session_dir,
                                               monkeypatch):
        store, seq, _ = self._snapshot_path(session_dir)

        def no_render(payload):
            raise AssertionError("the payload was rendered on load")

        monkeypatch.setattr(serde, "canonical_dumps", no_render)
        assert store.load(seq)["journal_seq"] == seq
        assert read_meta(session_dir)["source"] == SRC

    @staticmethod
    def _reheader(data, **changes):
        head, _, body = data.partition(b"\n")
        doc = dict(json.loads(head), **changes)
        return json.dumps(doc).encode("utf-8") + b"\n" + body

    @pytest.mark.parametrize("damage", ["version 3", "wrong kind",
                                        "flipped payload byte"])
    def test_damaged_envelope_rejected(self, damage):
        data = b"".join(dumps_envelope({"source": "c = 1\n"},
                                       KIND_SNAPSHOT))
        if damage == "version 3":
            data = self._reheader(data, version=3)
        elif damage == "wrong kind":
            data = self._reheader(data, format=KIND_META)
        else:
            data = data.replace(b"c = 1", b"c = 2")
            json.loads(data.partition(b"\n")[2])  # still valid JSON
        with pytest.raises(SerdeError):
            loads_envelope(data, KIND_SNAPSHOT)


class TestProgramCodec:
    def test_text_roundtrip(self):
        engine, p, _ = make_engine(SRC)
        q = program_from_doc(program_to_doc(p))
        assert programs_equal(p, q)
        assert format_program(q) == format_program(p)

    def test_sids_and_version_preserved(self):
        engine, p, _ = make_engine(SRC)
        engine.apply(engine.find("ctp")[0])
        doc = program_to_doc(p)
        q = program_from_doc(doc)
        assert {s.sid for s in q.walk()} == {s.sid for s in p.walk()}
        assert q.version == p.version

    def test_detached_statements_survive(self):
        # dce detaches the dead statement; the copy must carry it so the
        # Delete record's inverse can re-attach it after deserialization
        engine, p, _ = make_engine("d = 99\nwrite 1\n")
        engine.apply(engine.find("dce")[0])
        doc = program_to_doc(p)
        assert doc["detached"], "detached stmt missing from serialization"
        q = program_from_doc(doc)
        assert programs_equal(p, q)


class TestValueCodec:
    @pytest.mark.parametrize("v", [
        1, 2.5, "s", None, True,
        (1, 2), ["a", ("b", 3)], {"k": (1, (2, 3))},
        ("expr", "r"), {1, 2, 3},
    ])
    def test_scalar_and_container_roundtrip(self, v):
        assert value_from_doc(value_to_doc(v)) == v

    def test_tuples_stay_tuples(self):
        out = value_from_doc(value_to_doc(("+", ("v", "x"), ("v", "y"))))
        assert isinstance(out, tuple) and isinstance(out[1], tuple)

    @pytest.mark.parametrize("v", [
        {(1, 2), (3, 4)},          # tuples encode to dicts: unorderable
        {1, "a"},                  # mixed scalar types: unorderable
        frozenset({("x",), 2, "y"}),
    ])
    def test_sets_with_unorderable_encodings_roundtrip(self, v):
        assert value_from_doc(value_to_doc(v)) == frozenset(v)

    def test_set_encoding_is_deterministic(self):
        a = value_to_doc({("k", 1), "s", 2})
        b = value_to_doc({2, "s", ("k", 1)})
        assert canonical_dumps(a) == canonical_dumps(b)

    def test_opportunity_params_roundtrip(self):
        engine, _, _ = make_engine(SRC)
        for name in ("cse", "ctp", "icm"):
            for opp in engine.find(name):
                assert value_from_doc(value_to_doc(opp.params)) == opp.params


class TestEngineCodec:
    def _transformed_engine(self):
        engine, p, _ = make_engine(SRC)
        engine.apply(engine.find("cse")[0])
        engine.apply(engine.find("ctp")[0])
        engine.apply(engine.find("cfo")[0])
        return engine, p

    def test_full_roundtrip_equivalence(self):
        engine, p = self._transformed_engine()
        clone = engine_from_doc(engine_to_doc(engine))
        assert programs_equal(p, clone.program)
        assert clone.source() == engine.source()
        assert state_fingerprint(clone) == state_fingerprint(engine)

    def test_history_stamps_and_annotations_preserved(self):
        engine, _ = self._transformed_engine()
        clone = engine_from_doc(engine_to_doc(engine))
        assert [r.stamp for r in clone.history.active()] == \
            [r.stamp for r in engine.history.active()]
        assert len(clone.store) == len(engine.store)

    def test_clone_can_undo_out_of_order(self):
        engine, _ = self._transformed_engine()
        clone = engine_from_doc(engine_to_doc(engine))
        first = clone.history.active()[0].stamp
        report = clone.undo(first)
        assert first in report.undone
        # and the original engine is untouched
        assert engine.history.by_stamp(first).active

    def test_clone_continues_with_fresh_stamps(self):
        engine, _ = self._transformed_engine()
        clone = engine_from_doc(engine_to_doc(engine))
        before = max(r.stamp for r in clone.history.active())
        opps = clone.find("dce") or clone.find("cfo")
        if opps:
            rec = clone.apply(opps[0])
            assert rec.stamp > before

    def test_fingerprint_insensitive_to_probe_queries(self):
        engine, _ = self._transformed_engine()
        fp = state_fingerprint(engine)
        # read-only safety queries probe the program (burning version
        # high-water marks) but must not change the semantic fingerprint
        engine.unsafe_transformations()
        for rec in engine.history.active():
            engine.check_reversibility(rec.stamp)
        assert state_fingerprint(engine) == fp

    def test_fingerprint_sensitive_to_state(self):
        engine, _ = self._transformed_engine()
        fp = state_fingerprint(engine)
        engine.undo(engine.history.active()[-1].stamp)
        assert state_fingerprint(engine) != fp

    def test_edit_history_roundtrip(self):
        engine, p, _ = make_engine(SRC)
        engine.apply(engine.find("cse")[0])
        EditSession(engine).delete_stmt(
            engine.history.active()[0].actions[0].sid)
        clone = engine_from_doc(engine_to_doc(engine))
        assert state_fingerprint(clone) == state_fingerprint(engine)
