"""Decision provenance: verdicts, the causal undo tree, the audit log.

Pins the contracts of :mod:`repro.obs.provenance`:

* every failing Table 3 check names the disabling condition that fired
  (stable ``code``), the causing action/record, and the clobbered
  pattern element or annotation witness;
* :meth:`repro.core.engine.TransformationEngine.explain` returns live
  structured verdicts for one stamp;
* a Figure 4 cascade leaves a causal provenance tree on the report —
  affecting undos, affected undos, Table 4 heuristic skips and region
  skips, each linked to the verdict that forced it;
* a :class:`repro.service.session.DurableSession` appends one audit
  entry per journaled command, survives recovery replay without
  double-logging, and the log joins the journal exactly
  (:func:`repro.obs.check.audit_roundtrip`);
* the server verbs (``explain`` / ``audit``) and the CLI subcommands
  surface all of the above, with pinned exit codes.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.commands import ApplyCommand, EditCommand, UndoCommand
from repro.core.engine import TransformationEngine
from repro.lang.parser import parse_program
from repro.obs.check import audit_roundtrip
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import (
    AUDIT_SCHEMA,
    ProvenanceNode,
    Verdict,
    audit_path,
    entry_trees,
    provenance_to_dot,
    read_audit,
    render_explanation,
    stamp_trees,
)
from repro.service.server import SessionServer
from repro.service.session import DurableSession, SessionManager
from tests.helpers import make_engine

#: ctp feeds cfo feeds dce — undoing t1 forces the full Figure 4
#: cascade: peel t2 (affecting), then ripple t3 (affected).
CHAIN_SRC = "c = 1\nx = c + 2\nwrite x\n"

#: dce of the dead ``d = 5`` cannot destroy cfo's safety (cfo is not in
#: dce's Table 4 ``enables`` row), so undoing it skips cfo's re-check.
SKIP_SRC = "c = 1\nd = 5\nx = 1 + 2\nwrite x\n"


def chain_engine(**kwargs):
    engine, p, _ = make_engine(CHAIN_SRC)
    if kwargs:
        engine = TransformationEngine(parse_program(CHAIN_SRC), **kwargs)
    for name in ("ctp", "cfo", "dce"):
        engine.execute(ApplyCommand.from_opportunity(engine.find(name)[0]))
    return engine


class TestViolationCodes:
    def test_irreversible_names_cause_action_and_witness(self):
        engine = chain_engine()
        rr = engine.check_reversibility(1)
        assert not rr.reversible
        v = rr.violations[0]
        assert v.code == "post.modified"
        assert v.stamp == 2 and v.action_id == 2
        assert v.witness == {"sid": 2, "path": ["expr", "l"],
                             "annotation": "md"}
        # the human message is unchanged alongside the structure
        assert v.condition == "expression S2:expr.l was modified after t1"

    def test_unsafe_edit_names_condition_and_witness(self):
        engine, p, _ = make_engine(CHAIN_SRC)
        engine.execute(ApplyCommand.from_opportunity(engine.find("ctp")[0]))
        sid = next(s.sid for s in p.walk() if s.label == 1)
        engine.execute(EditCommand(kind="delete", sid=sid))
        sr = engine.check_safety(1)
        assert not sr.safe
        v = sr.violations[0]
        assert v.code == "ctp.safety.def-deleted"
        assert v.witness["def_sid"] == 1
        # string reasons stay in lockstep with the violations
        assert sr.reasons == [v.condition]

    def test_ok_results_carry_no_violations(self):
        engine = chain_engine()
        assert engine.check_safety(3).violations == []
        assert engine.check_reversibility(3).violations == []


class TestExplain:
    def test_live_irreversible_verdict(self):
        engine = chain_engine()
        doc = engine.explain(1)
        rev = doc["reversibility"]
        assert rev["ok"] is False
        v = rev["violations"][0]
        assert v["code"] == "post.modified"
        assert v["cause_stamp"] == 2
        assert doc["safety"]["ok"] is True
        text = Verdict.from_doc(rev).describe()
        assert "BLOCKED" in text and "caused by t2" in text

    def test_live_unsafe_verdict_after_edit(self):
        engine, p, _ = make_engine(CHAIN_SRC)
        engine.execute(ApplyCommand.from_opportunity(engine.find("ctp")[0]))
        sid = next(s.sid for s in p.walk() if s.label == 1)
        engine.execute(EditCommand(kind="delete", sid=sid))
        doc = engine.explain(1)
        assert doc["safety"]["ok"] is False
        assert doc["safety"]["violations"][0]["code"] == \
            "ctp.safety.def-deleted"
        assert "UNSAFE" in Verdict.from_doc(doc["safety"]).describe()

    def test_unknown_stamp_is_none(self):
        engine = chain_engine()
        assert engine.explain(99) is None

    def test_inactive_record_has_no_live_checks(self):
        engine = chain_engine()
        engine.execute(UndoCommand(stamp=1))
        doc = engine.explain(1)
        assert doc["active"] is False
        assert "safety" not in doc and "reversibility" not in doc


class TestCascadeTree:
    """The Figure 4 cascade, pinned node for node."""

    def test_cascade_provenance_tree(self):
        engine = chain_engine()
        report = engine.undo(1)
        assert report.undone == [2, 1, 3]
        root = report.provenance
        assert (root.kind, root.stamp, root.role) == ("undo", 1, "target")
        assert root.describe() == """\
undo t1 (ctp, target)
  reversibility of t1 (ctp): BLOCKED — expression S2:expr.l was modified after t1 [post.modified] caused by t2
  undo t2 (cfo, affecting) — reversibility of t1 (ctp): BLOCKED — expression S2:expr.l was modified after t1 [post.modified] caused by t2
    reversibility of t2 (cfo): reversible
    skip t3 (dce) [outside-region]: outside the inverse actions' affected region
  reversibility of t1 (ctp): reversible
  safety of t3 (dce): UNSAFE — a use of c now reaches the deleted statement S1 [dce.safety.use-reaches]
  undo t3 (dce, affected) — safety of t3 (dce): UNSAFE — a use of c now reaches the deleted statement S1 [dce.safety.use-reaches]
    reversibility of t3 (dce): reversible"""

    def test_forced_undos_carry_the_forcing_verdict(self):
        engine = chain_engine()
        root = engine.undo(1).provenance
        affecting = [n for n in root.walk() if n.role == "affecting"]
        affected = [n for n in root.walk() if n.role == "affected"]
        assert [n.stamp for n in affecting] == [2]
        assert [n.stamp for n in affected] == [3]
        # the affecting undo is justified by t1's reversibility verdict
        assert affecting[0].verdict.check == "reversibility"
        assert affecting[0].verdict.stamp == 1
        assert affecting[0].verdict.violations[0]["cause_stamp"] == 2
        # the affected undo is justified by t3's own safety verdict,
        # triggered by undoing the target
        assert affected[0].verdict.check == "safety"
        assert affected[0].verdict.stamp == 3
        assert affected[0].verdict.triggered_by == 1

    def test_tree_roundtrips_through_doc_form(self):
        engine = chain_engine()
        root = engine.undo(1).provenance
        clone = ProvenanceNode.from_doc(root.to_doc())
        assert clone.describe() == root.describe()
        assert clone.undone_stamps() == [1, 2, 3]  # tree order

    def test_lifo_tree_records_collateral(self):
        engine = chain_engine()
        report = engine.undo_reverse_to(1)
        root = report.provenance
        assert root.role == "target" and root.stamp == 1
        assert [n.stamp for n in root.children] == report.collateral
        assert all(n.role == "collateral" for n in root.children)

    def test_failed_undo_attaches_tree_to_the_error(self):
        from repro.core.undo import UndoError

        engine = chain_engine()
        engine.undo(3)
        # t3 is no longer active, so the LIFO peel refuses it — and the
        # refusal still carries the (empty) provenance tree it built
        with pytest.raises(UndoError) as err:
            engine.undo_reverse_to(3)
        assert err.value.provenance["kind"] == "undo"
        assert err.value.provenance["stamp"] == 3


class TestTable4Skip:
    def test_heuristic_skip_is_recorded_with_its_rationale(self):
        engine, _, _ = make_engine(SKIP_SRC)
        engine.execute(ApplyCommand.from_opportunity(engine.find("dce")[0]))
        engine.execute(ApplyCommand.from_opportunity(engine.find("cfo")[0]))
        root = engine.undo(1).provenance
        skips = [n for n in root.walk() if n.kind == "skip"]
        assert [(n.reason, n.name) for n in skips] == \
            [("table4-heuristic", "cfo")]
        assert "Table 4" in skips[0].detail
        assert "never enables" in skips[0].detail

    def test_skips_counted_in_metrics(self):
        reg = MetricsRegistry()
        engine = TransformationEngine(parse_program(SKIP_SRC), metrics=reg)
        engine.execute(ApplyCommand.from_opportunity(engine.find("dce")[0]))
        engine.execute(ApplyCommand.from_opportunity(engine.find("cfo")[0]))
        engine.undo(1)
        assert reg.value("repro_recheck_skips_total",
                         reason="table4-heuristic") == 1


class TestRecheckMetrics:
    def test_cascade_counts_rechecks_by_outcome(self):
        reg = MetricsRegistry()
        engine = TransformationEngine(parse_program(CHAIN_SRC), metrics=reg)
        for name in ("ctp", "cfo", "dce"):
            engine.execute(
                ApplyCommand.from_opportunity(engine.find(name)[0]))
        engine.undo(1)
        assert reg.value("repro_recheck_total", check="reversibility",
                         outcome="violation") == 1
        # t2's check, t1's re-check, t3's check inside the affected undo
        assert reg.value("repro_recheck_total", check="reversibility",
                         outcome="ok") == 3
        assert reg.value("repro_recheck_total", check="safety",
                         outcome="violation") == 1
        assert reg.value("repro_recheck_skips_total",
                         reason="outside-region") == 1


class TestDotExport:
    def test_dot_contains_every_node_and_edge_shape(self):
        engine = chain_engine()
        root = engine.undo(1).provenance
        dot = provenance_to_dot([root.to_doc()])
        assert dot.startswith("digraph")
        assert dot.count("shape=box") == 3       # target + 2 forced undos
        assert dot.count("shape=ellipse") == 5   # the five re-checks
        assert dot.count("style=dashed") == 1    # the region skip
        assert dot.count("->") == 8              # 9 nodes, one root

    def test_dot_escapes_quotes(self):
        tree = ProvenanceNode(kind="undo", stamp=1, name='a"b',
                              role="target").to_doc()
        dot = provenance_to_dot([tree])
        assert '\\"' in dot


class TestAuditLog:
    def run_session(self, dirpath):
        session = DurableSession.create(dirpath, CHAIN_SRC,
                                        snapshot_every=0)
        for name in ("ctp", "cfo", "dce"):
            session.execute(
                ApplyCommand.from_opportunity(session.engine.find(name)[0]))
        session.execute(UndoCommand(stamp=1))
        return session

    def test_one_entry_per_journaled_command(self, tmp_path):
        session = self.run_session(str(tmp_path))
        assert session.audit_entries == session.seq == 4
        assert session.metrics()["audit_entries"] == 4
        entries = read_audit(audit_path(str(tmp_path)))
        assert [e["seq"] for e in entries] == [1, 2, 3, 4]
        assert all(e["schema"] == AUDIT_SCHEMA for e in entries)
        undo = entries[-1]
        assert undo["op"] == "undo" and undo["undone"] == [2, 1, 3]
        # the full causal tree rides in the audit log
        tree = ProvenanceNode.from_doc(undo["provenance"])
        assert tree.undone_stamps() == [1, 2, 3]
        session.close()

    def test_roundtrip_ok_and_survives_reopen(self, tmp_path):
        session = self.run_session(str(tmp_path))
        assert audit_roundtrip(str(tmp_path)).ok
        session.close()
        # recovery replays all four commands; the log must not grow
        reopened = DurableSession.open(str(tmp_path))
        entries = read_audit(audit_path(str(tmp_path)))
        assert len(entries) == 4
        report = audit_roundtrip(str(tmp_path))
        assert report.ok, report.describe()
        # and a post-recovery command appends exactly one more entry
        reopened.execute(
            ApplyCommand.from_opportunity(reopened.engine.find("ctp")[0]))
        assert len(read_audit(audit_path(str(tmp_path)))) == 5
        assert audit_roundtrip(str(tmp_path)).ok
        reopened.close()

    def test_roundtrip_detects_missing_entry(self, tmp_path):
        session = self.run_session(str(tmp_path))
        session.close()
        path = audit_path(str(tmp_path))
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        report = audit_roundtrip(str(tmp_path))
        assert not report.ok
        assert any("expected exactly one audit entry" in p
                   for p in report.problems)

    def test_roundtrip_detects_duplicate_seq(self, tmp_path):
        session = self.run_session(str(tmp_path))
        session.close()
        path = audit_path(str(tmp_path))
        last = open(path).read().splitlines()[-1]
        with open(path, "a") as fh:
            fh.write(last + "\n")
        report = audit_roundtrip(str(tmp_path))
        assert not report.ok
        assert any("strictly increasing" in p for p in report.problems)

    def test_roundtrip_detects_stamp_mismatch(self, tmp_path):
        session = self.run_session(str(tmp_path))
        session.close()
        path = audit_path(str(tmp_path))
        lines = open(path).read().splitlines()
        doc = json.loads(lines[0])
        doc["stamp"] = 42
        lines[0] = json.dumps(doc, sort_keys=True)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        report = audit_roundtrip(str(tmp_path))
        assert not report.ok
        assert any("audit stamp" in p for p in report.problems)

    def test_roundtrip_detects_entry_beyond_journal(self, tmp_path):
        session = self.run_session(str(tmp_path))
        session.close()
        with open(audit_path(str(tmp_path)), "a") as fh:
            fh.write(json.dumps({"schema": AUDIT_SCHEMA, "seq": 99,
                                 "op": "apply", "status": "ok"}) + "\n")
        report = audit_roundtrip(str(tmp_path))
        assert not report.ok
        assert any("beyond the journal tail" in p for p in report.problems)

    def test_roundtrip_detects_lost_journal_record(self, tmp_path):
        # the journal is the whole history, so an audit entry below its
        # first seq describes a record the journal lost
        session = self.run_session(str(tmp_path))
        session.close()
        jpath = os.path.join(str(tmp_path), "journal.jsonl")
        lines = open(jpath).read().splitlines()
        with open(jpath, "w") as fh:
            fh.write("\n".join(lines[1:]) + "\n")
        report = audit_roundtrip(str(tmp_path))
        assert not report.ok
        assert "audit seq 1 has no journal record" in report.problems

    def test_batch_entry_nests_subcommand_payloads(self, tmp_path):
        from repro.core.commands import parse_batch

        session = DurableSession.create(str(tmp_path), CHAIN_SRC,
                                        snapshot_every=0)
        session.execute(parse_batch("apply ctp ; apply cfo".split()))
        entries = read_audit(audit_path(str(tmp_path)))
        assert entries[0]["op"] == "batch"
        assert [c["op"] for c in entries[0]["commands"]] == \
            ["apply", "apply"]
        assert audit_roundtrip(str(tmp_path)).ok
        session.close()


class TestServerVerbs:
    def start(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(CHAIN_SRC)
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        server.handle_line(f"s init {prog}")
        for name in ("ctp", "cfo", "dce"):
            server.handle_line(f"s apply {name}")
        server.handle_line("s undo 1")
        return server

    def test_explain_names_condition_and_affecting_record(self, tmp_path):
        server = self.start(tmp_path)
        out = server.handle_line("s explain 1")
        # the exact Table 3 disabling condition and the affecting record
        assert "post.modified" in out and "caused by t2" in out
        assert "inactive (undone)" in out
        out3 = server.handle_line("s explain 3")
        assert "dce.safety.use-reaches" in out3
        assert "during undo t1" in out3
        server.manager.close_all()

    def test_explain_json_and_dot_modes(self, tmp_path):
        server = self.start(tmp_path)
        doc = json.loads(server.handle_line("s explain 1 json"))
        assert doc["stamp"] == 1 and doc["history"]
        dot = server.handle_line("s explain 1 dot")
        assert dot.startswith("digraph")
        server.manager.close_all()

    def test_audit_verb_tails_and_checks(self, tmp_path):
        server = self.start(tmp_path)
        lines = server.handle_line("s audit").splitlines()
        assert len(lines) == 4
        assert len(server.handle_line("s audit 2").splitlines()) == 2
        assert server.handle_line("s audit check").startswith("ok:")
        server.manager.close_all()

    def test_live_and_historical_verdicts_agree(self, tmp_path):
        """An unsafe live verdict surfaces through explain too."""
        prog = tmp_path / "p.loop"
        prog.write_text(CHAIN_SRC)
        server = SessionServer(SessionManager(str(tmp_path / "root")))
        server.handle_line(f"s init {prog}")
        server.handle_line("s apply ctp")
        server.handle_line("s edit-del 1")
        out = server.handle_line("s explain 1")
        assert "UNSAFE" in out and "ctp.safety.def-deleted" in out
        server.manager.close_all()


class TestCliExitCodes:
    def scripted(self, tmp_path):
        prog = tmp_path / "p.loop"
        prog.write_text(CHAIN_SRC)
        root = str(tmp_path / "root")
        assert main(["session", root, "s", "init", str(prog)]) == 0
        for name in ("ctp", "cfo", "dce"):
            assert main(["session", root, "s", "apply", name]) == 0
        assert main(["session", root, "s", "undo", "1"]) == 0
        return root

    def test_explain_prints_the_story(self, tmp_path, capsys):
        root = self.scripted(tmp_path)
        assert main(["explain", root, "s", "1"]) == 0
        out = capsys.readouterr().out
        assert "post.modified" in out and "caused by t2" in out
        assert main(["explain", root, "s", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stamp"] == 3
        assert main(["explain", root, "s", "1", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_audit_check_exit_codes(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        dirpath = os.path.join(root, "s")
        session = DurableSession.create(dirpath, CHAIN_SRC,
                                        snapshot_every=0)
        session.execute(
            ApplyCommand.from_opportunity(session.engine.find("ctp")[0]))
        session.close()
        assert main(["audit", root, "s", "--check"]) == 0
        assert "round-trip" in capsys.readouterr().out
        # tamper: drop the only entry → the join must fail, exit 1
        with open(audit_path(dirpath), "w"):
            pass
        assert main(["audit", root, "s", "--check"]) == 1

    def test_audit_tail_limits_lines(self, tmp_path, capsys):
        root = self.scripted(tmp_path)
        capsys.readouterr()
        assert main(["audit", root, "s", "--tail", "2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_bad_usage_exits_2(self, tmp_path, capsys):
        assert main(["explain", "only-two", "args"]) == 2
        assert main(["audit", "just-one"]) == 2
        capsys.readouterr()
