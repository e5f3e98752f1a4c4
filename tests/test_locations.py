"""Unit tests for locations and the cross-record orderer."""

import numpy as np
import pytest

from repro.core.actions import ActionApplier
from repro.core.engine import TransformationEngine
from repro.core.history import History
from repro.core.locations import (
    Location,
    SELF_FIRST,
    X_FIRST,
    make_sibling_orderer,
)
from repro.core.undo import UndoError
from repro.lang.builder import assign
from repro.lang.parser import parse_program
from repro.service.serde import engine_from_doc, engine_to_doc
from repro.transforms.registry import all_names
from repro.workloads.generator import GeneratorConfig, generate_program


def stmt(p, label):
    for s in p.walk():
        if s.label == label:
            return s
    raise KeyError(label)


class TestCapture:
    def test_of_stmt_snapshot(self):
        p = parse_program("a = 1\nb = 2\nc = 3\n")
        loc = Location.of_stmt(p, stmt(p, 2).sid)
        assert loc.before_sids == (stmt(p, 1).sid,)
        assert loc.after_sids == (stmt(p, 3).sid,)
        assert loc.prev_sid == stmt(p, 1).sid
        assert loc.next_sid == stmt(p, 3).sid

    def test_at_clamps_index(self):
        p = parse_program("a = 1\n")
        loc = Location.at(p, (0, "body"), 99)
        assert loc.index == 1

    def test_before_after_helpers(self):
        p = parse_program("a = 1\nb = 2\n")
        before = Location.before(p, stmt(p, 2).sid)
        after = Location.after(p, stmt(p, 1).sid)
        assert before.index == after.index == 1


class TestResolve:
    def test_resolves_unchanged(self):
        p = parse_program("a = 1\nb = 2\nc = 3\n")
        loc = Location.of_stmt(p, stmt(p, 2).sid)
        p.detach(stmt(p, 2).sid)
        ref, idx = loc.resolve(p)
        assert idx == 1

    def test_dead_container_unresolvable(self):
        p = parse_program("do i = 1, 3\n  x = i\nenddo\n")
        loop = stmt(p, 1)
        inner = stmt(p, 2)
        loc = Location.of_stmt(p, inner.sid)
        p.detach(inner.sid)
        p.detach(loop.sid)
        assert loc.resolve(p) is None

    def test_prev_anchor_preferred(self):
        p = parse_program("a = 1\nb = 2\nc = 3\n")
        sb = stmt(p, 2).sid
        loc = Location.of_stmt(p, sb)
        p.detach(sb)
        # insert an unknown statement between a and c
        new = assign("z", 0)
        p.register(new)
        p.insert((0, "body"), 1, new)
        ref, idx = loc.resolve(p)
        assert idx == 1  # right after a, before the unknown newcomer

    def test_respects_surviving_after_anchor(self):
        p = parse_program("a = 1\nb = 2\nc = 3\n")
        sa, sb = stmt(p, 1).sid, stmt(p, 2).sid
        loc = Location.of_stmt(p, sb)
        p.detach(sb)
        p.detach(sa)  # the prev anchor disappears
        ref, idx = loc.resolve(p)
        assert idx == 0  # before c

    def test_raw_index_fallback(self):
        p = parse_program("a = 1\nb = 2\nc = 3\n")
        sids = [s.sid for s in p.walk()]
        loc = Location.of_stmt(p, sids[1])
        for sid in sids:
            p.detach(sid)
        new = assign("z", 0)
        p.register(new)
        p.insert((0, "body"), 0, new)
        ref, idx = loc.resolve(p)
        assert 0 <= idx <= 1


class TestOrderer:
    def build_session(self):
        p = parse_program("a = 1\nb = 2\nc = 3\nd = 4\n")
        history = History()
        ap = ActionApplier(p)
        ap.orderer = make_sibling_orderer(history)
        return p, history, ap

    def test_adjacent_deletes_restore_in_either_order(self):
        # delete b then c; restore c first, then b — the orderer must
        # place b back *before* c.
        for first_restored in ("second", "first"):
            p, history, ap = self.build_session()
            sb, sc = stmt(p, 2).sid, stmt(p, 3).sid
            r1 = history.new_record("dce")
            r1.actions.append(ap.delete(r1.stamp, sb))
            r2 = history.new_record("dce")
            r2.actions.append(ap.delete(r2.stamp, sc))
            if first_restored == "second":
                ap.invert(r2.actions[0], r2.stamp)
                ap.invert(r1.actions[0], r1.stamp)
            else:
                ap.invert(r1.actions[0], r1.stamp)
                ap.invert(r2.actions[0], r2.stamp)
            order = [s.sid for s in p.body]
            assert order.index(sb) < order.index(sc)

    def test_orderer_transitive(self):
        # x ordered against z through a shared neighbour y
        p, history, ap = self.build_session()
        sa, sb, sc = stmt(p, 1).sid, stmt(p, 2).sid, stmt(p, 3).sid
        rec = history.new_record("edit")
        rec.actions.append(ap.delete(rec.stamp, sa))  # snapshot: a < b < c
        orderer = make_sibling_orderer(history)
        # a precedes b: restoring a sees b as "x after self"
        assert orderer(sb, sa) == SELF_FIRST
        # and b restoring sees a first
        assert orderer(sa, sb) == X_FIRST
        # transitivity: a < c via the same snapshot
        assert orderer(sc, sa) == SELF_FIRST
        assert orderer(sa, sc) == X_FIRST

    def test_orderer_unknown_pair(self):
        p, history, ap = self.build_session()
        orderer = make_sibling_orderer(history)
        assert orderer(998, 999) is None


def rebuild_orderer(history):
    """The from-scratch orderer, the oracle for the incremental fold.

    Rebuilds the pairwise precedence relation over every location
    snapshot in the history whenever the action count changes: for each
    statement pair, the snapshot of the highest action id wins."""
    cache = {"key": None, "succ": None}

    def build():
        best = {}
        for rec in history.all_records():
            for act in rec.actions:
                for loc in (act.from_loc, act.to_loc):
                    if loc is None:
                        continue
                    seq = list(loc.before_sids) + [act.sid] + \
                        list(loc.after_sids)
                    for i, u in enumerate(seq):
                        for v in seq[i + 1:]:
                            if u == v:
                                continue
                            key = (u, v) if u < v else (v, u)
                            order = "<" if u < v else ">"
                            prev = best.get(key)
                            if prev is None or act.action_id >= prev[0]:
                                best[key] = (act.action_id, order)
        succ = {}
        for (u, v), (_aid, order) in best.items():
            a, b = (u, v) if order == "<" else (v, u)
            succ.setdefault(a, set()).add(b)
        return succ

    def reachable(succ, src, dst):
        seen = {src}
        stack = [src]
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def orderer(x_sid, self_sid):
        key = sum(len(r.actions) for r in history.all_records())
        if cache["key"] != key:
            cache["key"] = key
            cache["succ"] = build()
        x_first = reachable(cache["succ"], x_sid, self_sid)
        self_first = reachable(cache["succ"], self_sid, x_sid)
        if x_first and not self_first:
            return X_FIRST
        if self_first and not x_first:
            return SELF_FIRST
        return None

    return orderer


def cascade_refill(engine, rng, limit, state):
    """Apply round-robin over every kind (PAR/PRV included) until
    ``limit`` transformations are active, as perfbench's large-cascade
    workload does; ``state["next"]`` carries the round-robin position."""
    kinds = sorted(all_names())
    while len(engine.history.active()) < limit:
        for _ in kinds:
            kind = kinds[state["next"] % len(kinds)]
            state["next"] += 1
            opps = engine.find(kind)
            if opps:
                engine.apply(opps[int(rng.integers(0, len(opps)))])
                break
        else:
            return


class TestFoldMatchesRebuild:
    """Every answer of the engine's folding orderer equals the oracle's,
    over random apply/undo streams with a serde round trip mid-stream."""

    @staticmethod
    def checked(engine, answers):
        fold = engine.applier.orderer
        oracle = rebuild_orderer(engine.history)

        def orderer(x_sid, self_sid):
            got = fold(x_sid, self_sid)
            assert got == oracle(x_sid, self_sid)
            answers.append(got)
            return got

        engine.applier.orderer = orderer
        return fold

    @staticmethod
    def probe(engine, rng, n=25):
        """Ask the (checked) orderer about random statement pairs, beyond
        the few the undos happen to ask."""
        sids = sorted({s.sid for s in engine.program.walk()} |
                      {act.sid for rec in engine.history.all_records()
                       for act in rec.actions})
        for _ in range(n):
            x, y = rng.choice(sids, size=2, replace=False)
            engine.applier.orderer(int(x), int(y))

    @pytest.mark.parametrize("seed,blocks", [(1, 12), (2, 18), (3, 24)])
    def test_random_streams(self, seed, blocks):
        rng = np.random.default_rng(seed)
        engine = TransformationEngine(
            generate_program(seed, GeneratorConfig(blocks=blocks)))
        answers = []
        self.checked(engine, answers)
        state = {"next": 0}
        cascade_refill(engine, rng, 30, state)
        restored_at = None
        for cycle in range(16):
            if cycle == 8:
                # a restored engine's orderer starts empty: its first
                # query folds the whole history
                engine = engine_from_doc(engine_to_doc(engine))
                fold = self.checked(engine, answers)
                restored_at = len(answers)
            cascade_refill(engine, rng, 31, state)
            active = engine.history.active()
            # oldest-first and any-order undos, alternating
            pick = 0 if cycle % 2 else int(rng.integers(0, len(active)))
            try:
                engine.undo(active[pick].stamp)
            except UndoError:
                pass
            self.probe(engine, rng)
        assert len(answers) > restored_at > 0
        assert fold.refolds == 1
        assert sum(a is not None for a in answers) > 50

    def test_out_of_order_action_id_refolds(self):
        p = parse_program("a = 1\nb = 2\nc = 3\nd = 4\n")
        sa, sb, sc = (s.sid for s in p.body[:3])
        history = History()
        ap = ActionApplier(p)
        ap.note = history.note_mutation
        orderer = make_sibling_orderer(history)
        r1 = history.new_record("edit")
        r1.actions.append(ap.delete(r1.stamp, sb))  # a < b < c < d
        assert orderer(sc, sb) == SELF_FIRST
        assert orderer.refolds == 1
        # an action whose id is not above the last folded one (c moved
        # before a) breaks the invariant the fold relies on: it refolds
        ap.restore_instrumentation(1, ap.applied_count, ap.inverted_count)
        r2 = history.new_record("edit")
        r2.actions.append(ap.move(r2.stamp, sc, Location.before(p, sa)))
        answer = orderer(sc, sb)
        assert orderer.refolds == 2
        assert answer == rebuild_orderer(history)(sc, sb)
