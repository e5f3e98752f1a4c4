"""Unit tests for the data-flow analyses (repro.analysis.dataflow)."""

from repro.analysis.dataflow import analyze_dataflow, expr_key
from repro.lang.parser import parse_expr, parse_program


def stmt(p, label):
    for s in p.walk():
        if s.label == label:
            return s
    raise KeyError(label)


def df_of(src):
    p = parse_program(src)
    return p, analyze_dataflow(p)


class TestReachingDefinitions:
    def test_straightline_reach(self):
        p, df = df_of("x = 1\ny = x\n")
        s1, s2 = stmt(p, 1), stmt(p, 2)
        assert (s1.sid, "x") in df.reach_in[s2.sid]

    def test_kill_by_redefinition(self):
        p, df = df_of("x = 1\nx = 2\ny = x\n")
        s1, s2, s3 = stmt(p, 1), stmt(p, 2), stmt(p, 3)
        assert (s1.sid, "x") not in df.reach_in[s3.sid]
        assert (s2.sid, "x") in df.reach_in[s3.sid]

    def test_branch_merge(self):
        p, df = df_of(
            "if (c > 0) then\n  x = 1\nelse\n  x = 2\nendif\ny = x\n")
        s_then, s_else, s_use = stmt(p, 2), stmt(p, 3), stmt(p, 4)
        reaching = {d for d in df.reach_in[s_use.sid] if d[1] == "x"}
        assert reaching == {(s_then.sid, "x"), (s_else.sid, "x")}

    def test_loop_def_reaches_around_backedge(self):
        p, df = df_of("do i = 1, 3\n  y = x\n  x = i\nenddo\n")
        use = stmt(p, 2)
        definition = stmt(p, 3)
        assert (definition.sid, "x") in df.reach_in[use.sid]

    def test_array_defs_accumulate(self):
        p, df = df_of("A(1) = 1\nA(2) = 2\nx = A(1)\n")
        s1, s2, s3 = stmt(p, 1), stmt(p, 2), stmt(p, 3)
        reaching = {d for d in df.reach_in[s3.sid] if d[1] == "@A"}
        assert reaching == {(s1.sid, "@A"), (s2.sid, "@A")}


class TestChains:
    """Def-use and use-def questions, answered from the bit queries."""

    def test_du_chain(self):
        p, df = df_of("x = 1\ny = x\nz = x\nw = 2\n")
        s1 = stmt(p, 1)
        for use in (stmt(p, 2), stmt(p, 3)):
            assert df.reaching(use.sid, "x") == {(s1.sid, "x")}
        assert not df.is_dead(s1.sid, "x")
        assert df.is_dead(stmt(p, 4).sid, "w")

    def test_ud_chain(self):
        p, df = df_of("x = 1\ny = x\n")
        assert df.reaching(stmt(p, 2).sid, "x") == {(stmt(p, 1).sid, "x")}
        assert df.reaching(stmt(p, 2).sid, "y") == frozenset()

    def test_sole_reaching_def(self):
        p, df = df_of("x = 1\ny = x\n")
        (only,) = df.reaching(stmt(p, 2).sid, "x")
        assert only == (stmt(p, 1).sid, "x")

    def test_sole_reaching_def_ambiguous(self):
        p, df = df_of(
            "if (c > 0) then\n  x = 1\nelse\n  x = 2\nendif\ny = x\n")
        assert len(df.reaching(stmt(p, 4).sid, "x")) == 2

    def test_reaching_matches_the_decoded_set(self):
        p, df = df_of("A(1) = 1\nx = 1\ndo i = 1, 3\n  y = x + A(i)\n"
                      "  x = y\n  A(i) = x\nenddo\nwrite y\n")
        for s in p.walk():
            for name in ("x", "y", "i", "@A"):
                want = {d for d in df.reach_in[s.sid] if d[1] == name}
                assert df.reaching(s.sid, name) == want


class TestLiveness:
    def test_dead_store_detected(self):
        p, df = df_of("d = 99\nwrite 1\n")
        assert df.is_dead(stmt(p, 1).sid, "d")

    def test_written_value_live(self):
        p, df = df_of("x = 1\nwrite x\n")
        assert not df.is_dead(stmt(p, 1).sid, "x")

    def test_overwritten_before_use_is_dead(self):
        p, df = df_of("x = 1\nx = 2\nwrite x\n")
        assert df.is_dead(stmt(p, 1).sid, "x")

    def test_live_through_loop(self):
        p, df = df_of("x = 1\ndo i = 1, 3\n  y = x\nenddo\nwrite y\n")
        assert not df.is_dead(stmt(p, 1).sid, "x")

    def test_live_out_sets(self):
        p, df = df_of("x = 1\ny = x + 1\nwrite y\n")
        assert "x" in df.live_out[stmt(p, 1).sid]
        assert "x" not in df.live_out[stmt(p, 2).sid]

    def test_array_store_live_when_loaded_later(self):
        p, df = df_of("A(1) = 5\nwrite A(1)\n")
        assert not df.is_dead(stmt(p, 1).sid, "@A")

    def test_array_store_dead_when_never_loaded(self):
        p, df = df_of("A(1) = 5\nwrite 0\n")
        assert df.is_dead(stmt(p, 1).sid, "@A")


class TestAvailableExpressions:
    def test_expr_key_simple(self):
        assert expr_key(parse_expr("a + b")) == ("+", ("v", "a"), ("v", "b"))
        assert expr_key(parse_expr("a + 1")) == ("+", ("v", "a"), ("c", 1))

    def test_expr_key_rejects_compound(self):
        assert expr_key(parse_expr("a + b * c")) is None
        assert expr_key(parse_expr("x")) is None

    def test_available_after_computation(self):
        p, df = df_of("d = e + f\ng = e + f\n")
        key = ("+", ("v", "e"), ("v", "f"))
        assert key in df.avail_in[stmt(p, 2).sid]

    def test_killed_by_operand_redefinition(self):
        p, df = df_of("d = e + f\ne = 1\ng = e + f\n")
        key = ("+", ("v", "e"), ("v", "f"))
        assert key not in df.avail_in[stmt(p, 3).sid]

    def test_self_killing_assignment_not_available(self):
        p, df = df_of("b = b + c\nd = b + c\n")
        key = ("+", ("v", "b"), ("v", "c"))
        assert key not in df.avail_in[stmt(p, 2).sid]

    def test_must_availability_at_merge(self):
        p, df = df_of(
            "if (c0 > 0) then\n  d = e + f\nendif\ng = e + f\n")
        key = ("+", ("v", "e"), ("v", "f"))
        # only available on one path: not available at the join
        assert key not in df.avail_in[stmt(p, 3).sid]

    def test_available_on_both_paths(self):
        p, df = df_of(
            "if (c0 > 0) then\n  d = e + f\nelse\n  h = e + f\nendif\n"
            "g = e + f\n")
        key = ("+", ("v", "e"), ("v", "f"))
        assert key in df.avail_in[stmt(p, 4).sid]

    def test_available_into_loop_body(self):
        p, df = df_of("d = e + f\ndo i = 1, 3\n  g = e + f\nenddo\n")
        key = ("+", ("v", "e"), ("v", "f"))
        assert key in df.avail_in[stmt(p, 3).sid]

    def test_available_matches_the_decoded_set(self):
        p, df = df_of("d = e + f\ne = 1\ng = e + f\nh = e + f\n")
        keys = [("+", ("v", "e"), ("v", "f")), ("*", ("v", "x"), ("c", 2))]
        for s in p.walk():
            for key in keys:
                assert df.available(s.sid, key) == (key in df.avail_in[s.sid])
        assert df.available(stmt(p, 4).sid, keys[0])


class TestInstrumentation:
    def test_visited_nodes_positive(self):
        _p, df = df_of("a = 1\nb = a\n")
        assert df.visited_nodes > 0
