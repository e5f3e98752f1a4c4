"""Tests for the Table 4 interaction matrix and the affected-region
computation."""

from tests.helpers import make_engine, stmt_by_label
from repro.core.interactions import (
    EXPECTED_DEVIATIONS,
    PUBLISHED_ROWS,
    TABLE4_ORDER,
    matrix,
    matrix_deviations,
    may_destroy,
    render_table4,
)
from repro.core.regions import (
    affected_regions,
    dirty_statements,
    record_footprint,
    record_in_region,
)
from repro.transforms.registry import REGISTRY, all_names


class TestMatrix:
    def test_order_matches_paper(self):
        assert TABLE4_ORDER == ("dce", "cse", "ctp", "cpp", "cfo", "icm",
                                "lur", "smi", "fus", "inx")

    def test_all_ten_registered(self):
        assert set(all_names()) == set(REGISTRY)

    def test_published_rows_match_modulo_documented_deviation(self):
        assert matrix_deviations() == EXPECTED_DEVIATIONS

    def test_published_flags(self):
        published = {n for n in REGISTRY if REGISTRY[n].enables_published}
        assert published == set(PUBLISHED_ROWS)

    def test_may_destroy_examples_from_paper(self):
        # DCE row: x at DCE, CSE, CPP, ICM, FUS, INX
        assert may_destroy("dce", "cse")
        assert may_destroy("dce", "inx")
        assert not may_destroy("dce", "ctp")
        assert not may_destroy("dce", "cfo")
        # INX row: x at ICM, FUS, INX only
        assert may_destroy("inx", "icm")
        assert not may_destroy("inx", "dce")
        # CSE row
        assert may_destroy("cse", "cpp")
        assert not may_destroy("cse", "inx")

    def test_matrix_square(self):
        m = matrix()
        assert set(m) == set(TABLE4_ORDER)
        for row in m.values():
            assert set(row) == set(TABLE4_ORDER)

    def test_render_contains_all_codes(self):
        text = render_table4()
        for code in TABLE4_ORDER:
            assert code.upper() in text

    def test_enables_only_known_codes(self):
        for t in REGISTRY.values():
            assert t.enables <= set(all_names())

    def test_extended_matrix_covers_extensions(self):
        from repro.core.interactions import extended_matrix, render_extended_table4

        m = extended_matrix()
        assert set(m) == set(all_names())
        assert m["prv"]["par"] and m["prv"]["inx"]
        assert m["dce"]["par"] and m["dce"]["prv"]
        assert m["icm"]["par"]
        assert not any(m["par"].values())  # PAR enables nothing
        text = render_extended_table4()
        assert "PAR" in text and "PRV" in text


class TestRegions:
    SRC = (
        "c = 1\n"
        "do i = 1, 4\n"
        "  A(i) = B(i) + c\n"
        "enddo\n"
        "do j = 1, 4\n"
        "  D(j) = E(j) * 2\n"
        "enddo\n"
        "write A(2)\nwrite D(2)\n"
    )

    def test_dirty_statements_from_events(self):
        engine, p, _ = make_engine(self.SRC)
        ctp = engine.apply(engine.find("ctp")[0])
        evs = engine.events.all()
        dirty = dirty_statements(p, evs)
        assert stmt_by_label(p, 3).sid in dirty

    def test_affected_regions_cover_change_site(self):
        engine, p, _ = make_engine(self.SRC)
        ctp = engine.apply(engine.find("ctp")[0])
        evs = engine.events.all()
        rids = affected_regions(p, engine.cache, evs)
        tree = engine.cache.control_tree()
        use_region = tree.region_of[stmt_by_label(p, 3).sid]
        assert use_region in rids

    def test_unrelated_region_not_affected(self):
        engine, p, _ = make_engine(self.SRC)
        ctp = engine.apply(engine.find("ctp")[0])
        evs = engine.events.all()
        rids = affected_regions(p, engine.cache, evs)
        tree = engine.cache.control_tree()
        # label 5 = D(j) = E(j) * 2, inside the unrelated second loop
        other_region = tree.region_of[stmt_by_label(p, 5).sid]
        assert other_region not in rids

    def test_record_footprint(self):
        engine, p, _ = make_engine(self.SRC)
        ctp = engine.apply(engine.find("ctp")[0])
        fp = record_footprint(p, ctp)
        assert stmt_by_label(p, 3).sid in fp

    def test_record_in_region_via_names(self):
        from repro.core.regions import affected_names

        engine, p, _ = make_engine(self.SRC)
        ctp = engine.apply(engine.find("ctp")[0])
        evs = engine.events.all()
        rids = affected_regions(p, engine.cache, evs)
        names = affected_names(p, evs)
        # a scalar transformation owns no region; the name coordinate
        # couples it to changes touching its variables
        assert record_in_region(p, engine.cache, ctp, rids, names)
        assert not record_in_region(p, engine.cache, ctp, set(), {"zz"})

    def test_region_skip_in_undo(self):
        # two independent optimization sites: undoing one must not
        # safety-check the other when the regional filter is on
        src = ("c = 1\nx = c + 2\nwrite x\n"
               "do j = 1, 4\n  g = 7\n  D(j) = E(j) * g\nenddo\nwrite D(2)\n")
        engine, p, _ = make_engine(src)
        ctp = engine.apply_first("ctp", var="c")
        icm = engine.apply(engine.find("icm")[0])
        report = engine.undo(ctp.stamp)
        # icm is in ctp's reverse-destroy row, so only the region filter
        # can skip it
        assert report.region_skips >= 1 or report.safety_checks >= 1
        assert engine.history.by_stamp(icm.stamp).active
