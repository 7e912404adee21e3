"""Tests for fix bookkeeping."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints.rules import RuleApplication
from repro.core import Fix, FixKind, FixLog
from repro.relational import NULL


def make_fix(kind=FixKind.DETERMINISTIC, tid=0, attr="A", new="v"):
    return Fix(
        kind=kind,
        rule_name="r",
        tid=tid,
        attr=attr,
        old_value="old",
        new_value=new,
        old_conf=0.1,
        new_conf=0.8,
        source="pattern",
    )


class TestFix:
    def test_cell(self):
        assert make_fix(tid=3, attr="B").cell == (3, "B")

    def test_from_application(self):
        app = RuleApplication("r", 1, "A", "o", "n", 0.1, 0.9, "master")
        fix = Fix.from_application(FixKind.RELIABLE, app)
        assert fix.kind is FixKind.RELIABLE
        assert fix.new_value == "n" and fix.source == "master"

    def test_kind_str(self):
        assert str(FixKind.POSSIBLE) == "possible"


class TestFixLog:
    def test_record_and_len(self):
        log = FixLog()
        log.record(make_fix())
        assert len(log) == 1

    def test_iteration_in_order(self):
        log = FixLog()
        log.record(make_fix(tid=0))
        log.record(make_fix(tid=1))
        assert [f.tid for f in log] == [0, 1]

    def test_latest_mark_wins(self):
        log = FixLog()
        log.record(make_fix(kind=FixKind.RELIABLE))
        log.record(make_fix(kind=FixKind.POSSIBLE))
        assert log.mark_of(0, "A") is FixKind.POSSIBLE
        assert log.marked_cells(FixKind.RELIABLE) == set()

    def test_mark_of_unknown_cell(self):
        assert FixLog().mark_of(9, "Z") is None

    def test_fixes_filtered_by_kind(self):
        log = FixLog()
        log.record(make_fix(kind=FixKind.DETERMINISTIC))
        log.record(make_fix(kind=FixKind.POSSIBLE, tid=1))
        assert len(log.fixes(FixKind.DETERMINISTIC)) == 1
        assert len(log.fixes()) == 2

    def test_deterministic_cells(self):
        log = FixLog()
        log.record(make_fix(kind=FixKind.DETERMINISTIC, tid=1, attr="B"))
        log.record(make_fix(kind=FixKind.RELIABLE, tid=2, attr="C"))
        assert log.deterministic_cells() == {(1, "B")}

    def test_counts_by_event_vs_cell(self):
        log = FixLog()
        log.record(make_fix(kind=FixKind.RELIABLE))
        log.record(make_fix(kind=FixKind.RELIABLE))  # same cell twice
        assert log.counts()[FixKind.RELIABLE] == 2
        assert log.cell_counts()[FixKind.RELIABLE] == 1

    def test_record_applications(self):
        log = FixLog()
        apps = [RuleApplication("r", i, "A", "o", "n", None, None, "pattern") for i in range(3)]
        fixes = log.record_applications(FixKind.POSSIBLE, apps)
        assert len(fixes) == 3 and len(log) == 3

    def test_latest_fix(self):
        log = FixLog()
        first = log.record(make_fix(new="v1"))
        second = log.record(make_fix(new="v2"))
        assert log.latest_fix(0, "A") is second

    def test_summary_mentions_counts(self):
        log = FixLog()
        log.record(make_fix())
        assert "deterministic=1" in log.summary()


# ----------------------------------------------------------------------
# Maintained views and splices
# ----------------------------------------------------------------------
NAN = float("nan")  # one object: a written pair that matches itself
KINDS = list(FixKind)
TIDS = [0, 1, 2, 3]
ATTRS = ["A", "B"]

fix_specs = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(TIDS),
        st.sampled_from(ATTRS),
        st.sampled_from(["v1", "v2", NAN, NULL]),
    ),
    max_size=14,
)
#: Removal sets: empty, everything, or any subset.
tid_sets = st.one_of(st.just(set()), st.just(set(TIDS)), st.sets(st.sampled_from(TIDS)))
cell_sets = st.one_of(
    st.just(set()),
    st.just({(t, a) for t in TIDS for a in ATTRS}),
    st.sets(st.tuples(st.sampled_from(TIDS), st.sampled_from(ATTRS))),
)


def build_log(specs):
    log = FixLog()
    for kind, tid, attr, new in specs:
        log.record(make_fix(kind=kind, tid=tid, attr=attr, new=new))
    return log


def views(log):
    """Every query the log answers, from whole-log comprehensions."""
    fixes = log.fixes()
    latest = {}
    for fix in fixes:
        latest[fix.cell] = fix
    return {
        "fixes": [id(f) for f in fixes],
        "marked": log.marked_cells(),
        "marked_by_kind": {k: log.marked_cells(k) for k in KINDS},
        "latest": {cell: id(log.latest_fix(*cell)) for cell in latest},
        "latest_scan": {cell: id(f) for cell, f in latest.items()},
        "deterministic": set(log.deterministic_cells()),
        "deterministic_scan": {
            c for c, f in latest.items() if f.kind is FixKind.DETERMINISTIC
        },
        "fixed": set(log.fixed_cells()),
        "written": set(log.written_pairs()),
        "written_scan": {(f.attr, f.new_value) for f in fixes},
        "counts": log.counts(),
        "cell_counts": log.cell_counts(),
    }


def rerecorded(log, keep):
    out = FixLog()
    for fix in log:
        if keep(fix):
            out.record(fix)
    return out


class TestSplices:
    @given(fix_specs, tid_sets, cell_sets)
    @settings(max_examples=150, deadline=None)
    # A cell fixed several times whose latest mark changes class.
    @example(
        [(FixKind.DETERMINISTIC, 0, "A", "v1"), (FixKind.POSSIBLE, 0, "A", "v2"),
         (FixKind.RELIABLE, 1, "A", "v1"), (FixKind.DETERMINISTIC, 0, "B", NAN)],
        {1}, {(0, "A")},
    )
    def test_splices_equal_a_rerecording_loop(self, specs, tids, cells):
        log = build_log(specs)
        before = views(log)
        by_tids = log.without_tids(tids)
        by_cells = log.without_cells(cells)
        assert views(log) == before  # the parent is unchanged
        ref_tids = rerecorded(log, lambda f: f.tid not in tids)
        ref_cells = rerecorded(log, lambda f: f.cell not in cells)
        assert views(by_tids) == views(ref_tids)
        assert views(by_cells) == views(ref_cells)
        # Nothing removed: the log itself; otherwise a log that shares no
        # mutable state with its parent.
        assert (by_tids is log) == (len(ref_tids) == len(log))
        assert (by_cells is log) == (len(ref_cells) == len(log))
        # Both keep working alike: record, then splice again (the
        # per-cell and per-tid indexes of the pruned log are exercised).
        extra = make_fix(kind=FixKind.RELIABLE, tid=2, attr="B", new="v9")
        for pruned, ref in ((by_tids, ref_tids), (by_cells, ref_cells)):
            if pruned is log:
                pruned = log.copy()
            pruned.record(extra)
            ref.record(extra)
            assert views(pruned) == views(ref)
            assert views(pruned.without_tids({2})) == views(ref.without_tids({2}))
            assert views(pruned.without_cells({(0, "A")})) == views(
                rerecorded(ref, lambda f: f.cell != (0, "A"))
            )
        assert views(log) == before

    def test_copy_is_independent(self):
        log = build_log([(FixKind.DETERMINISTIC, 0, "A", "v1")])
        twin = log.copy()
        twin.record(make_fix(kind=FixKind.POSSIBLE, tid=0, attr="A"))
        assert log.mark_of(0, "A") is FixKind.DETERMINISTIC
        assert set(log.deterministic_cells()) == {(0, "A")}
        assert set(twin.deterministic_cells()) == set()

    def test_snapshot_round_trip_keeps_every_view(self):
        from repro.constraints import CFD
        from repro.pipeline import Changeset, CleaningSession
        from repro.pipeline.snapshot import decode_session, encode_session
        from repro.relational import Relation, Schema

        schema = Schema("R", ["K", "A", "B"])
        cfds = [CFD(schema, ["K"], ["A"], name="fd_ka"),
                CFD(schema, ["A"], ["B"], name="fd_ab")]
        # Asserted premises give deterministic fixes; the rest conflict.
        rows = [("k1", "a1", "b1", 1.0), ("k1", "a2", "b2", 0.0),
                ("k1", "a2", "b1", 0.0), ("k2", "a3", "b1", 0.0),
                ("k2", "a3", "b3", 0.0)]
        relation = Relation(schema)
        for k, a, b, conf in rows:
            relation.add_row({"K": k, "A": a, "B": b}, {"K": 1.0, "A": conf, "B": conf})
        session = CleaningSession(cfds=cfds)
        session.clean(relation)
        out = session.apply(Changeset().edit(4, "B", "b1"))
        assert not out.full_reclean
        assert session.fix_log.deterministic_cells()
        restored = decode_session(encode_session(session))
        original, copy = views(session.fix_log), views(restored.fix_log)
        for key in ("fixes", "latest", "latest_scan"):
            original.pop(key)
            copy.pop(key)
        assert copy == original
        assert [(f.tid, f.attr, f.new_value) for f in restored.fix_log] == [
            (f.tid, f.attr, f.new_value) for f in session.fix_log
        ]
