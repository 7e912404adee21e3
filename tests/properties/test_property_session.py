"""Property tests: delta-driven re-cleaning ≡ from-scratch cleaning.

The contract of :meth:`CleaningSession.apply` (ISSUE 2 acceptance
semantics): after ``clean()`` and any sequence of changesets, the working
relation must be in the state a full pipeline run over the edited base
relation would produce, with the same satisfaction verdict — across all
three phases and for partial pipelines.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints import CFD, MD
from repro.core import UniClean, UniCleanConfig
from repro.pipeline import Changeset, CleaningSession
from repro.relational import NULL, Relation, Schema

SCHEMA = Schema("R", ["K", "A", "B"])
MASTER_SCHEMA = Schema("Rm", ["K", "B"])

CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["A"], ["B"], name="fd_ab"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [MD(SCHEMA, MASTER_SCHEMA, [("K", "K")], [("B", "B")], name="md_kb")]

keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2"])
confs = st.sampled_from([0.0, 0.5, 1.0])
rows = st.lists(
    st.tuples(keys, values, values, confs, confs, confs), min_size=2, max_size=10
)

#: One changeset op in compact form; tids are taken modulo the live count.
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("edit"),
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["K", "A", "B"]),
            st.sampled_from(["k1", "k2", "a1", "b1", "b2", NULL]),
            st.sampled_from([None, 0.0, 1.0]),  # None = keep confidence
        ),
        st.tuples(st.just("insert"), keys, values, values, confs),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
    ),
    min_size=1,
    max_size=6,
)

CONFIGS = [
    UniCleanConfig(eta=0.8),
    UniCleanConfig(eta=0.8, run_erepair=False, run_hrepair=False),  # cRepair only
    UniCleanConfig(eta=0.8, run_hrepair=False),  # cRepair + eRepair
]


def build_relation(data) -> Relation:
    relation = Relation(SCHEMA)
    for k, a, b, ck, ca, cb in data:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": ck, "A": ca, "B": cb})
    return relation


def build_master() -> Relation:
    return Relation.from_dicts(
        MASTER_SCHEMA, [{"K": "k1", "B": "b1"}, {"K": "k2", "B": "b2"}]
    )


def build_changeset(relation: Relation, compact) -> Changeset:
    changeset = Changeset()
    live = list(relation.tids())
    deleted = set()
    for op in compact:
        if op[0] == "edit":
            _tag, raw, attr, value, conf = op
            candidates = [t for t in live if t not in deleted]
            if not candidates:
                continue
            tid = candidates[raw % len(candidates)]
            if conf is None:
                changeset.edit(tid, attr, value)
            else:
                changeset.edit(tid, attr, value, conf=conf)
        elif op[0] == "insert":
            _tag, k, a, b = op[0], op[1], op[2], op[3]
            changeset.insert({"K": k, "A": a, "B": b}, {"K": op[4]})
        else:
            candidates = [t for t in live if t not in deleted]
            if not candidates:
                continue
            tid = candidates[op[1] % len(candidates)]
            deleted.add(tid)
            changeset.delete(tid)
    return changeset


def state(relation: Relation):
    return {t.tid: {a: t[a] for a in relation.schema.names} for t in relation}


def check_apply_equivalence(data, compact_batches, config, with_mds: bool):
    master = build_master() if with_mds else None
    mds = MDS if with_mds else ()
    session = CleaningSession(cfds=CFDS, mds=mds, master=master, config=config)
    session.clean(build_relation(data))
    base = session.base
    for compact in compact_batches:
        changeset = build_changeset(session.base, compact)
        out = session.apply(changeset)
        reference = UniClean(cfds=CFDS, mds=mds, master=master, config=config).clean(
            session.base
        )
        if not changeset.ops:
            # Every tuple was already deleted: the no-op contract.
            assert out is None
            assert state(session.working) == state(reference.repaired)
            continue
        # Neither strategy replaces the base, and its group stores (built
        # by the first apply) stay coherent with every edit.
        assert session.base is base
        session.base_registry.check_consistency()
        assert state(out.repaired) == state(reference.repaired)
        assert out.clean == reference.clean
        assert out.cost == pytest.approx(reference.cost, abs=1e-9)
        # The merged log reproduces the same final cell marks.
        assert {
            cell: fix.kind for cell, fix in out.fix_log._latest.items()
        } == {cell: fix.kind for cell, fix in reference.fix_log._latest.items()}


#: Tid 4's A goes b1 -> a2 (eRepair, fd_ka) -> NULL (hRepair, fd_ab,
#: against tid 5's B): the superseded run moved tid 4 through the a2
#: group of fd_ab and out again.  Deleting tid 5 perturbs that group, so
#: the closure must see the transit and take the full replay; a scoped
#: replay kept A = NULL where a from-scratch clean leaves a2.
TRANSIT_ROWS = [
    ("k1", "a1", "a1", 0.0, 0.0, 0.0), ("k1", "b1", "a1", 0.0, 1.0, 1.0),
    ("k3", "a2", "a1", 0.0, 0.0, 0.0), ("k3", "a2", "a1", 0.0, 0.0, 0.0),
    ("k3", "b1", "a2", 0.0, 1.0, 0.0), ("k2", "a2", "a1", 1.0, 0.0, 0.0),
    ("k3", "a2", "a1", 0.0, 0.0, 0.0), ("k3", "a2", "a1", 0.0, 0.0, 0.0),
    ("k1", "a1", "a1", 0.0, 0.0, 0.0), ("k1", "a1", "a1", 0.0, 0.0, 0.0),
]


class TestApplyEquivalence:
    @given(rows, ops)
    @settings(max_examples=60, deadline=None)
    @example(TRANSIT_ROWS, [("delete", 5)])
    def test_single_batch_full_pipeline(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[0], with_mds=True)

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    def test_transit_through_perturbed_group(self, columnar):
        from repro.relational.columns import using_backend

        with using_backend(columnar):
            master = build_master()
            session = CleaningSession(
                cfds=CFDS, mds=MDS, master=master, config=CONFIGS[0]
            )
            session.clean(build_relation(TRANSIT_ROWS))
            out = session.apply(Changeset().delete(5))
            reference = UniClean(
                cfds=CFDS, mds=MDS, master=master, config=CONFIGS[0]
            ).clean(session.base)
        assert out.repaired.diff(reference.repaired) == []
        assert out.full_reclean

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_single_batch_crepair_only(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[1], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_single_batch_crepair_erepair(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[2], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_single_batch_cfds_only(self, data, compact):
        check_apply_equivalence(data, [compact], CONFIGS[0], with_mds=False)

    @given(rows, ops, ops)
    @settings(max_examples=40, deadline=None)
    # The first batch deletes every tuple, so the second is op-less.
    @example(
        [("k1", "a1", "b1", 0.0, 0.0, 0.0), ("k2", "a2", "b2", 1.0, 1.0, 1.0)],
        [("delete", 0), ("delete", 0)],
        [("edit", 0, "A", "a1", None)],
    )
    def test_two_batches_compound(self, data, first, second):
        check_apply_equivalence(data, [first, second], CONFIGS[0], with_mds=True)

    @given(rows, ops)
    @settings(max_examples=30, deadline=None)
    def test_working_relation_stays_satisfying(self, data, compact):
        session = CleaningSession(
            cfds=CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        )
        session.clean(build_relation(data))
        session.apply(build_changeset(session.base, compact))
        assert session.is_clean() == UniClean(
            cfds=CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        ).clean(session.base).clean


#: Rules whose premise attribute (K) is never a repair target: edits to
#: the A/B columns have a *safe* closure, so they exercise the scoped
#: replay rather than the warm full-replay fallback.
SAFE_CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="s_fd_ka"),
    CFD(SCHEMA, ["K"], ["B"], name="s_fd_kb"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="s_const_kb"),
]

safe_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.sampled_from(["A", "B"]),  # never the group key
        st.sampled_from(["a1", "a2", "b1", "b2", NULL]),
        st.sampled_from([None, 0.0, 1.0]),
    ),
    min_size=1,
    max_size=6,
)


class TestScopedReplay:
    """The scoped (delta-proportional) path, hammered in isolation."""

    @given(rows, safe_ops)
    @settings(max_examples=60, deadline=None)
    def test_scoped_path_matches_scratch(self, data, compact):
        session = CleaningSession(
            cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        )
        session.clean(build_relation(data))
        live = list(session.base.tids())
        changeset = Changeset()
        for raw, attr, value, conf in compact:
            tid = live[raw % len(live)]
            if conf is None:
                changeset.edit(tid, attr, value)
            else:
                changeset.edit(tid, attr, value, conf=conf)
        out = session.apply(changeset)
        reference = UniClean(
            cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        ).clean(session.base)
        assert state(out.repaired) == state(reference.repaired)
        assert out.clean == reference.clean
        assert {
            cell: fix.kind for cell, fix in out.fix_log._latest.items()
        } == {cell: fix.kind for cell, fix in reference.fix_log._latest.items()}

    @given(rows, safe_ops, safe_ops)
    @settings(max_examples=40, deadline=None)
    def test_scoped_batches_compose(self, data, first, second):
        session = CleaningSession(
            cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
        )
        session.clean(build_relation(data))
        for compact in (first, second):
            live = list(session.base.tids())
            changeset = Changeset()
            for raw, attr, value, conf in compact:
                tid = live[raw % len(live)]
                if conf is None:
                    changeset.edit(tid, attr, value)
                else:
                    changeset.edit(tid, attr, value, conf=conf)
            out = session.apply(changeset)
            reference = UniClean(
                cfds=SAFE_CFDS, mds=MDS, master=build_master(), config=CONFIGS[0]
            ).clean(session.base)
            assert state(out.repaired) == state(reference.repaired)
            assert out.clean == reference.clean
