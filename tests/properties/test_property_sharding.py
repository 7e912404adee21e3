"""Property tests: sharded cleaning ≡ unsharded cleaning, byte for byte.

The ISSUE 3 acceptance semantics: for any relation and any changeset
sequence — including changesets that edit shard-key cells, insert and
delete tuples — a :class:`ShardedCleaningSession` must produce the same
repaired relation (values *and* confidences), the same ordered fix log,
the same per-cell cost total and the same satisfaction verdict as an
unsharded :class:`CleaningSession` given identical input.  The schema
mixes block-keyed variable CFDs (shardable), a cross-block variable CFD
key (collision pressure), a constant CFD and an MD, so the plan,
collision-retry, scoped and re-plan paths all get exercised.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints import CFD, MD
from repro.core import UniCleanConfig
from repro.pipeline import Changeset, CleaningSession, ShardedCleaningSession
from repro.relational import NULL, Relation, Schema
from repro.similarity.predicates import edit_within

SCHEMA = Schema("R", ["blk", "K", "A", "B", "nm"])
MASTER_SCHEMA = Schema("Rm", ["blk", "nm", "A"])

CFDS = [
    CFD(SCHEMA, ["blk", "K"], ["A"], name="fd_ka"),
    # Not keyed on blk: couples blocks through K and pressures the
    # collision detector when repairs rewrite K.
    CFD(SCHEMA, ["K"], ["B"], name="fd_kb"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [
    MD(SCHEMA, MASTER_SCHEMA,
       [("blk", "blk"), ("nm", "nm", edit_within(1))],
       [("A", "A")], name="md_a"),
]

blocks = st.sampled_from(["x", "y"])
keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2"])
names = st.sampled_from(["nm1", "nm2", "nm8"])
confs = st.sampled_from([0.0, 1.0])
rows = st.lists(
    st.tuples(blocks, keys, values, values, names, confs, confs),
    min_size=2,
    max_size=10,
)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("edit"),
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["blk", "K", "A", "B", "nm"]),
            st.sampled_from(["x", "k1", "k2", "a1", "b2", "nm1", NULL]),
            st.sampled_from([None, 0.0, 1.0]),
        ),
        st.tuples(st.just("insert"), blocks, keys, values, names),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
    ),
    min_size=1,
    max_size=5,
)

CONFIG = UniCleanConfig(eta=1.0)
MASTER = Relation.from_dicts(
    MASTER_SCHEMA,
    [
        {"blk": "x", "nm": "nm1", "A": "aX"},
        {"blk": "y", "nm": "nm2", "A": "aY"},
    ],
)


def build_relation(data) -> Relation:
    relation = Relation(SCHEMA)
    for blk, k, a, b, nm, conf_k, conf_a in data:
        relation.add_row(
            {"blk": blk, "K": k, "A": a, "B": b, "nm": nm},
            {"K": conf_k, "A": conf_a, "B": 0.0, "blk": 1.0, "nm": 0.0},
        )
    return relation


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
            _tag, blk, k, a, nm = op
            changeset.insert({"blk": blk, "K": k, "A": a, "B": "b1", "nm": nm})
        else:
            candidates = [t for t in live if t not in deleted]
            if not candidates:
                continue
            tid = candidates[op[1] % len(candidates)]
            deleted.add(tid)
            changeset.delete(tid)
    return changeset


def fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.source))
        for f in log
    ]


def full_state(relation):
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in relation.schema.names)
        for t in relation
    }


def assert_same(reference_out, sharded_out):
    assert full_state(reference_out.repaired) == full_state(sharded_out.repaired)
    assert fingerprint(reference_out.fix_log) == fingerprint(sharded_out.fix_log)
    assert abs(reference_out.cost - sharded_out.cost) < 1e-9
    assert reference_out.clean == sharded_out.clean


class TestShardedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=rows, n_shards=st.sampled_from([2, 3]))
    def test_clean_equivalence(self, data, n_shards):
        relation = build_relation(data)
        reference = CleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG
        )
        sharded = ShardedCleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG, n_shards=n_shards
        )
        assert_same(reference.clean(relation), sharded.clean(relation))

    @settings(max_examples=50, deadline=None)
    @given(data=rows, batches=st.lists(ops, min_size=1, max_size=3))
    # Once every tuple is deleted, later batches build op-less changesets.
    @example(
        data=[("x", "k1", "a1", "b1", "nm1", 0.0, 0.0),
              ("y", "k2", "a2", "b2", "nm2", 1.0, 1.0)],
        batches=[[("delete", 0), ("delete", 0)], [("delete", 0)]],
    )
    def test_apply_equivalence(self, data, batches):
        relation = build_relation(data)
        reference = CleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG
        )
        sharded = ShardedCleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG, n_shards=2
        )
        assert_same(reference.clean(relation), sharded.clean(relation))
        for compact in batches:
            changeset = build_changeset(reference.base, compact)
            reference_out = reference.apply(Changeset(list(changeset.ops)))
            sharded_out = sharded.apply(Changeset(list(changeset.ops)))
            if not changeset.ops:
                assert reference_out is None and sharded_out is None
                continue
            assert_same(reference_out, sharded_out)
            assert reference_out.full_reclean == sharded_out.full_reclean

    @settings(max_examples=35, deadline=None)
    @given(
        data=rows,
        batches=st.lists(
            st.tuples(
                st.tuples(blocks, keys, values, names),  # forced insert
                ops,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_replan_reuse_is_byte_identical_to_fresh_plan(self, data, batches):
        """ISSUE 4: K successive re-plans with session reuse must stay
        byte-identical to (a) an unsharded session applying the same
        deltas and (b) a *fresh* sharded plan of the final base —
        relation, costs, verdict, ordered fix log."""
        relation = build_relation(data)
        reference = CleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG
        )
        sharded = ShardedCleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG, n_shards=2
        )
        assert_same(reference.clean(relation), sharded.clean(relation))
        for (blk, k, a, nm), compact in batches:
            # Every batch leads with an insert, so every batch re-plans.
            changeset = Changeset().insert(
                {"blk": blk, "K": k, "A": a, "B": "b1", "nm": nm}
            )
            for op in build_changeset(reference.base, compact).ops:
                changeset.ops.append(op)
            reference_out = reference.apply(Changeset(list(changeset.ops)))
            sharded_out = sharded.apply(Changeset(list(changeset.ops)))
            assert_same(reference_out, sharded_out)
        # A fresh sharded plan over the final base reproduces the reused
        # session's state byte for byte.
        fresh = ShardedCleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG, n_shards=2
        )
        fresh_result = fresh.clean(reference.base)
        assert full_state(sharded.working) == full_state(fresh_result.repaired)
        assert fingerprint(sharded.fix_log) == fingerprint(fresh_result.fix_log)

    @settings(max_examples=25, deadline=None)
    @given(data=rows)
    def test_partial_pipelines(self, data):
        relation = build_relation(data)
        for config in (
            UniCleanConfig(eta=1.0, run_erepair=False, run_hrepair=False),
            UniCleanConfig(eta=1.0, run_hrepair=False),
        ):
            reference = CleaningSession(
                cfds=CFDS, mds=MDS, master=MASTER, config=config
            )
            sharded = ShardedCleaningSession(
                cfds=CFDS, mds=MDS, master=MASTER, config=config, n_shards=2
            )
            assert_same(reference.clean(relation), sharded.clean(relation))
