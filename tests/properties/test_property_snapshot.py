"""Property tests: save/restore never perturbs a session's trajectory.

The ISSUE 5 acceptance semantics: for any relation, any changeset
sequence and any save point inside it, a session that is snapshotted to
disk and restored (in what is effectively a fresh engine: new relations,
rebuilt indexes, re-warmed caches) must from then on be observationally
**byte-identical** to the session that never stopped — same repaired
relation (values *and* confidences), same ordered fix log, same per-cell
cost total, same satisfaction verdict, and — reusing the phase-trace
machinery of :mod:`repro.core.trace` — the same per-phase scheduling
traces and fix segments for every subsequent apply.

Runs against both the unsharded :class:`CleaningSession` and the sharded
:class:`ShardedCleaningSession` (whose snapshot is a manifest plus one
snapshot per shard).
"""

import os
import tempfile

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
    # Not keyed on blk: couples blocks through K and exercises the
    # collision machinery (whose ever-key state snapshots must preserve).
    CFD(SCHEMA, ["K"], ["B"], name="fd_kb"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [
    MD(SCHEMA, MASTER_SCHEMA,
       [("blk", "blk"), ("nm", "nm", edit_within(1))],
       [("A", "A")], name="md_a"),
]
MASTER = Relation.from_dicts(
    MASTER_SCHEMA,
    [
        {"blk": "x", "nm": "nm1", "A": "aX"},
        {"blk": "y", "nm": "nm2", "A": "aY"},
    ],
)
CONFIG = UniCleanConfig(eta=1.0)

blocks = st.sampled_from(["x", "y"])
keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2"])
names = st.sampled_from(["nm1", "nm2", "nm8"])
confs = st.sampled_from([0.0, 1.0])
rows = st.lists(
    st.tuples(blocks, keys, values, values, names, confs, confs),
    min_size=2,
    max_size=9,
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
    max_size=4,
)

batches_strategy = st.lists(ops, min_size=1, max_size=3)
cut_strategy = st.integers(min_value=0, max_value=3)


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


def assert_same_outcome(reference_out, restored_out):
    if reference_out is None or restored_out is None:
        # An op-less changeset (every tuple already deleted) is a no-op
        # on every session kind: both sides must return None.
        assert reference_out is None and restored_out is None
        return
    assert full_state(reference_out.repaired) == full_state(
        restored_out.repaired
    )
    assert fingerprint(reference_out.fix_log) == fingerprint(
        restored_out.fix_log
    )
    assert abs(reference_out.cost - restored_out.cost) < 1e-9
    assert reference_out.clean == restored_out.clean


def assert_same_traces(reference: CleaningSession, restored: CleaningSession):
    """The phase-trace check: the restored session scheduled its phases
    exactly like the never-stopped one (same trace tokens/forests, same
    per-phase fix segments)."""
    assert reference.last_traces == restored.last_traces
    assert {
        phase: fingerprint(fixes)
        for phase, fixes in reference.last_segments.items()
    } == {
        phase: fingerprint(fixes)
        for phase, fixes in restored.last_segments.items()
    }


def roundtrip_session(session: CleaningSession) -> CleaningSession:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "session.snap")
        session.save(path)
        session.close()
        return CleaningSession.restore(path)


def roundtrip_sharded(session: ShardedCleaningSession) -> ShardedCleaningSession:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sharded")
        session.save(path)
        session.close()
        return ShardedCleaningSession.restore(path)


class TestSessionRoundTrip:
    @given(data=rows, batches=batches_strategy, cut=cut_strategy)
    @settings(max_examples=50, deadline=None)
    # Restored right before an op-less batch (every tuple deleted).
    @example(
        data=[("x", "k1", "a1", "a1", "nm1", 0.0, 0.0),
              ("x", "k1", "a1", "a1", "nm1", 0.0, 0.0)],
        batches=[[("edit", 0, "blk", "x", None)],
                 [("delete", 0), ("delete", 0)],
                 [("edit", 0, "blk", "x", None)]],
        cut=2,
    )
    def test_restored_trajectory_is_byte_identical(self, data, batches, cut):
        relation = build_relation(data)
        reference = CleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG,
            collect_traces=True,
        )
        subject = CleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG,
            collect_traces=True,
        )
        reference.clean(relation)
        subject.clean(relation)
        cut = min(cut, len(batches))
        for index, compact in enumerate(batches):
            if index == cut:
                subject = roundtrip_session(subject)
            changeset = build_changeset(reference.base, compact)
            reference_out = reference.apply(Changeset(list(changeset.ops)))
            restored_out = subject.apply(Changeset(list(changeset.ops)))
            assert_same_outcome(reference_out, restored_out)
            if reference_out is not None:
                # An op-less batch runs no phases, so last_traces still
                # describe each session's previous apply — none yet for
                # a just-restored session.
                assert_same_traces(reference, subject)
        if cut >= len(batches):
            subject = roundtrip_session(subject)
        assert full_state(reference.working) == full_state(subject.working)
        assert fingerprint(reference.fix_log) == fingerprint(subject.fix_log)
        assert reference._cell_costs == subject._cell_costs
        assert reference.is_clean() == subject.is_clean()


class TestShardedRoundTrip:
    @given(data=rows, batches=batches_strategy, cut=cut_strategy)
    @settings(max_examples=25, deadline=None)
    def test_restored_trajectory_is_byte_identical(self, data, batches, cut):
        relation = build_relation(data)
        reference = ShardedCleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG,
            n_workers=1, n_shards=2,
        )
        subject = ShardedCleaningSession(
            cfds=CFDS, mds=MDS, master=MASTER, config=CONFIG,
            n_workers=1, n_shards=2,
        )
        try:
            reference.clean(relation)
            subject.clean(relation)
            cut = min(cut, len(batches))
            for index, compact in enumerate(batches):
                if index == cut:
                    subject = roundtrip_sharded(subject)
                changeset = build_changeset(reference.base, compact)
                reference_out = reference.apply(Changeset(list(changeset.ops)))
                restored_out = subject.apply(Changeset(list(changeset.ops)))
                assert_same_outcome(reference_out, restored_out)
            if cut >= len(batches):
                subject = roundtrip_sharded(subject)
            assert full_state(reference.working) == full_state(subject.working)
            assert fingerprint(reference.fix_log) == fingerprint(
                subject.fix_log
            )
            assert reference.is_clean() == subject.is_clean()
        finally:
            reference.close()
            subject.close()
