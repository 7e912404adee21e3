"""Unit tests for the shard planner and the sharded cleaning session."""

import pytest

from repro.constraints import CFD, MD
from repro.core import UniClean, UniCleanConfig
from repro.core.fixes import Fix, FixKind
from repro.core.trace import (
    RoundTrace,
    WorklistTrace,
    merge_round_fixes,
    merge_worklist_fixes,
)
from repro.datasets import generate_partitioned, part_rules
from repro.exceptions import DataError
from repro.pipeline import (
    Changeset,
    CleaningSession,
    ShardPlanner,
    ShardedCleaningSession,
)
from repro.relational import Relation, Schema
from repro.similarity.predicates import edit_within

SCHEMA = Schema("R", ["blk", "key", "a", "b"])


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


def make_fix(tid, attr="a", kind=FixKind.RELIABLE):
    return Fix(
        kind=kind, rule_name="r", tid=tid, attr=attr, old_value="x",
        new_value="y", old_conf=None, new_conf=None, source="s",
    )


class TestShardPlanner:
    def relation(self, rows):
        return Relation.from_dicts(SCHEMA, rows)

    def test_blocks_become_components(self):
        cfds = [CFD(SCHEMA, ["blk", "key"], ["a"], name="fd")]
        rel = self.relation(
            [{"blk": f"B{i % 4}", "key": "k", "a": str(i)} for i in range(12)]
        )
        plan = ShardPlanner(cfds).plan(rel, 4)
        assert plan.n_shards == 4
        assert plan.n_components == 4
        assert sorted(tid for shard in plan.shards for tid in shard) == list(
            range(12)
        )
        # No variable-CFD group straddles shards.
        for t in rel:
            mates = [
                s.tid for s in rel
                if (s["blk"], s["key"]) == (t["blk"], t["key"])
            ]
            shard = plan.shard_of[t.tid]
            assert all(plan.shard_of[m] == shard for m in mates)

    def test_single_component_degenerates(self):
        # key chains every tuple: one component -> documented fallback.
        cfds = [CFD(SCHEMA, ["key"], ["a"], name="fd")]
        rel = self.relation([{"blk": str(i), "key": "k", "a": "v"} for i in range(6)])
        plan = ShardPlanner(cfds).plan(rel, 4)
        assert plan.degenerate
        assert plan.n_shards == 1
        assert "incompatible" in plan.reason

    def test_md_blocking_groups_are_affinity(self):
        mds = [
            MD(SCHEMA, SCHEMA, [("blk", "blk"), ("key", "key")],
               [("a", "a")], name="md")
        ]
        rel = self.relation(
            [{"blk": f"B{i % 3}", "key": "k", "a": str(i)} for i in range(9)]
        )
        with_md = ShardPlanner([], mds).plan(rel, 3)
        assert with_md.n_components == 3
        without = ShardPlanner([], mds, include_md_affinity=False).plan(rel, 3)
        assert without.n_components == 9  # per-tuple: no coupling at all

    def test_n_shards_one_is_degenerate(self):
        plan = ShardPlanner([]).plan(self.relation([{"blk": "B"}]), 1)
        assert plan.degenerate and plan.n_shards == 1

    def test_partition_attrs_are_variable_lhs_only(self):
        cfds = [
            CFD(SCHEMA, ["blk", "key"], ["a"], name="var"),
            CFD(SCHEMA, ["b"], ["a"], {"b": "x", "a": "y"}, name="const"),
        ]
        assert ShardPlanner(cfds).partition_attrs() == {"blk", "key"}


class TestTraceMergers:
    def test_round_merge_interleaves_by_token(self):
        a = [make_fix(0), make_fix(4)]
        b = [make_fix(1), make_fix(3)]
        ta = RoundTrace(tokens=[(1, 0, (0,)), (1, 0, (4,))])
        tb = RoundTrace(tokens=[(1, 0, (1,)), (1, 0, (3,))])
        merged = merge_round_fixes([(a, ta), (b, tb)])
        assert [f.tid for f in merged] == [0, 1, 3, 4]

    def test_round_merge_rejects_mismatched_trace(self):
        with pytest.raises(ValueError):
            merge_round_fixes([([make_fix(0)], RoundTrace(tokens=[]))])

    def test_worklist_merge_replays_bfs(self):
        # Shard A: roots r0 (1 child, 1 fix) -> child (0, 1 fix).
        # Shard B: root r1 (0 children, 1 fix).  Global FIFO order:
        # r0, r1, then r0's child.
        a = [make_fix(0), make_fix(2)]
        b = [make_fix(1)]
        ta = WorklistTrace(root_ranks=[(0, 0, 0, 0)], pops=[(1, 1), (0, 1)])
        tb = WorklistTrace(root_ranks=[(0, 0, 1, 0)], pops=[(0, 1)])
        merged = merge_worklist_fixes([(a, ta), (b, tb)])
        assert [f.tid for f in merged] == [0, 1, 2]

    def test_worklist_merge_rejects_inconsistent_counts(self):
        bad = WorklistTrace(root_ranks=[(0,)], pops=[(1, 0)])  # 2 pushes, 1 pop
        with pytest.raises(ValueError):
            merge_worklist_fixes([([], bad)])


class TestShardedCleaningSession:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_partitioned(size=160, n_blocks=8, seed=5)

    def make_pair(self, ds, **kwargs):
        config = UniCleanConfig(eta=1.0)
        reference = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
        )
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config, **kwargs
        )
        return reference, sharded

    def test_requires_violation_index(self):
        with pytest.raises(ValueError):
            ShardedCleaningSession(config=UniCleanConfig(use_violation_index=False))

    def test_apply_requires_clean(self, dataset):
        _, sharded = self.make_pair(dataset, n_shards=2)
        with pytest.raises(DataError):
            sharded.apply(Changeset().edit(0, "name", "x"))

    def test_clean_is_byte_identical(self, dataset):
        reference, sharded = self.make_pair(dataset, n_workers=1, n_shards=4)
        r1 = reference.clean(dataset.dirty)
        r2 = sharded.clean(dataset.dirty)
        assert not sharded.plan.degenerate and sharded.plan.n_shards == 4
        assert full_state(r1.repaired) == full_state(r2.repaired)
        assert fingerprint(r1.fix_log) == fingerprint(r2.fix_log)
        assert r1.cost == pytest.approx(r2.cost)
        assert r1.clean == r2.clean
        assert sharded.is_clean() == r2.clean

    def test_apply_paths_stay_identical(self, dataset):
        reference, sharded = self.make_pair(dataset, n_workers=1, n_shards=4)
        reference.clean(dataset.dirty)
        sharded.clean(dataset.dirty)
        tids = list(reference.base.tids())
        batches = [
            # Rule-free attribute edits: provably local, the scoped path.
            Changeset().edit(tids[3], "score", "77").edit(tids[40], "score", "8"),
            # Catalog-style target edits (mode chosen by the session).
            Changeset().edit(tids[9], "cat", "alpha").edit(tids[25], "src", "X"),
            # A variable-CFD premise edit: the re-plan path.
            Changeset().edit(tids[7], "site", "S99999"),
            # Inserts and deletes.
            Changeset()
            .insert({"block": "B0001", "site": "S11111",
                     "name": "Aa Bb", "city": "Cc City", "zip": "11111",
                     "grp": "G00", "cat": "alpha", "score": "10", "src": "GEN"})
            .delete(tids[11]),
        ]
        for changeset in batches:
            o1 = reference.apply(Changeset(list(changeset.ops)))
            o2 = sharded.apply(Changeset(list(changeset.ops)))
            assert full_state(o1.repaired) == full_state(o2.repaired)
            assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)
            assert o1.cost == pytest.approx(o2.cost)
            assert o1.clean == o2.clean
            assert o1.full_reclean == o2.full_reclean
        assert sharded.stats["scoped_applies"] >= 1
        assert sharded.stats["full_applies"] >= 2

    def test_scoped_apply_is_incremental(self, dataset):
        """A rule-free edit must take the scoped path, not a re-clean."""
        reference, sharded = self.make_pair(dataset, n_workers=1, n_shards=4)
        reference.clean(dataset.dirty)
        sharded.clean(dataset.dirty)
        tid = list(reference.base.tids())[0]
        o1 = reference.apply(Changeset().edit(tid, "score", "55"))
        o2 = sharded.apply(Changeset().edit(tid, "score", "55"))
        assert not o1.full_reclean and not o2.full_reclean
        assert o2.affected == o1.affected == 1
        assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)
        assert full_state(o1.repaired) == full_state(o2.repaired)

    def test_collision_is_detected_and_exact(self):
        schema = Schema("C", ["A", "K", "B", "name"])
        cfds = [
            CFD(schema, ["A"], ["K"], name="fd_ak"),
            CFD(schema, ["K"], ["B"], name="fd_kb"),
        ]
        # Similarity-only premise: no blocking key, no plan constraint —
        # but the MD writes a master K into component 1, materializing
        # component 2's K-group there mid-run.
        mds = [
            MD(schema, schema, [("name", "name", edit_within(1))],
               [("K", "K")], name="md_k")
        ]
        rel = Relation.from_dicts(schema, [
            {"A": "a1", "K": "k1", "B": "b1", "name": "nm1"},
            {"A": "a1", "K": "k1", "B": "b1", "name": "zz1"},
            {"A": "a2", "K": "k9", "B": "b9", "name": "zz2"},
            {"A": "a2", "K": "k9", "B": "b9", "name": "zz3"},
        ])
        for t in rel:
            for attr in schema.names:
                t.set_conf(attr, 0.0)
        master = Relation.from_dicts(schema, [
            {"A": "aM", "K": "k9", "B": "bM", "name": "nm1"},
        ])
        config = UniCleanConfig(eta=1.0)
        reference = CleaningSession(
            cfds=cfds, mds=mds, master=master, config=config
        ).clean(rel)
        sharded = ShardedCleaningSession(
            cfds=cfds, mds=mds, master=master, config=config, n_shards=2
        )
        result = sharded.clean(rel)
        assert sharded.stats["collision_retries"] >= 1
        assert full_state(reference.repaired) == full_state(result.repaired)
        assert fingerprint(reference.fix_log) == fingerprint(result.fix_log)

    def test_process_pool_matches_serial(self, dataset):
        reference, sharded = self.make_pair(dataset, n_workers=2, n_shards=4)
        r1 = reference.clean(dataset.dirty)
        with sharded:
            r2 = sharded.clean(dataset.dirty)
            assert full_state(r1.repaired) == full_state(r2.repaired)
            assert fingerprint(r1.fix_log) == fingerprint(r2.fix_log)
            tids = list(reference.base.tids())
            changeset = Changeset().edit(tids[5], "cat", "beta")
            o1 = reference.apply(Changeset(list(changeset.ops)))
            o2 = sharded.apply(Changeset(list(changeset.ops)))
            assert full_state(o1.repaired) == full_state(o2.repaired)
            assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)


class TestIncrementalReplan:
    """ISSUE 4: component-stable shard ids, session reuse, batching."""

    def make_pair(self, ds, **kwargs):
        config = UniCleanConfig(eta=1.0)
        reference = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
        )
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config, **kwargs
        )
        return reference, sharded

    def test_insert_recleans_only_touched_component(self):
        """An insert joining one block's component must re-clean exactly
        that component's shard and reuse every other session."""
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        reference, sharded = self.make_pair(ds, n_workers=1, n_shards=4)
        reference.clean(ds.dirty)
        sharded.clean(ds.dirty)
        assert sharded.stats["shards_recleaned"] == 4
        assert sharded.stats["shards_reused"] == 0

        donor = reference.base.by_tid(list(reference.base.tids())[10])
        changeset = Changeset().insert(donor.as_dict())
        before = dict(sharded.stats)
        o1 = reference.apply(Changeset(list(changeset.ops)))
        o2 = sharded.apply(Changeset(list(changeset.ops)))
        assert sharded.stats["collision_retries"] == 0
        assert sharded.stats["shards_recleaned"] - before["shards_recleaned"] == 1
        assert sharded.stats["shards_reused"] - before["shards_reused"] == 3
        assert full_state(o1.repaired) == full_state(o2.repaired)
        assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)
        assert o1.cost == pytest.approx(o2.cost)
        assert o1.clean == o2.clean

    def test_shard_ids_are_stable_across_replans(self):
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        _reference, sharded = self.make_pair(ds, n_workers=1, n_shards=4)
        sharded.clean(ds.dirty)
        ids_before = list(sharded.plan.ids)
        donor = sharded.base.by_tid(list(sharded.base.tids())[10])
        sharded.apply(Changeset().insert(donor.as_dict()))
        ids_after = list(sharded.plan.ids)
        # Three of four shards keep their session address.
        assert len(set(ids_before) & set(ids_after)) == 3
        assert len(set(ids_after)) == len(ids_after)

    def test_apply_many_equals_concatenated_apply(self):
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        reference, sharded = self.make_pair(ds, n_workers=1, n_shards=4)
        reference.clean(ds.dirty)
        sharded.clean(ds.dirty)
        tids = list(reference.base.tids())
        donor = reference.base.by_tid(tids[10])
        parts = [
            Changeset().edit(tids[3], "cat", "alpha"),
            Changeset().insert(donor.as_dict()),
            Changeset().edit(tids[40], "score", "9").delete(tids[25]),
        ]
        o1 = reference.apply(
            Changeset.concat([Changeset(list(p.ops)) for p in parts])
        )
        o2 = sharded.apply_many([Changeset(list(p.ops)) for p in parts])
        assert full_state(o1.repaired) == full_state(o2.repaired)
        assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)
        assert o1.cost == pytest.approx(o2.cost)
        assert o1.full_reclean and o2.full_reclean

    def test_buffer_flush_is_one_batch(self):
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        reference, sharded = self.make_pair(ds, n_workers=1, n_shards=4)
        reference.clean(ds.dirty)
        sharded.clean(ds.dirty)
        tids = list(reference.base.tids())
        assert sharded.flush() is None
        applies_before = (
            sharded.stats["scoped_applies"] + sharded.stats["full_applies"]
        )
        sharded.buffer(Changeset().edit(tids[5], "score", "42"))
        sharded.buffer(Changeset().edit(tids[6], "score", "43"))
        o2 = sharded.flush()
        o1 = reference.apply(
            Changeset().edit(tids[5], "score", "42").edit(tids[6], "score", "43")
        )
        assert (
            sharded.stats["scoped_applies"] + sharded.stats["full_applies"]
            == applies_before + 1
        )
        assert full_state(o1.repaired) == full_state(o2.repaired)
        assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)

    def test_reuse_escape_hatch_recleans_everything(self):
        """``reuse_sessions=False`` is the documented full re-plan
        fallback: every re-plan rebuilds every shard (PR 3 behaviour),
        and the result stays byte-identical."""
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        reference, sharded = self.make_pair(
            ds, n_workers=1, n_shards=4, reuse_sessions=False
        )
        reference.clean(ds.dirty)
        sharded.clean(ds.dirty)
        donor = reference.base.by_tid(list(reference.base.tids())[10])
        changeset = Changeset().insert(donor.as_dict())
        before = dict(sharded.stats)
        o1 = reference.apply(Changeset(list(changeset.ops)))
        o2 = sharded.apply(Changeset(list(changeset.ops)))
        assert sharded.stats["shards_reused"] == 0
        assert sharded.stats["shards_recleaned"] - before["shards_recleaned"] == 4
        assert full_state(o1.repaired) == full_state(o2.repaired)
        assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)

    def test_scoped_apply_then_replan_recleans_stale_shard(self):
        """A shard whose full-form log went stale through a scoped apply
        cannot be reused verbatim by a later re-plan — but its session
        still re-cleans in place (no relation shipped)."""
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        reference, sharded = self.make_pair(ds, n_workers=1, n_shards=4)
        reference.clean(ds.dirty)
        sharded.clean(ds.dirty)
        tids = list(reference.base.tids())
        # Scoped edit in some shard: invalidates that shard's full-form.
        scoped = Changeset().edit(tids[0], "score", "77")
        reference.apply(Changeset(list(scoped.ops)))
        sharded.apply(Changeset(list(scoped.ops)))
        stale_shard = sharded.plan.shard_of[tids[0]]
        stale_id = sharded.plan.ids[stale_shard]
        assert not sharded._shard_views[stale_id].fullform
        # Insert into a *different* shard: re-plan must reclean the
        # stale shard too (its stored log is not full-form).
        other_tid = next(
            tid for tid in tids if sharded.plan.shard_of[tid] != stale_shard
        )
        donor = reference.base.by_tid(other_tid)
        changeset = Changeset().insert(donor.as_dict())
        before = dict(sharded.stats)
        o1 = reference.apply(Changeset(list(changeset.ops)))
        o2 = sharded.apply(Changeset(list(changeset.ops)))
        delta = sharded.stats["shards_recleaned"] - before["shards_recleaned"]
        assert delta == 2  # touched shard + stale shard, not all four
        assert full_state(o1.repaired) == full_state(o2.repaired)
        assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)
        assert sharded._shard_views[stale_id].fullform


class TestRestrict:
    def test_restrict_preserves_tids_and_bookkeeping(self):
        rel = Relation.from_dicts(SCHEMA, [{"blk": str(i)} for i in range(5)])
        rel.remove(1)
        sub = rel.restrict([0, 3])
        assert [t.tid for t in sub] == [0, 3]
        assert sub._next_tid == rel._next_tid
        assert sub.tid_retired(1)

    def test_restrict_unknown_tid_raises(self):
        rel = Relation.from_dicts(SCHEMA, [{"blk": "B"}])
        with pytest.raises(DataError):
            rel.restrict([0, 7])


class TestReviewRegressions:
    """Fixes from the PR 3 review pass."""

    def test_deleted_tids_leave_the_plan(self):
        """A dead tid must vanish from plan.shards too — the collision
        recovery path restricts the base by those lists."""
        ds = generate_partitioned(size=80, n_blocks=4, seed=9)
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), n_shards=4,
        )
        sharded.clean(ds.dirty)
        victim = sharded.plan.shards[0][0]
        sharded.apply(Changeset().delete(victim))
        assert all(victim not in shard for shard in sharded.plan.shards)
        assert victim not in sharded.plan.shard_of
        # Every shard list must still restrict cleanly (what a re-plan
        # or collision recovery does).
        for tids in sharded.plan.shards:
            sharded.base.restrict(tids)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_mixed_apply_keeps_the_scoped_shards_edit(self, n_workers):
        """One batch, two shards: a scoped edit in one and a delete that
        sends the other to its full replay.  The scoped shard's re-clean
        ships no rows, so its edit must come from its scoped outcome."""
        ds = generate_partitioned(size=400, n_blocks=4, seed=1)
        cfds, mds = part_rules(1)
        config = UniCleanConfig(eta=1.0)
        reference = CleaningSession(
            cfds=cfds, mds=mds, master=ds.master, config=config
        )
        sharded = ShardedCleaningSession(
            cfds=cfds, mds=mds, master=ds.master, config=config,
            n_shards=4, n_workers=n_workers,
        )
        try:
            reference.clean(ds.dirty)
            sharded.clean(ds.dirty)
            assert sharded.plan.shard_of[0] != sharded.plan.shard_of[106]
            batch = [Changeset().edit(0, "score", "777"), Changeset().delete(106)]
            o1 = reference.apply_many(
                [Changeset(list(cs.ops)) for cs in batch]
            )
            o2 = sharded.apply_many(batch)
            assert o2.full_reclean
            assert o2.repaired.by_tid(0)["score"] == "777"
            scratch = UniClean(
                cfds=cfds, mds=mds, master=ds.master, config=config
            ).clean(sharded.base)
            assert full_state(o2.repaired) == full_state(scratch.repaired)
            assert full_state(o1.repaired) == full_state(o2.repaired)
            assert fingerprint(o1.fix_log) == fingerprint(o2.fix_log)
            assert o1.cost == pytest.approx(o2.cost)
            assert o1.clean == o2.clean
        finally:
            sharded.close()

    def test_out_of_order_tids_are_rejected(self):
        from repro.relational import CTuple

        relation = Relation(SCHEMA)
        relation.add(CTuple(SCHEMA, {"blk": "a"}, tid=5))
        relation.add(CTuple(SCHEMA, {"blk": "b"}, tid=2))
        sharded = ShardedCleaningSession(config=UniCleanConfig(eta=1.0))
        with pytest.raises(ValueError):
            sharded.clean(relation)

    def test_empty_batch_is_a_contractual_noop(self):
        """``flush()`` on an empty buffer, ``apply_many([])`` and op-less
        changesets return ``None`` with no dispatch, no plan change and
        no stats mutation — a poller on an idle queue costs nothing."""
        ds = generate_partitioned(size=40, n_blocks=2, seed=9)
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), n_shards=2,
        )
        sharded.clean(ds.dirty)
        plan_before = sharded.plan
        stats_before = dict(sharded.stats)
        checkpoint_tick_before = sharded._ops_since_checkpoint
        assert sharded.flush() is None
        assert sharded.apply_many([]) is None
        assert sharded.apply_many([Changeset(), Changeset()]) is None
        assert sharded.apply(Changeset()) is None
        sharded.buffer(Changeset())
        assert sharded.flush() is None  # buffered op-less set: still a no-op
        assert sharded.plan is plan_before
        assert dict(sharded.stats) == stats_before
        assert sharded._ops_since_checkpoint == checkpoint_tick_before
        sharded.close()

    def test_close_is_idempotent(self):
        ds = generate_partitioned(size=40, n_blocks=2, seed=9)
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), n_shards=2,
        )
        sharded.clean(ds.dirty)
        sharded.close()
        sharded.close()  # second close on a dead session: safe no-op
        sharded.close()

    def test_close_before_clean_is_a_noop(self):
        sharded = ShardedCleaningSession(config=UniCleanConfig(eta=1.0))
        sharded.close()
        sharded.close()

    def test_use_after_close_raises_cleanly(self):
        ds = generate_partitioned(size=40, n_blocks=2, seed=9)
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), n_shards=2,
        )
        sharded.clean(ds.dirty)
        sharded.close()
        with pytest.raises(DataError):
            sharded.apply(Changeset().edit(0, "score", "1"))
        with pytest.raises(DataError):
            sharded.is_clean()
        # A fresh clean() restarts the lifecycle.
        result = sharded.clean(ds.dirty)
        assert sharded.is_clean() == result.clean
        sharded.close()


class TestEarlierResultsStayFixed:
    """A scoped apply whose splice removes no fix must not record into
    the log an earlier result handed out, on either session kind."""

    @pytest.mark.parametrize("kind", ["sharded", "unsharded"])
    def test_earlier_fix_logs_are_not_extended(self, kind):
        ds = generate_partitioned(size=200, n_blocks=4, seed=1)
        rows = {t.tid: t.as_dict() for t in ds.dirty}
        if kind == "sharded":
            session = ShardedCleaningSession(
                cfds=ds.cfds, mds=ds.mds, master=ds.master,
                config=UniCleanConfig(), n_workers=1, n_shards=2,
            )
        else:
            session = CleaningSession(
                cfds=ds.cfds, mds=ds.mds, master=ds.master,
                config=UniCleanConfig(),
            )
        session.clean(ds.dirty)
        held = []
        for tid, donor in [(3, 4), (5, 6), (11, 12), (33, 34)]:
            out = session.apply(Changeset().edit(tid, "cat", rows[donor]["cat"]))
            assert not out.full_reclean
            held.append((out.fix_log, fingerprint(out.fix_log)))
        session.close()
        assert len({len(fp) for _log, fp in held}) > 1  # the logs grew
        for log, fp in held:
            assert fingerprint(log) == fp
