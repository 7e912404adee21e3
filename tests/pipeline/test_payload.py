"""Unit tests for the columnar coordinator↔worker payload codecs.

Three concerns:

* **Exactness** — every codec round-trips to equal Python values
  (types included: ``0`` vs ``0.0`` vs ``False``, ``NULL``, ``None``
  confidences, KEEP sentinels).
* **Size** — the columnar form of representative PART-testbed payloads
  is at most 50% of the PR 3 pickled form (the ISSUE 4 structural
  assertion; byte counts only, never wall-clock).
* **Serial zero-copy** — the ``n_workers=1`` executor never serializes:
  a full clean/apply/re-plan cycle completes with ``pickle.dumps``
  monkeypatched to raise.
"""

import pickle

import pytest

from repro.core import UniCleanConfig
from repro.core.fixes import Fix, FixKind
from repro.core.trace import RoundTrace, WorklistTrace
from repro.datasets import generate_partitioned, replan_batch
from repro.pipeline import Changeset, CleaningSession, ShardedCleaningSession
from repro.pipeline import payload
from repro.pipeline.changeset import KEEP
from repro.pipeline.sharding import (
    _encode_request,
    _encode_response,
    _decode_request,
    _decode_response,
    _shard_content_id,
    _WorkerState,
    ShardPlanner,
)
from repro.relational import NULL, Relation, Schema
from repro.relational.columns import using_backend

SCHEMA = Schema("R", ["a", "b", "c"])


def normalized_rules(ds):
    cfds = [c for cfd in ds.cfds for c in cfd.normalize()]
    mds = [m for md in ds.mds for m in md.normalize()]
    return cfds, mds


class TestScalarTable:
    def test_type_guard_keeps_numeric_twins_apart(self):
        table = payload.ValueTable()
        refs = [table.ref(v) for v in (0, 0.0, False, 1, 1.0, True, 0)]
        decoded = [table.values[r] for r in refs]
        assert decoded == [0, 0.0, False, 1, 1.0, True, 0]
        assert [type(v) for v in decoded] == [
            int, float, bool, int, float, bool, int,
        ]
        assert refs[0] == refs[-1]  # dedup on equal (type, value)

    def test_pack_ints_picks_narrowest_width(self):
        assert payload.pack_ints([0, 255]).typecode == "B"
        assert payload.pack_ints([0, 256]).typecode == "H"
        assert payload.pack_ints([0, 1 << 20]).typecode == "I"
        assert payload.pack_ints([0, 1 << 40]).typecode == "Q"
        assert payload.pack_ints([-1, 5]).typecode == "i"
        assert payload.pack_ints([-(1 << 40)]).typecode == "q"
        assert list(payload.pack_ints([3, 1, 2])) == [3, 1, 2]


class TestRoundTrips:
    def relation(self):
        rel = Relation(SCHEMA)
        rel.add_row({"a": "x", "b": NULL, "c": 0}, {"a": 1.0, "b": None})
        rel.add_row({"a": "x", "b": "y", "c": 0.0}, {"c": 0.5})
        rel.add_row({"a": "z"})
        rel.remove(1)
        return rel

    def test_relation_roundtrip(self):
        rel = self.relation()
        table = payload.ValueTable()
        blob = payload.encode_relation(rel, table)
        out = payload.decode_relation(blob, table.values)
        assert out.schema.names == rel.schema.names
        assert out.tids() == rel.tids()
        assert out._next_tid == rel._next_tid
        assert out._retired == rel._retired
        for t in rel:
            twin = out.by_tid(t.tid)
            for attr in rel.schema.names:
                assert twin[attr] == t[attr]
                assert type(twin[attr]) is type(t[attr])
                assert twin.conf(attr) == t.conf(attr)
        assert out.by_tid(0)["b"] is NULL

    @pytest.mark.parametrize("columnar", [True, False])
    def test_negative_zero_roundtrip(self, columnar):
        with using_backend(columnar):
            rel = Relation(SCHEMA)
            rel.add_row({"a": 0.0, "b": -0.0, "c": -0.0})
            rel.add_row({"a": -0.0, "b": 0.0, "c": 0})
            table = payload.ValueTable()
            blob = payload.encode_relation(rel, table)
            out = payload.decode_relation(blob, table.values)
        cells = [[repr(t[a]) for a in SCHEMA.names] for t in out]
        assert cells == [["0.0", "-0.0", "-0.0"], ["-0.0", "0.0", "0"]]

    def test_fixes_roundtrip(self):
        fixes = [
            Fix(FixKind.DETERMINISTIC, "r1", 3, "a", "old", "new", None, 1.0, "m7"),
            Fix(FixKind.POSSIBLE, "r2", 9, "b", NULL, 0, 0.5, None, 4),
        ]
        table = payload.ValueTable()
        blob = payload.encode_fixes(fixes, table)
        assert payload.decode_fixes(blob, table.values) == fixes

    def test_costs_cells_rows_roundtrip(self):
        table = payload.ValueTable()
        costs = {(1, "a"): 0.5, (7, "b"): 2.0}
        assert payload.decode_costs(
            payload.encode_costs(costs, table), table.values
        ) == costs
        cells = [(1, "a"), (2, "c")]
        assert payload.decode_cells(
            payload.encode_cells(cells, table), table.values
        ) == cells
        rows = {4: (["x", NULL, 0], [1.0, None, 0.5])}
        assert payload.decode_rows(
            payload.encode_rows(rows, table), table.values
        ) == rows
        assert payload.decode_rows(
            payload.encode_rows({}, table), table.values
        ) == {}

    def test_ever_keys_roundtrip(self):
        table = payload.ValueTable()
        ever = {
            ("cfd", "R", ("a", "b"), (), "c"): {("x", "y"), ("x", NULL)},
            ("cfd", "R", ("a",), (), "b"): set(),
        }
        blob = payload.encode_ever_keys(ever, table)
        assert payload.decode_ever_keys(blob, table.values) == ever

    def test_traces_roundtrip(self):
        table = payload.ValueTable()
        worklist = WorklistTrace(
            root_ranks=[(0, 7, 20, 0), (1, 3, 0, 0)],
            pops=[(2, 1), (0, 0), (0, 1)],
        )
        out = payload.decode_trace(
            payload.encode_trace(worklist, table), table.values
        )
        assert out.root_ranks == worklist.root_ranks
        assert out.pops == worklist.pops
        # Irregular ranks (floats/strings) take the node path.
        mixed = WorklistTrace(root_ranks=[(0, "x"), (1.5, "y", 2)], pops=[(0, 0), (0, 0)])
        out = payload.decode_trace(
            payload.encode_trace(mixed, table), table.values
        )
        assert out.root_ranks == mixed.root_ranks
        rounds = RoundTrace(
            tokens=[(1, 0, (1419,)), (1, 3, (0.25, (("str", "'B1'"),)))]
        )
        out = payload.decode_trace(
            payload.encode_trace(rounds, table), table.values
        )
        assert out.tokens == rounds.tokens
        assert payload.decode_trace(
            payload.encode_trace(None, table), table.values
        ) is None

    def test_ops_roundtrip(self):
        ops = (
            Changeset()
            .edit(3, "a", "v")
            .edit(4, "b", NULL, conf=0.5)
            .edit(5, "c", conf=None)
            .insert({"a": "x", "b": 0}, {"a": 1.0, "b": None})
            .insert({"c": "y"})
            .delete(9)
        ).ops
        table = payload.ValueTable()
        out = payload.decode_ops(payload.encode_ops(ops, table), table.values)
        assert out == list(ops)
        assert out[2].value is KEEP
        assert out[0].conf is KEEP


class TestWireFraming:
    @pytest.fixture(scope="class")
    def outcome(self):
        ds = generate_partitioned(size=800, n_blocks=8, seed=11)
        cfds, mds = normalized_rules(ds)
        plan = ShardPlanner(cfds, mds).plan(ds.dirty, 4)
        state = _WorkerState(cfds, mds, ds.master, UniCleanConfig(eta=1.0))
        shard = plan.shards[0]
        sid = _shard_content_id(shard)
        outcome = state.clean_shard(sid, ds.dirty.restrict(shard))
        return ds, state, shard, sid, outcome

    def test_request_roundtrip_and_size(self, outcome):
        ds, state, shard, sid, _outcome = outcome
        relation = ds.dirty.restrict(shard)
        blob = _encode_request(sid, "clean_shard", (relation,))
        rid, method, args = _decode_request(blob, state)
        assert (rid, method) == (sid, "clean_shard")
        decoded = args[0]
        assert decoded.tids() == relation.tids()
        for t in relation:
            twin = decoded.by_tid(t.tid)
            for attr in relation.schema.names:
                assert twin[attr] == t[attr] and twin.conf(attr) == t.conf(attr)
        legacy = len(pickle.dumps((sid, "clean_shard", (relation,)),
                                  pickle.HIGHEST_PROTOCOL))
        # The ISSUE 4 structural bound: columnar ≤ 50% of the PR 3 pickle.
        assert len(blob) <= 0.5 * legacy

    def test_response_roundtrip_and_size(self, outcome):
        _ds, _state, _shard, _sid, clean_outcome = outcome
        blob = _encode_response(clean_outcome, track_legacy_bytes=True)
        decoded, legacy = _decode_response(blob)
        assert legacy == len(pickle.dumps(clean_outcome, pickle.HIGHEST_PROTOCOL))
        assert len(blob) <= 0.5 * legacy
        assert decoded.shard_id == clean_outcome.shard_id
        assert decoded.clean == clean_outcome.clean
        assert decoded.costs == clean_outcome.costs
        assert decoded.ever_keys == clean_outcome.ever_keys
        assert decoded.segments == clean_outcome.segments
        for phase, trace in clean_outcome.traces.items():
            twin = decoded.traces[phase]
            if trace is None:
                assert twin is None
            elif isinstance(trace, WorklistTrace):
                assert twin.root_ranks == trace.root_ranks
                assert twin.pops == trace.pops
            else:
                assert twin.tokens == trace.tokens
        assert {t.tid: t.as_dict() for t in decoded.repaired} == {
            t.tid: t.as_dict() for t in clean_outcome.repaired
        }


class TestSerialZeroCopy:
    def test_serial_executor_never_pickles(self, monkeypatch):
        """The n_workers=1 path must stay zero-copy in-process: no
        ``pickle.dumps`` call for clean, scoped apply, or re-plan."""
        ds = generate_partitioned(size=160, n_blocks=8, seed=5)
        session = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), n_workers=1, n_shards=4,
        )

        def boom(*_args, **_kwargs):
            raise AssertionError("serial executor must not pickle")

        monkeypatch.setattr(pickle, "dumps", boom)
        monkeypatch.setattr(pickle, "dump", boom)
        monkeypatch.setattr(pickle, "Pickler", boom)
        session.clean(ds.dirty)
        tids = list(session.base.tids())
        out = session.apply(Changeset().edit(tids[0], "score", "55"))
        assert not out.full_reclean
        donor = session.base.by_tid(tids[10])
        out = session.apply(Changeset().insert(donor.as_dict()))
        assert out.full_reclean  # the re-plan path, still unpickled
        assert session.is_clean() in (True, False)
        assert session.stats["bytes_to_workers"] == 0
        assert session.stats["bytes_from_workers"] == 0

    def test_serial_restriction_is_zero_copy(self):
        """The serial clean path hands workers a no-clone restriction
        (the worker session clones for itself)."""
        rel = Relation.from_dicts(SCHEMA, [{"a": str(i)} for i in range(4)])
        view = rel.restrict([0, 2], copy=False)
        assert view.by_tid(0) is rel.by_tid(0)
        clone = rel.restrict([0, 2])
        assert clone.by_tid(0) is not rel.by_tid(0)


class TestProcessEquivalence:
    def test_reference_matches_process_pool_with_byte_tracking(self):
        ds = generate_partitioned(size=320, n_blocks=8, seed=7)
        config = UniCleanConfig(eta=1.0)
        reference = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config
        )
        sharded = ShardedCleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master, config=config,
            n_workers=2, n_shards=4, track_legacy_bytes=True,
        )
        with sharded:
            r1 = reference.clean(ds.dirty)
            r2 = sharded.clean(ds.dirty)
            assert r1.clean == r2.clean

            import random

            rng = random.Random(3)
            batch = replan_batch(reference.base, rng, inserts=1, edits=2)
            o1 = reference.apply_many(
                [Changeset(list(cs.ops)) for cs in batch]
            )
            o2 = sharded.apply_many([Changeset(list(cs.ops)) for cs in batch])
            state = lambda rel: {
                t.tid: tuple((repr(t[a]), t.conf(a)) for a in rel.schema.names)
                for t in rel
            }
            assert state(o1.repaired) == state(o2.repaired)
            stats = sharded.stats
            assert stats["bytes_to_workers"] > 0
            assert stats["bytes_from_workers"] > 0
            # The live coordinator traffic must also meet the 2× bound.
            columnar = stats["bytes_to_workers"] + stats["bytes_from_workers"]
            legacy = (
                stats["legacy_bytes_to_workers"]
                + stats["legacy_bytes_from_workers"]
            )
            assert columnar <= 0.5 * legacy
