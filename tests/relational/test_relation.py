"""Tests for relation instances."""

import pytest

from repro.exceptions import DataError
from repro.relational import CTuple, NULL, Relation, Schema


@pytest.fixture()
def schema() -> Schema:
    return Schema("R", ["A", "B"])


@pytest.fixture()
def rel(schema) -> Relation:
    return Relation.from_dicts(
        schema,
        [{"A": "a1", "B": "b1"}, {"A": "a1", "B": "b2"}, {"A": "a2", "B": "b1"}],
    )


class TestConstruction:
    def test_len(self, rel):
        assert len(rel) == 3

    def test_tids_sequential(self, rel):
        assert rel.tids() == (0, 1, 2)

    def test_from_dicts_with_confidences(self, schema):
        r = Relation.from_dicts(schema, [{"A": 1}], [{"A": 0.7}])
        assert r.by_tid(0).conf("A") == 0.7

    def test_from_dicts_length_mismatch(self, schema):
        with pytest.raises(DataError):
            Relation.from_dicts(schema, [{"A": 1}], [])

    def test_add_assigns_fresh_tid_on_conflict(self, rel, schema):
        t = CTuple(schema, {"A": "x"}, tid=0)
        rel.add(t)
        assert t.tid == 3

    def test_add_wrong_schema(self, rel):
        other = Schema("S", ["A", "B"])
        with pytest.raises(DataError):
            rel.add(CTuple(other, {}))

    def test_add_row(self, rel):
        t = rel.add_row({"A": "new"}, {"A": 1.0})
        assert rel.by_tid(t.tid)["A"] == "new"


class TestAccess:
    def test_by_tid(self, rel):
        assert rel.by_tid(1)["B"] == "b2"

    def test_by_tid_missing(self, rel):
        with pytest.raises(DataError):
            rel.by_tid(99)

    def test_contains_tracks_identity(self, rel):
        t = rel.by_tid(0)
        assert t in rel
        assert t.clone() not in rel


class TestAlgebra:
    def test_select(self, rel):
        out = rel.select(lambda t: t["A"] == "a1")
        assert [t.tid for t in out] == [0, 1]

    def test_project(self, rel):
        assert rel.project(["A"]) == {("a1",), ("a2",)}

    def test_group_by(self, rel):
        groups = rel.group_by(["A"])
        assert {k: len(v) for k, v in groups.items()} == {("a1",): 2, ("a2",): 1}

    def test_active_domain(self, rel):
        assert rel.active_domain("B") == {"b1", "b2"}


class TestCloneDiff:
    def test_clone_preserves_tids(self, rel):
        twin = rel.clone()
        assert twin.tids() == rel.tids()

    def test_clone_independent(self, rel):
        twin = rel.clone()
        twin.by_tid(0)["A"] = "mutated"
        assert rel.by_tid(0)["A"] == "a1"

    def test_diff_empty_for_clone(self, rel):
        assert rel.diff(rel.clone()) == []

    def test_diff_reports_cells(self, rel):
        twin = rel.clone()
        twin.by_tid(2)["B"] = "zz"
        assert rel.diff(twin) == [(2, "B", "b1", "zz")]

    def test_diff_schema_mismatch(self, rel):
        other = Relation(Schema("S", ["A", "B"]))
        with pytest.raises(DataError):
            rel.diff(other)


class TestToText:
    def test_renders_header_and_rows(self, rel):
        text = rel.to_text()
        assert "A" in text and "a2" in text

    def test_limit(self, rel):
        text = rel.to_text(limit=1)
        assert "more rows" in text

    def test_null_rendering(self, schema):
        r = Relation.from_dicts(schema, [{"A": NULL, "B": "x"}])
        assert "NULL" in r.to_text()


class TestTidRetirement:
    """Removed tids are never reused — ISSUE 3 regression (tid aliasing)."""

    def test_explicit_readd_of_removed_tid_gets_fresh_tid(self, rel, schema):
        rel.remove(1)
        ghost = CTuple(schema, {"A": "ghost"}, tid=1)
        rel.add(ghost)
        assert ghost.tid == 3  # not 1: the dead tid must not alias
        assert not rel.has_tid(1)
        assert rel.tid_retired(1)

    def test_gap_tids_are_honoured(self, schema):
        relation = Relation(schema)
        relation.add(CTuple(schema, {"A": "late"}, tid=5))
        early = CTuple(schema, {"A": "early"}, tid=2)
        relation.add(early)
        assert early.tid == 2  # never assigned, never retired: legal
        assert relation._next_tid >= 6  # monotonic: gap adds never lower it

    def test_retirement_survives_clone_and_restrict(self, rel):
        rel.remove(0)
        assert rel.clone().tid_retired(0)
        assert rel.restrict([1]).tid_retired(0)

    def test_retirement_survives_pickle(self, rel):
        import pickle

        rel.remove(2)
        twin = pickle.loads(pickle.dumps(rel))
        assert twin.tid_retired(2)
        assert twin.tids() == rel.tids()
        assert twin._next_tid == rel._next_tid


class TestPickling:
    def test_round_trip_preserves_values_and_confidences(self, rel):
        import pickle

        rel.by_tid(0).set_conf("A", 0.5)
        twin = pickle.loads(pickle.dumps(rel))
        assert twin.tids() == rel.tids()
        assert twin.by_tid(0)["A"] == "a1"
        assert twin.by_tid(0).conf("A") == 0.5

    def test_observers_are_dropped(self, rel):
        import pickle

        rel.add_observer(lambda t, a, o, n: None)
        twin = pickle.loads(pickle.dumps(rel))
        assert twin._observers == []
        assert twin._insert_observers == []
        assert twin._delete_observers == []


class TestSnapshotRoundTrip:
    """Seed-state gap coverage (ISSUE 5): the snapshot codec must carry
    the full tid bookkeeping — retired tids included — and deliver a
    relation whose observer machinery is live again, not just a bag of
    tuples.  (The pickling tests above only established that observers
    are *dropped*.)"""

    @staticmethod
    def roundtrip(relation):
        from repro.pipeline import payload

        table = payload.ValueTable()
        blob = payload.encode_relation(relation, table)
        return payload.decode_relation(blob, table.values)

    def test_retired_tids_survive_and_stay_dead(self, rel, schema):
        rel.remove(1)
        twin = self.roundtrip(rel)
        assert twin.tid_retired(1)
        assert twin._retired == rel._retired
        assert twin._next_tid == rel._next_tid
        # The retirement contract holds post-restore: re-adding the dead
        # tid explicitly cannot alias it — a fresh tid is assigned.
        zombie = twin.add(CTuple(schema, {"A": "zz"}, tid=1))
        assert zombie.tid != 1
        assert zombie.tid >= rel._next_tid

    def test_restored_observers_start_clean_and_reattach(self, rel):
        rel.add_observer(lambda t, a, o, n: None)
        rel.add_insert_observer(lambda t: None)
        rel.add_delete_observer(lambda t: None)
        twin = self.roundtrip(rel)
        assert twin._observers == []
        assert twin._insert_observers == []
        assert twin._delete_observers == []

        events = []
        twin.add_observer(lambda t, a, o, n: events.append(("set", t.tid, a, o, n)))
        twin.add_insert_observer(lambda t: events.append(("ins", t.tid)))
        twin.add_delete_observer(lambda t: events.append(("del", t.tid)))
        twin.set_value(twin.by_tid(0), "A", "a9")
        inserted = twin.add_row({"A": "a3", "B": "b3"})
        twin.remove(inserted.tid)
        assert events == [
            ("set", 0, "A", "a1", "a9"),
            ("ins", inserted.tid),
            ("del", inserted.tid),
        ]

    def test_values_confidences_and_order_survive(self, rel):
        rel.by_tid(0).set_conf("A", 0.25)
        rel.by_tid(2).set_conf("B", None)
        twin = self.roundtrip(rel)
        assert twin.tids() == rel.tids()  # insertion order preserved
        for t in rel:
            mate = twin.by_tid(t.tid)
            for attr in rel.schema.names:
                assert mate[attr] == t[attr]
                assert mate.conf(attr) == t.conf(attr)


class TestSharedViewRemoval:
    """Satellite (b) regression: removing from a zero-copy
    ``restrict(copy=False)`` view must not tombstone rows in the parent's
    shared columns."""

    def _columnar(self, schema):
        from repro.relational.columns import using_backend

        with using_backend(True):
            return Relation.from_dicts(
                schema,
                [
                    {"A": "a1", "B": "b1"},
                    {"A": "a1", "B": "b2"},
                    {"A": "a2", "B": "b1"},
                ],
            )

    def test_view_remove_leaves_parent_columns_alive(self, schema):
        parent = self._columnar(schema)
        store = parent.column_store
        view = parent.restrict(list(parent.tids()), copy=False)
        assert store.shared and view.column_store is store

        removed = view.remove(0)
        # The view forgot the tuple; the parent (and its columns) did not.
        assert not view.has_tid(0) and view.tid_retired(0)
        assert parent.has_tid(0)
        assert store.n_dead == 0 and not store.dead.get(0)
        assert store.row_tids[0] == 0  # no -1-tid tombstone
        assert parent.by_tid(0)["A"] == "a1"
        assert removed["A"] == "a1"  # popped handle still readable

    def test_parent_remove_also_spares_shared_columns(self, schema):
        parent = self._columnar(schema)
        store = parent.column_store
        view = parent.restrict([1], copy=False)
        parent.remove(2)  # view doesn't hold 2, but the columns are shared
        assert store.n_dead == 0
        assert view.by_tid(1)["B"] == "b2"

    def test_copy_view_remove_still_tombstones_its_own_store(self, schema):
        parent = self._columnar(schema)
        view = parent.restrict(list(parent.tids()), copy=True)
        view.remove(0)
        assert view.column_store is not parent.column_store
        assert view.column_store.n_dead == 1
        assert parent.column_store.n_dead == 0


class TestValueDomainRule:
    """A cell holds a hashable atom: every entry point refuses anything
    else with a :class:`DataError` naming the tuple and the attribute,
    and leaves the relation as it was."""

    UNHASHABLE = ["un", "hashable"]

    @pytest.fixture(params=[True, False], ids=["columnar", "dict"])
    def relation(self, request, schema):
        from repro.relational.columns import using_backend

        with using_backend(request.param):
            relation = Relation.from_dicts(schema, [{"A": "a1", "B": "b1"}])
            assert (relation.column_store is not None) == request.param
            yield relation

    def test_add_row(self, relation):
        with pytest.raises(DataError, match=r"tuple #1: attribute 'B'"):
            relation.add_row({"A": "a2", "B": self.UNHASHABLE})
        assert relation.tids() == (0,)

    def test_add(self, relation, schema):
        with pytest.raises(DataError, match=r"attribute 'A'"):
            relation.add(CTuple(schema, {"A": {"x": 1}, "B": "b"}))
        assert relation.tids() == (0,)

    def test_set_value(self, relation):
        seen = []
        relation.add_observer(lambda *event: seen.append(event))
        t = relation.by_tid(0)
        with pytest.raises(DataError, match=r"tuple #0: attribute 'B'"):
            relation.set_value(t, "B", self.UNHASHABLE)
        assert t["B"] == "b1" and seen == []

    def test_changeset_is_all_or_nothing(self, relation):
        from repro.pipeline import Changeset

        edit = Changeset().edit(0, "A", "a9").edit(0, "B", self.UNHASHABLE)
        with pytest.raises(DataError, match=r"tuple #0: attribute 'B'"):
            edit.apply_to(relation)
        insert = Changeset().insert({"A": self.UNHASHABLE})
        with pytest.raises(DataError, match=r"inserted tuple: attribute 'A'"):
            insert.apply_to(relation)
        assert relation.tids() == (0,)
        assert relation.by_tid(0)["A"] == "a1"

    def test_payload_decode(self, relation):
        from repro.pipeline import payload

        table = payload.ValueTable()
        blob = payload.encode_relation(relation, table)
        values = list(table.values)
        values[blob["cols"][1][0]] = self.UNHASHABLE  # B of tuple #0
        with pytest.raises(DataError, match=r"tuple #0: attribute 'B'"):
            payload.decode_relation(blob, values)
