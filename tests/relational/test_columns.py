"""Unit tests for the columnar resident backing store.

Covers the interning table (canon semantics), the typed-column and
bitmap primitives, the per-relation :class:`ColumnStore` bookkeeping
(append / tombstone / adopt), the :class:`ColumnTuple` row-view API
against the dict-backed :class:`CTuple` reference, its compiled row
readers, and the bulk ref-level accessors on :class:`Relation`.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, SchemaError
from repro.relational import CTuple, NULL, Relation, Schema
from repro.relational.columns import (
    Bitmap,
    ColumnStore,
    ColumnTuple,
    GLOBAL_TABLE,
    IntColumn,
    ValueTable,
    materializations,
    using_backend,
)
from repro.pipeline import payload


@pytest.fixture()
def schema() -> Schema:
    return Schema("R", ["A", "B", "C"])


@pytest.fixture()
def rel(schema) -> Relation:
    # Force the columnar backend so the suite tests it even when the
    # ambient REPRO_COLUMNAR flag selects the dict backend.
    with using_backend(True):
        return Relation.from_dicts(
            schema,
            [
                {"A": "a1", "B": "b1", "C": 1},
                {"A": "a1", "B": "b2", "C": 2},
                {"A": "a2", "B": "b1", "C": 1},
            ],
            [{"A": 0.9}, {}, {"C": 0.5}],
        )


class TestValueTable:
    def test_dedup_by_type_and_value(self):
        table = ValueTable()
        assert table.ref("x") == table.ref("x")
        assert table.ref(0) != table.ref(0.0)
        assert table.ref(0) != table.ref(False)

    def test_canon_unifies_equal_values_across_types(self):
        table = ValueTable()
        r_int, r_float, r_bool = table.ref(0), table.ref(0.0), table.ref(False)
        # 0 == 0.0 == False in Python, so all three share one canon ref.
        assert table.canon[r_int] == table.canon[r_float] == table.canon[r_bool]
        assert table.canon[r_int] != table.canon[table.ref(1)]

    def test_null_interned_first(self):
        table = ValueTable()
        assert table.values[table.null_ref] is NULL
        assert table.canon[table.null_ref] == table.null_canon

    def test_canon_ref_is_value_equality(self):
        table = ValueTable()
        assert table.canon_ref("x") == table.canon_ref("x")
        assert table.canon_ref("x") != table.canon_ref("y")
        assert table.canon_ref(2) == table.canon_ref(2.0)

    def test_find_canon_never_interns(self):
        table = ValueTable()
        size = len(table)
        assert table.find_canon("missing") is None
        assert len(table) == size
        ref = table.ref("present")
        assert table.find_canon("present") == table.canon[ref]
        assert len(table) == size + 1

    def test_find_canon_unhashable_raises(self):
        table = ValueTable()
        with pytest.raises(TypeError):
            table.find_canon(["un", "hashable"])

    @pytest.mark.parametrize("table_type", [ValueTable, payload.ValueTable])
    def test_unhashable_values_are_refused(self, table_type):
        # A cell holds a hashable atom: interning raises before the
        # table changes (relations turn it into a DataError).
        table = table_type()
        size = len(table.values)
        with pytest.raises(TypeError):
            table.ref(["x"])
        assert len(table.values) == size

    @pytest.mark.parametrize("table_type", [ValueTable, payload.ValueTable])
    def test_negative_zero_keeps_its_own_ref(self, table_type):
        # -0.0 equals and hashes like 0.0; a (type, value) key alone
        # would hand back whichever zero was interned first.
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            table = table_type()
            refs = [table.ref(first), table.ref(second), table.ref(first)]
            assert refs[0] != refs[1] and refs[0] == refs[2]
            assert [repr(table.values[r]) for r in refs] == [
                repr(first), repr(second), repr(first),
            ]

    def test_negative_zero_shares_the_zero_canon_class(self):
        table = ValueTable()
        neg, pos, r_int = table.ref(-0.0), table.ref(0.0), table.ref(0)
        assert table.canon[neg] == table.canon[pos] == table.canon[r_int]
        assert table.find_canon(0.0) == table.canon[neg]

    def test_same_nan_object_is_one_ref_and_one_class(self):
        table = ValueTable()
        nan, other = float("nan"), float("nan")
        assert table.ref(nan) == table.ref(nan)
        assert table.canon[table.ref(nan)] != table.canon[table.ref(other)]

    def test_intern_tuple_returns_table_residents(self):
        table = ValueTable()
        first = table.intern_tuple(("k", 1))
        second = table.intern_tuple(("k", 1))
        assert first == ("k", 1)
        assert first[0] is second[0] and first[1] is second[1]


class TestIntColumn:
    def test_starts_narrow(self):
        col = IntColumn()
        assert col.typecode == "B"

    def test_widens_through_all_tiers(self):
        col = IntColumn()
        col.append(200)
        assert col.typecode == "B"
        col.append(1 << 8)
        assert col.typecode == "H"
        col.append(1 << 16)
        assert col.typecode == "I"
        col.append(1 << 32)
        assert col.typecode == "Q"
        assert list(col) == [200, 1 << 8, 1 << 16, 1 << 32]

    def test_setitem_widens_preserving_data(self):
        col = IntColumn()
        col.append(1)
        col.append(2)
        col[0] = 70000
        assert col.typecode == "I"
        assert list(col) == [70000, 2]

    def test_copy_is_independent(self):
        col = IntColumn()
        col.append(5)
        twin = col.copy()
        twin.append(6)
        assert list(col) == [5] and list(twin) == [5, 6]

    def test_nbytes_tracks_width(self):
        col = IntColumn()
        for i in range(4):
            col.append(i)
        assert col.nbytes() == 4  # 4 entries × 1 byte
        col.append(1 << 16)
        assert col.nbytes() == 5 * 4  # widened to "I"


class TestBitmap:
    def test_append_get_set(self):
        bm = Bitmap()
        for i in range(12):
            bm.append(i % 3 == 0)
        assert len(bm) == 12
        assert [bm.get(i) for i in range(12)] == [i % 3 == 0 for i in range(12)]
        bm.set(1, True)
        bm.set(0, False)
        assert bm.get(1) and not bm.get(0)

    def test_count(self):
        bm = Bitmap()
        for flag in (True, False, True, True, False):
            bm.append(flag)
        assert bm.count() == 3

    def test_copy_is_independent(self):
        bm = Bitmap()
        bm.append(True)
        twin = bm.copy()
        twin.set(0, False)
        assert bm.get(0) and not twin.get(0)


class TestColumnStore:
    def test_append_values_and_cell_access(self, schema):
        store = ColumnStore(schema)
        row = store.append_values(0, ["x", NULL, 3], [0.5, None, None])
        assert row == 0
        assert store.value_at(0, 0) == "x"
        assert store.value_at(0, 1) is NULL
        assert store.conf_at(0, 0) == 0.5
        assert store.nulls[1].get(0) and not store.nulls[0].get(0)

    def test_set_value_at_updates_null_bitmap(self, schema):
        store = ColumnStore(schema)
        store.append_values(0, ["x", "y", "z"], [None] * 3)
        store.set_value_at(0, 0, NULL)
        assert store.nulls[0].get(0)
        store.set_value_at(0, 0, "w")
        assert not store.nulls[0].get(0)

    def test_kill_tombstones_but_keeps_values(self, schema):
        store = ColumnStore(schema)
        store.append_values(7, ["x", "y", "z"], [None] * 3)
        store.kill(7)
        assert store.row_tids[0] == -8  # -1 - tid
        assert store.dead.get(0)
        assert store.n_dead == 1 and store.live_rows() == 0
        assert store.row_of[7] == 0  # tid→row survives
        assert store.value_at(0, 0) == "x"  # values stay readable
        store.kill(7)  # idempotent
        assert store.n_dead == 1

    def test_adopt_row_shares_refs_on_shared_table(self, schema):
        source = ColumnStore(schema)
        source.append_values(0, ["x", "y", "z"], [0.1, None, None])
        twin = ColumnStore(schema, source.table)
        twin.adopt_row(0, source, 0)
        assert twin.values[0].data[0] == source.values[0].data[0]
        assert twin.conf_at(0, 0) == 0.1

    def test_adopt_row_reinterns_across_tables(self, schema):
        source = ColumnStore(schema, ValueTable())
        source.append_values(0, ["x", "y", "z"], [None] * 3)
        target = ColumnStore(schema, ValueTable())
        target.adopt_row(0, source, 0)
        assert [target.value_at(0, i) for i in range(3)] == ["x", "y", "z"]

    def test_nbytes_counts_columns_and_bitmaps(self, schema):
        store = ColumnStore(schema)
        assert store.nbytes() == 0
        store.append_values(0, ["x", "y", "z"], [None] * 3)
        assert store.nbytes() > 0


class TestColumnTuple:
    """The row-view honours the full CTuple contract."""

    def test_resident_tuples_are_row_views(self, rel):
        t = rel.by_tid(0)
        assert isinstance(t, ColumnTuple)

    def test_direct_construction_rejected(self, schema):
        with pytest.raises(TypeError):
            ColumnTuple(schema, {"A": "x"})

    def test_value_access_matches_ctuple(self, schema, rel):
        reference = CTuple(schema, {"A": "a1", "B": "b1", "C": 1}, {"A": 0.9})
        t = rel.by_tid(0)
        for attr in schema.names:
            assert t[attr] == reference[attr]
            assert t.conf(attr) == reference.conf(attr)
            assert t.get(attr) == reference.get(attr)
        assert t.get("missing", 42) == 42
        assert list(t) == list(reference)
        assert t.as_dict() == reference.as_dict()
        assert t.conf_dict() == reference.conf_dict()
        assert len(t) == 3

    def test_unknown_attribute_errors(self, rel):
        t = rel.by_tid(0)
        with pytest.raises(SchemaError):
            t["missing"]
        with pytest.raises(SchemaError):
            t["missing"] = 1
        with pytest.raises(SchemaError):
            t.conf("missing")
        with pytest.raises(SchemaError):
            t.set_conf("missing", 0.5)
        with pytest.raises(SchemaError):
            t.project(["A", "missing"])

    def test_mutation_through_view(self, rel):
        t = rel.by_tid(1)
        t["A"] = "patched"
        t.set_conf("A", 0.25)
        assert rel.by_tid(1)["A"] == "patched"
        assert rel.by_tid(1).conf("A") == 0.25
        with pytest.raises(DataError):
            t.set_conf("A", 1.5)

    def test_set_null_tracks_bitmap(self, rel):
        t = rel.by_tid(0)
        assert not t.has_null(["A"])
        t["A"] = NULL
        assert t.has_null(["A"])
        assert t.has_null(["A", "B"]) and not t.has_null(["B", "C"])

    def test_projections(self, rel):
        t = rel.by_tid(0)
        assert t.project(["B", "A"]) == ("b1", "a1")
        assert t.project_conf(["A", "B"]) == (0.9, None)

    def test_has_conf_at_least(self, rel):
        t = rel.by_tid(0)
        assert t.has_conf_at_least("A", 0.9)
        assert not t.has_conf_at_least("A", 0.95)
        assert not t.has_conf_at_least("B", 0.0)  # None = unavailable

    def test_equality_same_store_and_cross_backend(self, schema, rel):
        with using_backend(True):
            twin = Relation.from_dicts(schema, [{"A": "a1", "B": "b1", "C": 1}])
        assert rel.by_tid(0) == twin.by_tid(0)  # canon fast path
        assert rel.by_tid(0) != rel.by_tid(1)
        plain = CTuple(schema, {"A": "a1", "B": "b1", "C": 1})
        assert rel.by_tid(0) == plain and plain == rel.by_tid(0)
        assert hash(rel.by_tid(0)) == hash(plain)

    def test_equality_mixed_int_float(self, schema):
        with using_backend(True):
            a = Relation.from_dicts(schema, [{"A": "x", "B": "y", "C": 1}])
            b = Relation.from_dicts(schema, [{"A": "x", "B": "y", "C": 1.0}])
        assert a.by_tid(0) == b.by_tid(0)  # 1 == 1.0 through canon refs

    def test_clone_detaches(self, rel):
        t = rel.by_tid(0)
        clone = t.clone()
        assert type(clone) is CTuple and clone == t
        clone["A"] = "detached"
        assert rel.by_tid(0)["A"] == "a1"

    def test_pickle_detaches(self, rel):
        t = rel.by_tid(0)
        back = pickle.loads(pickle.dumps(t))
        assert type(back) is CTuple
        assert back == t and back.tid == t.tid
        assert back.conf("A") == 0.9

    def test_values_conf_properties_count_materializations(self, rel):
        t = rel.by_tid(0)
        before = materializations()
        values = t._values
        confs = t._conf
        assert materializations() == before + 2
        assert values == {"A": "a1", "B": "b1", "C": 1}
        assert confs == {"A": 0.9, "B": None, "C": None}

    def test_diff_and_values_equal_inherited(self, rel):
        a, b = rel.by_tid(0), rel.by_tid(1)
        assert a.diff(b) == ("B", "C")
        assert a.values_equal(b, ["A"]) and not a.values_equal(b)


class TestRelationColumnarBackend:
    def test_backend_toggle(self, schema):
        with using_backend(False):
            assert Relation(schema).column_store is None
        with using_backend(True):
            assert Relation(schema).column_store is not None
        assert Relation(schema, columnar=False).column_store is None

    def test_value_table_is_process_wide(self, rel):
        assert rel.value_table is GLOBAL_TABLE

    def test_add_adopts_foreign_ctuple(self, schema, rel):
        t = CTuple(schema, {"A": "new"}, {"A": 1.0})
        resident = rel.add(t)
        assert isinstance(resident, ColumnTuple)
        assert resident.tid == t.tid
        assert rel.by_tid(resident.tid)["A"] == "new"
        assert rel.by_tid(resident.tid).conf("A") == 1.0

    def test_remove_keeps_values_readable(self, rel):
        removed = rel.remove(1)
        assert removed["B"] == "b2"  # delete-observer contract
        assert rel.tid_retired(1) and not rel.has_tid(1)
        with pytest.raises(DataError):
            rel.by_tid(1)

    def test_retired_tids_stay_dead_after_reinsert(self, rel):
        rel.remove(0)
        t = rel.add_row({"A": "fresh"})
        assert t.tid == 3  # never reuses tid 0
        assert rel.tid_retired(0)
        store = rel.column_store
        assert store.dead.get(store.row_of[0])
        assert not rel.has_tid(0)

    def test_pickle_roundtrip_preserves_state(self, rel):
        rel.remove(1)
        rel.add_row({"A": "late", "C": 9}, {"C": 0.3})
        # Unpickling rebuilds under the ambient backend (refs are
        # process-local); pin it so the roundtrip lands columnar.
        with using_backend(True):
            back = pickle.loads(pickle.dumps(rel))
        assert back.column_store is not None
        assert back.tids() == rel.tids()
        assert back._next_tid == rel._next_tid
        assert back.tid_retired(1)
        for tid in rel.tids():
            mine, theirs = rel.by_tid(tid), back.by_tid(tid)
            assert mine == theirs
            for attr in rel.schema.names:
                assert mine.conf(attr) == theirs.conf(attr)

    def test_clone_compacts_tombstones(self, rel):
        rel.remove(1)
        twin = rel.clone()
        store = twin.column_store
        assert store.n_dead == 0
        assert len(store.row_tids) == len(rel)
        assert twin.tids() == rel.tids()
        # clones are independent
        twin.by_tid(0)["A"] = "mutated"
        assert rel.by_tid(0)["A"] == "a1"

    def test_restrict_copy_false_shares_columns(self, rel):
        view = rel.restrict([0, 2], copy=False)
        assert view.column_store is rel.column_store
        assert view.by_tid(0) is rel.by_tid(0)
        view.by_tid(0)["A"] = "shared-write"
        assert rel.by_tid(0)["A"] == "shared-write"

    def test_restrict_copy_true_is_independent(self, rel):
        shard = rel.restrict([0, 2])
        assert shard.column_store is not rel.column_store
        assert shard.column_store.table is rel.column_store.table
        shard.by_tid(0)["A"] = "shard-write"
        assert rel.by_tid(0)["A"] == "a1"


class TestBulkAccessors:
    def test_column_aligned_with_tids(self, rel):
        refs = rel.column("A")
        table = rel.value_table
        assert [table.values[r] for r in refs] == [t["A"] for t in rel]

    def test_column_survives_tombstones(self, rel):
        rel.remove(1)
        refs = rel.column("A")
        assert len(refs) == 2
        table = rel.value_table
        assert [table.values[r] for r in refs] == ["a1", "a2"]

    def test_bulk_accessors_require_columns(self, schema):
        with using_backend(True):
            columnar = Relation.from_dicts(schema, [{"A": "x"}])
        flat_dict = Relation(schema, columnar=False)
        flat_dict.add_row({"A": "x"})
        with pytest.raises(DataError):
            flat_dict.column("A")
        assert columnar.column("A")

    def test_algebra_matches_dict_backend(self, schema):
        rows = [
            {"A": "a1", "B": "b1", "C": 1},
            {"A": "a1", "B": NULL, "C": 1.0},
            {"A": "a2", "B": "b1", "C": 2},
            {"A": "a1", "B": "b1", "C": 1},
        ]
        with using_backend(True):
            columnar = Relation.from_dicts(schema, rows)
        with using_backend(False):
            flat = Relation.from_dicts(schema, rows)
        for attrs in (["A"], ["A", "B"], ["C"], ["A", "B", "C"]):
            assert columnar.project(attrs) == flat.project(attrs)
            col_groups = {
                k: [t.tid for t in v]
                for k, v in columnar.group_by(attrs).items()
            }
            flat_groups = {
                k: [t.tid for t in v] for k, v in flat.group_by(attrs).items()
            }
            assert col_groups == flat_groups
            assert list(col_groups) == list(flat_groups)
        for attr in schema.names:
            assert columnar.active_domain(attr) == flat.active_domain(attr)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_negative_zero_reads_back_on_both_backends(self, columnar):
        schema = Schema("Z", ["a"])
        with using_backend(columnar):
            rel = Relation.from_dicts(schema, [{"a": 0.0}, {"a": -0.0}])
        assert [repr(t["a"]) for t in rel] == ["0.0", "-0.0"]
        # -0.0 == 0.0, so rewriting one zero as the other is no change.
        assert not rel.set_value(rel.by_tid(0), "a", -0.0)


READER_NAMES = ["A", "B", "C", "D"]
NAN = float("nan")
reader_cells = st.sampled_from(["x", "y", "ünï", 0, 0.0, -0.0, False, 7, NAN, NULL])


def _private_relation(rows):
    """A columnar relation over a private value table: its refs stay
    below 256, so every column starts one byte wide."""
    with using_backend(True):
        relation = Relation(Schema("W", READER_NAMES))
    relation._columns = ColumnStore(relation.schema, ValueTable())
    for row in rows:
        relation.add_row(dict(zip(READER_NAMES, row)))
    return relation


def _decode(t, attrs):
    """The per-attribute decode the compiled readers must reproduce."""
    store = t._store
    return tuple(
        store.table.values[store.values[store.index_of[a]].data[t._row]]
        for a in attrs
    )


def _same(left, right):
    """Element identity: the reader hands out the table-resident objects
    (which also tells ``0``, ``0.0``, ``-0.0`` and ``False`` apart)."""
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


class TestRowReaders:
    """``ColumnTuple.project`` compiles one reader per column store and
    attribute tuple; it reads the columns at call time, so it equals the
    per-attribute decode in every store state (invariant 39)."""

    @given(
        rows=st.lists(st.tuples(*[reader_cells] * 4), min_size=2, max_size=8),
        attrs=st.lists(st.sampled_from(READER_NAMES), max_size=5),
        as_list=st.booleans(),
        state=st.sampled_from(["dense", "tombstoned", "compacted", "shared"]),
        target=st.sampled_from(READER_NAMES),
    )
    @settings(max_examples=80, deadline=None)
    def test_reader_equals_decode(self, rows, attrs, as_list, state, target):
        relation = _private_relation(rows)
        tids = list(relation.tids())
        if state in ("tombstoned", "compacted"):
            for tid in tids[::2]:
                relation.remove(tid)
            if state == "compacted":
                assert relation.compact(force=True)
        elif state == "shared":
            relation = relation.restrict(tids[1:], copy=False)
            assert relation.column_store.shared
        store = relation.column_store
        key = tuple(attrs)
        probe = list(attrs) if as_list else key
        for t in relation:
            assert _same(t.project(probe), _decode(t, attrs))
        read = store.readers[key]
        # A ref past the one-byte range widens the written column in
        # place of its array; the cached reader must see the new array.
        column = store.values[store.index_of[target]]
        assert column.typecode == "B"
        for i in range(300):
            store.table.ref(f"pad{i}")
        t = next(iter(relation))
        relation.set_value(t, target, "wide")
        assert column.typecode == "H"
        assert store.readers[key] is read
        for t in relation:
            assert _same(t.project(probe), _decode(t, attrs))

    def test_list_and_tuple_share_one_reader(self, rel):
        t = rel.by_tid(0)
        assert t.project(["B", "A"]) == t.project(("B", "A")) == ("b1", "a1")
        assert list(rel.column_store.readers) == [("B", "A")]

    def test_unknown_attribute_raises_schema_error(self, rel):
        t = rel.by_tid(0)
        for attrs in (["missing"], ("A", "missing"), ("A", "B", "C", "missing")):
            with pytest.raises(SchemaError, match="missing"):
                t.project(attrs)
        assert not rel.column_store.readers
        assert t.project([]) == ()


class TestCompaction:
    """Satellite (a): ``ColumnStore.compact`` reclaims tombstoned rows
    without disturbing tids, values, confidences or iteration order."""

    def _columnar(self, schema, n):
        with using_backend(True):
            relation = Relation(schema)
        for i in range(n):
            relation.add_row(
                {"A": f"a{i}", "B": f"b{i % 3}", "C": i}, {"A": 0.5}
            )
        return relation

    def test_manual_compact_reclaims_dead_rows(self, schema):
        relation = self._columnar(schema, 10)
        for tid in (1, 3, 5):
            relation.remove(tid)
        store = relation.column_store
        assert store.n_dead == 3 and len(store.row_tids) == 10
        assert relation.compact(force=True)
        assert store.n_dead == 0 and len(store.row_tids) == 7
        assert store.live_rows() == 7

    def test_tids_and_cells_stable_across_compaction(self, schema):
        relation = self._columnar(schema, 12)
        before = {
            t.tid: tuple((t[a], t.conf(a)) for a in schema.names)
            for t in relation
        }
        order = list(relation.tids())
        for tid in (0, 2, 4, 6, 8):
            relation.remove(tid)
            del before[tid]
            order.remove(tid)
        assert relation.compact(force=True)
        after = {
            t.tid: tuple((t[a], t.conf(a)) for a in schema.names)
            for t in relation
        }
        assert after == before
        assert list(relation.tids()) == order  # iteration order preserved
        for tid in (0, 2, 4, 6, 8):
            assert relation.tid_retired(tid) and not relation.has_tid(tid)

    def test_auto_trigger_on_live_ratio(self, schema):
        from repro.relational.columns import COMPACT_MIN_ROWS

        relation = self._columnar(schema, COMPACT_MIN_ROWS)
        store = relation.column_store
        # Kill exactly half: live == n/2 is not *below* the ratio yet.
        doomed = list(relation.tids())[: COMPACT_MIN_ROWS // 2 + 1]
        for tid in doomed[:-1]:
            relation.remove(tid)
        assert len(store.row_tids) == COMPACT_MIN_ROWS
        assert not store.should_compact()
        # One more drop crosses the live-ratio threshold and compacts
        # inside remove() itself.
        relation.remove(doomed[-1])
        assert store.n_dead == 0
        assert len(store.row_tids) == COMPACT_MIN_ROWS // 2 - 1
        assert list(relation.tids()) == [t.tid for t in relation]

    def test_below_min_rows_never_auto_compacts(self, schema):
        relation = self._columnar(schema, 8)
        for tid in list(relation.tids())[:7]:
            relation.remove(tid)
        store = relation.column_store
        assert store.n_dead == 7  # tombstones stay: fuzz suites rely on it
        assert not relation.compact()  # thresholds not met without force

    def test_removed_handle_survives_auto_compaction(self, schema):
        from repro.relational.columns import COMPACT_MIN_ROWS

        relation = self._columnar(schema, COMPACT_MIN_ROWS)
        doomed = list(relation.tids())[: COMPACT_MIN_ROWS // 2 + 1]
        removed = [relation.remove(tid) for tid in doomed]
        # The popped views were detached onto private stores before the
        # auto-compaction moved rows; their cells stay readable.
        for i, t in zip(doomed, removed):
            assert t[schema.names[0]] == f"a{i}"
            assert t.conf("A") == 0.5

    def test_no_tid_reuse_after_compaction(self, schema):
        relation = self._columnar(schema, 6)
        relation.remove(2)
        relation.compact(force=True)
        fresh = relation.add_row({"A": "new", "B": "b", "C": 99})
        assert fresh.tid == 6  # monotonic, not the reclaimed slot's tid
        assert relation.tid_retired(2)

    def test_shared_store_refuses_compaction(self, schema):
        relation = self._columnar(schema, 6)
        view = relation.restrict(list(relation.tids())[:3], copy=False)
        store = relation.column_store
        assert store.shared
        assert not relation.compact(force=True)
        with pytest.raises(ValueError):
            store.compact(*relation._live_rows())
        assert list(view.tids()) == list(relation.tids())[:3]

    def test_group_store_coherent_across_compaction(self, schema):
        from repro.constraints import CFD
        from repro.indexing.group_store import GroupStoreRegistry

        relation = self._columnar(schema, 16)
        registry = GroupStoreRegistry(relation)
        registry.cfd_store(CFD(schema, ["B"], ["A"], name="fd_ba"))
        for tid in (0, 3, 6, 9):
            relation.remove(tid)
        assert relation.compact(force=True)
        registry.check_consistency()

    def test_compact_noop_for_dict_backend(self, schema):
        relation = Relation(schema, columnar=False)
        relation.add_row({"A": "x", "B": "y", "C": 1})
        relation.remove(list(relation.tids())[0])
        assert not relation.compact(force=True)
