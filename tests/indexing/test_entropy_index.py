"""Tests for the 2-in-1 entropy structure — Section 6.3, Example 6.2/6.3."""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints import CFD
from repro.exceptions import ConstraintError
from repro.indexing import (
    EntropyIndex,
    GroupStoreRegistry,
    entropy_of_counts,
    rank_conflicting,
)
from repro.relational import NULL, Relation, Schema


@pytest.fixture()
def schema() -> Schema:
    return Schema("R", ["A", "B", "C", "E", "F", "H"])


@pytest.fixture()
def example_relation(schema) -> Relation:
    """The relation of Fig. 8."""
    rows = [
        ("a1", "b1", "c1", "e1", "f1", "h1"),
        ("a1", "b1", "c1", "e1", "f2", "h2"),
        ("a1", "b1", "c1", "e1", "f3", "h3"),
        ("a1", "b1", "c1", "e2", "f1", "h3"),
        ("a2", "b2", "c2", "e1", "f2", "h4"),
        ("a2", "b2", "c2", "e2", "f1", "h4"),
        ("a2", "b2", "c3", "e3", "f3", "h5"),
        ("a2", "b2", "c4", "e3", "f3", "h6"),
    ]
    return Relation.from_dicts(
        schema, [dict(zip("ABCEFH", row)) for row in rows]
    )


@pytest.fixture()
def phi(schema) -> CFD:
    """φ = R(ABC → E, wildcards) of Example 6.2."""
    return CFD(schema, ["A", "B", "C"], ["E"], name="phi")


class TestEntropyFunction:
    def test_single_value_is_zero(self):
        assert entropy_of_counts(Counter({"a": 10})) == 0.0

    def test_uniform_is_one(self):
        assert entropy_of_counts(Counter({"a": 3, "b": 3})) == 1.0
        assert entropy_of_counts(Counter({"a": 2, "b": 2, "c": 2})) == pytest.approx(1.0)

    def test_example_6_2_value(self):
        # H(φ|ABC=(a1,b1,c1)) ≈ 0.8 in the paper (3×e1, 1×e2).
        h = entropy_of_counts(Counter({"e1": 3, "e2": 1}))
        assert h == pytest.approx(0.811, abs=1e-3)

    def test_bounds(self):
        for counts in [{"a": 5, "b": 1}, {"a": 9, "b": 3, "c": 1}]:
            h = entropy_of_counts(Counter(counts))
            assert 0.0 <= h <= 1.0

    def test_empty(self):
        assert entropy_of_counts(Counter()) == 0.0


class TestBuild:
    def test_rejects_constant_cfd(self, schema):
        constant = CFD(schema, ["A"], ["B"], {"B": "k"})
        with pytest.raises(ConstraintError):
            EntropyIndex(constant)

    def test_example_6_2_groups(self, phi, example_relation):
        index = EntropyIndex(phi, example_relation)
        g1 = index.group(("a1", "b1", "c1"))
        g2 = index.group(("a2", "b2", "c2"))
        g3 = index.group(("a2", "b2", "c3"))
        assert g1.entropy == pytest.approx(0.811, abs=1e-3)
        assert g2.entropy == 1.0
        assert g3.entropy == 0.0
        assert index.group_count() == 4

    def test_example_6_2_conclusion(self, phi, example_relation):
        """Only the (a1,b1,c1) group is reliably fixable: its entropy is
        below 1 and its majority is e1 (→ t4[E] := e1)."""
        index = EntropyIndex(phi, example_relation)
        best = index.min_entropy_group()
        assert best.key == ("a1", "b1", "c1")
        value, count = best.majority()
        assert (value, count) == ("e1", 3)

    def test_conflicting_groups_sorted(self, phi, example_relation):
        index = EntropyIndex(phi, example_relation)
        entropies = [g.entropy for g in index.conflicting_groups()]
        assert entropies == sorted(entropies)
        assert len(entropies) == 2  # zero-entropy groups excluded

    def test_is_clean(self, phi, schema):
        consistent = Relation.from_dicts(
            schema,
            [dict(A="a", B="b", C="c", E="e", F="f", H="h")] * 3,
        )
        assert EntropyIndex(phi, consistent).is_clean()

    def test_null_lhs_not_indexed(self, phi, schema):
        r = Relation.from_dicts(
            schema, [dict(A=NULL, B="b", C="c", E="e", F="f", H="h")]
        )
        assert EntropyIndex(phi, r).group_count() == 0


class TestMaintenance:
    def test_update_cell_rhs(self, phi, example_relation):
        index = EntropyIndex(phi, example_relation)
        t4 = example_relation.by_tid(3)
        index.update_cell(t4, "E", "e1")
        t4["E"] = "e1"
        group = index.group(("a1", "b1", "c1"))
        assert group.entropy == 0.0
        index.check_consistency(example_relation)

    def test_update_cell_lhs_moves_group(self, phi, example_relation):
        index = EntropyIndex(phi, example_relation)
        t = example_relation.by_tid(0)
        index.update_cell(t, "A", "a2")
        t["A"] = "a2"
        assert index.group(("a2", "b1", "c1")) is not None
        index.check_consistency(example_relation)

    def test_update_unrelated_attr_noop(self, phi, example_relation):
        index = EntropyIndex(phi, example_relation)
        t = example_relation.by_tid(0)
        index.update_cell(t, "H", "zzz")
        t["H"] = "zzz"
        index.check_consistency(example_relation)

    def test_remove_last_tuple_drops_group(self, phi, schema):
        r = Relation.from_dicts(
            schema, [dict(A="a", B="b", C="c", E="e", F="f", H="h")]
        )
        index = EntropyIndex(phi, r)
        index.remove_tuple(r.by_tid(0))
        assert index.group_count() == 0

    def test_add_tuple(self, phi, example_relation, schema):
        index = EntropyIndex(phi, example_relation)
        t = example_relation.add_row(dict(A="a1", B="b1", C="c1", E="e1", F="f", H="h"))
        index.add_tuple(t)
        group = index.group(("a1", "b1", "c1"))
        assert group.size == 5
        index.check_consistency(example_relation)

    def test_majority_tie_is_deterministic(self, phi, schema):
        r = Relation.from_dicts(
            schema,
            [
                dict(A="a", B="b", C="c", E="e1", F="f", H="h"),
                dict(A="a", B="b", C="c", E="e2", F="f", H="h"),
            ],
        )
        index = EntropyIndex(phi, r)
        value, _ = index.group(("a", "b", "c")).majority()
        assert value == "e1"  # lexicographically smallest on ties

    def test_group_of(self, phi, example_relation):
        index = EntropyIndex(phi, example_relation)
        t = example_relation.by_tid(7)
        assert index.group_of(t).key == ("a2", "b2", "c4")


# ----------------------------------------------------------------------
# On-demand ranking (eRepair's indexed path) against the AVL walk
# ----------------------------------------------------------------------
NAN = float("nan")  # one shared object: a group key equal to itself
OTHER_NAN = float("nan")  # a second NaN key that prints alike
R_SCHEMA = Schema("V", ["K", "V"])
KV = CFD(R_SCHEMA, ["K"], ["V"], name="kv")
#: Group keys include both NaN objects; every value pattern recurs, so
#: equal entropies are common (ties broken by sort key, then min tid).
rank_keys = st.sampled_from(["k1", "k2", "k3", "k4", NAN, OTHER_NAN, NULL])
rank_values = st.sampled_from(["x", "y", "z", NULL])
rank_rows = st.lists(st.tuples(rank_keys, rank_values), min_size=1, max_size=16)
rank_edits = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from(["K", "V"]),
              st.one_of(rank_keys, rank_values)),
    max_size=8,
)
#: The two conflicting groups keyed by distinct NaN objects.
NAN_GROUP_ROWS = [(NAN, "x"), (NAN, "y"), (OTHER_NAN, "x"), (OTHER_NAN, "y")]


class TestRankConflicting:
    @given(rank_rows, rank_edits, st.sets(st.integers(0, 15)),
           st.sampled_from([0.5, 0.8, 1.0, 1.01]))
    @settings(max_examples=150, deadline=None)
    @example(NAN_GROUP_ROWS, [], {0, 2}, 1.01)
    @example([("k1", "x"), ("k1", "y"), ("k2", "y"), ("k2", "x")], [],
             {0, 1, 2, 3}, 1.01)
    def test_equals_the_avl_walk_over_dirty_keys(
        self, rows, edits, dirty_tids, delta2
    ):
        """Ranking the dirty groups by the AVL key equals walking the AVL
        in order and keeping the dirty groups with 0 < H < δ2."""
        relation = Relation.from_dicts(
            R_SCHEMA, [{"K": k, "V": v} for k, v in rows]
        )
        index = EntropyIndex(KV, relation)
        relation.add_observer(index.on_cell_changed)
        registry = GroupStoreRegistry(relation)
        store = registry.cfd_store(KV)
        for raw, attr, value in edits:
            tids = relation.tids()
            relation.set_value(relation.by_tid(tids[raw % len(tids)]), attr, value)
        dirty = {store.key_of[t] for t in dirty_tids if t in store.key_of}
        expected = [
            (rank, group.key)
            for rank, group in index.conflicting_entries()
            if group.key in dirty and group.entropy < delta2
        ]
        ranked = rank_conflicting([store.groups[k] for k in dirty], delta2)
        assert [(rank, group.key) for rank, group in ranked] == expected
        registry.detach()
