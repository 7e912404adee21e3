"""Tests for the cost model of Section 3.1."""

import pytest

from repro.core import DEFAULT_CONFIDENCE, cell_cost, repair_cost, value_distance
from repro.exceptions import DataError
from repro.relational import NULL, Relation, Schema
from repro.relational.columns import using_backend


class TestValueDistance:
    def test_equal_is_zero(self):
        assert value_distance("x", "x") == 0.0

    def test_null_pair_is_zero(self):
        assert value_distance(NULL, NULL) == 0.0

    def test_null_to_value_is_one(self):
        assert value_distance(NULL, "x") == 1.0
        assert value_distance("x", NULL) == 1.0

    def test_string_normalized_edit(self):
        # dis("abcd","abcx") = 1, max length 4 → 0.25.
        assert value_distance("abcd", "abcx") == 0.25

    def test_longer_strings_closer(self):
        """The paper's rationale: longer strings with a 1-char difference
        are closer than shorter strings with a 1-char difference."""
        assert value_distance("abcdefghij", "abcdefghiX") < value_distance("ab", "aX")

    def test_non_string_discrete(self):
        assert value_distance(1, 2) == 1.0
        assert value_distance(1, 1) == 0.0

    def test_bounds(self):
        assert 0.0 <= value_distance("hello", "help") <= 1.0


class TestCellCost:
    def test_uses_confidence(self):
        assert cell_cost("abcd", "abcx", 1.0) == 0.25
        assert cell_cost("abcd", "abcx", 0.5) == 0.125

    def test_none_confidence_uses_default(self):
        assert cell_cost("abcd", "abcx", None) == DEFAULT_CONFIDENCE * 0.25

    def test_zero_confidence_free(self):
        assert cell_cost("abcd", "zzzz", 0.0) == 0.0


class TestRepairCost:
    @pytest.fixture()
    def schema(self):
        return Schema("R", ["A", "B"])

    def test_identity_repair_costs_nothing(self, schema):
        r = Relation.from_dicts(schema, [{"A": "x", "B": "y"}])
        assert repair_cost(r.clone(), r) == 0.0
        # An untouched NaN cell is unequal to itself, yet unchanged.
        for columnar in (True, False):
            with using_backend(columnar):
                r = Relation.from_dicts(
                    schema, [{"A": float("nan"), "B": "y"}], [{"A": 0.8, "B": 0.5}]
                )
            assert repair_cost(r.clone(), r) == 0.0

    def test_sums_weighted_distances(self, schema):
        original = Relation.from_dicts(
            schema, [{"A": "abcd", "B": "y"}], [{"A": 1.0, "B": 0.5}]
        )
        repaired = original.clone()
        repaired.by_tid(0)["A"] = "abcx"  # cost 1.0 * 0.25
        repaired.by_tid(0)["B"] = "z"     # cost 0.5 * 1.0
        assert repair_cost(repaired, original) == pytest.approx(0.75)

    def test_higher_confidence_costs_more(self, schema):
        low = Relation.from_dicts(schema, [{"A": "abcd", "B": "y"}], [{"A": 0.1, "B": 0.0}])
        high = Relation.from_dicts(schema, [{"A": "abcd", "B": "y"}], [{"A": 0.9, "B": 0.0}])
        fixed_low, fixed_high = low.clone(), high.clone()
        fixed_low.by_tid(0)["A"] = "zzzz"
        fixed_high.by_tid(0)["A"] = "zzzz"
        assert repair_cost(fixed_high, high) > repair_cost(fixed_low, low)

    def test_schema_mismatch(self, schema):
        other = Relation(Schema("S", ["A", "B"]))
        r = Relation.from_dicts(schema, [{"A": "x", "B": "y"}])
        with pytest.raises(DataError):
            repair_cost(other, r)

    def test_tid_mismatch(self, schema):
        original = Relation.from_dicts(schema, [{"A": "x", "B": "y"}])
        repaired = Relation.from_dicts(schema, [{"A": "x", "B": "y"}, {"A": "q", "B": "r"}])
        with pytest.raises(DataError):
            repair_cost(repaired, original)
