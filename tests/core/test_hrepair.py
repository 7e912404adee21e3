"""Tests for hRepair — Section 7, Example 7.2 and Corollary 7.1."""

import pytest

from repro.constraints import CFD, MD, embed_negative
from repro.core import (
    FixKind,
    cfd_satisfied_with_nulls,
    crepair,
    hrepair,
    is_clean,
    md_satisfied_with_nulls,
)
from repro.relational import NULL, Relation, Schema


class TestExample72:
    """Possible fixes completing the running example."""

    @pytest.fixture()
    def pipeline(self, dirty_tran, master_card, paper_rules):
        mds = embed_negative(paper_rules.mds, paper_rules.negative_mds)
        c_result = crepair(dirty_tran, paper_rules.cfds, mds, master=master_card, eta=0.8)
        protected = c_result.fix_log.deterministic_cells()
        h_result = hrepair(
            c_result.relation,
            paper_rules.cfds,
            mds,
            master=master_card,
            protected=protected,
            fix_log=c_result.fix_log,
        )
        return c_result, h_result

    def test_t3_fn_normalized(self, pipeline):
        """(a) t3[FN] := Robert via φ4."""
        _, h = pipeline
        assert h.relation.by_tid(2)["FN"] == "Robert"

    def test_t3_phn_from_master(self, pipeline):
        """(b) t3[phn] := 3887644 by matching s2 via ψ."""
        _, h = pipeline
        assert h.relation.by_tid(2)["phn"] == "3887644"

    def test_t4_enriched_from_t3(self, pipeline):
        """(c) t4[St, post] := t3[St, post] via φ3."""
        _, h = pipeline
        t4 = h.relation.by_tid(3)
        assert t4["St"] == "5 Wren St"
        assert t4["post"] == "WC1H 9SE"

    def test_repair_is_clean(self, pipeline, paper_rules, master_card):
        _, h = pipeline
        mds = embed_negative(paper_rules.mds, paper_rules.negative_mds)
        assert is_clean(h.relation, paper_rules.cfds, mds, master_card)

    def test_deterministic_fixes_preserved(self, pipeline):
        """Corollary 7.1: hRepair keeps every deterministic fix."""
        c, h = pipeline
        for cell in c.fix_log.deterministic_cells():
            tid, attr = cell
            assert h.fix_log.mark_of(tid, attr) is FixKind.DETERMINISTIC


class TestGuarantees:
    @pytest.fixture()
    def schema(self):
        return Schema("R", ["K", "V", "W"])

    def test_always_produces_consistent_repair(self, schema):
        cfds = [
            CFD(schema, ["K"], ["V"], {"K": "k", "V": "x"}, name="c1"),
            CFD(schema, ["W"], ["V"], name="fd"),
        ]
        relation = Relation.from_dicts(
            schema,
            [
                {"K": "k", "V": "wrong", "W": "w"},
                {"K": "o", "V": "a", "W": "g"},
                {"K": "o", "V": "b", "W": "g"},
            ],
        )
        result = hrepair(relation, cfds)
        assert is_clean(result.relation, cfds)

    def test_conflicting_constants_tombstone_to_null(self, schema):
        cfds = [
            CFD(schema, ["K"], ["V"], {"K": "k", "V": "x"}, name="c1"),
            CFD(schema, ["W"], ["V"], {"W": "w", "V": "y"}, name="c2"),
        ]
        relation = Relation.from_dicts(schema, [{"K": "k", "V": "z", "W": "w"}])
        result = hrepair(relation, cfds)
        assert result.relation.by_tid(0)["V"] is NULL
        assert is_clean(result.relation, cfds)

    def test_frozen_conflict_breaks_premise(self, schema):
        """A deterministic cell conflicting with a constant rule forces
        the premise to be dissolved with a null, not the cell changed."""
        cfd = CFD(schema, ["K"], ["V"], {"K": "k", "V": "x"})
        relation = Relation.from_dicts(schema, [{"K": "k", "V": "det", "W": "w"}])
        result = hrepair(relation, [cfd], protected={(0, "V")})
        assert result.relation.by_tid(0)["V"] == "det"   # preserved
        assert result.relation.by_tid(0)["K"] is NULL     # premise broken
        assert is_clean(result.relation, [cfd])

    def test_variable_cfd_cost_based_direction(self, schema):
        """With no asserted values, the merged class takes the value of
        minimum repair cost — the high-confidence cell wins."""
        fd = CFD(schema, ["K"], ["V"])
        relation = Relation.from_dicts(
            schema,
            [
                {"K": "k", "V": "cheap", "W": "w"},
                {"K": "k", "V": "pricey", "W": "w"},
            ],
            [{"K": 1.0, "V": 0.1, "W": 0.0}, {"K": 1.0, "V": 0.9, "W": 0.0}],
        )
        result = hrepair(relation, [fd])
        # Changing the 0.1-confidence cell is cheaper → both become pricey.
        assert result.relation.by_tid(0)["V"] == "pricey"
        assert result.relation.by_tid(1)["V"] == "pricey"

    def test_null_enrichment(self, schema):
        fd = CFD(schema, ["K"], ["V"])
        relation = Relation.from_dicts(
            schema,
            [{"K": "k", "V": "value", "W": "w"}, {"K": "k", "V": NULL, "W": "w"}],
        )
        result = hrepair(relation, [fd])
        assert result.relation.by_tid(1)["V"] == "value"

    def test_md_conflicting_masters_null(self, schema):
        md = MD(schema, schema, [("K", "K")], [("V", "V")])
        master = Relation.from_dicts(
            schema, [{"K": "k", "V": "m1", "W": "w"}, {"K": "k", "V": "m2", "W": "w"}]
        )
        relation = Relation.from_dicts(schema, [{"K": "k", "V": "x", "W": "w"}])
        result = hrepair(relation, [], [md], master=master)
        assert result.relation.by_tid(0)["V"] is NULL
        assert md_satisfied_with_nulls(result.relation, master, md)

    def test_md_requires_master(self, schema):
        md = MD(schema, schema, [("K", "K")], [("V", "V")])
        relation = Relation.from_dicts(schema, [{"K": "k", "V": "x", "W": "w"}])
        with pytest.raises(ValueError):
            hrepair(relation, [], [md])

    def test_terminates_on_adversarial_rules(self, schema):
        """The φ1/φ5-style ping-pong terminates via the target lattice."""
        c1 = CFD(schema, ["K"], ["V"], {"K": "k", "V": "a"})
        c2 = CFD(schema, ["W"], ["V"], {"W": "w", "V": "b"})
        relation = Relation.from_dicts(schema, [{"K": "k", "V": "z", "W": "w"}])
        result = hrepair(relation, [c1, c2])
        assert result.rounds < 100
        assert is_clean(result.relation, [c1, c2])


class TestNullSemantics:
    @pytest.fixture()
    def schema(self):
        return Schema("R", ["K", "V"])

    def test_null_lhs_means_no_violation(self, schema):
        cfd = CFD(schema, ["K"], ["V"], {"K": "k", "V": "x"})
        relation = Relation.from_dicts(schema, [{"K": NULL, "V": "bad"}])
        assert cfd_satisfied_with_nulls(relation, cfd)

    def test_null_rhs_means_no_violation(self, schema):
        cfd = CFD(schema, ["K"], ["V"], {"K": "k", "V": "x"})
        relation = Relation.from_dicts(schema, [{"K": "k", "V": NULL}])
        assert cfd_satisfied_with_nulls(relation, cfd)

    def test_variable_cfd_nulls_dont_conflict(self, schema):
        fd = CFD(schema, ["K"], ["V"])
        relation = Relation.from_dicts(
            schema, [{"K": "k", "V": "a"}, {"K": "k", "V": NULL}]
        )
        assert cfd_satisfied_with_nulls(relation, fd)

    def test_real_violation_detected(self, schema):
        fd = CFD(schema, ["K"], ["V"])
        relation = Relation.from_dicts(
            schema, [{"K": "k", "V": "a"}, {"K": "k", "V": "b"}]
        )
        assert not cfd_satisfied_with_nulls(relation, fd)

    def test_md_null_counts_as_identified(self, schema):
        md = MD(schema, schema, [("K", "K")], [("V", "V")])
        master = Relation.from_dicts(schema, [{"K": "k", "V": "m"}])
        relation = Relation.from_dicts(schema, [{"K": "k", "V": NULL}])
        assert md_satisfied_with_nulls(relation, master, md)


class TestLazyFreeze:
    """A protected cell's class is frozen when the union-find first meets
    it, not up front: a conflicting group holding the cell, and an MD
    whose target it is, must still see it frozen at its value."""

    SCHEMA = Schema("R", ["K", "V", "W"])
    MASTER = Schema("Rm", ["W", "V"])

    def _run(self, use_violation_index, columnar):
        from repro.relational.columns import using_backend

        cfds = [CFD(self.SCHEMA, ["K"], ["V"], name="fd_kv")]
        mds = [MD(self.SCHEMA, self.MASTER, [("W", "W")], [("V", "V")], name="md_wv")]
        with using_backend(columnar):
            # (0, V) is protected and the group's minority value; the MD
            # demands it of tuple 0 and a conflicting value of tuple 2.
            relation = Relation.from_dicts(self.SCHEMA, [
                {"K": "k1", "V": "v1", "W": "w0"},
                {"K": "k1", "V": "v2", "W": "w1"},
                {"K": "k1", "V": "v2", "W": "w2"},
                {"K": "k2", "V": "v5", "W": "w3"},
            ])
            master = Relation.from_dicts(self.MASTER, [
                {"W": "w0", "V": "v1"}, {"W": "w2", "V": "v7"},
            ])
            result = hrepair(
                relation, cfds, mds, master=master, protected={(0, "V")},
                use_violation_index=use_violation_index,
            )
        log = [(f.tid, f.attr, f.old_value, f.new_value, f.rule_name)
               for f in result.fix_log]
        return log, result.relation

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    def test_matches_the_legacy_engine_and_keeps_the_frozen_value(self, columnar):
        log, repaired = self._run(True, columnar)
        legacy_log, _ = self._run(False, columnar)
        assert log == legacy_log
        assert repaired.by_tid(0)["V"] == "v1"  # never written
        assert all(tid != 0 or attr != "V" for tid, attr, *_ in log)
        # The frozen value dictates the group against the majority.
        assert repaired.by_tid(1)["V"] == "v1"
        assert (1, "V", "v2", "v1", "fd_kv") in log
