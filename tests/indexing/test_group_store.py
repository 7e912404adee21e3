"""The shared LHS-keyed group store: one grouping, many consumers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import CFD, MD
from repro.constraints.rules import derive_rules
from repro.indexing import GroupStoreRegistry
from repro.relational import NULL, Relation, Schema

SCHEMA = Schema("R", ["K", "A", "B"])
MASTER_SCHEMA = Schema("Rm", ["K", "B"])
CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["A"], ["B"], name="fd_ab"),
]
MDS = [MD(SCHEMA, MASTER_SCHEMA, [("K", "K")], [("B", "B")], name="md_kb")]

keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2", NULL])
rows = st.lists(st.tuples(keys, values, values), min_size=1, max_size=12)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 11), st.sampled_from(["K", "A", "B"]), values),
        st.tuples(st.just("insert"), keys, values, values),
        st.tuples(st.just("delete"), st.integers(0, 11)),
    ),
    max_size=25,
)


def build(data) -> Relation:
    return Relation.from_dicts(
        SCHEMA, [{"K": k, "A": a, "B": b} for k, a, b in data]
    )


class TestSharing:
    def test_same_cfd_resolves_to_same_store(self):
        relation = build([("k1", "a1", "b1")])
        registry = GroupStoreRegistry(relation)
        assert registry.cfd_store(CFDS[0]) is registry.cfd_store(CFDS[0])


class TestCoherence:
    @given(rows, steps)
    @settings(max_examples=60, deadline=None)
    def test_stores_match_fresh_build_under_all_mutations(self, data, ops):
        """Cell edits, inserts and deletes through the relation's observer
        hooks keep every store equal to a freshly built one."""
        relation = build(data)
        registry = GroupStoreRegistry(relation)
        registry.ensure_rules(derive_rules(CFDS, MDS))
        for op in ops:
            live = relation.tids()
            if op[0] == "set" and live:
                t = relation.by_tid(live[op[1] % len(live)])
                relation.set_value(t, op[2], op[3])
            elif op[0] == "insert":
                relation.add_row({"K": op[1], "A": op[2], "B": op[3]})
            elif op[0] == "delete" and len(live) > 1:
                relation.remove(live[op[1] % len(live)])
        registry.check_consistency()
        registry.detach()


class TestKeyInterning:
    """ISSUE 4 micro-opt: identical LHS keys resolve to one canonical
    tuple, so re-keying on the group-rewrite hot loop stops allocating
    (and re-hashing) equal tuples."""

    def test_rekeying_returns_canonical_tuples(self):
        relation = build([("k1", "a1", "b1"), ("k2", "a1", "b2")])
        registry = GroupStoreRegistry(relation)
        store = registry.cfd_store(CFDS[0])
        t0, t1 = relation.by_tid(0), relation.by_tid(1)
        # Move t1 into t0's group and back, twice: every materialization
        # of the same key must be the same object.
        seen = []
        for _ in range(2):
            relation.set_value(t1, "K", "k1")
            seen.append(store.key_of[1])
            relation.set_value(t1, "K", "k2")
            seen.append(store.key_of[1])
        assert seen[0] is seen[2] and seen[1] is seen[3]
        assert store.key_of[0] is seen[0]
        assert store.intern_key(("k1",)) is seen[0]
        registry.detach()
