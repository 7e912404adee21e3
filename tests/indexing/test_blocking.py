"""Tests for MD blocking indexes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.consistency import relation_is_clean
from repro.constraints import MD
from repro.core import UniCleanConfig
from repro.core.hrepair import demanded_values
from repro.datasets import generate_dblp
from repro.indexing import ExactIndex, MDBlockingIndex, build_md_indexes
from repro.pipeline import CleaningSession
from repro.relational import CTuple, NULL, Relation, Schema
from repro.relational.attribute import is_null
from repro.relational.columns import using_backend, using_match_engine
from repro.similarity import edit_within
from repro.similarity.predicates import _as_str
from repro.similarity.qgrams import edit_signature_admits, qgram_signature


@pytest.fixture()
def schema() -> Schema:
    return Schema("R", ["name", "zip", "phone"])


@pytest.fixture()
def master(schema) -> Relation:
    return Relation.from_dicts(
        schema,
        [
            {"name": "edinburgh royal", "zip": "11111", "phone": "101"},
            {"name": "london general", "zip": "22222", "phone": "202"},
            {"name": "glasgow central", "zip": "11111", "phone": "303"},
            {"name": "aberdeen north", "zip": NULL, "phone": "404"},
        ],
    )


class TestExactIndex:
    def test_lookup(self, schema, master):
        index = ExactIndex(master, ["zip"])
        assert {t.tid for t in index.lookup(("11111",))} == {0, 2}
        assert index.lookup(("99999",)) == []

    def test_nulls_skipped(self, schema, master):
        index = ExactIndex(master, ["zip"])
        assert all(t.tid != 3 for bucket in [index.lookup(("11111",))] for t in bucket)
        assert index.bucket_count() == 2

    def test_lookup_tuple(self, schema, master):
        index = ExactIndex(master, ["zip"])
        probe = master.by_tid(0)
        assert probe in index.lookup_tuple(probe, ["zip"])

    def test_multi_attribute_key(self, schema, master):
        index = ExactIndex(master, ["zip", "phone"])
        assert [t.tid for t in index.lookup(("11111", "101"))] == [0]


class TestMDBlockingIndex:
    @pytest.fixture()
    def eq_md(self, schema) -> MD:
        return MD(schema, schema, [("zip", "zip")], [("phone", "phone")])

    @pytest.fixture()
    def sim_md(self, schema) -> MD:
        return MD(schema, schema, [("name", "name", edit_within(2))], [("phone", "phone")])

    def test_equality_candidates_are_bucket(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": "11111", "name": "x", "phone": "y"}])
        candidates = index.candidates(probe.by_tid(0))
        assert {t.tid for t in candidates} == {0, 2}

    def test_null_key_no_candidates(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": NULL, "name": "x", "phone": "y"}])
        assert index.candidates(probe.by_tid(0)) == []

    def test_similarity_blocking_finds_typo(self, schema, master, sim_md):
        index = MDBlockingIndex(sim_md, master, top_l=4)
        probe = Relation.from_dicts(
            schema, [{"name": "edinburh royal", "zip": "z", "phone": "p"}]  # 1 deletion
        )
        matches = index.matches(probe.by_tid(0))
        assert [s.tid for s in matches] == [0]

    def test_full_scan_fallback(self, schema, master, sim_md):
        index = MDBlockingIndex(sim_md, master, use_suffix_tree=False)
        probe = Relation.from_dicts(
            schema, [{"name": "edinburh royal", "zip": "z", "phone": "p"}]
        )
        assert len(index.candidates(probe.by_tid(0))) == len(master)
        assert [s.tid for s in index.matches(probe.by_tid(0))] == [0]

    def test_find_match_deterministic(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": "11111", "name": "x", "phone": "y"}])
        match = index.find_match(probe.by_tid(0))
        assert match.tid == 0  # smallest master tid

    def test_find_match_none(self, schema, master, eq_md):
        index = MDBlockingIndex(eq_md, master)
        probe = Relation.from_dicts(schema, [{"zip": "00000", "name": "x", "phone": "y"}])
        assert index.find_match(probe.by_tid(0)) is None

    def test_build_md_indexes_normalizes(self, schema, master):
        md = MD(schema, schema, [("zip", "zip")], [("phone", "phone"), ("name", "name")])
        indexes = build_md_indexes([md], master)
        assert len(indexes) == 2
        assert all(index.md.is_normalized for index in indexes.values())


class TestEqualityBucketSignatureFilter:
    @pytest.fixture()
    def blocked_md(self, schema) -> MD:
        return MD(
            schema, schema,
            [("zip", "zip"), ("name", "name", edit_within(2))],
            [("phone", "phone")],
        )

    def probe(self, schema, name):
        return Relation.from_dicts(
            schema, [{"zip": "11111", "name": name, "phone": "p"}]
        ).by_tid(0)

    @pytest.mark.parametrize("engine", ["join", "reference"])
    def test_bucket_members_that_cannot_match_are_dropped(
        self, schema, master, blocked_md, engine
    ):
        index = MDBlockingIndex(blocked_md, master, engine=engine)
        probe = self.probe(schema, "edinburh royal")
        assert [s.tid for s in index.candidates(probe)] == [0]
        assert [s.tid for s in index.matches(probe)] == [0]
        assert index.candidates(self.probe(schema, NULL)) == []

    def test_ablation_verifies_the_whole_bucket(self, schema, master, blocked_md):
        index = MDBlockingIndex(blocked_md, master, use_suffix_tree=False)
        probe = self.probe(schema, "edinburh royal")
        assert [s.tid for s in index.candidates(probe)] == [0, 2]
        assert [s.tid for s in index.matches(probe)] == [0]

    def test_cold_dblp_clean_verifies_a_fifth(self):
        """Every DBLP similarity clause sits beside ``year =``: the filter
        must cut the clean's verifications at least five-fold and change
        nothing it produces."""
        ds = generate_dblp(size=200, master_size=100, seed=1)
        runs = {}
        for filtered in (True, False):
            session = CleaningSession(
                cfds=ds.cfds, mds=ds.mds, master=ds.master,
                config=UniCleanConfig(use_suffix_tree=filtered),
            )
            result = session.clean(ds.dirty)
            # Siblings share one index: count each index once.
            indexes = {id(ix): ix for ix in session.md_indexes.values()}
            runs[filtered] = (
                sum(ix.verify_calls for ix in indexes.values()),
                [(f.kind, f.rule_name, f.tid, f.attr, repr(f.old_value),
                  repr(f.new_value), repr(f.source)) for f in result.fix_log],
                {t.tid: tuple((repr(t[a]), t.conf(a)) for a in t.schema.names)
                 for t in result.repaired},
                result.cost,
            )
        (verify, *outputs), (unfiltered_verify, *reference) = runs[True], runs[False]
        assert 0 < verify * 5 <= unfiltered_verify
        assert outputs == reference


class TestTopLDroppedMatchRegression:
    """The lossy-default regression: top-``l`` LCS retrieval can silently
    drop a true match when ``l`` decoys out-rank it on LCS length.  The
    join engine — now the default — is exhaustive on the same workload.
    """

    @pytest.fixture()
    def schema(self) -> Schema:
        return Schema("R", ["name", "phone"])

    @pytest.fixture()
    def master(self, schema) -> Relation:
        # Six decoys contain the probe "abcdefgh" verbatim (LCS 8, edit
        # distance huge); the single true edit<=1 match "abcdefgx" only
        # reaches LCS 7, so top-l=4 retrieval keeps decoys exclusively.
        rows = [
            {"name": f"abcdefgh suffix {i:02d}", "phone": str(i)} for i in range(6)
        ]
        rows.append({"name": "abcdefgx", "phone": "99"})
        return Relation.from_dicts(schema, rows)

    @pytest.fixture()
    def md(self, schema) -> MD:
        return MD(schema, schema, [("name", "name", edit_within(1))], [("phone", "phone")])

    @pytest.fixture()
    def probe(self, schema):
        return Relation.from_dicts(
            schema, [{"name": "abcdefgh", "phone": "p"}]
        ).by_tid(0)

    def test_reference_engine_drops_the_true_match(self, md, master, probe):
        index = MDBlockingIndex(md, master, top_l=4, engine="reference")
        assert not index.is_exact
        assert index.matches(probe) == []  # silently lossy

    def test_join_engine_finds_it_and_is_exact(self, md, master, probe):
        index = MDBlockingIndex(md, master, top_l=4, engine="join")
        assert index.is_exact
        assert [s.tid for s in index.matches(probe)] == [6]

    def test_exhaustive_scan_agrees_with_join(self, md, master, probe):
        scan = MDBlockingIndex(md, master, use_suffix_tree=False, engine="reference")
        join = MDBlockingIndex(md, master, engine="join")
        assert [s.tid for s in join.matches(probe)] == [
            s.tid for s in scan.matches(probe)
        ]

    def test_join_is_the_default_engine(self, md, master, probe):
        with using_match_engine("join"):
            index = MDBlockingIndex(md, master, top_l=4)
            assert index.engine == "join"
            assert index.is_exact
            assert [s.tid for s in index.matches(probe)] == [6]

    def test_warm_cache_round_trip_under_join(self, md, master, probe):
        index = MDBlockingIndex(md, master, engine="join")
        first = index.cached_matches(probe)
        entries = index.cache_entries()
        fresh = MDBlockingIndex(md, master, engine="join")
        fresh.warm_cache(entries)
        assert [s.tid for s in fresh.cached_matches(probe)] == [
            s.tid for s in first
        ]
        # the warmed cache answered without a new probe
        assert fresh.join_index.stats["probes"] == 0


class TestMatchListShapes:
    """The memoized lookups answer a one-element match list without the
    ``min``/``sorted`` derivation; a longer list still takes it.  Master
    rows are inserted out of tid order, so the bucket's first member is
    not the smallest tid and its values are not in ``repr`` order."""

    @pytest.fixture(params=[True, False], ids=["columnar", "dict"])
    def setting(self, request):
        data = Schema("D", ["k", "v"])
        reference = Schema("Dm", ["k", "v"])
        md = MD(data, reference, [("k", "k")], [("v", "v")], name="md_kv")
        with using_backend(request.param):
            master = Relation(reference)
            for tid, k, v in [(5, "k1", "v2"), (2, "k1", "v1"), (7, "k2", "v3")]:
                master.add(CTuple(reference, {"k": k, "v": v}, tid=tid))
            probes = Relation.from_dicts(data, [{"k": "k1"}, {"k": "k2"}])
        return md, master, probes

    def test_cached_find_match_equals_find_match(self, setting):
        md, master, probes = setting
        index = MDBlockingIndex(md, master)
        first, second = probes
        assert [s.tid for s in index.cached_matches(first)] == [5, 2]
        assert index.cached_find_match(first) is index.find_match(first)
        assert index.cached_find_match(first).tid == 2
        assert [s.tid for s in index.cached_matches(second)] == [7]
        assert index.cached_find_match(second) is index.find_match(second)

    def test_demanded_values_equal_the_sorted_set(self, setting):
        md, master, probes = setting
        index = MDBlockingIndex(md, master)
        demanded = {}
        for t in probes:
            matched = index.cached_matches(t)
            derived = sorted({s["v"] for s in matched}, key=repr)
            assert demanded_values(matched, "v") == derived
            demanded[t["k"]] = derived
        assert demanded == {"k1": ["v1", "v2"], "k2": ["v3"]}


# ----------------------------------------------------------------------
# The bucket-resident signature filter against the member-wise filter
# ----------------------------------------------------------------------
B_SCHEMA = Schema("B", ["k", "t1", "t2", "v"])
#: ``"NULL"`` is a string, not the null marker: it must not pass for a
#: null master value, whose text would read the same.
texts = st.sampled_from(
    ["edinburgh", "edinburh", "edinbrugh", "glasgow", "glasgo", "", 7, "NULL",
     NULL]
)
bucket_rows = st.lists(
    st.tuples(st.sampled_from(["k1", "k2"]), texts, texts), min_size=1, max_size=8
)


def memberwise_filter(index, t, bucket):
    """The filter as it ran before buckets kept their signatures: every
    member re-read, re-stringified and re-signed on every probe."""
    for clause in index._edit_clauses:
        value = t[clause.attr]
        if is_null(value):
            return []
        probe_text = _as_str(value)
        probe = qgram_signature(probe_text)
        kept = []
        for s in bucket:
            master_value = s[clause.master_attr]
            if is_null(master_value):
                continue
            text = _as_str(master_value)
            if text != probe_text and not edit_signature_admits(
                probe, qgram_signature(text), clause.predicate.edit_budget
            ):
                continue
            kept.append(s)
        bucket = kept
    return bucket


class TestBucketResidentSignatures:
    """Members kept by the bucket-resident filter are the member-wise
    filter's, in bucket order: null master values skipped, equal texts
    kept without a signature, and a premise with two edit clauses
    filtered by both."""

    @given(bucket_rows, bucket_rows, st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(
        [("k1", "edinburgh", NULL), ("k1", NULL, "glasgow"),
         ("k1", "edinburgh", "glasgo"), ("k1", "glasgow", "edinburgh")],
        [("k1", "edinburgh", "glasgow"), ("k1", "edinburh", "glasgo"),
         ("k1", NULL, "glasgow"), ("k1", "NULL", "edinburgh")],
        True, True,
    )
    @example([("k1", NULL, "x"), ("k1", "NULL", "x")], [("k1", "NULL", "x")],
             False, False)
    def test_same_members_in_bucket_order(self, master_rows, probe_rows,
                                          two_clauses, columnar):
        premise = [("k", "k"), ("t1", "t1", edit_within(1))]
        if two_clauses:
            premise.append(("t2", "t2", edit_within(2)))
        md = MD(B_SCHEMA, B_SCHEMA, premise, [("v", "v")], name="md_bucket")
        with using_backend(columnar):
            master = Relation.from_dicts(
                B_SCHEMA, [{"k": k, "t1": a, "t2": b} for k, a, b in master_rows]
            )
            probes = Relation.from_dicts(
                B_SCHEMA, [{"k": k, "t1": a, "t2": b} for k, a, b in probe_rows]
            )
            index = MDBlockingIndex(md, master)
            # Twice: the first probe of a bucket builds its entries, the
            # second reads them.
            for _round in range(2):
                for t in probes:
                    bucket = index._exact.lookup((t["k"],))
                    expected = memberwise_filter(index, t, bucket)
                    assert [s.tid for s in index.candidates(t)] == [
                        s.tid for s in expected
                    ]


# ----------------------------------------------------------------------
# One index per premise
# ----------------------------------------------------------------------
P_SCHEMA = Schema("P", ["k", "title", "a", "b"])
P_MDS = [
    MD(P_SCHEMA, P_SCHEMA, [("k", "k"), ("title", "title", edit_within(2))],
       [("a", "a"), ("b", "b")], name="md_ab"),
    MD(P_SCHEMA, P_SCHEMA, [("k", "k")], [("a", "a")], name="md_k"),
    MD(P_SCHEMA, P_SCHEMA, [("title", "title", edit_within(1))],
       [("a", "a"), ("b", "b")], name="md_sim"),
]
P_MASTER_ROWS = [
    {"k": "k1", "title": "data cleaning", "a": "a1", "b": "b1"},
    {"k": "k1", "title": "data cleaninq", "a": "a2", "b": "b1"},
    {"k": "k2", "title": "record matching", "a": "a1", "b": "b2"},
    {"k": "k2", "title": NULL, "a": "a3", "b": "b3"},
    {"k": NULL, "title": "data repairing", "a": "a1", "b": "b1"},
]
p_values = {
    "k": st.sampled_from(["k1", "k2", NULL]),
    "title": st.sampled_from(
        ["data cleaning", "data cleanin", "data cleani", "record matchin",
         "data repairing", "unrelated", NULL]
    ),
    "a": st.sampled_from(["a1", "a2", "a3", NULL]),
    "b": st.sampled_from(["b1", "b2", "b3", NULL]),
}
p_rows = st.lists(st.fixed_dictionaries(p_values), min_size=1, max_size=6)


def per_md_verdict(relation, mds, master, md_indexes):
    """The final MD check as it ran before premise sharing: one pass per
    normalized MD, each with its own (unshared) index."""
    for md in mds:
        for normalized in md.normalize():
            rhs, master_attr = normalized.rhs_pair
            bindex = md_indexes.get(normalized.name)
            if bindex is None or not bindex.is_exact:
                bindex = MDBlockingIndex(normalized, master, use_suffix_tree=False)
            for t in relation:
                if is_null(t[rhs]):
                    continue
                for s in bindex.cached_matches(t):
                    if t[rhs] != s[master_attr]:
                        return False
    return True


def tids(matches):
    return [s.tid for s in matches]


def unshared_indexes(mds, master, engine):
    return {
        normalized.name: MDBlockingIndex(normalized, master, engine=engine)
        for md in mds
        for normalized in md.normalize()
    }


class TestPremiseSharing:
    """Normalized siblings resolve to one index whose lookups equal the
    unshared per-MD indexes' (invariant 41), and the per-premise final
    check gives the per-MD loop's verdict."""

    def test_siblings_share_one_index(self):
        master = Relation.from_dicts(P_SCHEMA, P_MASTER_ROWS)
        indexes = build_md_indexes(P_MDS, master)
        assert sorted(indexes) == [
            "md_ab#0", "md_ab#1", "md_k", "md_sim#0", "md_sim#1"
        ]
        assert indexes["md_ab#0"] is indexes["md_ab#1"]
        assert indexes["md_sim#0"] is indexes["md_sim#1"]
        distinct = {id(ix) for ix in indexes.values()}
        assert len(distinct) == 3  # one per distinct premise

    @pytest.mark.parametrize("engine", ["join", "reference"])
    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    @given(rows=p_rows)
    @settings(max_examples=30, deadline=None)
    def test_lookups_equal_unshared_indexes(self, engine, columnar, rows):
        with using_backend(columnar):
            master = Relation.from_dicts(P_SCHEMA, P_MASTER_ROWS)
            probes = Relation.from_dicts(P_SCHEMA, rows)
            shared = build_md_indexes(P_MDS, master, engine=engine)
            alone = unshared_indexes(P_MDS, master, engine)
            for t in probes:
                for name, index in shared.items():
                    reference = alone[name]
                    assert tids(index.matches(t)) == tids(reference.matches(t))
                    assert index.find_match(t) is reference.find_match(t)
                    # The shared cache may already hold a sibling's entry.
                    assert tids(index.cached_matches(t)) == tids(
                        reference.cached_matches(t)
                    )
                    assert index.cached_find_match(t) is (
                        reference.cached_find_match(t)
                    )

    @pytest.mark.parametrize("engine", ["join", "reference"])
    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    @given(rows=p_rows)
    @settings(max_examples=40, deadline=None)
    # A null in one sibling's RHS must not skip the other sibling: only
    # md_ab#1 sees this tuple's b2 against the master's b1 ("data
    # cleani" is two edits from both k1 titles, beyond md_sim's one).
    @example(rows=[{"k": "k1", "title": "data cleani", "a": NULL, "b": "b2"}])
    @example(rows=[{"k": "k1", "title": "data cleani", "a": "a3", "b": NULL}])
    @example(rows=[{"k": "k2", "title": "record matching", "a": "a1", "b": "b2"}])
    def test_final_check_equals_per_md_loop(self, engine, columnar, rows):
        with using_backend(columnar):
            master = Relation.from_dicts(P_SCHEMA, P_MASTER_ROWS)
            relation = Relation.from_dicts(P_SCHEMA, rows)
            shared = build_md_indexes(P_MDS, master, engine=engine)
            if engine == "reference":
                # md_sim's top-l retrieval is lossy: the verdict must take
                # the full-scan fallback, one per premise.
                assert not shared["md_sim#0"].is_exact
            expected = per_md_verdict(
                relation, P_MDS, master, unshared_indexes(P_MDS, master, engine)
            )
            assert relation_is_clean(
                relation, [], P_MDS, master, md_indexes=shared
            ) == expected
            only = [t.tid for t in relation][::2]
            subset = [relation.by_tid(tid) for tid in only]
            assert relation_is_clean(
                relation, [], P_MDS, master, md_indexes=shared, only_tids=only
            ) == per_md_verdict(
                subset, P_MDS, master, unshared_indexes(P_MDS, master, engine)
            )
