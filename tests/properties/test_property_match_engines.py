"""Property tests: the similarity-join match engine is lossless and
byte-identical to exhaustive reference matching.

``REPRO_MATCH_ENGINE`` selects how ``MDBlockingIndex`` retrieves
similarity candidates for pure-similarity MD premises: the filtered
inverted-index join of ``matching/simjoin.py`` (``join``, the default)
versus the per-lookup top-``l`` suffix-tree retrieval (``reference``).
The join engine's filters are *necessary* conditions, so two properties
must hold everywhere:

1. **Filter losslessness** — its candidate set is a superset of the true
   match set of an exhaustive full scan;
2. **Byte-identity** — ``matches()``/``find_match()`` (and, through
   them, whole-pipeline fix logs, costs, states and verdicts) are
   identical to the exhaustive reference under every
   ``REPRO_COLUMNAR`` × ``REPRO_MATCH_ENGINE`` configuration.

Three families:

1. **Testbed equivalence** — full cleans of the DBLP and HOSP testbeds
   under all four backend×match-engine configurations, plus a
   pure-similarity-premise workload that actually exercises the join
   path inside a cleaning session.
2. **Fuzzed lookup equivalence** — hypothesis-generated master values,
   probes, and master edit/insert mutations between lookups (the index
   assumes an immutable master, so mutation means rebuild); candidates
   ⊇ scan matches and matches/find_match byte-identical, for both the
   edit-k and Jaccard-t filter families, and for an equality clause
   beside an edit-k clause under both engines (the q-gram signature
   filter inside equality buckets).
3. **Flag mechanics** — the engine switch validates input, restores on
   exit, and the per-index override beats the process-wide flag.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import MD
from repro.core import UniCleanConfig
from repro.evaluation import generate
from repro.indexing import MDBlockingIndex
from repro.pipeline import CleaningSession
from repro.relational import Relation, Schema
from repro.relational.columns import (
    match_engine,
    set_match_engine,
    using_backend,
    using_match_engine,
)
from repro.similarity import edit_within, qgram_jaccard_at_least

#: backend (columnar?) × match engine; the dict+reference entry is the
#: seed-era configuration every other one must reproduce byte for byte.
CONFIGS = [
    ("columnar+join", True, "join"),
    ("columnar+reference", True, "reference"),
    ("dict+join", False, "join"),
    ("dict+reference", False, "reference"),
]


def _fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.old_conf), repr(f.new_conf),
         repr(f.source))
        for f in log
    ]


def _full_state(relation):
    names = relation.schema.names
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in names) for t in relation
    }


def _observables(session, result):
    return {
        "fix_log": _fingerprint(result.fix_log),
        "cost": result.cost,
        "clean": result.clean,
        "state": _full_state(result.repaired),
        "traces": dict(session.last_traces),
    }


def _assert_all_match(results, reference_name):
    reference = results[reference_name]
    for name, observed in results.items():
        for key in reference:
            assert observed[key] == reference[key], (
                f"{name} diverged from {reference_name} on {key}"
            )


# ----------------------------------------------------------------------
# 1. Testbed equivalence
# ----------------------------------------------------------------------
def _clean_observables(dataset, columnar, engine, **params):
    with using_backend(columnar), using_match_engine(engine):
        ds = generate(dataset, **params)
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), collect_traces=True,
        )
        result = session.clean(ds.dirty)
        return _observables(session, result)


@pytest.mark.parametrize("seed", [3, 7])
def test_dblp_clean_identical_across_match_engines(seed):
    results = {
        name: _clean_observables(
            "dblp", columnar, engine,
            size=120, master_size=60, noise_rate=0.08, seed=seed,
        )
        for name, columnar, engine in CONFIGS
    }
    assert results["dict+reference"]["fix_log"]  # workload must repair
    _assert_all_match(results, "dict+reference")


@pytest.mark.parametrize("seed", [11, 23])
def test_hosp_clean_identical_across_match_engines(seed):
    results = {
        name: _clean_observables(
            "hosp", columnar, engine,
            size=150, master_size=75, noise_rate=0.08, seed=seed,
        )
        for name, columnar, engine in CONFIGS
    }
    assert results["dict+reference"]["fix_log"]
    _assert_all_match(results, "dict+reference")


# A workload whose MD premise is *pure similarity* — no equality clause —
# so cleaning sessions actually route through the similarity engine (the
# testbeds above all carry equality clauses and take the exact-index
# path).  The master stays below top_l so the reference suffix tree is
# exhaustive here and byte-identity is well-defined.
SIM_SCHEMA = Schema("S", ["name", "grade"])
SIM_MASTER_ROWS = [
    {"name": "alpha omega", "grade": "A"},
    {"name": "beta gamma", "grade": "B"},
    {"name": "delta epsilon", "grade": "C"},
]
SIM_DIRTY_ROWS = [
    {"name": "alpha omeg", "grade": "Z"},   # 1 deletion from master
    {"name": "beta gamma", "grade": "B"},   # exact
    {"name": "unrelated", "grade": "Q"},    # no match
]


def _sim_md():
    return MD(
        SIM_SCHEMA, SIM_SCHEMA,
        [("name", "name", edit_within(2))], [("grade", "grade")],
        name="md_sim",
    )


def test_pure_similarity_premise_clean_identical_across_configs():
    results = {}
    for name, columnar, engine in CONFIGS:
        with using_backend(columnar), using_match_engine(engine):
            master = Relation.from_dicts(SIM_SCHEMA, SIM_MASTER_ROWS)
            dirty = Relation.from_dicts(SIM_SCHEMA, SIM_DIRTY_ROWS)
            session = CleaningSession(
                cfds=[], mds=[_sim_md()], master=master,
                config=UniCleanConfig(eta=1.0), collect_traces=True,
            )
            result = session.clean(dirty)
            results[name] = _observables(session, result)
            if engine == "join":
                (index,) = session.md_indexes.values()
                assert index.join_index is not None  # join path exercised
    assert results["dict+reference"]["fix_log"]
    _assert_all_match(results, "dict+reference")


# ----------------------------------------------------------------------
# 2. Fuzzed lookup equivalence
# ----------------------------------------------------------------------
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "zeta"]
names = st.lists(
    st.sampled_from(WORDS), min_size=1, max_size=3
).map(" ".join)
typo_ops = st.sampled_from(["drop", "dup", "swap", "none"])
master_rows = st.lists(names, min_size=1, max_size=10)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), names),
        st.tuples(st.just("edit"), st.integers(min_value=0, max_value=99), names),
    ),
    min_size=0,
    max_size=4,
)
PREDICATES = [edit_within(2), qgram_jaccard_at_least(0.6)]


def _typo(value, op):
    if op == "drop" and len(value) > 1:
        return value[1:]
    if op == "dup":
        return value + value[-1]
    if op == "swap" and len(value) > 1:
        return value[1] + value[0] + value[2:]
    return value


def _assert_scan_equivalent(index, scan, probes):
    for probe in probes:
        true_matches = [s.tid for s in scan.matches(probe)]
        # losslessness: filters never drop a true match
        assert {s.tid for s in index.candidates(probe)} >= set(true_matches)
        # byte-identity: same matches, same order, same witness
        assert [s.tid for s in index.matches(probe)] == true_matches
        got = index.find_match(probe)
        want = scan.find_match(probe)
        assert (got.tid if got else None) == (want.tid if want else None)


def _assert_lookup_equivalence(master, probes, predicate, budget):
    md = MD(
        SIM_SCHEMA, SIM_SCHEMA,
        [("name", "name", predicate)], [("grade", "grade")],
    )
    scan = MDBlockingIndex(md, master, use_suffix_tree=False, engine="reference")
    _assert_scan_equivalent(
        MDBlockingIndex(md, master, engine="join"), scan, probes
    )
    # An equality clause beside edit_within(budget): both engines prune
    # the equality bucket by q-gram signature; the ablation index
    # verifies it unfiltered.
    blocked = MD(
        SIM_SCHEMA, SIM_SCHEMA,
        [("grade", "grade"), ("name", "name", edit_within(budget))],
        [("name", "name")],
    )
    scan = MDBlockingIndex(
        blocked, master, use_suffix_tree=False, engine="reference"
    )
    for engine in ("join", "reference"):
        _assert_scan_equivalent(
            MDBlockingIndex(blocked, master, engine=engine), scan, probes
        )


class TestFuzzedLookupEquivalence:
    @given(
        master_rows, names, typo_ops, mutations, st.sampled_from([0, 1]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_join_lossless_and_identical(
        self, rows, probe_name, op, master_ops, predicate_index, budget
    ):
        predicate = PREDICATES[predicate_index]
        master = Relation.from_dicts(
            SIM_SCHEMA, [{"name": n, "grade": "A"} for n in rows]
        )
        # Grade "A" puts the probe in the original rows' equality bucket.
        probes = [
            Relation.from_dicts(
                SIM_SCHEMA, [{"name": _typo(probe_name, op), "grade": "A"}]
            ).by_tid(0)
        ]
        _assert_lookup_equivalence(master, probes, predicate, budget)
        # master edits/inserts between lookups: the index contract assumes
        # an immutable master, so mutation means rebuild — equivalence
        # must survive arbitrary interleavings of edits and rebuilds.
        for mutation in master_ops:
            if mutation[0] == "insert":
                master.add_row({"name": mutation[1], "grade": "B"})
            else:
                _tag, raw, value = mutation
                tids = list(master.tids())
                t = master.by_tid(tids[raw % len(tids)])
                master.set_value(t, "name", value)
            _assert_lookup_equivalence(master, probes, predicate, budget)


# ----------------------------------------------------------------------
# 3. Flag mechanics
# ----------------------------------------------------------------------
class TestMatchEngineFlagMechanics:
    def test_set_match_engine_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_match_engine("hypersonic")

    def test_using_match_engine_restores(self):
        before = match_engine()
        with using_match_engine("reference"):
            assert match_engine() == "reference"
        assert match_engine() == before

    def test_config_override_reaches_session_indexes(self):
        master = Relation.from_dicts(SIM_SCHEMA, SIM_MASTER_ROWS)
        with using_match_engine("join"):
            session = CleaningSession(
                cfds=[], mds=[_sim_md()], master=master,
                config=UniCleanConfig(eta=1.0, match_engine="reference"),
            )
            session._ensure_md_indexes()
            assert all(
                ix.engine == "reference" for ix in session.md_indexes.values()
            )

    def test_old_configs_without_the_field_default_to_flag(self):
        config = UniCleanConfig(eta=1.0)
        del config.__dict__["match_engine"]  # simulate a pre-field pickle
        master = Relation.from_dicts(SIM_SCHEMA, SIM_MASTER_ROWS)
        with using_match_engine("reference"):
            session = CleaningSession(
                cfds=[], mds=[_sim_md()], master=master, config=config
            )
            session._ensure_md_indexes()
            assert all(
                ix.engine == "reference" for ix in session.md_indexes.values()
            )
