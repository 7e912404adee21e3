"""Property tests: the columnar repair kernels are byte-identical to
the dict backend's per-tuple reference loops, the one oracle.

The relation's backend alone picks how hRepair builds its equivalence
classes (ref-column class builder versus the seed-era per-tuple loop),
how violation checks scan and how group stores bulk-build.  The
standing invariant is that the choice is *unobservable*: ordered fix
logs (every field), per-cell cost maps, phase scheduling traces,
repaired states and clean verdicts must match byte for byte on both
backends.

Three families:

1. **Testbed equivalence** — full cleans of the HOSP and PART testbeds
   on both backends.
2. **Fuzzed mutation interleavings** — arbitrary edit / insert / remove
   sequences applied before cleaning; the whole repair trajectory must
   stay identical across backends.
3. **Value domain** — NaN (one shared object and a second one),
   ``-0.0``/``0.0``/``0``/``False``, NULL and non-ASCII strings under
   variable and constant CFDs and an equality MD: violation lists and
   full cleans, compared at ``repr`` level, match across backends.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.consistency import relation_is_clean, relation_violations
from repro.constraints import CFD, MD
from repro.core import UniClean, UniCleanConfig
from repro.evaluation import generate
from repro.exceptions import DataError
from repro.pipeline import CleaningSession
from repro.relational import NULL, Relation, Schema
from repro.relational.attribute import cell_changed
from repro.relational.columns import using_backend

#: name → columnar?; the dict backend is the oracle the columnar one
#: must reproduce byte for byte.
BACKENDS = {"columnar": True, "dict": False}


def _fingerprint(log, show=repr):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, show(f.old_value),
         show(f.new_value), repr(f.old_conf), repr(f.new_conf),
         repr(f.source))
        for f in log
    ]


def _full_state(relation, show=repr):
    names = relation.schema.names
    return {
        t.tid: tuple((show(t[a]), t.conf(a)) for a in names) for t in relation
    }


def _observables(session, result):
    return {
        "fix_log": _fingerprint(result.fix_log),
        "cost": result.cost,
        "cell_costs": dict(session._cell_costs),
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
def _clean_observables(dataset, columnar, **params):
    with using_backend(columnar):
        ds = generate(dataset, **params)
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), collect_traces=True,
        )
        result = session.clean(ds.dirty)
        return _observables(session, result)


@pytest.mark.parametrize("seed", [3, 7])
def test_hosp_repair_identical_across_engines(seed):
    results = {
        name: _clean_observables(
            "hosp", columnar,
            size=150, master_size=75, noise_rate=0.08, seed=seed,
        )
        for name, columnar in BACKENDS.items()
    }
    assert results["dict"]["fix_log"]  # workload must repair
    _assert_all_match(results, "dict")


@pytest.mark.parametrize("seed", [11, 23])
def test_part_repair_identical_across_engines(seed):
    results = {
        name: _clean_observables(
            "partitioned", columnar,
            size=600, n_blocks=8, noise_rate=0.05, seed=seed,
        )
        for name, columnar in BACKENDS.items()
    }
    assert results["dict"]["fix_log"]
    _assert_all_match(results, "dict")


# ----------------------------------------------------------------------
# 2. Fuzzed mutation interleavings
# ----------------------------------------------------------------------
SCHEMA = Schema("R", ["K", "A", "B"])
MASTER_SCHEMA = Schema("Rm", ["K", "B"])
CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [MD(SCHEMA, MASTER_SCHEMA, [("K", "K")], [("B", "B")], name="md_kb")]
MASTER_ROWS = [{"K": "k1", "B": "b1"}, {"K": "k2", "B": "b2"}]

keys = st.sampled_from(["k1", "k2", "k3"])
values = st.sampled_from(["a1", "a2", "b1", "b2", 0, 0.0, False, NULL])
rows = st.lists(st.tuples(keys, values, values), min_size=1, max_size=8)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            values,
        ),
        st.tuples(st.just("insert"), keys, values, values),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=0,
    max_size=10,
)


def _build_and_mutate(data, mutations):
    relation = Relation(SCHEMA)
    for k, a, b in data:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": 0.5})
    for op in mutations:
        live = list(relation.tids())
        if op[0] == "set":
            if not live:
                continue
            _tag, raw, attr, value = op
            t = relation.by_tid(live[raw % len(live)])
            relation.set_value(t, attr, value)
        elif op[0] == "insert":
            _tag, k, a, b = op
            relation.add_row({"K": k, "A": a, "B": b})
        else:
            if not live:
                continue
            relation.remove(live[op[1] % len(live)])
    return relation


def _trajectory(data, mutations, columnar):
    with using_backend(columnar):
        relation = _build_and_mutate(data, mutations)
        if not len(relation):
            return None
        master = Relation.from_dicts(MASTER_SCHEMA, MASTER_ROWS)
        session = CleaningSession(
            cfds=CFDS, mds=MDS, master=master,
            config=UniCleanConfig(eta=1.0), collect_traces=True,
        )
        result = session.clean(relation)
        return _observables(session, result)


class TestFuzzedRepairTrajectories:
    @given(rows, ops)
    @settings(max_examples=25, deadline=None)
    def test_trajectory_identical_across_engines(self, data, mutations):
        results = {
            name: _trajectory(data, mutations, columnar)
            for name, columnar in BACKENDS.items()
        }
        reference = results["dict"]
        if reference is None:
            assert all(observed is None for observed in results.values())
            return
        _assert_all_match(results, "dict")


# ----------------------------------------------------------------------
# 3. Value domain
# ----------------------------------------------------------------------
NAN = float("nan")  # one shared NaN object: equal to itself by identity
OTHER_NAN = float("nan")  # a second NaN, unequal to the first
UNHASHABLE = ["un", "hashable"]  # no cell may hold it
DOMAIN = [NAN, OTHER_NAN, -0.0, 0.0, 0, False, NULL, "ünïcødé ✓", "k", "x"]

_NAN_NAMES = {id(NAN): "NAN", id(OTHER_NAN): "OTHER_NAN"}


def _show(value):
    """``repr`` that tells the two NaN objects apart."""
    return _NAN_NAMES.get(id(value), repr(value))


V_SCHEMA = Schema("V", ["a", "b", "c"])
V_MASTER_SCHEMA = Schema("Vm", ["a", "c"])
#: Rule names a drawn rule set picks from; ``const`` and ``md`` take
#: their constants / master rows from the same domain as the data.
RULES = ("fd_ab", "fd_cb", "const", "md")

domain_values = st.sampled_from(DOMAIN)
confidences = st.sampled_from([None, 0.5, 1.0])
domain_rows = st.lists(
    st.tuples(domain_values, domain_values, domain_values, confidences),
    min_size=2,
    max_size=7,
)
rule_sets = st.lists(st.sampled_from(RULES), min_size=1, max_size=4, unique=True)
constants = st.tuples(
    st.sampled_from([v for v in DOMAIN if v is not NULL]),
    st.sampled_from([v for v in DOMAIN if v is not NULL]),
)
master_rows = st.lists(
    st.tuples(domain_values, domain_values), min_size=1, max_size=3
)


#: CFD ``c -> b`` over two conflicting groups keyed by distinct NaNs.
NAN_GROUP_ROWS = [
    ("k", "x", NAN, None), ("k", "y", NAN, None),
    ("k", "x", OTHER_NAN, None), ("k", "y", OTHER_NAN, None),
]


#: One tuple whose ``c`` holds the shared NaN object.
SAME_NAN_ROWS = [("k", "x", NAN, None)]


def _value_rules(names, constant):
    cfds = []
    if "fd_ab" in names:
        cfds.append(CFD(V_SCHEMA, ["a"], ["b"], name="fd_ab"))
    if "fd_cb" in names:
        cfds.append(CFD(V_SCHEMA, ["c"], ["b"], name="fd_cb"))
    if "const" in names:
        lhs, rhs = constant
        cfds.append(
            CFD(V_SCHEMA, ["a"], ["c"], {"a": lhs, "c": rhs}, name="const_ac")
        )
    mds = []
    if "md" in names:
        mds.append(
            MD(V_SCHEMA, V_MASTER_SCHEMA, [("a", "a")], [("c", "c")], name="md_ac")
        )
    return cfds, mds


def _value_observables(rows, names, constant, master, columnar):
    cfds, mds = _value_rules(names, constant)
    with using_backend(columnar):
        relation = Relation(V_SCHEMA)
        try:
            for a, b, c, conf in rows:
                relation.add_row(
                    {"a": a, "b": b, "c": c}, {"a": conf, "b": conf, "c": conf}
                )
        except Exception as exc:  # must fail the same way on both backends
            return {"raised": exc}
        assert (relation.column_store is not None) == columnar
        out = {
            semantics: [
                (v.constraint.name, v.tids, v.attr)
                for v in relation_violations(
                    relation, cfds, null_semantics=semantics
                )
            ]
            for semantics in ("tolerant", "strict")
        }
        master_relation = Relation.from_dicts(
            V_MASTER_SCHEMA, [{"a": a, "c": c} for a, c in master]
        )
        session = CleaningSession(
            cfds=cfds, mds=mds, master=master_relation if mds else None,
            config=UniCleanConfig(eta=1.0),
        )
        try:
            result = session.clean(relation)
        except Exception as exc:  # must fail the same way on both backends
            out["raised"] = exc
            return out
    # Every logged fix changes its cell (no ``nan -> nan`` on one NaN).
    assert all(cell_changed(f.old_value, f.new_value) for f in result.fix_log)
    out["fix_log"] = _fingerprint(result.fix_log, _show)
    out["state"] = _full_state(result.repaired, _show)
    out["cell_costs"] = [(cell, repr(c)) for cell, c in session._cell_costs.items()]
    out["cost"] = repr(result.cost)
    out["clean"] = result.clean
    return out


class TestValueDomain:
    @given(domain_rows, rule_sets, constants, master_rows)
    @settings(max_examples=150, deadline=None)
    # Two tuples of one a -> b group share one NaN object in b: the
    # pair is not a violation.
    @example([("k", NAN, "x", 0.5), ("k", NAN, "x", 0.5)], ["fd_ab"],
             ("k", "x"), [("k", "x")])
    # eRepair's majority is the shared NaN: one x -> nan fix and no
    # nan -> nan fixes on the cells that already hold it.
    @example([("k", NAN, "x", 0.5)] * 4 + [("k", "x", "x", 0.5)], ["fd_ab"],
             ("k", "x"), [("k", "x")])
    # hRepair merges two NaNs into the first one: the cell that already
    # holds it is not re-logged as a ``nan -> nan`` possible fix.
    @example([("k", NAN, "x", None), ("k", OTHER_NAN, "x", None)], ["fd_ab"],
             ("k", "x"), [("k", "x")])
    # -0.0 keeps its sign on the columnar backend.
    @example([(0.0, "x", "x", None), (-0.0, "x", "x", None)], ["fd_ab"],
             ("k", "x"), [("k", "x")])
    # Two c -> b groups keyed by distinct NaN objects (see below).
    @example(NAN_GROUP_ROWS, ["fd_cb"], ("k", "x"), [("k", "x")])
    # An unhashable cell: a cell holds a hashable atom, so the value is
    # refused where it enters, with the typed error.
    @example([("k", UNHASHABLE, "x", None), ("k", "x", "x", None)], ["fd_ab"],
             ("k", "x"), [("k", "x")])
    # A cell holding its master match's very NaN object is identified,
    # and so is one holding a constant CFD's very NaN constant.
    @example(SAME_NAN_ROWS, ["md"], ("k", "x"), [("k", NAN)])
    @example(SAME_NAN_ROWS, ["const"], ("k", NAN), [("k", "x")])
    def test_columnar_matches_dict_oracle(self, rows, names, constant, master):
        results = {
            name: _value_observables(rows, names, constant, master, columnar)
            for name, columnar in BACKENDS.items()
        }
        for name, observed in results.items():
            # Absolute: nothing but the typed error may escape.
            raised = observed.pop("raised", None)
            assert raised is None or type(raised) is DataError, (
                f"{name} raised {type(raised).__name__}: {raised}"
            )
            if raised is not None:
                observed["raised"] = str(raised)
        for key, expected in results["dict"].items():
            assert results["columnar"][key] == expected, (
                f"columnar diverged from dict on {key}"
            )

    def test_distinct_nan_group_keys_clean(self):
        """Two variable-CFD groups whose keys are distinct NaN objects
        print alike; the entropy tree tells them apart by their smallest
        member tid instead of raising a duplicate key."""
        cfds, mds = _value_rules(["fd_cb"], ("k", "x"))
        logs = {}
        for name, columnar in BACKENDS.items():
            with using_backend(columnar):
                relation = Relation(V_SCHEMA)
                for a, b, c, _conf in NAN_GROUP_ROWS:
                    relation.add_row({"a": a, "b": b, "c": c})
                result = UniClean(cfds=cfds, mds=mds).clean(relation)
            logs[name] = _fingerprint(result.fix_log, _show)
        assert logs["columnar"] == logs["dict"]
        assert logs["dict"]  # both groups conflict and get repaired


class TestSameNaNIsIdentified:
    """A cell holding the very NaN object its rule demands agrees with it
    (identity first, as every repair write compares): MD ``a -> c`` over
    master ``{a: k, c: NAN}`` and constant CFD ``a -> c`` with pattern
    ``{a: k, c: NAN}``, each over the row ``{a: k, b: x, c: NAN}``, are
    satisfied and need no fix, on both backends."""

    @pytest.mark.parametrize("columnar", BACKENDS.values(), ids=BACKENDS.keys())
    @pytest.mark.parametrize("rule", ["md", "const"])
    def test_no_fix_and_clean_verdict(self, rule, columnar):
        cfds, mds = _value_rules([rule], ("k", NAN))
        with using_backend(columnar):
            relation = Relation(V_SCHEMA)
            for a, b, c, _conf in SAME_NAN_ROWS:
                relation.add_row({"a": a, "b": b, "c": c})
            master = Relation.from_dicts(V_MASTER_SCHEMA, [{"a": "k", "c": NAN}])
            assert relation_is_clean(relation, cfds, mds, master)
            result = UniClean(cfds=cfds, mds=mds, master=master).clean(relation)
        assert list(result.fix_log) == []
        assert result.clean
        assert result.repaired.by_tid(0)["c"] is NAN
