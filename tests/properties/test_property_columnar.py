"""Property tests: the columnar backend is byte-identical to the
dict backend, whose per-tuple reference loops are the oracle.

Four families:

1. **Backend equivalence** — full cleans of the HOSP and PART testbeds
   on both backends must produce identical fix logs (every field),
   per-cell cost totals, satisfaction verdicts, repaired states and
   phase scheduling traces.
2. **Fuzzed mutation interleavings** — arbitrary sequences of
   ``set_value`` / insert / delete / ``remove`` applied to a columnar
   relation and a dict-backed twin keep the two byte-identical, keep the
   columns coherent with the tuple views (group stores attached to the
   columnar relation pass ``check_consistency``), and keep retired tids
   dead.
3. **Zero-materialization regression** — the columnar bulk builds and
   the blocking-scan check loop never materialize a per-tuple ``_values``
   / ``_conf`` dict (the counter in :mod:`repro.relational.columns`).
4. **Column gather ≡ row-by-row copy** — ``clone()``,
   ``restrict(copy=True)`` and ``compact(force=True)`` copy exactly what
   an ``adopt_row`` loop over the resident tuples copies, into a dense,
   independent store, across adversarial value domains.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.consistency import relation_is_clean, relation_violations
from repro.constraints import CFD, MD
from repro.core import UniCleanConfig
from repro.evaluation import generate
from repro.indexing.group_store import GroupStoreRegistry
from repro.indexing.violation_index import ViolationIndex
from repro.pipeline import CleaningSession
from repro.relational import NULL, Relation, Schema
from repro.relational import columns
from repro.relational.columns import ColumnStore, using_backend

#: name → columnar?; the dict backend is the oracle the columnar one
#: must reproduce byte for byte.
BACKENDS = {"columnar": True, "dict": False}


def _fingerprint(log):
    return [
        (f.kind.value, f.rule_name, f.tid, f.attr, repr(f.old_value),
         repr(f.new_value), repr(f.source))
        for f in log
    ]


def _full_state(relation):
    names = relation.schema.names
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in names) for t in relation
    }


# ----------------------------------------------------------------------
# 1. Backend equivalence on the generated testbeds
# ----------------------------------------------------------------------
def _clean_observables(dataset: str, columnar: bool, **params):
    """One full traced clean on the given backend; everything
    observable, with no wall-clock anywhere."""
    with using_backend(columnar):
        ds = generate(dataset, **params)
        session = CleaningSession(
            cfds=ds.cfds, mds=ds.mds, master=ds.master,
            config=UniCleanConfig(eta=1.0), collect_traces=True,
        )
        result = session.clean(ds.dirty)
        return {
            "fix_log": _fingerprint(result.fix_log),
            "cost": result.cost,
            "clean": result.clean,
            "state": _full_state(result.repaired),
            "traces": dict(session.last_traces),
        }


@pytest.mark.parametrize("seed", [3, 7])
def test_hosp_clean_identical_across_engines(seed):
    results = {
        name: _clean_observables(
            "hosp", columnar,
            size=150, master_size=75, noise_rate=0.08, seed=seed,
        )
        for name, columnar in BACKENDS.items()
    }
    reference = results["dict"]
    assert reference["fix_log"]  # the workload must actually repair
    for name, observed in results.items():
        assert observed == reference, f"{name} diverged from the reference"


@pytest.mark.parametrize("seed", [11, 23])
def test_part_clean_identical_across_engines(seed):
    results = {
        name: _clean_observables(
            "partitioned", columnar,
            size=600, n_blocks=8, noise_rate=0.05, seed=seed,
        )
        for name, columnar in BACKENDS.items()
    }
    reference = results["dict"]
    assert reference["fix_log"]
    for name, observed in results.items():
        assert observed == reference, f"{name} diverged from the reference"


def test_violation_scan_identical_across_engines():
    """`relation_violations` itself (both null semantics) byte-matches."""
    observed = {}
    for name, columnar in BACKENDS.items():
        with using_backend(columnar):
            ds = generate("hosp", size=200, master_size=100, noise_rate=0.1, seed=5)
        assert (ds.dirty.column_store is not None) == columnar
        observed[name] = [
            [
                (v.constraint.name, v.tids, v.attr)
                for v in relation_violations(
                    ds.dirty, ds.cfds, null_semantics=semantics
                )
            ]
            for semantics in ("tolerant", "strict")
        ] + [relation_is_clean(ds.dirty, ds.cfds, ds.mds, ds.master)]
    assert observed["columnar"] == observed["dict"]


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
        st.tuples(
            st.just("conf"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            st.sampled_from([None, 0.0, 0.5, 1.0]),
        ),
        st.tuples(st.just("insert"), keys, values, values),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=1,
    max_size=12,
)


def _build(data, columnar: bool) -> Relation:
    with using_backend(columnar):
        relation = Relation(SCHEMA)
    for k, a, b in data:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": 0.5})
    return relation


def _apply_ops(relation: Relation, compact) -> None:
    for op in compact:
        live = list(relation.tids())
        if op[0] == "set":
            if not live:
                continue
            _tag, raw, attr, value = op
            t = relation.by_tid(live[raw % len(live)])
            relation.set_value(t, attr, value)
        elif op[0] == "conf":
            if not live:
                continue
            _tag, raw, attr, conf = op
            relation.by_tid(live[raw % len(live)]).set_conf(attr, conf)
        elif op[0] == "insert":
            _tag, k, a, b = op
            relation.add_row({"K": k, "A": a, "B": b})
        else:
            if not live:
                continue
            relation.remove(live[op[1] % len(live)])


class TestFuzzedInterleavings:
    @given(rows, ops)
    @settings(max_examples=80, deadline=None)
    def test_columnar_tracks_dict_twin(self, data, compact):
        columnar = _build(data, columnar=True)
        flat = _build(data, columnar=False)
        registry = GroupStoreRegistry(columnar)
        for cfd in CFDS:
            registry.cfd_store(cfd)
        for md in MDS:
            registry.md_store(md)
        _apply_ops(columnar, compact)
        _apply_ops(flat, compact)

        assert columnar.tids() == flat.tids()
        assert _full_state(columnar) == _full_state(flat)
        assert columnar._retired == flat._retired
        assert columnar._next_tid == flat._next_tid

        # Attached group stores stayed coherent with the column mutations.
        registry.check_consistency()

        # Retired tids stay dead — in the tuple map and in the store.
        store = columnar.column_store
        for tid in columnar._retired:
            assert not columnar.has_tid(tid)
            assert columnar.tid_retired(tid)
            assert store.dead.get(store.row_of[tid])
            assert store.row_tids[store.row_of[tid]] == -1 - tid
        assert store.live_rows() >= len(columnar)

        # Bulk accessors agree with the per-tuple view after mutation.
        table = store.table
        for attr in SCHEMA.names:
            assert [
                table.values[r] for r in columnar.column(attr)
            ] == [t[attr] for t in flat]
        assert columnar.project(SCHEMA.names) == flat.project(SCHEMA.names)
        grouped = {
            key: [t.tid for t in members]
            for key, members in columnar.group_by(["K"]).items()
        }
        flat_grouped = {
            key: [t.tid for t in members]
            for key, members in flat.group_by(["K"]).items()
        }
        assert grouped == flat_grouped

    @given(rows, ops)
    @settings(max_examples=40, deadline=None)
    def test_violations_identical_after_interleaving(self, data, compact):
        columnar = _build(data, columnar=True)
        flat = _build(data, columnar=False)
        _apply_ops(columnar, compact)
        _apply_ops(flat, compact)
        fast = relation_violations(columnar, CFDS)
        slow = relation_violations(flat, CFDS)
        assert [
            (v.constraint.name, v.tids, v.attr) for v in fast
        ] == [(v.constraint.name, v.tids, v.attr) for v in slow]


# ----------------------------------------------------------------------
# 3. Zero per-tuple dict materializations on the hot loop
# ----------------------------------------------------------------------
def test_blocking_scan_hot_loop_materializes_no_dicts():
    """Bulk group-store builds, the violation-index build and the
    vectorized check scan must never touch ``_values``/``_conf`` — the
    regression guard for the blocking-scan hot loop (CI job
    ``columnar-equivalence-smoke``)."""
    with using_backend(True):
        ds = generate("hosp", size=120, master_size=60, noise_rate=0.1, seed=9)
    relation = ds.dirty
    assert relation.column_store is not None
    from repro.constraints.rules import derive_rules

    rules = derive_rules(ds.cfds, ds.mds)
    before = columns.materializations()
    registry = GroupStoreRegistry(relation, attach=False)
    registry.ensure_rules(rules)
    index = ViolationIndex(relation, derive_rules(ds.cfds), attach=False)
    relation_violations(relation, ds.cfds, violation_index=index)
    relation_violations(relation, ds.cfds, null_semantics="strict")
    assert columns.materializations() == before, (
        "the vectorized hot loop materialized per-tuple dicts"
    )


# ----------------------------------------------------------------------
# 4. The column gather against a row-by-row copy
# ----------------------------------------------------------------------
NAN = float("nan")
# Intern 256 fillers first: WIDE's ref cannot fit one byte, so any column
# holding it must widen past the 8-bit refs.
for _i in range(256):
    columns.GLOBAL_TABLE.ref(f"gather-filler-{_i}")
WIDE = "gather-wide"
columns.GLOBAL_TABLE.ref(WIDE)

domain = st.sampled_from(
    ["a1", "b2", NAN, -0.0, 0, 0.0, False, "ünïcødé ✓", NULL, WIDE]
)
gather_rows = st.lists(st.tuples(keys, domain, domain), min_size=0, max_size=8)
gather_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys, domain, domain),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
        st.tuples(
            st.just("set"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            domain,
        ),
        st.tuples(
            st.just("conf"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            st.sampled_from([None, 0.0, 0.5, 1.0]),
        ),
        st.tuples(
            st.just("install"),
            st.integers(min_value=0, max_value=99),
            st.sampled_from(["K", "A", "B"]),
            domain,
        ),
        st.tuples(st.just("view"), st.integers(min_value=0, max_value=255)),
    ),
    min_size=0,
    max_size=16,
)


def _mutate(relation: Relation, compact, keep_alive: list) -> Relation:
    """Apply *compact* ops; a ``view`` op continues on a zero-copy
    restriction (the parent is kept alive in *keep_alive*)."""
    for op in compact:
        live = list(relation.tids())
        if op[0] == "add":
            _tag, k, a, b = op
            relation.add_row({"K": k, "A": a, "B": b}, {"A": 0.5})
        elif op[0] == "view":
            keep_alive.append(relation)
            relation = relation.restrict(
                [tid for i, tid in enumerate(live) if op[1] >> (i % 8) & 1],
                copy=False,
            )
        elif not live:
            continue
        elif op[0] == "remove":
            relation.remove(live[op[1] % len(live)])
        elif op[0] == "set":
            _tag, raw, attr, value = op
            relation.set_value(relation.by_tid(live[raw % len(live)]), attr, value)
        elif op[0] == "conf":
            _tag, raw, attr, conf = op
            relation.by_tid(live[raw % len(live)]).set_conf(attr, conf)
        else:  # install: a fresh row for a live tid, the old one left behind
            _tag, raw, attr, value = op
            twin = relation.by_tid(live[raw % len(live)]).clone()
            twin[attr] = value
            relation._install(twin)
    return relation


def _row_by_row(relation: Relation, tids) -> ColumnStore:
    """The oracle: a per-row copy, one ``adopt_row`` per resident tid."""
    source = relation.column_store
    store = ColumnStore(relation.schema, source.table)
    for tid in tids:
        store.adopt_row(tid, source, relation.by_tid(tid)._row)
    return store


def _cells(relation: Relation):
    names = relation.schema.names
    return {
        t.tid: ([t[a] for a in names], [t.conf(a) for a in names])
        for t in relation
    }


def _assert_gathered(copy: Relation, oracle: ColumnStore, source_cells) -> None:
    """*copy* holds exactly the oracle's rows, densely, by identity."""
    store = copy.column_store
    tids = list(copy.tids())
    assert tids == oracle.row_tids and store.row_tids == tids
    assert store.row_of == {tid: row for row, tid in enumerate(tids)}
    assert [t._row for t in copy] == list(range(len(tids)))
    assert store.n_dead == 0 and not any(store.dead.bits)
    assert len(store.dead) == len(tids)
    assert copy._live_rows()[1] is None  # the contiguous fast path
    assert not store.shared
    for i in range(len(store.values)):
        assert list(store.values[i]) == list(oracle.values[i])
        assert list(store.confs[i]) == list(oracle.confs[i])
        assert [store.nulls[i].get(r) for r in range(len(tids))] == [
            oracle.nulls[i].get(r) for r in range(len(tids))
        ]
    for tid, (values, confs) in _cells(copy).items():
        want_values, want_confs = source_cells[tid]
        assert all(v is w for v, w in zip(values, want_values))
        assert all(c is w for c, w in zip(confs, want_confs))


def _assert_independent(copy: Relation, source: Relation) -> None:
    """An edit on either side never shows on the other."""
    if not len(copy):
        return
    tid = copy.tids()[0]
    marker = object()
    before = source.by_tid(tid)["A"]
    copy.set_value(copy.by_tid(tid), "A", marker)
    assert source.by_tid(tid)["A"] is before
    other = object()
    source.set_value(source.by_tid(tid), "A", other)
    assert copy.by_tid(tid)["A"] is marker
    rows = len(source.column_store.row_tids)
    copy.add_row({"K": "k1"})
    assert len(source.column_store.row_tids) == rows


class TestColumnGather:
    @given(gather_rows, gather_ops, st.integers(min_value=0, max_value=255))
    @settings(max_examples=80, deadline=None)
    def test_clone_restrict_compact_match_row_by_row(self, data, compact, mask):
        with using_backend(True):
            relation = Relation(SCHEMA)
        for k, a, b in data:
            relation.add_row({"K": k, "A": a, "B": b}, {"K": 0.5})
        keep_alive: list = []
        relation = _mutate(relation, compact, keep_alive)
        tids = list(relation.tids())
        cells = _cells(relation)

        clone = relation.clone()
        _assert_gathered(clone, _row_by_row(relation, tids), cells)
        assert clone._next_tid == relation._next_tid
        assert clone._retired == relation._retired

        kept = [tid for i, tid in enumerate(tids) if mask >> (i % 8) & 1]
        restricted = relation.restrict(kept, copy=True)
        _assert_gathered(restricted, _row_by_row(relation, kept), cells)
        assert restricted._next_tid == relation._next_tid
        assert restricted._retired == relation._retired

        oracle = _row_by_row(relation, tids)
        shared = relation.column_store.shared
        assert relation.compact(force=True) == (not shared)
        if not shared:
            _assert_gathered(relation, oracle, cells)
        assert _cells(relation).keys() == cells.keys()

        _assert_independent(clone, relation)
        _assert_independent(restricted, relation)
