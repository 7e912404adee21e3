"""CleaningSession: persistent state, delta-driven re-cleaning, wrappers."""

import random
import sys

import pytest

from repro.constraints import CFD, MD
from repro.core import UniClean, UniCleanConfig
from repro.core.cost import cell_cost
from repro.datasets import generate_partitioned, part_rules
from repro.exceptions import DataError
from repro.pipeline import Changeset, CleaningSession
from repro.relational import CTuple, Relation, Schema
from repro.relational.attribute import cell_changed
from repro.relational.columns import using_backend

SCHEMA = Schema("R", ["K", "A", "B"])
MASTER_SCHEMA = Schema("Rm", ["K", "B"])

CFDS = [
    CFD(SCHEMA, ["K"], ["A"], name="fd_ka"),
    CFD(SCHEMA, ["A"], ["B"], name="fd_ab"),
    CFD(SCHEMA, ["K"], ["B"], {"K": "k1", "B": "b1"}, name="const_kb"),
]
MDS = [MD(SCHEMA, MASTER_SCHEMA, [("K", "K")], [("B", "B")], name="md_kb")]


def build_relation(rows) -> Relation:
    relation = Relation(SCHEMA)
    for k, a, b, ck, ca, cb in rows:
        relation.add_row({"K": k, "A": a, "B": b}, {"K": ck, "A": ca, "B": cb})
    return relation


def build_master() -> Relation:
    return Relation.from_dicts(
        MASTER_SCHEMA, [{"K": "k1", "B": "b1"}, {"K": "k2", "B": "b2"}]
    )


DIRTY = [
    ("k1", "a1", "b2", 1.0, 1.0, 0.0),
    ("k1", "a2", "b1", 1.0, 0.0, 0.5),
    ("k2", "a2", "b2", 1.0, 1.0, 0.0),
    ("k2", "a3", "b2", 0.0, 0.5, 0.0),
    ("k3", "a3", "b3", 0.5, 0.0, 0.0),
]


def state(relation: Relation):
    return {t.tid: {a: t[a] for a in relation.schema.names} for t in relation}


def scratch_state(base: Relation, config: UniCleanConfig):
    cleaner = UniClean(cfds=CFDS, mds=MDS, master=build_master(), config=config)
    return state(cleaner.clean(base).repaired)


@pytest.fixture()
def session() -> CleaningSession:
    return CleaningSession(
        cfds=CFDS, mds=MDS, master=build_master(), config=UniCleanConfig(eta=0.8)
    )


class TestClean:
    def test_matches_uniclean(self, session):
        dirty = build_relation(DIRTY)
        result = session.clean(dirty)
        reference = UniClean(
            cfds=CFDS, mds=MDS, master=build_master(), config=UniCleanConfig(eta=0.8)
        ).clean(dirty)
        assert state(result.repaired) == state(reference.repaired)
        assert result.clean == reference.clean
        assert [f.cell for f in result.fix_log] == [f.cell for f in reference.fix_log]

    def test_input_never_modified(self, session):
        dirty = build_relation(DIRTY)
        before = state(dirty)
        session.clean(dirty)
        assert state(dirty) == before

    def test_session_owns_private_base(self, session):
        dirty = build_relation(DIRTY)
        session.clean(dirty)
        session.apply(Changeset().edit(0, "B", "zzz"))
        assert dirty.by_tid(0)["B"] == "b2"  # caller's relation untouched


class TestApply:
    def test_requires_clean_first(self, session):
        with pytest.raises(DataError):
            session.apply(Changeset().edit(0, "A", "x"))

    def test_invalid_changeset_is_all_or_nothing(self, session):
        """A bad op must not leave the base half-mutated: the session
        validates the whole changeset before touching anything."""
        session.clean(build_relation(DIRTY))
        before = state(session.base)
        with pytest.raises(DataError):
            session.apply(Changeset().edit(0, "B", "zzz").delete(999))
        assert state(session.base) == before  # the edit did not land
        # The session is still consistent: a later valid apply is exact.
        out = session.apply(Changeset().edit(0, "B", "zzz"))
        assert state(out.repaired) == scratch_state(session.base, session.config)

    def test_edit_matches_scratch(self, session):
        session.clean(build_relation(DIRTY))
        out = session.apply(Changeset().edit(3, "K", "k1"))
        assert state(out.repaired) == scratch_state(session.base, session.config)
        assert out.clean

    def test_insert_matches_scratch(self, session):
        session.clean(build_relation(DIRTY))
        out = session.apply(
            Changeset().insert({"K": "k1", "A": "a9", "B": "b9"}, {"K": 1.0})
        )
        assert state(out.repaired) == scratch_state(session.base, session.config)

    def test_delete_matches_scratch(self, session):
        session.clean(build_relation(DIRTY))
        out = session.apply(Changeset().delete(1))
        assert not out.repaired.has_tid(1)
        assert state(out.repaired) == scratch_state(session.base, session.config)
        assert all(fix.tid != 1 for fix in out.fix_log)

    def test_sequential_batches_match_scratch(self, session):
        session.clean(build_relation(DIRTY))
        batches = [
            Changeset().edit(0, "B", "b9", conf=1.0),
            Changeset().edit(4, "K", "k1").insert({"K": "k3", "A": "a3", "B": "b4"}),
            Changeset().delete(2).edit(1, "A", "a1"),
        ]
        for batch in batches:
            out = session.apply(batch)
            assert state(out.repaired) == scratch_state(session.base, session.config)

    def test_empty_changeset_is_noop(self, session):
        result = session.clean(build_relation(DIRTY))
        before = state(result.repaired)
        log_before = list(session.fix_log)
        assert session.apply(Changeset()) is None
        assert state(session.working) == before
        assert list(session.fix_log) == log_before

    def test_affected_is_a_fraction_on_disjoint_edit(self):
        # Two blocks with disjoint value spaces: an edit in one block must
        # not drag the other into the replay scope.
        rows = []
        for i in range(10):
            rows.append((f"x{i % 3}", f"xa{i % 3}", f"xb{i % 2}", 0.0, 0.0, 0.0))
        for i in range(10):
            rows.append((f"y{i % 3}", f"ya{i % 3}", f"yb{i % 2}", 0.0, 0.0, 0.0))
        session = CleaningSession(cfds=CFDS, config=UniCleanConfig(eta=0.8))
        session.clean(build_relation(rows))
        out = session.apply(Changeset().edit(0, "B", "xb9"))
        # Only x-block tuples can be in scope (no shared groups with y).
        assert 0 < out.affected <= 10
        assert state(out.repaired) == {
            t.tid: {a: t[a] for a in SCHEMA.names}
            for t in UniClean(cfds=CFDS, config=UniCleanConfig(eta=0.8))
            .clean(session.base)
            .repaired
        }

    def test_legacy_engine_falls_back_to_full_reclean(self):
        config = UniCleanConfig(eta=0.8, use_violation_index=False)
        session = CleaningSession(
            cfds=CFDS, mds=MDS, master=build_master(), config=config
        )
        session.clean(build_relation(DIRTY))
        out = session.apply(Changeset().edit(0, "B", "b9"))
        assert out.full_reclean
        assert state(out.repaired) == scratch_state(session.base, config)

    def test_summary_renders(self, session):
        session.clean(build_relation(DIRTY))
        text = session.apply(Changeset().edit(0, "B", "b9")).summary()
        assert "affected" in text and "clean=" in text


class TestApplyManyContract:
    """The empty-batch no-op contract: nothing in, nothing happens."""

    def test_empty_list_returns_none(self, session):
        session.clean(build_relation(DIRTY))
        before = state(session.working)
        assert session.apply_many([]) is None
        assert state(session.working) == before

    def test_opless_changesets_return_none(self, session):
        session.clean(build_relation(DIRTY))
        before = state(session.working)
        assert session.apply_many([Changeset(), Changeset()]) is None
        assert state(session.working) == before

    def test_requires_clean_first_even_when_empty(self, session):
        with pytest.raises(DataError):
            session.apply_many([])

    def test_nonempty_batch_still_applies(self, session):
        session.clean(build_relation(DIRTY))
        out = session.apply_many(
            [Changeset(), Changeset().edit(0, "B", "b9"), Changeset()]
        )
        assert out is not None
        assert state(out.repaired) == scratch_state(session.base, session.config)


class TestSharedState:
    def test_md_indexes_persist_across_cleans(self, session):
        session.clean(build_relation(DIRTY))
        first = dict(session.md_indexes)
        session.clean(build_relation(DIRTY))
        assert dict(session.md_indexes) == first  # same objects, not rebuilt

    def test_registry_shared_by_check_index(self, session):
        session.clean(build_relation(DIRTY))
        # The satisfaction-check index reads the registry's live stores.
        store = session.registry.cfd_store(CFDS[0])
        assert any(part is store for part in session._check_index._cfd_parts.values())

    def test_close_detaches_observers(self, session):
        session.clean(build_relation(DIRTY))
        working = session.working
        session.close()
        assert working._observers == []
        assert working._insert_observers == []
        assert working._delete_observers == []


class TestBaseSideReuse:
    """The base and its variable-CFD group stores outlive full replays:
    built by the first apply, kept coherent by their observers, dropped
    only when clean() or a restore replaces the base."""

    def test_base_registry_built_on_first_apply(self, session):
        session.clean(build_relation(DIRTY))
        assert session.base_registry is None
        session.apply(Changeset().edit(0, "B", "b9"))
        assert session.base_registry is not None
        session.base_registry.check_consistency()

    def test_clean_replaces_base_and_drops_its_stores(self, session):
        session.clean(build_relation(DIRTY))
        session.apply(Changeset().edit(0, "B", "b9"))
        base = session.base
        session.clean(build_relation(DIRTY))
        assert session.base is not base and session.base_registry is None
        assert base._observers == [] and base._delete_observers == []

    def test_reclean_requires_a_base(self, session):
        with pytest.raises(DataError):
            session.reclean()

    @pytest.mark.parametrize("columnar", [True, False])
    def test_seeded_op_mix_keeps_base_and_matches_scratch(self, columnar):
        """Catalog edits, score edits, deletes, inserts and premise edits,
        so both strategies run: after every apply the session still owns
        the same base, its stores match a fresh build, and state, final
        fix marks and per-cell costs equal a from-scratch clean."""
        with using_backend(columnar):
            ds = generate_partitioned(size=96, n_blocks=4, seed=5)
        cfds, mds = part_rules(5)
        config = UniCleanConfig(eta=1.0)
        session = CleaningSession(
            cfds=cfds, mds=mds, master=ds.master, config=config
        )
        session.clean(ds.dirty)
        base = session.base
        assert (base.column_store is not None) == columnar
        rng = random.Random(11)
        grps = sorted({t["grp"] for t in base})
        modes = set()
        for kind in ["cat", "score", "delete", "cat", "insert", "premise"] * 3:
            live = list(base.tids())
            tid = rng.choice(live)
            changeset = Changeset()
            if kind == "cat":
                changeset.edit(tid, "cat", base.by_tid(rng.choice(live))["cat"])
            elif kind == "score":
                changeset.edit(tid, "score", str(rng.randrange(5, 100)))
            elif kind == "delete":
                changeset.delete(tid)
            elif kind == "insert":
                changeset.insert(base.by_tid(tid).as_dict())
            else:
                changeset.edit(tid, "grp", rng.choice(grps))
            out = session.apply(changeset)
            modes.add(out.full_reclean)
            assert session.base is base
            session.base_registry.check_consistency()
            scratch = CleaningSession(
                cfds=cfds, mds=mds, master=ds.master, config=config
            )
            reference = scratch.clean(base)
            assert state(out.repaired) == state(reference.repaired)
            assert out.clean == reference.clean
            assert {
                cell: (fix.kind, fix.rule_name)
                for cell, fix in out.fix_log._latest.items()
            } == {
                cell: (fix.kind, fix.rule_name)
                for cell, fix in reference.fix_log._latest.items()
            }
            assert session._cell_costs == scratch._cell_costs
            # Scoped applies re-order the cost map, so the float sums may
            # differ in the last bits; the per-cell map above is exact.
            assert out.cost == pytest.approx(reference.cost, abs=1e-9)
        assert modes == {True, False}  # both strategies ran


class TestNaNCost:
    """An untouched NaN cell is unequal to itself, yet costs nothing."""

    @pytest.mark.parametrize("columnar", [True, False])
    def test_untouched_nan_is_not_charged(self, columnar):
        schema = Schema("N", ["a", "b", "x"])
        nan = float("nan")
        with using_backend(columnar):
            relation = Relation(schema)
        relation.add_row({"a": "k", "b": "1", "x": nan}, {"a": 0.9, "b": 0.2, "x": 0.8})
        relation.add_row({"a": "k", "b": "2", "x": 1.5})
        session = CleaningSession(
            cfds=[CFD(schema, ["a"], ["b"])], config=UniCleanConfig(eta=1.0)
        )
        assert session.clean(relation).cost == pytest.approx(0.2)
        # A scoped apply re-derives the NaN cell's cost incrementally.
        out = session.apply(Changeset().edit(0, "x", nan))
        assert not out.full_reclean
        assert out.cost == pytest.approx(0.2)
        assert (0, "x") not in session._cell_costs


class TestCostRebuild:
    """A re-clean charges only fix-log cells, yet its cost map equals a
    walk of every base cell: same entries, same order, same float sum
    (invariant 40)."""

    SCHEMA = Schema("V", ["a", "b", "c"])
    MASTER = Schema("Vm", ["a", "b"])
    NAN = float("nan")

    def _session(self, columnar):
        schema, nan = self.SCHEMA, self.NAN
        rows = [
            ("j", nan, "z"), ("k", nan, "x"), ("j", nan, "y"), ("j", "x", "z"),
            ("j", nan, "z"), ("j", nan, "x"), ("q", nan, "w"),
        ]
        confs = [
            (1.0, 0.5, None), (None, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, None),
            (None, 0.5, None), (1.0, 1.0, 0.5), (None, None, None),
        ]
        with using_backend(columnar):
            relation = Relation(schema)
            # Base order is not tid order: the cost map follows the base.
            for tid in reversed(range(len(rows))):
                relation.add(
                    CTuple(
                        schema,
                        dict(zip(schema.names, rows[tid])),
                        dict(zip(schema.names, confs[tid])),
                        tid=tid,
                    )
                )
            master = Relation.from_dicts(self.MASTER, [{"a": "k", "b": "x"}])
        session = CleaningSession(
            cfds=[
                CFD(schema, ["a"], ["b"], name="fd_ab"),
                CFD(schema, ["c"], ["b"], name="fd_cb"),
            ],
            mds=[MD(schema, self.MASTER, [("a", "a")], [("b", "b")], name="md")],
            master=master,
            config=UniCleanConfig(eta=1.0),
        )
        return session, session.clean(relation)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_cost_map_equals_a_walk_of_every_base_cell(self, columnar):
        session, result = self._session(columnar)
        base, working = session.base, session.working
        walk = {
            (t.tid, a): cell_cost(t[a], working.by_tid(t.tid)[a], t.conf(a))
            for t in base
            for a in base.schema.names
            if cell_changed(t[a], working.by_tid(t.tid)[a])
        }
        assert list(session._cell_costs.items()) == list(walk.items())
        assert result.cost == sum(walk.values())
        # eRepair moves (3, b) off its base value and hRepair moves it
        # back: a fix-log cell without a cost entry.
        assert [f.kind.value for f in result.fix_log if f.cell == (3, "b")] == [
            "reliable", "possible",
        ]
        assert working.by_tid(3)["b"] == base.by_tid(3)["b"]
        assert (3, "b") not in session._cell_costs
        # NaN cells: the repaired ones are charged, the untouched one
        # (its own NaN object on both sides) is not.
        assert (0, "b") in session._cell_costs
        assert working.by_tid(6)["b"] is base.by_tid(6)["b"]
        assert (6, "b") not in session._cell_costs


class TestUniCleanWrapper:
    def test_clean_twice_reuses_md_indexes(self):
        cleaner = UniClean(
            cfds=CFDS, mds=MDS, master=build_master(), config=UniCleanConfig(eta=0.8)
        )
        first = cleaner.clean(build_relation(DIRTY))
        cached = dict(cleaner._md_indexes)
        second = cleaner.clean(build_relation(DIRTY))
        assert dict(cleaner._md_indexes) == cached
        assert [f.cell for f in first.fix_log] == [f.cell for f in second.fix_log]


#: name -> (rows, changeset ops, expected ``full_reclean_reason``); each
#: is the smallest case found for its reason (eta = 0.8).
REASON_CASES = {
    "scoped": (
        [("k1", "b1", "b2", 0.0, 0.5, 0.0), ("k3", "b1", "a1", 0.0, 0.5, 0.0)],
        [("edit", 0, "B", "b1", 1.0)], None,
    ),
    "insert": (DIRTY, [("insert", {"K": "k1", "A": "a1", "B": "b1"})],
               ("insert", None)),
    "premise_edit": (DIRTY, [("edit", 0, "K", "k2", None)],
                     ("premise_cell", (0, "K"))),
    "premise_delete": (
        [("k2", "a2", "a1", 0.5, 1.0, 1.0), ("k2", "a2", "a1", 1.0, 0.0, 1.0)],
        [("delete", 1)], ("premise_cell", (0, "A")),
    ),
    "transit": (
        [("k1", "a1", "b2", 0.0, 1.0, 0.0), ("k1", "b2", "b1", 1.0, 0.5, 1.0)],
        [("edit", 1, "B", "b2", 1.0)], ("transit", ("A", "a1")),
    ),
    "evolved_membership": (
        [("k2", "a1", "a1", 1.0, 0.5, 0.5), ("k1", "a1", "b2", 1.0, 0.5, 0.5)],
        [("edit", 1, "B", "b1", 0.0)], ("evolved_membership", (0, "A")),
    ),
    "escaped_write": (
        [("k1", "a2", "a1", 0.0, 1.0, 0.5), ("k1", "a2", "b1", 0.0, 1.0, 0.0)],
        [("edit", 0, "B", "b2", 1.0)], ("escaped_write", (1, "K")),
    ),
}


def _changeset(ops) -> Changeset:
    changeset = Changeset()
    for op in ops:
        if op[0] == "edit":
            _tag, tid, attr, value, conf = op
            if conf is None:
                changeset.edit(tid, attr, value)
            else:
                changeset.edit(tid, attr, value, conf=conf)
        elif op[0] == "insert":
            changeset.insert(op[1])
        else:
            changeset.delete(op[1])
    return changeset


def _reason_of(name, columnar, config=None):
    rows, ops, _expected = REASON_CASES[name]
    config = config or UniCleanConfig(eta=0.8)
    with using_backend(columnar):
        session = CleaningSession(
            cfds=CFDS, mds=MDS, master=build_master(), config=config
        )
        session.clean(build_relation(rows))
        out = session.apply(_changeset(ops))
        assert state(out.repaired) == scratch_state(session.base, config)
    assert out.full_reclean == (out.full_reclean_reason is not None)
    return out.full_reclean_reason


#: Run in a subprocess per hash seed: the reasons of every case above
#: plus a run of PART deletes, whose closures start from several seeds.
_SEEDED_REASONS = """
import sys
sys.path.insert(0, {tests!r})
from test_session import REASON_CASES, _reason_of
from repro.core import UniCleanConfig
from repro.datasets import generate_partitioned
from repro.pipeline import Changeset, CleaningSession
out = [(name, _reason_of(name, True)) for name in sorted(REASON_CASES)]
ds = generate_partitioned(size=500, n_blocks=2, seed=1)
session = CleaningSession(cfds=ds.cfds, mds=ds.mds, master=ds.master,
                          config=UniCleanConfig(eta=1.0))
session.clean(ds.dirty)
for tid in (3, 17, 40, 101, 166, 260, 333, 420):
    out.append((tid, session.apply(Changeset().delete(tid)).full_reclean_reason))
print(repr(out))
"""


class TestFullRecleanReason:
    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    @pytest.mark.parametrize("name", sorted(REASON_CASES))
    def test_reason_and_witness(self, name, columnar):
        assert _reason_of(name, columnar) == REASON_CASES[name][2]

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "dict"])
    def test_legacy_engine(self, columnar):
        config = UniCleanConfig(eta=0.8, use_violation_index=False)
        assert _reason_of("scoped", columnar, config) == ("legacy_engine", None)

    def test_reason_does_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        from pathlib import Path

        here = Path(__file__).resolve().parent
        src = str(here.parent.parent / "src")
        script = _SEEDED_REASONS.format(tests=str(here))
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=300,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs
        reasons = eval(outputs.pop())  # a repr of tuples of literals
        assert all(
            reason == REASON_CASES[name][2]
            for name, reason in reasons if isinstance(name, str)
        )
