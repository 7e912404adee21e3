"""``CleaningSession``: a persistent, incremental cleaning engine.

The paper specifies UniClean as a one-shot batch pipeline; the ROADMAP's
north star is a service that cleans *evolving* data continuously.  This
module refactors the pipeline into the shape dynamic query-evaluation
work (Berkholz et al., "Answering FO+MOD queries under updates") argues
for: pay once to build index state, then answer — here: *repair* — under
updates in time proportional to the delta.

A session binds rules and master data once and owns all shared state:

* the master-side MD blocking indexes and their match cache (master data
  is immutable, so these persist across every ``clean``/``apply``);
* a :class:`~repro.indexing.group_store.GroupStoreRegistry` on the
  working relation — the LHS-keyed groupings (with each group's value
  counts and entropy) that back the violation index of every phase;
* the merged :class:`~repro.core.fixes.FixLog` and the base (dirty)
  relation the repair is defined against, plus — from the first
  ``apply`` on — the base relation's variable-CFD groupings, which the
  delta closure reads and the base's observers keep coherent.

``clean(relation)`` clones the input into the base and runs
``reclean()``: the classic three-phase pipeline over a fresh working
clone of the base, keeping the state alive.  ``apply(changeset)`` then
re-cleans under a micro-batch of edits, choosing between two exact
strategies:

* **Scoped replay** — when the changeset's *perturbed-cell closure* is
  provably local: every touched cell is a pure rule target (never a
  variable-CFD premise), and every group it votes in has membership
  that the superseded run never rewrote.  Under those conditions group
  composition is static, so reverting the perturbed cells to base
  values and re-running the three phases seeded with just those cells
  reproduces a from-scratch clean of the edited base exactly — at a
  cost proportional to the delta, not ``|D|``.  The replay is still
  watched: a write landing outside the perturbed set (e.g. hRepair
  breaking a premise) or a cRepair group-value provision reaching an
  out-of-scope tuple voids the locality argument and triggers the
  fallback.
* **Warm full replay** — for everything else (premise edits, inserts,
  deltas whose groups embed premise fixes): the edited base is
  re-cleaned from scratch *inside the session* (``reclean()``), which
  still skips the dominant costs of a cold run — the master-side
  blocking indexes and the MD match cache persist, and so do the base
  relation and its group stores, so only the working relation is
  re-cloned and only the data-side phases re-run.

Both strategies leave the relation in exactly the state a full
pipeline run over the edited base produces — property-tested in
``tests/properties/test_property_session.py`` and re-verified per
micro-batch by ``benchmarks/perf_report.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.consistency import assert_consistent, relation_is_clean
from repro.constraints.cfd import CFD
from repro.constraints.md import MD, NegativeMD, embed_negative
from repro.constraints.rules import derive_rules
from repro.core.cost import cell_cost
from repro.core.crepair import CRepairResult, crepair
from repro.core.erepair import ERepairResult, erepair
from repro.core.fixes import FixLog
from repro.core.hrepair import HRepairResult, hrepair
from repro.core.trace import RoundTrace, WorklistTrace
from repro.core.uniclean import CleaningResult, UniCleanConfig
from repro.exceptions import DataError
from repro.indexing.blocking import MDBlockingIndex, build_md_indexes
from repro.indexing.group_store import CFDGroupStore, GroupStoreRegistry
from repro.indexing.violation_index import ViolationIndex
from repro.pipeline.changeset import CellEdit, Changeset, Insert
from repro.relational.attribute import cell_changed
from repro.relational.relation import Relation

Cell = Tuple[int, str]


@dataclass
class ApplyResult:
    """The outcome of one :meth:`CleaningSession.apply` call.

    ``full_reclean_reason`` says why an apply took the warm full replay:
    ``None`` on a scoped apply, otherwise ``(reason, witness)`` with

    * ``("insert", None)`` — the changeset inserts a tuple;
    * ``("legacy_engine", None)`` — ``use_violation_index=False``;
    * ``("premise_cell", (tid, attr))`` — a perturbed cell sits on a
      variable-CFD premise;
    * ``("transit", (attr, value))`` — a perturbed group's key holds a
      value the superseded run wrote into that premise attribute;
    * ``("evolved_membership", (mate, attr))`` — a perturbed group's
      member had that premise cell rewritten by the superseded run;
    * ``("escaped_write", (tid, attr))`` — the scoped replay wrote (or
      cRepair would provide to) a cell outside the perturbed set (the
      smallest such cell).

    The reason is a function of the session state and the changeset
    alone (the closure walks its seeds in sorted order).  A
    :class:`~repro.pipeline.sharding.ShardedCleaningSession` leaves it
    ``None``: its shards decide per shard.
    """

    repaired: Relation
    fix_log: FixLog
    crepair_result: Optional[CRepairResult]
    erepair_result: Optional[ERepairResult]
    hrepair_result: Optional[HRepairResult]
    cost: float
    clean: bool
    affected: int
    affected_cells: int
    replays: int
    full_reclean: bool = False
    timings: Dict[str, float] = field(default_factory=dict)
    full_reclean_reason: Optional[Tuple[str, Any]] = None

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds across phases and session bookkeeping."""
        return sum(self.timings.values())

    def summary(self) -> str:
        """Human-readable apply summary."""
        mode = "full re-clean" if self.full_reclean else f"{self.replays} replay(s)"
        return (
            f"apply: {self.fix_log.summary()}; affected={self.affected} tuples"
            f"/{self.affected_cells} cells ({mode}); clean={self.clean}; "
            f"time={self.total_time:.3f}s"
        )


class CleaningSession:
    """A long-lived cleaning engine over one rule set and master relation.

    Parameters
    ----------
    cfds, mds, negative_mds, master, config:
        As for :class:`~repro.core.uniclean.UniClean` (rules are
        normalized, negative MDs embedded, consistency optionally
        checked).
    md_indexes:
        Optional pre-built master-side blocking indexes to adopt
        (``UniClean`` shares one set across its throwaway sessions).
    collect_traces:
        Record per-phase scheduling traces (:mod:`repro.core.trace`) and
        the set of variable-CFD group keys ever materialized, per rule
        spec.  Shard workers of
        :class:`~repro.pipeline.sharding.ShardedCleaningSession` enable
        this so the coordinator can merge shard fix logs into the exact
        unsharded order and detect cross-shard group collisions.
        Requires ``use_violation_index`` (key tracking rides the shared
        group stores).

    Examples
    --------
    >>> session = CleaningSession(cfds=sigma, mds=gamma, master=dm)  # doctest: +SKIP
    >>> result = session.clean(dirty)                                # doctest: +SKIP
    >>> out = session.apply(Changeset().edit(3, "city", "Edi"))      # doctest: +SKIP
    >>> out.clean                                                    # doctest: +SKIP
    True
    """

    def __init__(
        self,
        cfds: Sequence[CFD] = (),
        mds: Sequence[MD] = (),
        negative_mds: Sequence[NegativeMD] = (),
        master: Optional[Relation] = None,
        config: Optional[UniCleanConfig] = None,
        md_indexes: Optional[Dict[str, MDBlockingIndex]] = None,
        collect_traces: bool = False,
    ):
        self.config = config or UniCleanConfig()
        self._init_trace_support(collect_traces)
        self.cfds: List[CFD] = []
        for cfd in cfds:
            self.cfds.extend(cfd.normalize())
        if negative_mds:
            self.mds = embed_negative(list(mds), list(negative_mds))
        else:
            self.mds = []
            for md in mds:
                self.mds.extend(md.normalize())
        if self.mds and master is None:
            raise ValueError("MDs require master data")
        self.master = master
        if self.config.check_consistency and self.cfds:
            schema = self.cfds[0].schema
            assert_consistent(schema, self.cfds, self.mds, master)

        self.rules = derive_rules(self.cfds, self.mds)
        #: Master-side blocking indexes + match cache; master data is
        #: immutable, so these persist across every clean()/apply().
        self.md_indexes: Dict[str, MDBlockingIndex] = (
            md_indexes if md_indexes is not None else {}
        )
        self._init_rule_maps()
        self._init_relation_state()

    @classmethod
    def from_normalized(
        cls,
        cfds: Sequence[CFD],
        mds: Sequence[MD],
        master: Optional[Relation],
        config: UniCleanConfig,
        md_indexes: Optional[Dict[str, MDBlockingIndex]] = None,
        collect_traces: bool = False,
    ) -> "CleaningSession":
        """Build a session over already-normalized rules, skipping the
        (idempotent but not free) normalization and consistency checks —
        the constructor ``UniClean.clean()`` uses per call.  This is also
        the pickling-safe shard-construction hook: a
        :class:`~repro.pipeline.sharding.ShardedCleaningSession` worker
        receives the already-normalized rule payload and builds its
        per-shard session here, without re-running the (whole-rule-set)
        consistency analysis in every process."""
        session = cls.__new__(cls)
        session.config = config
        session._init_trace_support(collect_traces)
        session.cfds = list(cfds)
        session.mds = list(mds)
        session.master = master
        session.rules = derive_rules(session.cfds, session.mds)
        session.md_indexes = md_indexes if md_indexes is not None else {}
        session._init_rule_maps()
        session._init_relation_state()
        return session

    def _init_trace_support(self, collect_traces: bool) -> None:
        """Sharding-support state: per-phase scheduling traces, new-fix
        segments, the perturbed set of the latest apply, and the set of
        variable-CFD group keys ever materialized (per rule spec)."""
        self.collect_traces = collect_traces
        if collect_traces and not self.config.use_violation_index:
            raise ValueError(
                "collect_traces requires use_violation_index (group-key "
                "tracking rides the shared group stores)"
            )
        #: Per-phase traces / new-fix segments of the latest phase run.
        self.last_traces: Dict[str, object] = {}
        self.last_segments: Dict[str, List] = {}
        #: Perturbed cells of the latest scoped apply (empty after a full
        #: replay or a clean()).
        self.last_perturbed: Set[Cell] = set()
        self._last_c_result: Optional[CRepairResult] = None
        self._last_e_result: Optional[ERepairResult] = None
        self._last_h_result: Optional[HRepairResult] = None
        #: spec -> every LHS group key that ever existed on the working
        #: relation since the last clean() (initial groups + every key a
        #: repair write created, transient ones included).
        self.ever_group_keys: Dict[Tuple, Set[Tuple]] = {}

    def _track_group_keys(self) -> None:
        assert self.registry is not None
        self.ever_group_keys = {}
        for store in self.registry.variable_cfd_stores():
            spec = GroupStoreRegistry.cfd_spec(store.cfd)
            seen = self.ever_group_keys.setdefault(spec, set())
            seen.update(store.groups)

            def tracker(t, old_key, new_key, _seen=seen):
                if new_key is not None:
                    _seen.add(new_key)

            store.change_listeners.append(tracker)

    def _init_rule_maps(self) -> None:
        """Static closure helpers derived from the bound rule set."""
        # Per-tuple rules (constant CFDs, MDs): a perturbed cell in the
        # rule's scope perturbs the rule's target on the *same* tuple.
        pt: Dict[str, Dict[str, None]] = {}
        for rule in self.rules:
            if getattr(rule, "cfd", None) is not None and rule.cfd.is_variable:
                continue
            for attr in rule.scope_attrs():
                pt.setdefault(attr, {})[rule.rhs_attr()] = None
        self._pt_rhs_by_attr: Dict[str, Tuple[str, ...]] = {
            attr: tuple(rhs) for attr, rhs in pt.items()
        }
        # Premise attributes of variable CFDs: a perturbed cell here can
        # change group membership, which voids the scoped-replay locality
        # argument — such deltas take the warm full replay.
        var_lhs: Set[str] = set()
        for rule in self.rules:
            cfd = getattr(rule, "cfd", None)
            if cfd is not None and cfd.is_variable:
                var_lhs.update(rule.lhs_attrs())
        self._var_lhs_attrs: frozenset = frozenset(var_lhs)

    def _init_relation_state(self) -> None:
        # Per-clean state (populated by clean()).
        self.base: Optional[Relation] = None
        self.working: Optional[Relation] = None
        self.registry: Optional[GroupStoreRegistry] = None
        #: Variable-CFD groupings of the *base* relation: scratch-run group
        #: composition starts from base keys, so the delta closure must see
        #: them (a tuple repaired out of a group still starts inside it).
        #: Built by the first apply() after a clean() or restore, then kept
        #: across applies and re-cleans until the base is replaced.
        self.base_registry: Optional[GroupStoreRegistry] = None
        self.fix_log: FixLog = FixLog()
        #: attr -> [(working store, base store)] for variable-CFD specs.
        self._var_stores_by_attr: Dict[
            str, List[Tuple[CFDGroupStore, CFDGroupStore]]
        ] = {}
        #: The same pairs, deduplicated (one entry per spec).
        self._var_store_pairs: List[Tuple[CFDGroupStore, CFDGroupStore]] = []
        self._check_index: Optional[ViolationIndex] = None
        #: Per-cell contributions to cost(Dr, D) (nonzero entries only);
        #: maintained incrementally by apply().
        self._cell_costs: Dict[Cell, float] = {}
        self._last_clean = False

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    def _ensure_md_indexes(self) -> None:
        if self.mds and self.master is not None and not self.md_indexes:
            self.md_indexes.update(
                build_md_indexes(
                    self.mds,
                    self.master,
                    top_l=self.config.top_l,
                    use_suffix_tree=self.config.use_suffix_tree,
                    # Configs from pre-match-engine snapshots are already
                    # upgraded by UniCleanConfig.__setstate__.
                    engine=self.config.match_engine,
                )
            )

    def _teardown_working_state(self) -> None:
        if self.registry is not None:
            self.registry.detach()
            self.registry = None
        self._var_stores_by_attr = {}
        self._var_store_pairs = []
        self._check_index = None

    def _teardown_relation_state(self) -> None:
        self._teardown_working_state()
        if self.base_registry is not None:
            self.base_registry.detach()
            self.base_registry = None

    def close(self) -> None:
        """Detach all observers from the base and working relations
        (idempotent)."""
        self._teardown_relation_state()

    # ------------------------------------------------------------------
    # Full clean
    # ------------------------------------------------------------------
    def clean(self, relation: Relation) -> CleaningResult:
        """Run the configured phases on *relation* and keep the state.

        The input relation is never modified: the session clones it into
        a private base (which :meth:`apply` edits), dropping everything
        derived from the previous base, and then runs :meth:`reclean`.
        """
        self._teardown_relation_state()
        self.base = relation.clone()
        return self.reclean()

    def reclean(self) -> CleaningResult:
        """Re-run the configured phases from the session's current base.

        Rebuilds only the working side: a fresh working clone of the
        base, its group stores and check index, the fix log and the
        per-cell costs.  The base, its group stores (kept coherent by
        their observers) and the master-side MD indexes are reused — the
        result equals a from-scratch ``clean()`` of the base.  This is
        the warm full replay of :meth:`apply`, and how a shard worker
        re-derives its full-form log.
        """
        if self.base is None:
            raise DataError("CleaningSession.reclean() requires a prior clean()")
        self._teardown_working_state()
        self.working = self.base.clone()
        self.fix_log = FixLog()
        timings: Dict[str, float] = {}
        self._attach_relation_state(timings)
        self.last_perturbed = set()
        c_result, e_result, h_result = self._run_phases(None, self.fix_log, timings)
        self._rebuild_cell_costs()
        self._last_clean = relation_is_clean(
            self.working, self.cfds, self.mds, self.master,
            violation_index=self._check_index,
            md_indexes=self.md_indexes,
        )
        return CleaningResult(
            repaired=self.working,
            fix_log=self.fix_log,
            crepair_result=c_result,
            erepair_result=e_result,
            hrepair_result=h_result,
            cost=sum(self._cell_costs.values()),
            clean=self._last_clean,
            timings=timings,
        )

    def _attach_relation_state(self, timings: Dict[str, float]) -> None:
        """Build the derived state over ``self.working``: the shared
        group-store registry, the satisfaction-check index, trace-time
        group-key tracking and the master-side MD indexes — and pair the
        working variable-CFD stores with the base-side ones when those
        exist.  All of it is a pure function of the relations and the
        bound rules, which is why a snapshot restore
        (:mod:`repro.pipeline.snapshot`) rebuilds it here instead of
        persisting it."""
        if self.config.use_violation_index:
            started = time.perf_counter()
            self.registry = GroupStoreRegistry(self.working)
            self.registry.ensure_rules(self.rules)
            self._pair_var_stores()
            if self.cfds:
                # A maintained index for satisfaction checks: reads the
                # live shared stores, so D ⊨ Σ verification never rescans.
                self._check_index = ViolationIndex(
                    self.working,
                    [r for cfd in self.cfds for r in derive_rules([cfd])],
                    attach=False,
                    registry=self.registry,
                )
            if self.collect_traces:
                self._track_group_keys()
            timings["setup"] = time.perf_counter() - started

        self._ensure_md_indexes()

    def _attach_base_registry(self) -> None:
        """Build the base relation's variable-CFD group stores and pair
        them with the working ones.  Runs at the start of the first
        apply() after a clean() or restore, before the changeset edits
        the base; from then on the registry's observers keep it coherent
        with every base edit, and re-cleans keep it (they never replace
        the base)."""
        self.base_registry = GroupStoreRegistry(self.base)
        self.base_registry.ensure_rules(
            rule
            for rule in self.rules
            if getattr(rule, "cfd", None) is not None and rule.cfd.is_variable
        )
        self._pair_var_stores()

    def _pair_var_stores(self) -> None:
        """Pair each working variable-CFD store with its base-side twin
        (the delta closure walks both); no pairs until the base side
        exists."""
        self._var_store_pairs = []
        self._var_stores_by_attr = {}
        if self.base_registry is None:
            return
        for store in self.registry.variable_cfd_stores():
            base_store = self.base_registry.cfd_store(store.cfd)
            self._var_store_pairs.append((store, base_store))
            for attr in store.scope_attrs():
                self._var_stores_by_attr.setdefault(attr, []).append(
                    (store, base_store)
                )

    def _adopt_restored_state(
        self,
        base: Relation,
        working: Relation,
        fix_log: FixLog,
        cell_costs: Dict[Cell, float],
        ever_group_keys: Dict[Tuple, Set[Tuple]],
        last_clean: bool,
    ) -> None:
        """Install snapshot state and rebuild everything derived from it.

        The persisted pieces — relations, fix log, per-cell costs, the
        ever-materialized group keys and the last satisfaction verdict —
        are adopted as-is (insertion orders included; float sums replay
        bit-identically).  The working group stores, the check index and
        the MD blocking indexes are rebuilt from the adopted relations via
        :meth:`_attach_relation_state`, the base-side group stores by the
        next apply(); the match cache is re-warmed by the caller (it needs
        the decoded entries)."""
        self._teardown_relation_state()
        self.base = base
        self.working = working
        self.fix_log = fix_log
        self._attach_relation_state({})
        self.last_perturbed = set()
        self._cell_costs = cell_costs
        self._last_clean = last_clean
        # The trackers installed by _attach_relation_state hold references
        # to the per-spec sets: merge the persisted keys in place so both
        # the session and its trackers keep seeing one set per spec.
        for spec, keys in ever_group_keys.items():
            self.ever_group_keys.setdefault(spec, set()).update(keys)

    # ------------------------------------------------------------------
    # Snapshots (see repro/pipeline/snapshot.py)
    # ------------------------------------------------------------------
    def save(self, path) -> int:
        """Write a durable snapshot of this session to *path*.

        Captures rules, master data, base and working relations, the fix
        log, per-cell costs, the MD match cache and the ever-group-key
        sets — everything a fresh process needs so that the restored
        session's subsequent ``apply()``/``clean()`` observables are
        byte-identical to this one's.  The write is atomic (temp file +
        rename) and checksummed.  Returns the snapshot size in bytes.
        Requires a prior :meth:`clean`.
        """
        from repro.pipeline import snapshot

        return snapshot.save_session(self, path)

    @classmethod
    def restore(cls, path) -> "CleaningSession":
        """Rebuild a session from a :meth:`save` snapshot at *path*.

        Raises :class:`~repro.exceptions.SnapshotCorrupt` when the file
        fails checksum/format validation.
        """
        from repro.pipeline import snapshot

        return snapshot.restore_session(path)

    def _rebuild_cell_costs(self) -> None:
        """The Section 3.1 cost model of a re-clean, kept per cell so
        apply() can maintain the total under deltas.

        The working relation is a fresh clone of the base and every phase
        records a fix before it writes a cell, so only fix-log cells can
        differ from the base.  Visiting just those, in base order and then
        schema order, yields the entries — and the float sum — of a pass
        over every cell."""
        assert self.base is not None and self.working is not None
        touched: Dict[int, Set[str]] = {}
        for tid, attr in self.fix_log.marked_cells():
            touched.setdefault(tid, set()).add(attr)
        costs: Dict[Cell, float] = {}
        base = self.base
        working = self.working
        names = base.schema.names
        for tid in [tid for tid in base.tids() if tid in touched]:
            attrs = touched[tid]
            t = base.by_tid(tid)
            r = working.by_tid(tid)
            for attr in names:
                if attr in attrs and cell_changed(t[attr], r[attr]):
                    costs[(tid, attr)] = cell_cost(t[attr], r[attr], t.conf(attr))
        self._cell_costs = costs

    def _run_phases(
        self,
        scope_tids: Optional[List[int]],
        log: FixLog,
        timings: Dict[str, float],
        escapes: Optional[Set[Cell]] = None,
        scope_cells: Optional[List[Cell]] = None,
    ) -> Tuple[
        Optional[CRepairResult], Optional[ERepairResult], Optional[HRepairResult]
    ]:
        """Run the configured phases in place over *scope_tids* (or all)."""
        assert self.working is not None
        config = self.config
        c_result: Optional[CRepairResult] = None
        e_result: Optional[ERepairResult] = None
        h_result: Optional[HRepairResult] = None

        tracing = self.collect_traces
        trace_c = WorklistTrace() if tracing and config.run_crepair else None
        trace_e = RoundTrace() if tracing and config.run_erepair else None
        trace_h = RoundTrace() if tracing and config.run_hrepair else None
        self.last_traces = {
            "crepair": trace_c, "erepair": trace_e, "hrepair": trace_h,
        }
        self.last_segments = {"crepair": [], "erepair": [], "hrepair": []}
        mark = len(log)

        if config.run_crepair:
            started = time.perf_counter()
            c_result = crepair(
                self.working,
                self.cfds,
                self.mds,
                master=self.master,
                eta=config.eta,
                fix_log=log,
                top_l=config.top_l,
                use_suffix_tree=config.use_suffix_tree,
                in_place=True,
                use_violation_index=config.use_violation_index,
                md_indexes=self.md_indexes,
                registry=self.registry,
                scope_tids=scope_tids,
                trace=trace_c,
            )
            if escapes is not None:
                escapes |= c_result.escaped_cells
            if tracing:
                self.last_segments["crepair"] = log.fixes()[mark:]
                mark = len(log)
            timings["crepair"] = timings.get("crepair", 0.0) + (
                time.perf_counter() - started
            )

        # A live view: the later phases never re-mark a protected cell.
        protected = log.deterministic_cells()

        if config.run_erepair:
            started = time.perf_counter()
            e_result = erepair(
                self.working,
                self.cfds,
                self.mds,
                master=self.master,
                delta1=config.delta1,
                delta2=config.delta2,
                protected=protected,
                fix_log=log,
                top_l=config.top_l,
                use_suffix_tree=config.use_suffix_tree,
                in_place=True,
                use_violation_index=config.use_violation_index,
                md_indexes=self.md_indexes,
                registry=self.registry,
                scope_tids=scope_tids,
                scope_cells=scope_cells,
                trace=trace_e,
            )
            if tracing:
                self.last_segments["erepair"] = log.fixes()[mark:]
                mark = len(log)
            timings["erepair"] = timings.get("erepair", 0.0) + (
                time.perf_counter() - started
            )

        if config.run_hrepair:
            started = time.perf_counter()
            h_result = hrepair(
                self.working,
                self.cfds,
                self.mds,
                master=self.master,
                protected=protected,
                fix_log=log,
                top_l=config.top_l,
                use_suffix_tree=config.use_suffix_tree,
                in_place=True,
                use_violation_index=config.use_violation_index,
                md_indexes=self.md_indexes,
                registry=self.registry,
                scope_tids=scope_tids,
                scope_cells=scope_cells,
                trace=trace_h,
            )
            if tracing:
                self.last_segments["hrepair"] = log.fixes()[mark:]
                mark = len(log)
            timings["hrepair"] = timings.get("hrepair", 0.0) + (
                time.perf_counter() - started
            )
        #: Kept for shard workers, which report phase statistics upstream.
        self._last_c_result = c_result
        self._last_e_result = e_result
        self._last_h_result = h_result
        return c_result, e_result, h_result

    # ------------------------------------------------------------------
    # Incremental apply
    # ------------------------------------------------------------------
    def apply(self, changeset: Changeset) -> Optional[ApplyResult]:
        """Re-clean after *changeset*; exact, and scoped when provably safe.

        The changeset edits the session's **base** (dirty) relation; the
        session then brings the working repair to the state a full
        ``clean()`` of the edited base would produce — via the scoped
        replay when the delta's closure is local, via a warm full replay
        otherwise (see the module docstring).  An op-less changeset is
        the :meth:`apply_many` no-op: returns ``None``, mutates nothing.
        """
        if self.working is None or self.base is None:
            raise DataError("CleaningSession.apply() requires a prior clean()")
        if not changeset.ops:
            return None
        # All-or-nothing is inherited from Changeset.apply_to, which
        # validates every op before mutating anything; the bookkeeping
        # below it (seeds, dead-tid pruning) only runs after it succeeds.
        # A scoped apply whose closure turns out empty never reaches
        # _run_phases: reset the sharding-support state here so workers
        # cannot ship a stale previous run's segments upstream.
        self.last_traces = {"crepair": None, "erepair": None, "hrepair": None}
        self.last_segments = {"crepair": [], "erepair": [], "hrepair": []}
        self.last_perturbed = set()

        timings: Dict[str, float] = {}
        if self.registry is not None and self.base_registry is None:
            started = time.perf_counter()
            self._attach_base_registry()
            timings["setup"] = time.perf_counter() - started
        started = time.perf_counter()

        if not self.config.use_violation_index or self.registry is None:
            changeset.apply_to(self.base)
            return self._full_replay(timings, ("legacy_engine", None))
        if any(isinstance(op, Insert) for op in changeset.ops):
            # Inserts change group composition outright — the scoped
            # locality argument does not cover them, so skip the delta
            # pre-processing the full replay would discard anyway.
            changeset.apply_to(self.base)
            return self._full_replay(timings, ("insert", None))

        pre_apply_log = self.fix_log
        schema_attrs = tuple(self.working.schema.names)

        # --- Seed the perturbed-cell set -------------------------------
        seeds: Set[Cell] = set()
        # A from-scratch run groups tuples by their *base* keys: capture
        # the base groups an edited/deleted tuple is leaving before the
        # base mutates.
        for op in changeset.ops:
            if isinstance(op, CellEdit):
                seeds.add((op.tid, op.attr))
            else:  # Delete (inserts were dispatched above)
                for wstore, bstore in self._var_store_pairs:
                    for store in (wstore, bstore):
                        key = store.key_of.get(op.tid)
                        if key is None:
                            continue
                        rhs = store.rhs
                        for mate in store.groups[key].tids:
                            if mate != op.tid:
                                seeds.add((mate, rhs))

        applied = changeset.apply_to(self.base)
        dead: Set[int] = set(applied.deleted_tids)
        for tid in dead:
            if self.working.has_tid(tid):
                self.working.remove(tid)  # observers keep stores coherent
        seeds = {(tid, attr) for tid, attr in seeds if tid not in dead}
        log = pre_apply_log.without_tids(dead)
        self.fix_log = log
        for tid in dead:
            for attr in schema_attrs:
                self._cell_costs.pop((tid, attr), None)

        perturbed: Set[Cell] = set()
        reason: Optional[Tuple[str, Any]] = None
        if seeds:
            perturbed, reason = self._perturb_closure(seeds, pre_apply_log)
        timings["delta"] = time.perf_counter() - started
        if reason is not None:
            return self._full_replay(timings, reason)

        c_result = e_result = h_result = None
        if perturbed:
            started = time.perf_counter()
            self._revert_cells(perturbed)
            log = log.without_cells(perturbed)
            if log is pre_apply_log:
                # The replay must not record into the log an earlier
                # result handed out.
                log = log.copy()
            scope = sorted({tid for tid, _attr in perturbed})
            timings["delta"] += time.perf_counter() - started
            escaped: Set[Cell] = set()
            watch = self._escape_watch(perturbed, escaped)
            self.working.add_observer(watch)
            try:
                c_result, e_result, h_result = self._run_phases(
                    scope, log, timings, escapes=escaped,
                    scope_cells=sorted(perturbed),
                )
            finally:
                self.working.remove_observer(watch)
            self.fix_log = log
            if escaped:
                # A replay fix reached beyond the perturbed set (premise
                # break, provision to an out-of-scope tuple): the
                # locality argument is void — replay everything.
                return self._full_replay(
                    timings, ("escaped_write", min(escaped))
                )

        started = time.perf_counter()
        # Incremental cost: contributions change only for perturbed /
        # deleted cells (the escape watch guarantees no other writes).
        for cell in perturbed:
            tid, attr = cell
            base_t = self.base.by_tid(tid)
            value = self.working.by_tid(tid)[attr]
            if cell_changed(base_t[attr], value):
                self._cell_costs[cell] = cell_cost(
                    base_t[attr], value, base_t.conf(attr)
                )
            else:
                self._cell_costs.pop(cell, None)
        cost = sum(self._cell_costs.values())
        # Scoped verification: tuples outside the perturbed set satisfied
        # the rules before and were not written (escape watch); their
        # partitions can only have shrunk.  Falls back to a full check
        # when the previous state did not verify clean.
        only = (
            {tid for tid, _attr in perturbed} if self._last_clean else None
        )
        is_clean_now = relation_is_clean(
            self.working, self.cfds, self.mds, self.master,
            violation_index=self._check_index, md_indexes=self.md_indexes,
            only_tids=only,
        )
        self._last_clean = is_clean_now
        timings["verify"] = time.perf_counter() - started
        self.last_perturbed = set(perturbed)
        return ApplyResult(
            repaired=self.working,
            fix_log=self.fix_log,
            crepair_result=c_result,
            erepair_result=e_result,
            hrepair_result=h_result,
            cost=cost,
            clean=is_clean_now,
            affected=len({tid for tid, _attr in perturbed}),
            affected_cells=len(perturbed),
            replays=1 if perturbed else 0,
            timings=timings,
        )

    def apply_many(
        self, changesets: Sequence[Changeset]
    ) -> Optional[ApplyResult]:
        """Apply several changesets as one merged micro-batch.

        Exactly ``apply(Changeset.concat(changesets))``: ops execute in
        order, the delta pre-processing (closure, strategy choice, log
        splice) runs once for the whole batch, and the final state is the
        state a full ``clean()`` of the fully edited base produces.  This
        is the unsharded counterpart of
        :meth:`~repro.pipeline.sharding.ShardedCleaningSession.apply_many`.

        An **empty batch** — no changesets, or changesets carrying no
        ops — is a contractual no-op: returns ``None`` and touches no
        session state (no replay, no fix-log/cost/verdict mutation).
        Callers coalescing deltas (``flush()``, the online service) rely
        on this instead of a degenerate zero-op replay.
        """
        if self.working is None or self.base is None:
            raise DataError("CleaningSession.apply_many() requires a prior clean()")
        return self.apply(Changeset.concat(changesets))

    def _full_replay(
        self, timings: Dict[str, float], reason: Tuple[str, Any]
    ) -> ApplyResult:
        """Exact fallback: re-clean the edited base inside the session
        (*reason* is reported as ``full_reclean_reason``).

        Equivalent to a from-scratch ``clean()`` by construction, but the
        master-side blocking indexes and match cache stay warm — the
        dominant cost of a cold run — and the base and its group stores
        are kept (:meth:`reclean`).
        """
        result = self.reclean()
        merged = dict(timings)
        for key, value in result.timings.items():
            merged[key] = merged.get(key, 0.0) + value
        return ApplyResult(
            repaired=result.repaired,
            fix_log=result.fix_log,
            crepair_result=result.crepair_result,
            erepair_result=result.erepair_result,
            hrepair_result=result.hrepair_result,
            cost=result.cost,
            clean=result.clean,
            affected=len(result.repaired),
            affected_cells=len(result.repaired) * len(result.repaired.schema.names),
            replays=0,
            full_reclean=True,
            timings=merged,
            full_reclean_reason=reason,
        )

    def _perturb_closure(
        self, seeds: Set[Cell], superseded: FixLog
    ) -> Tuple[Set[Cell], Optional[Tuple[str, Any]]]:
        """The perturbed-cell closure of *seeds*, with a safety verdict.

        Propagation: a perturbed cell in a per-tuple rule's scope
        (constant CFD, MD) perturbs that rule's target on the same tuple,
        recursively; a perturbed cell that is a variable-CFD store's
        target perturbs the target cells of the owner's current *and*
        base groups (their votes are re-counted from base values).

        The closure is **safe** — the scoped replay provably reproduces a
        from-scratch run — only when no perturbed cell sits on a
        variable-CFD premise (membership would change), no perturbed
        group contains a member whose premise there was rewritten by the
        *superseded* run (membership *evolved*; a scoped replay would read
        its final position, a scratch run its stage positions), and no
        perturbed group's key holds a value that run wrote into a premise
        attribute — the only way a tuple can enter a group mid-run, so a
        tuple may have passed through the group and left again.  Returns
        ``(perturbed, None)`` when safe, else ``(partial, reason)`` with
        the first unsafe condition met (see :class:`ApplyResult`); an
        unsafe closure is abandoned eagerly.  Every test is a lookup in
        the stores, the base or the superseded log's maintained views,
        so the walk costs O(closure), never O(|D|) or O(|log|).
        """
        var_lhs = self._var_lhs_attrs
        fixed_cells = superseded.fixed_cells()
        # (attr, value) pairs: membership is the group stores' own key
        # equality (identity first, so one NaN object matches itself).
        # Every pair tested below has a premise attribute.
        premise_writes = superseded.written_pairs()
        is_live = self.base.has_tid
        perturbed: Set[Cell] = set()
        processed: Set[Cell] = set()
        # A group's walk depends on the group alone, so each is walked
        # once, not once per member cell (quadratic in the group size).
        walked: Set[Tuple[CFDGroupStore, Tuple]] = set()
        # Sorted: the first unsafe condition met (the reported reason)
        # must not depend on the string-hash seed.
        stack = sorted(seeds)
        while stack:
            cell = stack.pop()
            if cell in processed:
                continue
            processed.add(cell)
            tid, attr = cell
            if not is_live(tid):
                continue
            if attr in var_lhs:
                # Premise cell: membership changes.
                return perturbed, ("premise_cell", cell)
            perturbed.add(cell)
            for rhs in self._pt_rhs_by_attr.get(attr, ()):
                if (tid, rhs) not in processed:
                    stack.append((tid, rhs))
            for wstore, bstore in self._var_stores_by_attr.get(attr, ()):
                rhs = wstore.rhs
                lhs = wstore.lhs
                if attr != rhs:
                    continue
                for store in (wstore, bstore):
                    key = store.key_of.get(tid)
                    if key is None or (store, key) in walked:
                        continue
                    walked.add((store, key))
                    for y, value in zip(lhs, key):
                        if (y, value) in premise_writes:
                            # A tuple may have passed through the group.
                            return perturbed, ("transit", (y, value))
                    group = store.groups.get(key)
                    if group is None:
                        continue
                    for mate in group.tids:
                        if not is_live(mate):
                            continue
                        for y in lhs:
                            if (mate, y) in fixed_cells:
                                # Membership evolved.
                                return perturbed, ("evolved_membership", (mate, y))
                        mate_cell = (mate, rhs)
                        if mate_cell not in processed:
                            stack.append(mate_cell)
        return perturbed, None

    def _revert_cells(self, perturbed: Set[Cell]) -> None:
        """Restore every perturbed cell to its base value and confidence
        (values through ``set_value`` so every index stays coherent)."""
        assert self.base is not None and self.working is not None
        working = self.working
        base = self.base
        for tid, attr in sorted(perturbed):
            t = working.by_tid(tid)
            base_t = base.by_tid(tid)
            working.set_value(t, attr, base_t[attr])
            t.set_conf(attr, base_t.conf(attr))

    def _escape_watch(self, perturbed: Set[Cell], escaped: Set[Cell]):
        """A relation observer flagging replay writes outside *perturbed*."""

        def watch(t, attr, old, new) -> None:
            cell = (t.tid, attr)
            if cell not in perturbed:
                escaped.add(cell)

        return watch

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_clean(self) -> bool:
        """Whether the current working repair satisfies Σ and Γ."""
        if self.working is None:
            raise DataError("CleaningSession.is_clean() requires a prior clean()")
        return relation_is_clean(
            self.working, self.cfds, self.mds, self.master,
            violation_index=self._check_index, md_indexes=self.md_indexes,
        )
