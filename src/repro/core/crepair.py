"""Algorithm ``cRepair``: deterministic fixes from confidence (Section 5).

Given CFDs Σ, MDs Γ, master data ``Dm``, dirty data ``D`` and a confidence
threshold η, ``cRepair`` finds every *deterministic fix* — a correction
derived from attributes asserted correct (confidence ≥ η) — and returns a
partial repair with those fixes marked.  The paper's Theorem 5.1: all
deterministic fixes can be found in ``O(|D||Dm| size(Θ))`` time, reduced
to ``O(|D| size(Θ))`` with the indexing of Section 5.2.

The implementation follows Figs. 4–5 directly:

* per-tuple rule queues ``Q[t]`` holding rules whose premise attributes
  are all asserted;
* counters ``count[t, ξ]`` of currently asserted premise attributes;
* hash tables ``Hφ`` per variable CFD: for each pattern-matching LHS value
  ``ȳ``, the waiting list of premise-asserted tuples and the unique
  asserted RHS value ``val`` (or ``nil``);
* hash sets ``P[t]`` of variable CFDs t is waiting on;
* ``update`` propagates each newly asserted attribute, re-arming rules —
  the deterministic-fix process is recursive (Section 5.1).

Fix semantics per Section 5.1: a rule fires on ``t`` only when every
premise attribute is asserted and the target attribute is *not* (an
asserted target is never overwritten, even on conflict — such conflicts
are left to the later phases).  A target equal to the derived value is
*confirmed*: its confidence is upgraded to η (enabling further inference)
but no fix is recorded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.cfd import CFD
from repro.constraints.md import MD
from repro.constraints.rules import (
    AnyRule,
    ConstantCFDRule,
    MDRule,
    VariableCFDRule,
    derive_rules,
)
from repro.core.fixes import Fix, FixKind, FixLog
from repro.core.trace import WorklistTrace
from repro.indexing.blocking import MDBlockingIndex
from repro.indexing.group_store import GroupStoreRegistry
from repro.indexing.violation_index import ViolationIndex
from repro.relational.attribute import cell_changed
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple


class _VarEntry:
    """One ``Hφ(ȳ)`` entry: waiting list and the unique asserted value."""

    __slots__ = ("waiting", "waiting_tids", "val")

    def __init__(self) -> None:
        self.waiting: List[CTuple] = []
        self.waiting_tids: Set[int] = set()
        self.val: Optional[Any] = None


@dataclass
class CRepairResult:
    """Outcome of a ``cRepair`` run."""

    relation: Relation
    fix_log: FixLog
    deterministic_fixes: int = 0
    confirmed_cells: int = 0
    rules_fired: int = 0
    #: Scoped (delta-driven) runs only: cells of out-of-scope tuples that
    #: a group-value provision would deterministically fix — the scope
    #: was too small and the session must replay with them included.
    escaped_cells: Set[Tuple[int, str]] = field(default_factory=set)

    @property
    def fixed_cells(self) -> Set[Tuple[int, str]]:
        """Cells carrying a deterministic mark (a snapshot)."""
        return set(self.fix_log.deterministic_cells())


class _CRepair:
    """Mutable state of one cRepair run (Fig. 4)."""

    def __init__(
        self,
        relation: Relation,
        rules: Sequence[AnyRule],
        master: Optional[Relation],
        eta: float,
        fix_log: FixLog,
        top_l: int,
        use_suffix_tree: bool,
        use_violation_index: bool = True,
        shared_md_indexes: Optional[Mapping[str, MDBlockingIndex]] = None,
        registry: Optional["GroupStoreRegistry"] = None,
        scope_tids: Optional[Sequence[int]] = None,
        trace: Optional[WorklistTrace] = None,
    ):
        self.relation = relation
        self.rules = list(rules)
        self.eta = eta
        self.fix_log = fix_log
        self.master = master
        self.scope_tids = scope_tids
        #: Optional scheduling trace for partition-parallel log merging.
        self.trace = trace
        self._looping = False  # pushes before the main loop are roots
        self._root_rank: Optional[Tuple] = None
        self._children = 0
        self.scope_set: Optional[Set[int]] = (
            set(scope_tids) if scope_tids is not None else None
        )
        self.escaped: Set[Tuple[int, str]] = set()
        self.result_fixes = 0
        self.confirmed = 0
        self.fired = 0

        # Indexes rules by the data-side attributes they consume; the
        # worklist's per-event reads of each rule's premise arity and
        # target attribute come from these lists.
        self.rules_by_lhs_attr: Dict[str, List[int]] = {}
        for idx, rule in enumerate(self.rules):
            for attr in rule.lhs_attrs():
                self.rules_by_lhs_attr.setdefault(attr, []).append(idx)
        self.lhs_arity: List[int] = [len(rule.lhs_attrs()) for rule in self.rules]
        self.rhs_attrs: List[str] = [rule.rhs_attr() for rule in self.rules]

        self.md_indexes: Dict[int, MDBlockingIndex] = {}
        shared = shared_md_indexes or {}
        for idx, rule in enumerate(self.rules):
            if isinstance(rule, MDRule):
                if master is None:
                    raise ValueError(
                        f"rule {rule.name} requires master data, but none was given"
                    )
                self.md_indexes[idx] = shared.get(rule.name) or MDBlockingIndex(
                    rule.md, master, top_l=top_l, use_suffix_tree=use_suffix_tree
                )

        # Partition membership lets the worklist skip arming CFD rules on
        # tuples that cannot match the rule's LHS pattern.  Once every
        # premise attribute of a tuple is asserted those values are final
        # (deterministic fixes never overwrite asserted cells), so a
        # membership test at push time agrees with pop time.  cRepair is
        # worklist-driven and never drains dirty queues, so the index runs
        # in membership_only mode (no MD partitions, no dirty buildup).
        self.vindex: Optional[ViolationIndex] = (
            ViolationIndex(
                relation, self.rules, membership_only=True, registry=registry
            )
            if use_violation_index
            else None
        )

        self.h_tables: Dict[int, Dict[Tuple[Any, ...], _VarEntry]] = {
            idx: {}
            for idx, rule in enumerate(self.rules)
            if isinstance(rule, VariableCFDRule)
        }

        self.count: Dict[Tuple[int, int], int] = {}
        #: P[t], created on t's first wait: a scoped run never pays for
        #: the tuples it does not touch.
        self.pending: Dict[int, Set[int]] = {}
        self.queue: Deque[Tuple[int, int]] = deque()  # global worklist (t, rule)
        self.queued: Set[Tuple[int, int]] = set()

    def close(self) -> None:
        """Detach the violation index from the relation (idempotent)."""
        if self.vindex is not None:
            self.vindex.detach()

    # ------------------------------------------------------------------
    # Worklist helpers
    # ------------------------------------------------------------------
    def _push(self, tid: int, rule_idx: int) -> None:
        key = (tid, rule_idx)
        if key not in self.queued:
            self.queued.add(key)
            self.queue.append(key)
            if self.trace is not None:
                if self._looping:
                    self._children += 1
                else:
                    assert self._root_rank is not None
                    self.trace.root_ranks.append(self._root_rank)
                    # Several pushes may share one init step: disambiguate
                    # by a trailing counter (ranks must be strict).
                    self._root_rank = self._root_rank[:-1] + (
                        self._root_rank[-1] + 1,
                    )

    def _asserted(self, t: CTuple, attr: str) -> bool:
        return t.has_conf_at_least(attr, self.eta)

    # ------------------------------------------------------------------
    # Procedure update(t, A) — Fig. 5
    # ------------------------------------------------------------------
    def update(self, t: CTuple, attr: str) -> None:
        tid = t.tid
        assert tid is not None
        count = self.count
        for rule_idx in self.rules_by_lhs_attr.get(attr, ()):
            key = (tid, rule_idx)
            asserted = count[key] = count.get(key, 0) + 1
            if asserted == self.lhs_arity[rule_idx]:
                if self.vindex is None or self.vindex.is_member(rule_idx, tid):
                    self._push(tid, rule_idx)
        # Variable CFDs t was waiting on whose RHS just became asserted:
        # t can now provide the group value.
        pending = self.pending.get(tid)
        if not pending:
            return
        for rule_idx in list(pending):
            if self.rhs_attrs[rule_idx] != attr:
                continue
            pending.discard(rule_idx)
            entry = self._var_entry(rule_idx, t)
            if entry is not None and entry.val is None:
                self._push(tid, rule_idx)

    # ------------------------------------------------------------------
    # Procedures vCFDInfer / cCFDInfer / MDInfer — Fig. 5
    # ------------------------------------------------------------------
    def _var_entry(self, rule_idx: int, t: CTuple) -> Optional[_VarEntry]:
        if self.vindex is not None:
            # The rule's group store already holds the interned LHS key
            # of every pattern-matching tuple (its members).
            key = self.vindex.partition(rule_idx).key_of.get(t.tid)
            if key is None:
                return None
        else:
            rule = self.rules[rule_idx]
            assert isinstance(rule, VariableCFDRule)
            if not rule.cfd.lhs_matches(t):
                return None
            key = t.project(rule.cfd.lhs)
        table = self.h_tables[rule_idx]
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _VarEntry()
        return entry

    def _apply_fix(
        self, t: CTuple, attr: str, value: Any, rule_name: str, source
    ) -> None:
        """Write a deterministic fix (or confirm an equal value) and
        propagate via ``update``."""
        if cell_changed(t[attr], value):
            self.fix_log.record(
                Fix(
                    kind=FixKind.DETERMINISTIC,
                    rule_name=rule_name,
                    tid=t.tid if t.tid is not None else -1,
                    attr=attr,
                    old_value=t[attr],
                    new_value=value,
                    old_conf=t.conf(attr),
                    new_conf=self.eta,
                    source=source,
                )
            )
            # Notify observers (the violation index keeps partition
            # membership coherent with the repaired values).
            self.relation.set_value(t, attr, value)
            self.result_fixes += 1
        else:
            self.confirmed += 1
        t.set_conf(attr, self.eta)
        self.update(t, attr)

    def vcfd_infer(self, t: CTuple, rule_idx: int) -> None:
        rule = self.rules[rule_idx]
        assert isinstance(rule, VariableCFDRule)
        entry = self._var_entry(rule_idx, t)
        if entry is None:  # pattern does not match t
            return
        rhs = rule.rhs_attr()
        if self._asserted(t, rhs):
            if entry.val is None:
                # t provides the unique asserted value for Δ(ȳ); fix all
                # waiting tuples with it.
                entry.val = t[rhs]
                waiting, entry.waiting = entry.waiting, []
                entry.waiting_tids.clear()
                for other in waiting:
                    if other.tid == t.tid or self._asserted(other, rhs):
                        continue
                    self.pending[other.tid].discard(rule_idx)  # type: ignore[index]
                    self._apply_fix(other, rhs, entry.val, rule.name, t.tid or -1)
                # Scoped (delta-driven) run: the waiting list only holds
                # armed in-scope tuples, but the provision would also fix
                # any premise-asserted group-mate outside the scope whose
                # target disagrees — a full run arms those too.  Flag
                # them so the session replays with a larger scope.
                if self.scope_set is not None:
                    self._check_provision_escapes(rule, rule_idx, t, entry.val)
            # A second asserted value conflicting with val would contradict
            # correct confidences (Section 5.1); it is left untouched here.
            return
        # t's RHS is not asserted.
        if entry.val is not None:
            self._apply_fix(t, rhs, entry.val, rule.name, "group")
        else:
            if t.tid not in entry.waiting_tids:
                entry.waiting.append(t)
                entry.waiting_tids.add(t.tid)  # type: ignore[arg-type]
                self.pending.setdefault(t.tid, set()).add(rule_idx)

    def _check_provision_escapes(
        self, rule: VariableCFDRule, rule_idx: int, provider: CTuple, val: Any
    ) -> None:
        """Collect out-of-scope cells a full run would deterministically fix
        with the group value *val* just provided by *provider*."""
        if self.vindex is None or self.scope_set is None:
            return
        store = self.vindex._cfd_parts.get(rule_idx)
        if store is None:
            return
        key = store.key_of.get(provider.tid)
        if key is None:
            return
        rhs = rule.rhs_attr()
        lhs = rule.lhs_attrs()
        for mate_tid in store.groups[key].tids:
            if mate_tid in self.scope_set:
                continue
            mate = self.relation.by_tid(mate_tid)
            if mate[rhs] == val or self._asserted(mate, rhs):
                continue
            if all(self._asserted(mate, attr) for attr in lhs):
                self.escaped.add((mate_tid, rhs))

    def ccfd_infer(self, t: CTuple, rule_idx: int) -> None:
        rule = self.rules[rule_idx]
        assert isinstance(rule, ConstantCFDRule)
        if not rule.cfd.lhs_matches(t):
            return
        rhs = rule.rhs_attr()
        if self._asserted(t, rhs):
            return  # asserted targets are never overwritten
        self._apply_fix(t, rhs, rule.cfd.rhs_constant, rule.name, "pattern")

    def md_infer(self, t: CTuple, rule_idx: int) -> None:
        rule = self.rules[rule_idx]
        assert isinstance(rule, MDRule)
        rhs, master_attr = rule.md.rhs_pair
        if self._asserted(t, rhs):
            return
        index = self.md_indexes[rule_idx]
        match = (
            index.cached_find_match(t) if self.vindex is not None else index.find_match(t)
        )
        if match is None:
            return
        self._apply_fix(t, rhs, match[master_attr], rule.name, "master")

    # ------------------------------------------------------------------
    # Main loop — Fig. 4
    # ------------------------------------------------------------------
    def run(self) -> None:
        # Rule-declaration order, not set order: the iteration order feeds
        # the worklist, and set-of-str order varies with the per-process
        # hash seed — shard workers must schedule exactly like the parent.
        relevant: Dict[str, None] = {}
        for rule in self.rules:
            for attr in rule.lhs_attrs():
                relevant.setdefault(attr, None)
            relevant.setdefault(rule.rhs_attr(), None)
        relevant_attrs: Tuple[str, ...] = tuple(relevant)
        # Initialization (lines 1–6): propagate already-asserted attributes
        # and arm premise-free rules.  A scoped (delta-driven) run arms
        # only the dirty tuples — sound because the session's influence
        # closure guarantees every tuple a scoped tuple can interact with
        # (same variable-CFD group at any point) is itself in scope.
        scope = (
            self.scope_tids if self.scope_tids is not None else self.relation.tids()
        )
        for idx, rule in enumerate(self.rules):
            if not rule.lhs_attrs():
                for tid in scope:
                    self._root_rank = (0, idx, tid, 0)
                    self._push(tid, idx)
        for tid in scope:
            t = self.relation.by_tid(tid)
            self._root_rank = (1, tid, 0, 0)
            for attr in relevant_attrs:
                if self._asserted(t, attr):
                    self.update(t, attr)
        # Fixpoint loop (lines 7–15).
        self._looping = True
        trace = self.trace
        while self.queue:
            tid, rule_idx = self.queue.popleft()
            self.queued.discard((tid, rule_idx))
            t = self.relation.by_tid(tid)
            rule = self.rules[rule_idx]
            self.fired += 1
            if trace is not None:
                self._children = 0
                fixes_before = len(self.fix_log)
            if isinstance(rule, VariableCFDRule):
                self.vcfd_infer(t, rule_idx)
            elif isinstance(rule, ConstantCFDRule):
                self.ccfd_infer(t, rule_idx)
            else:
                self.md_infer(t, rule_idx)
            if trace is not None:
                trace.pops.append(
                    (self._children, len(self.fix_log) - fixes_before)
                )


def crepair(
    relation: Relation,
    cfds: Sequence[CFD] = (),
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
    eta: float = 0.8,
    fix_log: Optional[FixLog] = None,
    top_l: int = 20,
    use_suffix_tree: bool = True,
    in_place: bool = False,
    use_violation_index: bool = True,
    md_indexes: Optional[Mapping[str, MDBlockingIndex]] = None,
    registry: Optional[GroupStoreRegistry] = None,
    scope_tids: Optional[Sequence[int]] = None,
    trace: Optional[WorklistTrace] = None,
) -> CRepairResult:
    """Find all deterministic fixes in *relation* (Theorem 5.1).

    Parameters
    ----------
    relation:
        The dirty relation ``D``.  Cloned unless ``in_place=True``.
    cfds, mds:
        The rule sets Σ and Γ (normalized internally; negative MDs must
        already be embedded via
        :func:`repro.constraints.embed_negative`).
    master:
        Master data ``Dm`` (required when ``mds`` is non-empty).
    eta:
        Confidence threshold η; attributes with ``cf ≥ η`` are asserted.
    fix_log:
        Optional shared log (the UniClean pipeline threads one through all
        three phases).
    top_l, use_suffix_tree:
        Blocking parameters for MD similarity search (Section 5.2).
    in_place:
        Mutate *relation* instead of a clone.
    use_violation_index:
        Use LHS-partition membership to keep the worklist free of tuples
        that cannot match a rule's pattern; ``False`` is the legacy
        baseline (identical fix logs either way).
    md_indexes:
        Optional pre-built blocking indexes (rule name →
        :class:`MDBlockingIndex`) shared across pipeline phases.
    registry:
        Optional session-owned
        :class:`~repro.indexing.group_store.GroupStoreRegistry`; its
        prebuilt shared group stores back the violation index instead of
        a fresh relation scan.
    scope_tids:
        When given (a sorted tid sequence), restrict the run to these
        tuples — the delta-driven mode of
        :class:`~repro.pipeline.session.CleaningSession`.  Requires the
        caller to pass an influence-closed scope; arbitrary subsets do
        not reproduce full-run fixes.
    trace:
        Optional :class:`~repro.core.trace.WorklistTrace` recording the
        worklist schedule, so partition-parallel runs can merge shard
        fix logs into the exact unsharded order.

    Returns
    -------
    CRepairResult
        The partial repair with deterministic fixes marked in the log.
    """
    working = relation if in_place else relation.clone()
    log = fix_log if fix_log is not None else FixLog()
    rules = derive_rules(cfds, mds)
    state = _CRepair(
        working,
        rules,
        master,
        eta,
        log,
        top_l=top_l,
        use_suffix_tree=use_suffix_tree,
        use_violation_index=use_violation_index,
        shared_md_indexes=md_indexes,
        registry=registry,
        scope_tids=scope_tids,
        trace=trace,
    )
    try:
        state.run()
    finally:
        state.close()
    return CRepairResult(
        relation=working,
        fix_log=log,
        deterministic_fixes=state.result_fixes,
        confirmed_cells=state.confirmed,
        rules_fired=state.fired,
        escaped_cells=state.escaped,
    )
