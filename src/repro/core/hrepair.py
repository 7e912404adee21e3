"""Algorithm ``hRepair``: possible fixes with heuristics (Section 7).

Errors that survive cRepair and eRepair are resolved heuristically so the
final repair ``Dr`` satisfies ``Dr ⊨ Σ`` and ``(Dr, Dm) ⊨ Γ`` while
preserving every deterministic fix (Corollary 7.1).  The method extends
Cong et al. (VLDB 2007): cells carry *equivalence classes* ``eq(t, A)``
with a target value that is either ``'_'`` (free: keep the current value),
a constant, or ``null`` (unresolvable conflict).  Targets only move up the
lattice ``'_' → constant → null`` and classes only merge, which bounds the
number of resolution steps and guarantees termination.

Null semantics (Section 7, SQL simple semantics):

* ``t1[X] = t2[X]`` evaluates to **true** when either side is null — so a
  null never *witnesses* a violation;
* pattern matching ``t[X] ≍ tp[X]`` is **false** on null — so rules do not
  fire from null premises.

Violation resolution:

* **constant CFD** ``(X → A, tp)``: upgrade ``eq(t, A)`` to the pattern
  constant; on conflict with an earlier constant, upgrade to null; when
  the class is frozen by a deterministic fix, break the premise instead by
  nulling the cheapest non-frozen LHS cell.
* **variable CFD** ``(Y → B, tp)``: merge the classes of all B-cells in
  the conflicting group; the merged target is the frozen value if one
  exists, else the group value of minimum repair cost (the cost model of
  Section 3.1); distinct frozen values make the conflict unresolvable for
  the merge, so the premise of the cheapest non-frozen tuple is broken.
* **MD**: upgrade ``eq(t, E)`` to the master value ``s[F]`` (master data
  is authoritative); conflicts with other constants upgrade to null.

The loop re-scans until no violation is resolvable; each resolution merges
classes or upgrades a target, so the measure ``(#classes descending,
#upgrades ascending)`` strictly improves and the process terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.constraints.cfd import CFD
from repro.constraints.md import MD
from repro.constraints.rules import (
    AnyRule,
    ConstantCFDRule,
    MDRule,
    VariableCFDRule,
    derive_rules,
)
from repro.core.cost import RefCostCache, cell_cost
from repro.core.fixes import Fix, FixKind, FixLog
from repro.core.trace import RoundTrace
from repro.indexing.blocking import MDBlockingIndex
from repro.indexing.group_store import GroupStoreRegistry
from repro.indexing.violation_index import ViolationIndex
from repro.relational.attribute import NULL, cell_changed, is_null
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple

Cell = Tuple[int, str]

_FREE = ("_",)
_NULL = ("null",)


def _const(value: Any) -> Tuple[str, Any]:
    return ("const", value)


def demanded_values(matched: Sequence[CTuple], master_attr: str) -> List[Any]:
    """The distinct *master_attr* values the premise-satisfying master
    tuples *matched* demand of an MD's target cell, ordered by ``repr``
    (a single match demands its own value)."""
    if len(matched) == 1:
        return [matched[0][master_attr]]
    return sorted({s[master_attr] for s in matched}, key=repr)


@dataclass
class HRepairResult:
    """Outcome of an ``hRepair`` run."""

    relation: Relation
    fix_log: FixLog
    possible_fixes: int = 0
    merges: int = 0
    upgrades: int = 0
    unresolved: int = 0
    rounds: int = 0


class _UnionFind:
    """Union-find over cells, with per-root member lists.

    A cell becomes a singleton class when :meth:`find` first meets it;
    *on_new*, when given, is called with the cell right then.
    """

    def __init__(self, on_new: Optional[Callable[[Cell], None]] = None) -> None:
        self._parent: Dict[Cell, Cell] = {}
        self._members: Dict[Cell, List[Cell]] = {}
        self._on_new = on_new

    def find(self, cell: Cell) -> Cell:
        if cell not in self._parent:
            self._parent[cell] = cell
            self._members[cell] = [cell]
            if self._on_new is not None:
                self._on_new(cell)
            return cell
        root = cell
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cell] != root:  # path compression
            self._parent[cell], cell = root, self._parent[cell]
        return root

    def union(self, a: Cell, b: Cell) -> Cell:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members[ra].extend(self._members.pop(rb))
        return ra

    def members(self, cell: Cell) -> List[Cell]:
        return self._members[self.find(cell)]


class _HRepair:
    def __init__(
        self,
        relation: Relation,
        rules: Sequence[AnyRule],
        master: Optional[Relation],
        protected: AbstractSet[Cell],
        fix_log: FixLog,
        top_l: int,
        use_suffix_tree: bool,
        max_rounds: int,
        use_violation_index: bool = True,
        shared_md_indexes: Optional[Mapping[str, MDBlockingIndex]] = None,
        registry: Optional[GroupStoreRegistry] = None,
        scope_tids: Optional[Sequence[int]] = None,
        scope_cells: Optional[Sequence[Tuple[int, str]]] = None,
        trace: Optional[RoundTrace] = None,
    ):
        self.relation = relation
        self.rules = list(rules)
        self.master = master
        self.protected = protected
        self.fix_log = fix_log
        self.max_rounds = max_rounds
        self.scope_tids = scope_tids
        self.scope_cells = scope_cells
        #: Optional per-fix scheduling tokens for sharded log merging.
        self.trace = trace
        self._token: Optional[Tuple] = None
        if scope_tids is not None and not use_violation_index:
            raise ValueError("scoped (delta-driven) runs require the violation index")
        self.uf = _UnionFind(self._freeze_if_protected)
        self.targets: Dict[Cell, Tuple] = {}  # root -> target
        #: Lazily built per-run memo of cell costs keyed by interned refs
        #: (vectorized engine only).
        self._cost_cache: Optional[RefCostCache] = None
        self.fixes_made = 0
        self.merges = 0
        self.upgrades = 0
        self.unresolved: Set[Tuple] = set()
        self.rounds = 0

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

        self.vindex: Optional[ViolationIndex] = (
            ViolationIndex(relation, self.rules, registry=registry)
            if use_violation_index
            else None
        )

    def _freeze_if_protected(self, cell: Cell) -> None:
        """Freeze a protected (deterministic) cell's class at its value
        when the union-find first meets the cell.  Exact: hRepair never
        writes a protected cell, so its value then is its value at the
        start, and class member order depends only on the sequence of
        unions — so a run only pays for the protected cells it reaches."""
        if cell in self.protected:
            tid, attr = cell
            self.targets[cell] = ("frozen", self.relation.by_tid(tid)[attr])

    def close(self) -> None:
        """Detach the violation index from the relation (idempotent)."""
        if self.vindex is not None:
            self.vindex.detach()

    # ------------------------------------------------------------------
    # Target lattice
    # ------------------------------------------------------------------
    def _target(self, cell: Cell) -> Tuple:
        return self.targets.get(self.uf.find(cell), _FREE)

    def _is_frozen(self, cell: Cell) -> bool:
        return self._target(cell)[0] == "frozen"

    def _set_target(self, cell: Cell, target: Tuple, rule_name: str) -> None:
        """Upgrade the target of *cell*'s class and sync cell values."""
        root = self.uf.find(cell)
        old = self.targets.get(root, _FREE)
        if old == target:
            return
        if old[0] == "frozen":
            raise AssertionError("frozen targets must never be reassigned")
        self.targets[root] = target
        self.upgrades += 1
        self._mark_class_dirty(root)
        self._sync(root, rule_name)

    def _merge(self, cells: Sequence[Cell], target: Tuple, rule_name: str) -> None:
        root = self.uf.find(cells[0])
        for cell in cells[1:]:
            other = self.uf.find(cell)
            if other != root:
                self.merges += 1
                self.targets.pop(other, None)
                self.targets.pop(root, None)
                root = self.uf.union(root, other)
        self.targets[root] = target
        if target[0] != "frozen":
            self.upgrades += 1
        self._mark_class_dirty(root)
        self._sync(root, rule_name)

    def _mark_class_dirty(self, root: Cell) -> None:
        """Queue every cell of a class whose resolution state changed.

        A merge or target upgrade can change how a rule treats a member
        cell even when the cell's *value* stays put (e.g. its class became
        frozen), so value-change notifications alone under-approximate
        dirtiness here.
        """
        if self.vindex is None:
            return
        for tid, attr in self.uf.members(root):
            self.vindex.mark_cell_dirty(tid, attr)

    def _sync(self, root: Cell, rule_name: str) -> None:
        """Reflect a class target into the working relation."""
        target = self.targets.get(root, _FREE)
        if target[0] == "_":
            return
        value = NULL if target[0] == "null" else target[1]
        for tid, attr in self.uf.members(root):
            t = self.relation.by_tid(tid)
            if not cell_changed(t[attr], value):
                continue
            if (tid, attr) in self.protected:
                continue  # defensive; frozen classes keep their value
            self.fix_log.record(
                Fix(
                    kind=FixKind.POSSIBLE,
                    rule_name=rule_name,
                    tid=tid,
                    attr=attr,
                    old_value=t[attr],
                    new_value=value,
                    old_conf=t.conf(attr),
                    new_conf=t.conf(attr),
                    source="heuristic",
                )
            )
            if self.trace is not None:
                assert self._token is not None
                self.trace.tokens.append(self._token)
            self.relation.set_value(t, attr, value)
            self.fixes_made += 1

    # ------------------------------------------------------------------
    # Premise breaking (last resort around frozen conflicts)
    # ------------------------------------------------------------------
    def _break_premise(self, t: CTuple, lhs: Sequence[str], rule_name: str) -> bool:
        """Null the cheapest non-frozen LHS cell so the rule no longer
        applies to *t*.  Returns False when every LHS cell is frozen.

        Free-target cells are preferred; upgrading a const target to null
        is a legal lattice move (constant → null, Cong et al.) and is used
        as a second resort — it nulls the cell's whole equivalence class.
        """
        candidates: List[Tuple[int, float, str]] = []
        for attr in lhs:
            cell = (t.tid, attr)
            if cell in self.protected or self._is_frozen(cell):
                continue
            target = self._target(cell)
            if target[0] == "null":
                continue  # already null — cannot break further here
            rank = 1 if target[0] == "const" else 0
            conf = t.conf(attr)
            candidates.append((rank, conf if conf is not None else 0.0, attr))
        if not candidates:
            return False
        candidates.sort()
        attr = candidates[0][2]
        self._set_target((t.tid, attr), _NULL, rule_name)
        return True

    # ------------------------------------------------------------------
    # Violation scans (null-tolerant semantics)
    # ------------------------------------------------------------------
    def _candidates(self, rule_idx: int):
        """Tuples a per-tuple rule must (re)examine this round: the full
        relation on the legacy path, the drained dirty queue otherwise."""
        if self.vindex is None:
            return iter(self.relation)
        return self.vindex.dirty_tuples(rule_idx)

    def resolve_constant(self, rule_idx: int) -> bool:
        rule = self.rules[rule_idx]
        assert isinstance(rule, ConstantCFDRule)
        rhs = rule.rhs_attr()
        constant = rule.cfd.rhs_constant
        changed = False
        for t in self._candidates(rule_idx):
            if self.trace is not None:
                self._token = (self.rounds, rule_idx, (t.tid,))
            if not rule.cfd.lhs_matches(t):
                continue
            current = t[rhs]
            if not is_null(current) and not cell_changed(current, constant):
                continue
            cell = (t.tid, rhs)
            signature = ("c", rule.name, t.tid)
            if signature in self.unresolved:
                continue
            target = self._target(cell)
            if target[0] == "frozen":
                if not cell_changed(target[1], constant):
                    continue
                if not self._break_premise(t, rule.cfd.lhs, rule.name):
                    self.unresolved.add(signature)
                else:
                    changed = True
                continue
            if target[0] == "null":
                continue  # already tombstoned; null satisfies the check
            if target[0] == "const" and cell_changed(target[1], constant):
                self._set_target(cell, _NULL, rule.name)
            else:
                self._set_target(cell, _const(constant), rule.name)
            changed = True
        return changed

    def resolve_variable(self, rule_idx: int) -> bool:
        rule = self.rules[rule_idx]
        assert isinstance(rule, VariableCFDRule)
        rhs = rule.rhs_attr()
        changed = False
        if self.vindex is not None:
            if self.relation.column_store is not None:
                return self._resolve_variable_vectorized(rule, rule_idx, rhs)
            by_tid = self.relation.by_tid
            for key in self.vindex.pop_dirty_keys(rule_idx):
                members = self.vindex.members(rule_idx, key)
                if not members:
                    continue
                if self.trace is not None:
                    # Pop order is ascending smallest member tid — the
                    # content rank that interleaves shards' partitions.
                    self._token = (self.rounds, rule_idx, (members[0],))
                group = [by_tid(tid) for tid in members]
                changed |= self._resolve_variable_group(rule, rhs, key, group)
        else:
            groups: Dict[Tuple[Any, ...], List[CTuple]] = {}
            for t in self.relation:
                if rule.cfd.lhs_matches(t):
                    groups.setdefault(t.project(rule.cfd.lhs), []).append(t)
            for key, group in groups.items():
                if self.trace is not None:
                    self._token = (
                        self.rounds,
                        rule_idx,
                        (min(t.tid for t in group),),
                    )
                changed |= self._resolve_variable_group(rule, rhs, key, group)
        return changed

    def _resolve_variable_vectorized(
        self, rule: VariableCFDRule, rule_idx: int, rhs: str
    ) -> bool:
        """The equivalence-class construction of :meth:`resolve_variable`
        over ref columns, with the hot-group prune shared with the
        vectorized check engine.

        Each popped dirty partition is pruned through its
        :class:`~repro.indexing.group_store.GroupStats`: a cold group
        (≤ 1 distinct RHS ``==``-class) always makes
        :meth:`_resolve_variable_group` return ``False`` with zero
        observable side effects — no fix, no token, no unresolved entry —
        so skipping it before materializing any tuple is exact.
        """
        changed = False
        part = self.vindex.partition(rule_idx)
        for key in self.vindex.pop_dirty_keys(rule_idx):
            stats = part.groups.get(key) if part is not None else None
            if stats is None or not stats.tids:
                continue
            if not stats.is_hot:
                continue  # cold: provably resolution-free
            member_tids = sorted(stats.tids)
            if self.trace is not None:
                # Pop order is ascending smallest member tid — the
                # content rank that interleaves shards' partitions.
                self._token = (self.rounds, rule_idx, (member_tids[0],))
            changed |= self._resolve_variable_group_refs(
                rule, rhs, key, member_tids
            )
        return changed

    def _resolve_variable_group_refs(
        self,
        rule: VariableCFDRule,
        rhs: str,
        key: Tuple[Any, ...],
        member_tids: Sequence[int],
    ) -> bool:
        """Ref-level :meth:`_resolve_variable_group`: membership filter,
        distinct-value collection and null detection run on canon refs
        (canon equality is ``==`` equality), materializing row-views only
        on the rare frozen-conflict premise-breaking path and inside
        ``_sync`` when fixes actually land.  The distinct-value map keeps
        the *first-encountered* ref per canon class, in encounter order —
        exactly the instances, and the order, of the reference path's
        ``dict.fromkeys``.
        """
        relation = self.relation
        store = relation.column_store
        table = store.table
        vals = table.values
        canon = table.canon
        null_c = table.null_canon
        data = store.values[store.index_of[rhs]].data
        tuples = relation._tuples
        target = self._target
        # Tombstoned cells (target null) stay null: re-filling them
        # would undo an earlier conflict resolution.
        members: List[int] = []
        rhs_refs: List[int] = []
        for tid in member_tids:
            if target((tid, rhs))[0] != "null":
                members.append(tid)
                rhs_refs.append(data[tuples[tid]._row])
        values_by_canon: Dict[int, int] = {}  # canon -> first-seen ref
        has_free_nulls = False
        for r in rhs_refs:
            c = canon[r]
            if c == null_c:
                has_free_nulls = True
            elif c not in values_by_canon:
                values_by_canon[c] = r
        if len(values_by_canon) < 2 and not (values_by_canon and has_free_nulls):
            return False  # consistent (nulls alone never violate)
        signature = ("v", rule.name, key)
        if signature in self.unresolved:
            return False
        cells = [(tid, rhs) for tid in members]
        frozen_values = {
            self._target(cell)[1] for cell in cells if self._is_frozen(cell)
        }
        if len(frozen_values) > 1:
            # Two deterministic fixes disagree — break the premise of a
            # frozen participant (see _resolve_variable_group).
            broken = False
            by_tid = relation.by_tid
            for tid in sorted(members):
                if self._is_frozen((tid, rhs)):
                    if self._break_premise(by_tid(tid), rule.cfd.lhs, rule.name):
                        broken = True
                        break
            if not broken:
                self.unresolved.add(signature)
                return False
            return True
        if frozen_values:
            # One deterministic value dictates the group (see
            # _resolve_variable_group for why non-frozen members take it
            # as an ordinary const target instead of joining the class).
            value = next(iter(frozen_values))
            frozen_cells = [cell for cell in cells if self._is_frozen(cell)]
            if len(frozen_cells) > 1:
                self._merge(frozen_cells, ("frozen", value), rule.name)
            for cell in cells:
                if self._is_frozen(cell):
                    continue
                tgt = self._target(cell)
                if tgt[0] == "const" and tgt[1] != value:
                    self._set_target(cell, _NULL, rule.name)
                else:
                    self._set_target(cell, _const(value), rule.name)
            return True
        const_targets = {
            self._target(cell)[1]
            for cell in cells
            if self._target(cell)[0] == "const"
        }
        if len(const_targets) > 1:
            merged_target = _NULL
        elif const_targets:
            merged_target = _const(next(iter(const_targets)))
        else:
            merged_target = _const(
                self._cheapest_value_refs(members, rhs_refs, values_by_canon, rhs)
            )
        self._merge(cells, merged_target, rule.name)
        return True

    def _cheapest_value_refs(
        self,
        members: Sequence[int],
        rhs_refs: Sequence[int],
        values_by_canon: Dict[int, int],
        rhs: str,
    ) -> Any:
        """Ref-level :meth:`_cheapest_value` (Section 3.1 cost model).

        Vote counts come from one pass over canon refs; each candidate's total cost accumulates over
        the members *in member order* through the per-run
        :class:`~repro.core.cost.RefCostCache`, preserving the reference
        path's float addition order bit for bit (the memo only collapses
        repeated ``(old, new, conf)`` ref triples, whose costs are
        identical floats by construction).
        """
        relation = self.relation
        store = relation.column_store
        table = store.table
        vals = table.values
        canon = table.canon
        cache = self._cost_cache
        if cache is None:
            cache = self._cost_cache = RefCostCache(table)
        cost = cache.cost
        conf_data = store.confs[store.index_of[rhs]].data
        tuples = relation._tuples
        conf_refs = [conf_data[tuples[tid]._row] for tid in members]
        n = len(rhs_refs)
        canons = [canon[r] for r in rhs_refs]
        counts: Dict[int, int] = {}
        for c in canons:
            counts[c] = counts.get(c, 0) + 1
        best_value = None
        best_key = None
        for cand_canon, cand_ref in sorted(
            values_by_canon.items(), key=lambda kv: repr(vals[kv[1]])
        ):
            value = vals[cand_ref]
            total = 0.0
            for i in range(n):
                if canons[i] != cand_canon:
                    total += cost(rhs_refs[i], cand_ref, conf_refs[i])
            rank = (total, -counts[cand_canon], repr(value))
            if best_key is None or rank < best_key:
                best_key = rank
                best_value = value
        return best_value

    def _resolve_variable_group(
        self,
        rule: VariableCFDRule,
        rhs: str,
        key: Tuple[Any, ...],
        group: Sequence[CTuple],
    ) -> bool:
        """Resolve one conflict group ``Δ(x̄)`` of a variable CFD."""
        # Tombstoned cells (target null) stay null: re-filling them
        # would undo an earlier conflict resolution.
        members = [
            t for t in group if self._target((t.tid, rhs))[0] != "null"
        ]
        # First-encountered instance per ``==``-class, in member order
        # (the ref-level builder's order): a set would order unequal
        # values with equal reprs (two NaNs) by hash.
        values = dict.fromkeys(t[rhs] for t in members if not is_null(t[rhs]))
        has_free_nulls = any(is_null(t[rhs]) for t in members)
        if len(values) < 2 and not (values and has_free_nulls):
            return False  # consistent (nulls alone never violate)
        signature = ("v", rule.name, key)
        if signature in self.unresolved:
            return False
        cells = [(t.tid, rhs) for t in members]
        frozen_values = {
            self._target(cell)[1] for cell in cells if self._is_frozen(cell)
        }
        if len(frozen_values) > 1:
            # Two deterministic fixes disagree — the merge is
            # impossible.  Dissolve the conflict by breaking the
            # premise of one of the *frozen participants*: null a
            # non-frozen LHS cell of a frozen tuple so it leaves the
            # group (breaking an uninvolved tuple's premise would not
            # remove the violation).
            broken = False
            for t in sorted(members, key=lambda x: x.tid or 0):
                if self._is_frozen((t.tid, rhs)):
                    if self._break_premise(t, rule.cfd.lhs, rule.name):
                        broken = True
                        break
            if not broken:
                self.unresolved.add(signature)
                return False
            return True
        if frozen_values:
            # One deterministic value dictates the group.  Only the cells
            # already rooted in frozen (protected) classes join the frozen
            # class; the remaining members take the value as an ordinary
            # *const* target.  Merging them in would freeze them by
            # contagion, and a later conflict between two frozen groups
            # could then find no premise to break — losing the Dr ⊨ Σ
            # guarantee of Corollary 7.1.  Const-targeted cells stay
            # null-upgradable, which is all that guarantee needs.
            value = next(iter(frozen_values))
            frozen_cells = [cell for cell in cells if self._is_frozen(cell)]
            if len(frozen_cells) > 1:
                self._merge(frozen_cells, ("frozen", value), rule.name)
            for cell in cells:
                if self._is_frozen(cell):
                    continue
                tgt = self._target(cell)
                if tgt[0] == "const" and tgt[1] != value:
                    self._set_target(cell, _NULL, rule.name)
                else:
                    self._set_target(cell, _const(value), rule.name)
            return True
        const_targets = {
            self._target(cell)[1]
            for cell in cells
            if self._target(cell)[0] == "const"
        }
        if len(const_targets) > 1:
            target = _NULL
        elif const_targets:
            target = _const(next(iter(const_targets)))
        else:
            target = _const(self._cheapest_value(members, rhs, values))
        self._merge(cells, target, rule.name)
        return True

    def _cheapest_value(
        self, group: Sequence[CTuple], rhs: str, values: Iterable[Any]
    ) -> Any:
        """The group value minimizing total repair cost (Section 3.1).

        Cost ties (common when confidences are zero) break towards the
        *most frequent* value — the majority heuristic — then towards the
        lexicographically smallest for determinism.
        """
        counts: Dict[Any, int] = {}
        for t in group:
            counts[t[rhs]] = counts.get(t[rhs], 0) + 1
        best_value = None
        best_key = None
        for value in sorted(values, key=repr):
            total = 0.0
            for t in group:
                if cell_changed(t[rhs], value):
                    total += cell_cost(t[rhs], value, t.conf(rhs))
            key = (total, -counts.get(value, 0), repr(value))
            if best_key is None or key < best_key:
                best_key = key
                best_value = value
        return best_value

    def resolve_md(self, rule_idx: int) -> bool:
        rule = self.rules[rule_idx]
        assert isinstance(rule, MDRule)
        rhs, master_attr = rule.md.rhs_pair
        index = self.md_indexes[rule_idx]
        matches = index.cached_matches if self.vindex is not None else index.matches
        changed = False
        for t in self._candidates(rule_idx):
            if self.trace is not None:
                self._token = (self.rounds, rule_idx, (t.tid,))
            # All premise-satisfying master tuples place a demand on t[E];
            # a single match dictates a constant, conflicting matches are
            # resolved with null (which satisfies the null-tolerant check).
            demanded = demanded_values(matches(t), master_attr)
            if not demanded:
                continue
            current = t[rhs]
            if (
                len(demanded) == 1
                and not is_null(current)
                and not cell_changed(current, demanded[0])
            ):
                continue
            if is_null(current):
                if len(demanded) > 1 or self._target((t.tid, rhs))[0] == "null":
                    continue  # null already satisfies every demand
            cell = (t.tid, rhs)
            signature = ("m", rule.name, t.tid)
            if signature in self.unresolved:
                continue
            target = self._target(cell)
            if target[0] == "frozen":
                if len(demanded) == 1 and not cell_changed(target[1], demanded[0]):
                    continue
                if not self._break_premise(t, rule.md.lhs_attrs(), rule.name):
                    self.unresolved.add(signature)
                else:
                    changed = True
                continue
            if len(demanded) > 1:
                if target[0] != "null":
                    self._set_target(cell, _NULL, rule.name)
                    changed = True
                continue
            value = demanded[0]
            if target[0] == "null":
                continue
            if target[0] == "const" and cell_changed(target[1], value):
                self._set_target(cell, _NULL, rule.name)
            else:
                self._set_target(cell, _const(value), rule.name)
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        if self.vindex is not None:
            # Round 1: the delta scope when given, everything otherwise.
            self.vindex.seed_dirty(self.scope_cells, self.scope_tids)
        while self.rounds < self.max_rounds:
            self.rounds += 1
            changed = False
            for idx, rule in enumerate(self.rules):
                if isinstance(rule, ConstantCFDRule):
                    changed |= self.resolve_constant(idx)
                elif isinstance(rule, VariableCFDRule):
                    changed |= self.resolve_variable(idx)
                else:
                    changed |= self.resolve_md(idx)
            if not changed:
                break


# ----------------------------------------------------------------------
# Null-tolerant satisfaction checks (the guarantee of Corollary 7.1)
# ----------------------------------------------------------------------
def cfd_satisfied_with_nulls(relation: Relation, cfd: CFD) -> bool:
    """``D ⊨ φ`` under the simple SQL null semantics of Section 7.

    A tuple with a null in the pattern scope never matches the pattern;
    value comparisons involving null evaluate to true.
    """
    for normalized in cfd.normalize():
        rhs = normalized.rhs_attr
        if normalized.is_constant:
            for t in relation:
                if not normalized.lhs_matches(t):
                    continue
                value = t[rhs]
                if not is_null(value) and cell_changed(
                    value, normalized.rhs_constant
                ):
                    return False
        else:
            groups: Dict[Tuple[Any, ...], Set[Any]] = {}
            for t in relation:
                if not normalized.lhs_matches(t):
                    continue
                if is_null(t[rhs]):
                    continue
                groups.setdefault(t.project(normalized.lhs), set()).add(t[rhs])
            for values in groups.values():
                if len(values) > 1:
                    return False
    return True


def md_satisfied_with_nulls(relation: Relation, master: Relation, md: MD) -> bool:
    """``(D, Dm) ⊨ ψ`` with null counting as identified (Section 7).

    Master tuples are bucketed on the equality premise attributes, so
    expensive similarity predicates only run within matching buckets.
    """
    from repro.indexing.blocking import ExactIndex

    for normalized in md.normalize():
        rhs, master_attr = normalized.rhs_pair
        eq_clauses = [c for c in normalized.premise if c.is_equality]
        if eq_clauses:
            index = ExactIndex(master, [c.master_attr for c in eq_clauses])
            data_attrs = [c.attr for c in eq_clauses]
            for t in relation:
                if is_null(t[rhs]):
                    continue
                key = t.project(data_attrs)
                if any(is_null(v) for v in key):
                    continue
                for s in index.lookup(key):
                    if normalized.premise_holds(t, s) and cell_changed(
                        t[rhs], s[master_attr]
                    ):
                        return False
        else:
            for t in relation:
                if is_null(t[rhs]):
                    continue
                for s in master:
                    if normalized.premise_holds(t, s) and cell_changed(
                        t[rhs], s[master_attr]
                    ):
                        return False
    return True


def is_clean(
    relation: Relation,
    cfds: Sequence[CFD],
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
) -> bool:
    """Whether *relation* satisfies Σ and Γ under null-tolerant semantics."""
    for cfd in cfds:
        if not cfd_satisfied_with_nulls(relation, cfd):
            return False
    if master is not None:
        for md in mds:
            if not md_satisfied_with_nulls(relation, master, md):
                return False
    return True


def hrepair(
    relation: Relation,
    cfds: Sequence[CFD] = (),
    mds: Sequence[MD] = (),
    master: Optional[Relation] = None,
    protected: Optional[AbstractSet[Cell]] = None,
    fix_log: Optional[FixLog] = None,
    top_l: int = 20,
    use_suffix_tree: bool = True,
    in_place: bool = False,
    max_rounds: int = 100,
    use_violation_index: bool = True,
    md_indexes: Optional[Mapping[str, MDBlockingIndex]] = None,
    registry: Optional[GroupStoreRegistry] = None,
    scope_tids: Optional[Sequence[int]] = None,
    scope_cells: Optional[Sequence[Tuple[int, str]]] = None,
    trace: Optional[RoundTrace] = None,
) -> HRepairResult:
    """Produce a consistent repair with heuristic *possible* fixes.

    Finds a repair ``Dr`` with ``Dr ⊨ Σ`` and ``(Dr, Dm) ⊨ Γ`` (under
    Section 7's null semantics) that preserves all *protected*
    (deterministic) cells — Corollary 7.1.

    ``use_violation_index=False`` selects the legacy full-rescan baseline
    (byte-identical fix logs, asymptotically slower); *md_indexes* lets
    the pipeline share pre-built master-side blocking indexes by rule
    name.  *registry* supplies session-owned shared group stores;
    *scope_tids* restricts round 1 to an influence-closed dirty scope
    (the delta-driven mode of
    :class:`~repro.pipeline.session.CleaningSession`).
    """
    working = relation if in_place else relation.clone()
    log = fix_log if fix_log is not None else FixLog()
    rules = derive_rules(cfds, mds)
    state = _HRepair(
        working,
        rules,
        master,
        protected=protected or set(),
        fix_log=log,
        top_l=top_l,
        use_suffix_tree=use_suffix_tree,
        max_rounds=max_rounds,
        use_violation_index=use_violation_index,
        shared_md_indexes=md_indexes,
        registry=registry,
        scope_tids=scope_tids,
        scope_cells=scope_cells,
        trace=trace,
    )
    try:
        state.run()
    finally:
        state.close()
    return HRepairResult(
        relation=working,
        fix_log=log,
        possible_fixes=state.fixes_made,
        merges=state.merges,
        upgrades=state.upgrades,
        unresolved=len(state.unresolved),
        rounds=state.rounds,
    )
