"""Incremental violation detection: per-rule inverted partition indexes.

The repair phases repeatedly ask "which tuples can currently violate rule
r?".  The seed implementation answered by rescanning the whole relation
for every rule on every resolution round — O(rules × |D| × rounds).  This
module answers it incrementally, in the spirit of factorized evaluation
and first-order incremental view maintenance: build partitions once, then
maintain them under point updates so each fix only revisits the tuples it
can actually affect.

Partition state lives in shared group stores
(:mod:`repro.indexing.group_store`), one per distinct rule spec:

* **CFD rule** ``R(X → B, tp)`` — a :class:`CFDGroupStore` mapping each
  LHS pattern key ``x̄`` (the projection ``t[X]`` of tuples with
  ``t[X] ≍ tp[X]``) to the member tids and RHS value counts, plus the
  inverse ``tid → x̄`` map.  A violation of the CFD can only involve
  tuples of a single partition, so partitions are the unit of
  (re)checking.  eRepair ranks the dirty partitions it pops by the
  entropy their :class:`~repro.indexing.group_store.GroupStats` cache
  (:func:`~repro.indexing.entropy_index.rank_conflicting`), so a cell
  change walks the grouping once for every consumer.
* **MD rule** — an :class:`MDGroupStore` over the data side: the live
  tids and the scope-attribute changes that dirty them (checks are per
  tuple, so there is nothing to group); master data is immutable, so
  only data-side dirtiness matters.

Dirtiness (the work queue):

* per *constant-CFD* and *MD* rule — a set of **dirty tids** (checks are
  per-tuple: pattern constant / master match);
* per *variable-CFD* rule — a set of **dirty partition keys** (checks
  are per-group: conflicting B values within ``Δ(x̄)``).

A cell update ``(tid, attr)`` dirties only the rules whose scope contains
``attr``, and within them only the partitions the tuple belongs to (both
the old and the new partition when an LHS change moves the tuple).
Inserts and deletes dirty the same way (the new member / the vacated
partition).

Invariants (checked by ``check_consistency`` and the property tests):

1. after any sequence of ``Relation.set_value`` calls, every partition
   equals the partition of a freshly built index;
2. ``pop_dirty_tids`` / ``pop_dirty_keys`` return sorted snapshots (by
   tid / by smallest member tid), so indexed resolution visits work in
   the same deterministic order as a legacy full scan — fix logs are
   byte-identical between the two paths;
3. dirtiness over-approximates: every tuple/partition whose violation
   status may have changed is dirty (the converse need not hold).

When no :class:`~repro.indexing.group_store.GroupStoreRegistry` is
supplied, the index owns a private one and attaches it to the relation;
a session-owned registry is reused as-is (stores already built — index
construction is O(rules), not O(|D|·rules)).

On columnar relations (:mod:`repro.relational.columns`) the initial
store builds behind this index run as ref-column array scans
(``GroupStoreRegistry.ensure_rules`` → ``_bulk_index_columnar``) and the
full-relation checks consuming its partitions run on canonical-ref
integer comparisons (:func:`repro.analysis.consistency.relation_violations`
under the ``vectorized`` engine) — the partition *contents* and all
dirtiness semantics here are engine-independent and byte-identical
either way.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.constraints.rules import (
    AnyRule,
    ConstantCFDRule,
    MDRule,
    VariableCFDRule,
)
from repro.indexing.group_store import (
    CFDGroupStore,
    GroupStoreRegistry,
    MDGroupStore,
)
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple

Key = Tuple[Any, ...]

# Backward-compatible aliases: the partition classes were folded into the
# shared group stores (membership + value stats in one structure).
CFDPartition = CFDGroupStore
MDPartition = MDGroupStore


class ViolationIndex:
    """The indexed rule engine: per-rule partitions + dirty work queues.

    Parameters
    ----------
    relation:
        The relation being repaired.  The index must observe *every* cell
        mutation; call :meth:`attach` (done by default) so that
        ``relation.set_value`` keeps it coherent.
    rules:
        The cleaning rules, in the order the consuming phase iterates
        them — dirty state is tracked per rule index.
    registry:
        Optional shared :class:`GroupStoreRegistry` (session-owned).
        When given, its stores are reused and the registry's own
        relation observer keeps them coherent; the index only subscribes
        dirtiness listeners.  When absent, a private registry is created
        (and attached/detached together with the index).
    membership_only:
        Maintain CFD partition membership but no dirty queues and no MD
        state (the cRepair worklist only needs membership tests).

    Usage pattern (one resolution round of a repair phase)::

        index.mark_all_dirty()          # round 1 examines everything
        ...
        for tid in index.pop_dirty_tids(rule_idx):   # constant CFD / MD
            ...                                       # may set_value(...)
        for key in index.pop_dirty_keys(rule_idx):   # variable CFD
            group = index.members(rule_idx, key)
            ...

    Fixes made while draining a queue re-dirty whatever they touch, which
    the *next* round pops — exactly the legacy fixpoint semantics, minus
    the rescans of unaffected tuples.
    """

    def __init__(
        self,
        relation: Relation,
        rules: Sequence[AnyRule],
        attach: bool = True,
        membership_only: bool = False,
        registry: Optional[GroupStoreRegistry] = None,
    ):
        self.relation = relation
        self.rules: List[AnyRule] = list(rules)
        self.membership_only = membership_only
        self._owns_registry = registry is None
        if registry is None:
            registry = GroupStoreRegistry(relation, attach=False)
        self.registry = registry
        self._cfd_parts: Dict[int, CFDGroupStore] = {}
        self._md_parts: Dict[int, MDGroupStore] = {}
        self._dirty_tids: Dict[int, Set[int]] = {}
        self._dirty_keys: Dict[int, Set[Key]] = {}
        self._rules_by_attr: Dict[str, List[int]] = {}
        self._listeners: List[Tuple[Any, Any]] = []  # (store, listener)
        self._attached = False

        include_md = not (membership_only and self._owns_registry)
        registry.ensure_rules(self.rules, include_md=include_md)
        for idx, rule in enumerate(self.rules):
            if isinstance(rule, (ConstantCFDRule, VariableCFDRule)):
                self._cfd_parts[idx] = registry.cfd_store(rule.cfd)
            elif isinstance(rule, MDRule):
                if membership_only:
                    continue  # every tuple is an MD member; nothing to track
                self._md_parts[idx] = registry.md_store(rule.md)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported rule type {type(rule).__name__}")
            if isinstance(rule, VariableCFDRule):
                self._dirty_keys[idx] = set()
            else:
                self._dirty_tids[idx] = set()
            for attr in rule.scope_attrs():
                self._rules_by_attr.setdefault(attr, []).append(idx)
        if attach:
            self.attach()

    # ------------------------------------------------------------------
    # Observer wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Subscribe for change notifications (registry + dirtiness)."""
        if self._attached:
            return
        if self._owns_registry:
            self.registry.attach()
        if not self.membership_only:
            for idx in self._dirty_keys:
                self._subscribe(self._cfd_parts[idx], self._variable_listener(idx))
            for idx in self._dirty_tids:
                part = self._cfd_parts.get(idx)
                if part is not None:
                    self._subscribe(part, self._constant_listener(idx))
                else:
                    self._subscribe(self._md_parts[idx], self._md_listener(idx))
        self._attached = True

    def detach(self) -> None:
        """Unsubscribe (call when the consuming phase is done)."""
        if not self._attached:
            return
        for store, listener in self._listeners:
            try:
                store.change_listeners.remove(listener)
            except ValueError:
                pass
        self._listeners.clear()
        if self._owns_registry:
            self.registry.detach()
        self._attached = False

    def _subscribe(self, store: Any, listener: Any) -> None:
        store.change_listeners.append(listener)
        self._listeners.append((store, listener))

    def _variable_listener(self, idx: int):
        keys = self._dirty_keys[idx]

        def on_change(t: CTuple, old_key: Optional[Key], new_key: Optional[Key]) -> None:
            if old_key is not None:
                keys.add(old_key)
            if new_key is not None:
                keys.add(new_key)

        return on_change

    def _constant_listener(self, idx: int):
        tids = self._dirty_tids[idx]

        def on_change(t: CTuple, old_key: Optional[Key], new_key: Optional[Key]) -> None:
            if new_key is not None:  # constant CFD: member tuples only
                tids.add(t.tid)

        return on_change

    def _md_listener(self, idx: int):
        tids = self._dirty_tids[idx]

        def on_change(t: CTuple, old_key: Optional[Key], new_key: Optional[Key]) -> None:
            if self.relation.has_tid(t.tid):
                tids.add(t.tid)
            # else: deleted tuple — it can no longer violate, and MD checks
            # are per-tuple, so its absence creates no work elsewhere.

        return on_change

    # ------------------------------------------------------------------
    # Dirtiness
    # ------------------------------------------------------------------
    def _require_dirty_queues(self) -> None:
        if self.membership_only:
            raise RuntimeError(
                "dirty queues are disabled on a membership_only ViolationIndex"
            )

    def mark_cell_dirty(self, tid: int, attr: str) -> None:
        """Mark cell ``(tid, attr)`` dirty without a value change.

        hRepair uses this when a target-lattice event (class merge or
        target upgrade) changes a cell's *resolution state* while its
        value stays put — the affected partitions must be re-examined.
        """
        self._require_dirty_queues()
        for idx in self._rules_by_attr.get(attr, ()):
            keys = self._dirty_keys.get(idx)
            if keys is not None:
                part = self._cfd_parts[idx]
                key = part.key_of.get(tid)
                if key is not None:
                    keys.add(key)
            else:
                part_c = self._cfd_parts.get(idx)
                if part_c is not None and tid not in part_c.key_of:
                    continue  # not a member: the constant rule cannot fire
                self._dirty_tids[idx].add(tid)

    def seed_dirty(
        self,
        scope_cells: Optional[Sequence[Tuple[int, str]]] = None,
        scope_tids: Optional[Sequence[int]] = None,
    ) -> None:
        """Round-1 seeding policy shared by the repair phases: cell-
        granular scope when given, tuple scope otherwise, everything as
        the default (a full run)."""
        if scope_cells is not None:
            for tid, attr in scope_cells:
                self.mark_cell_dirty(tid, attr)
        elif scope_tids is not None:
            self.mark_scope_dirty(scope_tids)
        else:
            self.mark_all_dirty()

    def mark_all_dirty(self) -> None:
        """Queue every member tuple / partition of every rule (round 1)."""
        self._require_dirty_queues()
        for idx in range(len(self.rules)):
            self.mark_rule_dirty(idx)

    def mark_rule_dirty(self, idx: int) -> None:
        """Queue all current members/partitions of rule *idx*."""
        keys = self._dirty_keys.get(idx)
        if keys is not None:
            keys.update(self._cfd_parts[idx].groups)
        else:
            part = self._cfd_parts.get(idx)
            if part is not None:
                self._dirty_tids[idx].update(part.key_of)
            else:
                self._dirty_tids[idx].update(self._md_parts[idx].tids)

    def mark_scope_dirty(self, tids: Sequence[int]) -> None:
        """Queue only the given tuples (and their partitions) — the seed of
        a delta-driven re-clean: round 1 examines the dirty scope instead
        of the whole relation."""
        self._require_dirty_queues()
        for idx, rule in enumerate(self.rules):
            keys = self._dirty_keys.get(idx)
            if keys is not None:
                key_of = self._cfd_parts[idx].key_of
                for tid in tids:
                    key = key_of.get(tid)
                    if key is not None:
                        keys.add(key)
            else:
                part = self._cfd_parts.get(idx)
                if part is not None:  # constant CFD: members only
                    key_of = part.key_of
                    self._dirty_tids[idx].update(t for t in tids if t in key_of)
                else:  # MD: any tuple may match the premise
                    self._dirty_tids[idx].update(tids)

    def pop_dirty_tids(self, idx: int) -> List[int]:
        """Drain rule *idx*'s dirty tuples, in ascending tid order.

        Ascending tid equals relation insertion order (tids are assigned
        monotonically), so indexed resolution visits tuples exactly as a
        legacy full scan would.
        """
        dirty = self._dirty_tids[idx]
        if not dirty:
            return []
        out = sorted(dirty)
        dirty.clear()
        return out

    def pop_dirty_keys(self, idx: int) -> List[Key]:
        """Drain rule *idx*'s dirty partitions, ordered by smallest member
        tid (the order a legacy scan first encounters each group).
        Partitions that became empty are dropped silently."""
        dirty = self._dirty_keys[idx]
        if not dirty:
            return []
        groups = self._cfd_parts[idx].groups
        live = [key for key in dirty if key in groups]
        dirty.clear()
        live.sort(key=lambda key: min(groups[key].tids))
        return live

    def dirty_tuples(self, idx: int) -> Iterator[CTuple]:
        """Drain rule *idx*'s dirty tuples as live :class:`CTuple`s.

        The shared drain used by the per-tuple resolve procedures of
        eRepair and hRepair (their legacy paths iterate the full
        relation instead); order follows :meth:`pop_dirty_tids`.
        Tids deleted since they were queued are skipped.
        """
        relation = self.relation
        return (
            relation.by_tid(tid)
            for tid in self.pop_dirty_tids(idx)
            if relation.has_tid(tid)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def partition(self, idx: int) -> Optional[CFDGroupStore]:
        """The CFD group store of rule *idx*, or ``None`` for MD rules.

        The vectorized check engine walks ``partition(idx).key_of``
        directly (one ascending-tid pass buckets members into partitions
        in first-encounter order) instead of paying the per-group
        ``sorted``/``min`` calls of :meth:`iter_groups`."""
        return self._cfd_parts.get(idx)

    def is_member(self, idx: int, tid: int) -> bool:
        """Whether tuple *tid* currently matches rule *idx*'s premise
        pattern (always true for MD rules — any tuple may match)."""
        part = self._cfd_parts.get(idx)
        if part is None:
            return True
        return tid in part.key_of

    def members(self, idx: int, key: Key) -> List[int]:
        """Sorted member tids of partition *key* of CFD rule *idx*."""
        return sorted(self._cfd_parts[idx].tids_of(key))

    def member_tids(self, idx: int) -> List[int]:
        """Sorted tids of all members of rule *idx*."""
        part = self._cfd_parts.get(idx)
        if part is not None:
            return sorted(part.key_of)
        return sorted(self._md_parts[idx].tids)

    def iter_groups(self, idx: int) -> Iterator[Tuple[Key, List[int]]]:
        """All ``(key, sorted member tids)`` of a CFD rule, ordered by
        smallest member tid (legacy first-encounter order)."""
        groups = self._cfd_parts[idx].groups
        for key in sorted(groups, key=lambda k: min(groups[k].tids)):
            yield key, sorted(groups[key].tids)

    def groups_of_tids(
        self, idx: int, tids: Sequence[int]
    ) -> Iterator[Tuple[Key, List[int]]]:
        """The partitions of CFD rule *idx* containing any of *tids*, as
        ``(key, sorted member tids)`` in first-encounter order — the
        delta-scoped counterpart of :meth:`iter_groups` (tuples outside
        every listed partition cannot pair-violate with a listed one)."""
        part = self._cfd_parts[idx]
        key_of = part.key_of
        keys = {key_of[tid] for tid in tids if tid in key_of}
        groups = part.groups
        for key in sorted(keys, key=lambda k: min(groups[k].tids)):
            yield key, sorted(groups[key].tids)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, relation: Optional[Relation] = None) -> None:
        """Assert every partition matches a fresh build (property tests)."""
        target = relation if relation is not None else self.relation
        for part in self._cfd_parts.values():
            part.check_against(target)
        for mpart in self._md_parts.values():
            mpart.check_against(target)
