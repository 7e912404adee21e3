"""Shared LHS-keyed group stores: one grouping per rule *spec*, not per consumer.

Before this module, every cell update walked **two** parallel structures
per variable CFD: the violation index's ``CFDPartition`` (membership) and
the ``EntropyIndex`` (membership *again*, plus RHS value counts) — each
re-running the pattern match ``t[X] ≍ tp[X]`` and the LHS projection on
the hottest path of the pipeline.  The stores below maintain one grouping
per distinct CFD spec ``(R, X, tp[X], B)`` and fan the single traversal
out to every consumer:

* **change listeners** (the :class:`ViolationIndex` dirtiness marking,
  the session's group-key tracking) get one ``(t, old_key, new_key)``
  notification per relevant cell change / insert / delete;
* **entry views** get ``group_will_change`` / ``group_changed``
  callbacks around each group mutation, which is exactly what an
  ``(entropy, key)``-ordered AVL needs to re-slot a group — only a
  standalone :class:`EntropyIndex` registers one, on its private store
  (eRepair's indexed path ranks dirty groups on demand instead).

A :class:`GroupStoreRegistry` owns the stores of one relation, attaches a
single relation observer, and dispatches each event to the stores whose
scope contains the changed attribute.  Stores are shared: asking for the
store of two CFDs with the same spec (or twice for the same CFD, as the
violation indexes of successive phases do) yields the same object,
built once.  :class:`~repro.pipeline.session.CleaningSession` keeps a registry
alive across ``clean()``/``apply()`` calls, which is what makes
delta-driven re-cleaning possible without any index rebuild.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.constraints.cfd import WILDCARD, is_wildcard
from repro.exceptions import DataError
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple

Key = Tuple[Any, ...]

#: Cache sentinel distinct from every legitimate membership entry
#: (``False`` is a real non-member mark).
_MISSING = object()

ChangeListener = Callable[[CTuple, Optional[Key], Optional[Key]], None]


def entropy_of_counts(counts: Counter) -> float:
    """Entropy of a value-count distribution, log base ``k`` (= #values).

    Matches ``H(φ|Y=ȳ)`` of Section 6.1: 0 when all occurrences agree
    (``k ≤ 1``), 1 when the ``k`` distinct values are equally frequent.

    Examples
    --------
    >>> entropy_of_counts(Counter({"a": 4}))
    0.0
    >>> entropy_of_counts(Counter({"a": 2, "b": 2}))
    1.0
    >>> 0 < entropy_of_counts(Counter({"a": 3, "b": 1})) < 1
    True
    """
    k = len(counts)
    if k <= 1:
        return 0.0
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    log_k = math.log(k)
    h = 0.0
    # Summation over *sorted* counts keeps the float result independent of
    # dictionary insertion order, so incrementally maintained indexes stay
    # bit-identical to rebuilt ones.
    for count in sorted(counts.values()):
        if count <= 0:
            continue
        p = count / total
        h += p * (math.log(1.0 / p) / log_k)
    return h


def sort_key(value: Any) -> Tuple[str, str]:
    """A deterministic, type-stable ordering key for arbitrary cell values."""
    return (type(value).__name__, repr(value))


class GroupStats:
    """Statistics of one group ``Δ(ȳ)``: counts, tids, cached entropy."""

    __slots__ = ("key", "value_counts", "tids", "_entropy")

    def __init__(self, key: Key):
        self.key = key
        self.value_counts: Counter = Counter()
        self.tids: Set[int] = set()
        self._entropy: Optional[float] = None

    @property
    def size(self) -> int:
        """``|Δ(ȳ)|`` — the number of tuples in the group."""
        return len(self.tids)

    @property
    def entropy(self) -> float:
        """``H(φ|Y=ȳ)`` (cached; invalidated on mutation)."""
        if self._entropy is None:
            self._entropy = entropy_of_counts(self.value_counts)
        return self._entropy

    def majority(self) -> Tuple[Any, int]:
        """The most frequent B value and its count (deterministic ties)."""
        if not self.value_counts:
            raise DataError("majority() of an empty group")
        best_count = max(self.value_counts.values())
        winners = [v for v, c in self.value_counts.items() if c == best_count]
        winners.sort(key=sort_key)
        return winners[0], best_count

    def distinct_values(self) -> int:
        """``k = |π_B(Δ(ȳ))|``."""
        return len(self.value_counts)

    @property
    def is_hot(self) -> bool:
        """Whether the group *can* hold a variable-CFD conflict: more
        than one distinct RHS value (``==``-class).  Cold groups (k ≤ 1)
        are provably side-effect-free for both the violation scan and
        hRepair's group resolution, so vectorized engines skip them."""
        return len(self.value_counts) > 1

    def _invalidate(self) -> None:
        self._entropy = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupStats({self.key!r}, n={self.size}, "
            f"values={dict(self.value_counts)}, H={self.entropy:.3f})"
        )


def hot_groups(groups: Iterable[GroupStats]) -> List[GroupStats]:
    """The conflicted groups of a partition, ordered by smallest member
    tid — the deterministic scan order the vectorized check engine and
    the vectorized hRepair share.  Skipping cold groups is exact: a
    group whose RHS values all agree can neither witness a variable-CFD
    violation nor produce a fix, a token, or an unresolved entry."""
    hot = [g for g in groups if g.is_hot]
    hot.sort(key=lambda g: min(g.tids))
    return hot


class CFDGroupStore:
    """The shared grouping of one CFD spec ``(X, tp[X], B)``.

    Maps each LHS pattern key ``x̄`` (the projection ``t[X]`` of tuples
    with ``t[X] ≍ tp[X]``; nulls never match, Section 7) to a
    :class:`GroupStats` holding the member tids *and* the RHS value
    counts / cached entropy — the union of what ``CFDPartition`` and
    ``EntropyIndex`` used to keep separately.
    """

    __slots__ = ("cfd", "lhs", "rhs", "_lhs_set", "groups", "key_of",
                 "_interned", "entry_views", "change_listeners")

    def __init__(self, cfd: Any):
        self.cfd = cfd
        self.lhs: Tuple[str, ...] = cfd.key_attrs()
        self.rhs: str = cfd.rhs_attr
        self._lhs_set = frozenset(self.lhs)
        self.groups: Dict[Key, GroupStats] = {}
        self.key_of: Dict[int, Key] = {}
        #: Canonical instance per distinct LHS key.  ``t.project`` builds
        #: a fresh tuple on every call, so without interning each re-key
        #: on the group-rewrite hot path allocates an identical tuple and
        #: every downstream dict probe (groups, key_of comparisons,
        #: ever-key tracking) re-hashes and equality-walks it; interned
        #: keys make those probes identity hits.  Entries are never
        #: evicted: growth is bounded by the keys *ever* seen — the same
        #: envelope as the session's ``ever_group_keys`` tracking, which
        #: collision detection needs to retain anyway.
        self._interned: Dict[Key, Key] = {}
        #: Objects with ``group_will_change(group)`` / ``group_changed(group)``,
        #: called around every group mutation (a standalone EntropyIndex's
        #: AVL maintenance; registry stores have none).
        self.entry_views: List[Any] = []
        #: Callables ``(t, old_key, new_key)`` fired once per relevant cell
        #: change / insert / delete (violation-index dirtiness, influence
        #: tracking).  Either key may be ``None`` (non-member side).
        self.change_listeners: List[ChangeListener] = []

    # ------------------------------------------------------------------
    # Scope
    # ------------------------------------------------------------------
    def scope_attrs(self) -> Tuple[str, ...]:
        out = dict.fromkeys(self.lhs)
        out[self.rhs] = None
        return tuple(out)

    def relevant(self, attr: str) -> bool:
        return attr in self._lhs_set or attr == self.rhs

    # ------------------------------------------------------------------
    # Bulk construction (no notifications; callers re-sync views)
    # ------------------------------------------------------------------
    def intern_key(self, key: Key) -> Key:
        """The canonical instance of *key* (see ``_interned``)."""
        return self._interned.setdefault(key, key)

    def build(self, relation: Relation) -> None:
        """(Re)build from *relation* in one scan, without notifications."""
        self.groups.clear()
        self.key_of.clear()
        self._interned.clear()
        self.bulk_index(relation)

    def bulk_index(self, relation: Relation) -> None:
        """Index every tuple of *relation* (assumed not yet indexed here),
        taking the columnar array scan when the relation is column-backed
        — the blocking-scan hot loop of every fresh
        :class:`GroupStoreRegistry`."""
        if relation.column_store is not None:
            self._bulk_index_columnar(relation)
        else:
            for t in relation:
                self.index_tuple(t)

    def _bulk_index_columnar(self, relation: Relation) -> None:
        """One pass over the ref columns instead of ``len(relation)``
        pattern matches: membership (non-null LHS + constant-premise
        canon-ref equality) and the key→group resolution are computed
        once per *distinct* LHS ref combination and cached — with the
        group's mutators pre-bound, so each row costs one dict probe (a
        bare ref for single-attribute LHS, a C-built ref tuple
        otherwise) plus three container updates with no attribute
        resolution.  LHS key tuples are materialized from table-resident value
        instances, which unifies the store's key interning with the
        process-wide :data:`~repro.relational.columns.GLOBAL_TABLE`.
        Byte-identical to the per-tuple loop: group/key insertion order
        is first-encounter in relation order either way, and per-group
        value counts key the first encountered value instance just as
        the per-row ``counts[v] += 1`` would.
        """
        store = relation.column_store
        table = store.table
        vals = table.values
        canon = table.canon
        null_c = table.null_canon
        index_of = store.index_of
        lhs_cols = [store.values[index_of[a]].data for a in self.lhs]
        rhs_data = store.values[index_of[self.rhs]].data
        pattern = self.cfd.lhs_pattern
        const_checks: List[Tuple[int, int]] = []
        for pos, attr in enumerate(self.lhs):
            pv = pattern.get(attr, WILDCARD)
            if not is_wildcard(pv):
                const_checks.append((pos, table.canon_ref(pv)))
        intern_key = self.intern_key
        groups = self.groups
        key_of = self.key_of
        value_of = vals.__getitem__
        tids, rows = relation._live_rows()
        if not lhs_cols:
            # Empty LHS (pure-constant pattern): every live row belongs
            # to the single ``()`` partition.
            key = intern_key(())
            member_tids = list(tids)
            rhs_refs = (
                rhs_data if rows is None else [rhs_data[row] for row in rows]
            )
            group = groups.get(key)
            if group is None:
                group = groups[key] = GroupStats(key)
            group.tids.update(member_tids)
            group.value_counts.update(map(value_of, rhs_refs))
            group._invalidate()
            key_of.update(dict.fromkeys(member_tids, key))
            return
        single = len(lhs_cols) == 1
        cache: Dict[Any, Any] = {}
        if rows is None:
            lhs_iter = lhs_cols[0] if single else zip(*lhs_cols)
            packed = zip(lhs_iter, tids, rhs_data)
        elif single:
            col0 = lhs_cols[0]
            packed = (
                (col0[row], tid, rhs_data[row])
                for tid, row in zip(tids, rows)
            )
        else:
            packed = (
                (tuple(col[row] for col in lhs_cols), tid, rhs_data[row])
                for tid, row in zip(tids, rows)
            )
        for refs, tid, rv in packed:
            entry = cache.get(refs, _MISSING)
            if entry is _MISSING:
                ref_tuple = (refs,) if single else refs
                member = True
                for r in ref_tuple:
                    if canon[r] == null_c:  # nulls never match (Section 7)
                        member = False
                        break
                if member:
                    for pos, want in const_checks:
                        if canon[ref_tuple[pos]] != want:
                            member = False
                            break
                if member:
                    key = intern_key(tuple(map(value_of, ref_tuple)))
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = GroupStats(key)
                    # Bound methods: the hot loop below re-slots without
                    # re-resolving ``group.tids.add`` etc. per row.
                    entry = cache[refs] = (key, group.tids.add, group.value_counts)
                else:
                    cache[refs] = False
                    continue
            elif entry is False:
                continue
            key, add_tid, counts = entry
            add_tid(tid)
            counts[value_of(rv)] += 1
            key_of[tid] = key

    def index_tuple(self, t: CTuple) -> None:
        """Slot *t* in silently (bulk load; no views/listeners fired)."""
        if not self.cfd.lhs_matches(t):
            return
        key = self.intern_key(t.project(self.lhs))
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupStats(key)
        group.tids.add(t.tid)
        group.value_counts[t[self.rhs]] += 1
        group._invalidate()
        self.key_of[t.tid] = key

    # ------------------------------------------------------------------
    # Group mutation primitives (with view hooks)
    # ------------------------------------------------------------------
    def _slot_out(self, tid: int, key: Key, rhs_value: Any) -> None:
        group = self.groups[key]
        for view in self.entry_views:
            view.group_will_change(group)
        group.tids.discard(tid)
        group.value_counts[rhs_value] -= 1
        if group.value_counts[rhs_value] <= 0:
            del group.value_counts[rhs_value]
        group._invalidate()
        del self.key_of[tid]
        if not group.tids:
            del self.groups[key]
        for view in self.entry_views:
            view.group_changed(group)

    def _slot_in(self, tid: int, key: Key, rhs_value: Any) -> None:
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupStats(key)
        else:
            for view in self.entry_views:
                view.group_will_change(group)
        group.tids.add(tid)
        group.value_counts[rhs_value] += 1
        group._invalidate()
        self.key_of[tid] = key
        for view in self.entry_views:
            view.group_changed(group)

    # ------------------------------------------------------------------
    # Incremental maintenance (registry-dispatched)
    # ------------------------------------------------------------------
    def on_cell_changed(
        self, t: CTuple, attr: str, old: Any, new: Any
    ) -> Tuple[Optional[Key], Optional[Key]]:
        """Re-slot *t* after ``t[attr]`` changed (post-mutation).

        One traversal updates membership *and* RHS value counts, then
        notifies change listeners with ``(old_key, new_key)`` — the
        partitions whose contents (LHS move) or violation status / value
        distribution (RHS change) were touched.
        """
        if not self.relevant(attr):
            return None, None
        tid = t.tid
        old_key = self.key_of.get(tid)
        if attr in self._lhs_set:
            new_key = (
                self.intern_key(t.project(self.lhs))
                if self.cfd.lhs_matches(t)
                else None
            )
            if new_key != old_key:
                # The RHS value the old group counted: the *old* value when
                # the changed attribute occurs on both sides (e.g. FN → FN).
                rhs_before = old if attr == self.rhs else t[self.rhs]
                if old_key is not None:
                    self._slot_out(tid, old_key, rhs_before)
                if new_key is not None:
                    self._slot_in(tid, new_key, t[self.rhs])
        else:
            # Pure RHS change: membership is unaffected; swap the value
            # count inside the tuple's own group.
            new_key = old_key
            if old_key is not None:
                group = self.groups[old_key]
                for view in self.entry_views:
                    view.group_will_change(group)
                group.value_counts[old] -= 1
                if group.value_counts[old] <= 0:
                    del group.value_counts[old]
                group.value_counts[new] += 1
                group._invalidate()
                for view in self.entry_views:
                    view.group_changed(group)
        for listener in self.change_listeners:
            listener(t, old_key, new_key)
        return old_key, new_key

    def on_insert(self, t: CTuple) -> Optional[Key]:
        """Register a freshly inserted tuple."""
        key: Optional[Key] = None
        if self.cfd.lhs_matches(t):
            key = self.intern_key(t.project(self.lhs))
            self._slot_in(t.tid, key, t[self.rhs])
        for listener in self.change_listeners:
            listener(t, None, key)
        return key

    def on_delete(self, t: CTuple) -> Optional[Key]:
        """Unregister a deleted tuple (its values are still intact)."""
        key = self.key_of.get(t.tid)
        if key is not None:
            self._slot_out(t.tid, key, t[self.rhs])
        for listener in self.change_listeners:
            listener(t, key, None)
        return key

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def member_key(self, tid: int) -> Optional[Key]:
        """The partition key of *tid*, or ``None`` when not a member."""
        return self.key_of.get(tid)

    def tids_of(self, key: Key) -> Set[int]:
        """Member tids of partition *key* (empty set when absent)."""
        group = self.groups.get(key)
        return group.tids if group is not None else set()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_against(self, relation: Relation) -> None:
        """Assert groups (membership and counts) equal a fresh build."""
        rebuilt = CFDGroupStore(self.cfd)
        rebuilt.build(relation)
        if rebuilt.key_of != self.key_of or set(rebuilt.groups) != set(self.groups):
            raise AssertionError(
                f"group store for {self.cfd.name} diverges from relation state"
            )
        for key, group in self.groups.items():
            other = rebuilt.groups[key]
            if group.tids != other.tids or group.value_counts != other.value_counts:
                raise AssertionError(
                    f"group {key!r} of {self.cfd.name} diverges from relation state"
                )


class MDGroupStore:
    """Data-side membership of one MD scope: the live tids, plus change
    routing for the scope attributes.

    Every tuple is a member (an MD check is per tuple, and a
    similarity-only premise can match any tuple), so the store keeps no
    grouping: master data is immutable and the blocking indexes own the
    premise side.  Change listeners fire for *every* scope-attribute
    change, insert and delete, with both keys ``None`` (the tuple is
    dirty whatever moved).
    """

    __slots__ = ("md", "_scope", "tids", "change_listeners")

    def __init__(self, md: Any):
        self.md = md
        self._scope = frozenset(md.scope_attrs())
        self.tids: Set[int] = set()
        self.change_listeners: List[ChangeListener] = []

    def scope_attrs(self) -> Tuple[str, ...]:
        return tuple(self._scope)

    def relevant(self, attr: str) -> bool:
        return attr in self._scope

    def build(self, relation: Relation) -> None:
        self.tids.clear()
        self.bulk_index(relation)

    def bulk_index(self, relation: Relation) -> None:
        """Index every tuple of *relation*."""
        self.tids.update(relation.tids())

    def index_tuple(self, t: CTuple) -> None:
        self.tids.add(t.tid)

    def _notify(self, t: CTuple) -> None:
        for listener in self.change_listeners:
            listener(t, None, None)

    def on_cell_changed(self, t: CTuple, attr: str, old: Any, new: Any) -> None:
        if self.relevant(attr):
            self._notify(t)

    def on_insert(self, t: CTuple) -> None:
        self.tids.add(t.tid)
        self._notify(t)

    def on_delete(self, t: CTuple) -> None:
        self.tids.discard(t.tid)
        self._notify(t)

    def check_against(self, relation: Relation) -> None:
        if self.tids != set(relation.tids()):
            raise AssertionError(
                f"MD group store for {self.md.name} diverges from relation state"
            )


AnyStore = Any  # CFDGroupStore | MDGroupStore


class GroupStoreRegistry:
    """All shared group stores of one relation, behind one observer.

    Parameters
    ----------
    relation:
        The relation whose groupings are maintained.
    attach:
        Subscribe to the relation's cell/insert/delete notifications
        immediately (stores stay coherent under every mutation routed
        through ``Relation.set_value`` / ``add`` / ``remove``).

    Notes
    -----
    Stores are keyed by *spec*, not by constraint object: two CFDs with
    identical ``(schema, X, tp[X], B)`` share one store, and — the case
    that matters on the hot path — every phase's violation index (and
    through it eRepair's entropy ranking) resolves the *same* CFD to the
    same store, so a cell change walks the grouping once.
    """

    def __init__(self, relation: Relation, attach: bool = True):
        self.relation = relation
        self._cfd_stores: Dict[Tuple, CFDGroupStore] = {}
        self._md_stores: Dict[Tuple, MDGroupStore] = {}
        self._by_attr: Dict[str, List[AnyStore]] = {}
        self._attached = False
        if attach:
            self.attach()

    # ------------------------------------------------------------------
    # Spec keys
    # ------------------------------------------------------------------
    @staticmethod
    def cfd_spec(cfd: Any) -> Tuple:
        return (
            "cfd",
            cfd.schema.name,
            cfd.key_attrs(),
            tuple(sorted((a, repr(v)) for a, v in cfd.lhs_pattern.items())),
            cfd.rhs_attr,
        )

    @staticmethod
    def md_spec(md: Any) -> Tuple:
        return ("md", tuple(sorted(md.scope_attrs())))

    # ------------------------------------------------------------------
    # Store retrieval (create + build on demand)
    # ------------------------------------------------------------------
    def _register(self, store: AnyStore) -> None:
        for attr in store.scope_attrs():
            stores = self._by_attr.setdefault(attr, [])
            if store not in stores:
                stores.append(store)

    def cfd_store(self, cfd: Any) -> CFDGroupStore:
        """The shared store for *cfd*'s spec, built on first request."""
        spec = self.cfd_spec(cfd)
        store = self._cfd_stores.get(spec)
        if store is None:
            store = self._cfd_stores[spec] = CFDGroupStore(cfd)
            store.build(self.relation)
            self._register(store)
        return store

    def md_store(self, md: Any) -> MDGroupStore:
        """The shared store for *md*'s spec, built on first request."""
        spec = self.md_spec(md)
        store = self._md_stores.get(spec)
        if store is None:
            store = self._md_stores[spec] = MDGroupStore(md)
            store.build(self.relation)
            self._register(store)
        return store

    def ensure_rules(self, rules: Iterable[Any], include_md: bool = True) -> None:
        """Create all stores the given cleaning rules need, building the
        missing ones in a single relation scan."""
        fresh: List[AnyStore] = []
        for rule in rules:
            cfd = getattr(rule, "cfd", None)
            if cfd is not None:
                spec = self.cfd_spec(cfd)
                if spec not in self._cfd_stores:
                    store = self._cfd_stores[spec] = CFDGroupStore(cfd)
                    self._register(store)
                    fresh.append(store)
                continue
            md = getattr(rule, "md", None)
            if md is not None and include_md:
                mspec = self.md_spec(md)
                if mspec not in self._md_stores:
                    mstore = self._md_stores[mspec] = MDGroupStore(md)
                    self._register(mstore)
                    fresh.append(mstore)
        if fresh:
            if self.relation.column_store is not None:
                # Column-at-a-time: each store scans the ref arrays once
                # (C-speed zips + per-distinct-key caching) instead of
                # sharing one per-tuple walk.
                for store in fresh:
                    store.bulk_index(self.relation)
            else:
                for t in self.relation:
                    for store in fresh:
                        store.index_tuple(t)

    def stores(self) -> List[AnyStore]:
        """All registered stores (CFD stores first, then MD stores)."""
        return list(self._cfd_stores.values()) + list(self._md_stores.values())

    def variable_cfd_stores(self) -> List[CFDGroupStore]:
        """The stores of variable CFDs — the only rule kind whose checks
        couple distinct tuples (the influence tracker subscribes here)."""
        return [s for s in self._cfd_stores.values() if s.cfd.is_variable]

    # ------------------------------------------------------------------
    # Observer wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        if not self._attached:
            self.relation.add_observer(self._on_cell_changed)
            self.relation.add_insert_observer(self._on_insert)
            self.relation.add_delete_observer(self._on_delete)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.relation.remove_observer(self._on_cell_changed)
            self.relation.remove_insert_observer(self._on_insert)
            self.relation.remove_delete_observer(self._on_delete)
            self._attached = False

    def _on_cell_changed(self, t: CTuple, attr: str, old: Any, new: Any) -> None:
        for store in self._by_attr.get(attr, ()):
            store.on_cell_changed(t, attr, old, new)

    def _on_insert(self, t: CTuple) -> None:
        for store in self._cfd_stores.values():
            store.on_insert(t)
        for mstore in self._md_stores.values():
            mstore.on_insert(t)

    def _on_delete(self, t: CTuple) -> None:
        for store in self._cfd_stores.values():
            store.on_delete(t)
        for mstore in self._md_stores.values():
            mstore.on_delete(t)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, relation: Optional[Relation] = None) -> None:
        """Assert every store matches a fresh build (property tests)."""
        target = relation if relation is not None else self.relation
        for store in self._cfd_stores.values():
            store.check_against(target)
        for mstore in self._md_stores.values():
            mstore.check_against(target)
