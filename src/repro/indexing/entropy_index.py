"""The 2-in-1 hash-table + AVL structure for variable CFDs (Section 6.3).

For a variable CFD ``φ = R(Y → B, tp)`` the structure keeps, per group
``Δ(ȳ) = {t ∈ D : t[Y] = ȳ ≍ tp[Y]}``:

* a hash-table entry ``HTab(ȳ) → (H(φ|Y=ȳ), |Δ(ȳ)|, {(b, cnt)}, {tids})``
  giving O(1) violation checks and entropy lookups, and
* an AVL tree over groups with non-zero entropy, keyed by
  ``(entropy, ȳ, smallest member tid)``, giving O(log |T|)
  minimum-entropy retrieval and maintenance after each fix.

The hash-table side lives in a private
:class:`~repro.indexing.group_store.CFDGroupStore` (the same grouping
the violation index partitions by); :class:`EntropyIndex` is the AVL
*view* over it, fed by the store's ``group_will_change`` /
``group_changed`` hooks, with the classic mutator API (``add_tuple`` /
``remove_tuple`` / ``update_cell`` / ``on_cell_changed``).  It is the
legacy (rescan) eRepair path's index and the oracle of
:func:`rank_conflicting`, the on-demand ranking the indexed path runs
over the session's shared stores: the AVL key is unique per group, so
sorting any set of groups by it reproduces the in-order walk restricted
to them.

The entropy of φ for ``Y = ȳ`` (Section 6.1) is::

    H(φ|Y=ȳ) = Σ_{i=1}^{k} (cnt(ȳ, b_i) / |Δ(ȳ)|) · log_k(|Δ(ȳ)| / cnt(ȳ, b_i))

with ``k = |π_B(Δ(ȳ))|`` the number of distinct B values.  Note the
*base-k* logarithm: a uniform conflict has entropy exactly 1, and a
conflict-free group (k = 1) has entropy 0.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.constraints.cfd import CFD
from repro.exceptions import ConstraintError
from repro.indexing.avl import AVLTree
from repro.indexing.group_store import (
    CFDGroupStore,
    GroupStats,
    entropy_of_counts,
    sort_key as _sort_key,
)
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple

__all__ = [
    "EntropyIndex",
    "GroupStats",
    "entropy_of_counts",
    "entropy_rank",
    "rank_conflicting",
]

Rank = Tuple[float, Tuple, int]


def entropy_rank(group: GroupStats) -> Rank:
    """The AVL key of *group*: ``(H, sort_key(ȳ), smallest member tid)``.

    The smallest member tid breaks ties between distinct keys whose sort
    keys coincide (two NaN objects print alike), so the key is unique
    per group and stable across processes.
    """
    return (
        group.entropy,
        tuple(_sort_key(v) for v in group.key),
        min(group.tids),
    )


def rank_conflicting(
    groups: Iterable[GroupStats], below: float
) -> List[Tuple[Rank, GroupStats]]:
    """``(rank, group)`` for each of *groups* with ``0 < H < below``, in
    increasing :func:`entropy_rank` order.

    Equal to walking an :class:`EntropyIndex` over the same store in
    order and keeping those groups (ranks are unique), at a cost
    proportional to *groups* instead of to the whole grouping — how
    eRepair's indexed path ranks the groups it pops as dirty.
    """
    ranked = [
        (entropy_rank(group), group)
        for group in groups
        if 0.0 < group.entropy < below
    ]
    ranked.sort(key=itemgetter(0))
    return ranked


class EntropyIndex:
    """The 2-in-1 structure of Section 6.3 for one variable CFD.

    Parameters
    ----------
    cfd:
        A normalized *variable* CFD ``R(Y → B, tp)``.
    relation:
        Optional relation to bulk-load (one scan, as in the paper:
        "initialization ... can be done by scanning the database D once").

    Notes
    -----
    Tuples whose ``Y`` values do not match the pattern ``tp[Y]`` (including
    tuples with nulls there) are *not* indexed — the CFD does not apply to
    them.
    """

    def __init__(self, cfd: CFD, relation: Optional[Relation] = None):
        if not cfd.is_variable:
            raise ConstraintError(f"{cfd.name} is not a normalized variable CFD")
        self.cfd = cfd
        self._store = CFDGroupStore(cfd)
        self._tree: AVLTree = AVLTree()
        self._store.entry_views.append(self)
        if relation is not None:
            self.build(relation)

    @property
    def store(self) -> CFDGroupStore:
        """The backing group store."""
        return self._store

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------
    def build(self, relation: Relation) -> None:
        """(Re)build from *relation* in one scan."""
        self._store.build(relation)
        self._tree = AVLTree()
        for group in self._store.groups.values():
            self._tree_insert(group)

    # ------------------------------------------------------------------
    # AVL maintenance (entry-view hooks fired by the store)
    # ------------------------------------------------------------------
    def _tree_insert(self, group: GroupStats) -> None:
        if group.entropy != 0.0:
            self._tree.insert(entropy_rank(group), group.key)

    def _tree_remove(self, group: GroupStats) -> None:
        if group.entropy != 0.0:
            self._tree.delete(entropy_rank(group))

    def group_will_change(self, group: GroupStats) -> None:
        """Store hook: *group* is about to mutate — unslot it at its
        current (pre-change) entropy."""
        self._tree_remove(group)

    def group_changed(self, group: GroupStats) -> None:
        """Store hook: *group* mutated — re-slot it (dropped when empty)."""
        if group.size:
            self._tree_insert(group)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_tuple(self, t: CTuple) -> None:
        """Register tuple *t* (no-op when its Y does not match the pattern)."""
        self._store.on_insert(t)

    def remove_tuple(self, t: CTuple) -> None:
        """Unregister tuple *t* using its *current* attribute values."""
        self._store.on_delete(t)

    def update_cell(self, t: CTuple, attr: str, new_value: Any) -> None:
        """Maintain the index across the assignment ``t[attr] := new_value``.

        Call *before* performing the assignment on the tuple (the index
        needs the old values to locate the tuple's current group).  When
        *attr* is unrelated to this CFD the call is a no-op.
        """
        if not self._store.relevant(attr):
            return
        old_value = t[attr]
        if old_value == new_value:
            return
        t[attr] = new_value
        try:
            self._store.on_cell_changed(t, attr, old_value, new_value)
        finally:
            t[attr] = old_value

    def on_cell_changed(self, t: CTuple, attr: str, old: Any, new: Any) -> None:
        """Post-mutation adapter for ``Relation.add_observer``."""
        self._store.on_cell_changed(t, attr, old, new)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def group(self, key: Tuple[Any, ...]) -> Optional[GroupStats]:
        """The group for Y-values *key*, or ``None``."""
        return self._store.groups.get(key)

    def group_of(self, t: CTuple) -> Optional[GroupStats]:
        """The group containing tuple *t* (by its current Y values)."""
        if not self.cfd.lhs_matches(t):
            return None
        return self._store.groups.get(t.project(self._store.lhs))

    def groups(self) -> Iterator[GroupStats]:
        """All groups, in no particular order."""
        return iter(self._store.groups.values())

    def group_count(self) -> int:
        """Number of groups (``|HTab|``)."""
        return len(self._store.groups)

    def min_entropy_group(self) -> Optional[GroupStats]:
        """The conflicting group with smallest non-zero entropy, if any."""
        if not self._tree:
            return None
        _key, group_key = self._tree.min()
        return self._store.groups[group_key]

    def conflicting_groups(self) -> List[GroupStats]:
        """Groups with non-zero entropy, in increasing entropy order."""
        return [group for _rank, group in self.conflicting_entries()]

    def conflicting_entries(self) -> List[Tuple[Rank, GroupStats]]:
        """``(AVL key, group)`` for every group with non-zero entropy, in
        increasing key order.  The key ``(H, sort_key(ȳ), min tid)`` is
        the group's rank among eRepair's candidates."""
        groups = self._store.groups
        return [(rank, groups[group_key]) for rank, group_key in self._tree.items()]

    def is_clean(self) -> bool:
        """Whether no group has conflicting B values (``D ⊨ φ`` over the
        indexed portion; Section 6.1 notes H = 0 everywhere iff D ⊨ φ)."""
        return not self._tree

    def check_consistency(self, relation: Relation) -> None:
        """Assert the index matches *relation* (used by property tests)."""
        rebuilt = EntropyIndex(self.cfd, relation)
        if set(rebuilt._store.groups) != set(self._store.groups):
            raise AssertionError("group keys diverge from relation state")
        for key, group in self._store.groups.items():
            other = rebuilt._store.groups[key]
            if group.value_counts != other.value_counts or group.tids != other.tids:
                raise AssertionError(f"group {key!r} diverges from relation state")
        if sorted(self._tree.keys()) != sorted(rebuilt._tree.keys()):
            raise AssertionError("AVL contents diverge from relation state")
