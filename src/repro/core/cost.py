"""The repair cost model of Section 3.1.

::

    cost(Dr, D) = Σ_{t ∈ D} Σ_{A ∈ attr(R)} t[A].cf · dis_A(t[A], t'[A]) / max(|t[A]|, |t'[A]|)

where ``t'`` is the repair of ``t``, ``dis_A`` is a distance on the domain
of ``A`` (edit distance for strings), ``|v|`` is the size of the value and
``t[A].cf`` the user confidence.  "The higher the confidence of attribute
``t[A]`` is and the more distant ``v'`` is from ``v``, the more costly the
change is" — so heuristic repairing prefers changing low-confidence cells
by small amounts.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.exceptions import DataError
from repro.relational.attribute import cell_changed, is_null
from repro.relational.relation import Relation
from repro.similarity.levenshtein import edit_distance

#: Confidence assumed for cells whose confidence is unavailable.  The
#: NP-hardness construction of Theorem 4.3 assumes "a fixed default
#: confidence cf"; 0.5 keeps unavailable-confidence changes half-priced.
DEFAULT_CONFIDENCE = 0.5


def value_distance(old: Any, new: Any) -> float:
    """Normalized distance ``dis(v, v') / max(|v|, |v'|)`` in ``[0, 1]``.

    Strings use edit distance over the longer length.  ``NULL`` is at
    distance 1 from any non-null value (and 0 from itself) — filling a
    null is maximally "distant" but typically zero-cost because nulls
    carry no confidence.  Non-string values use the discrete metric.
    """
    if is_null(old) and is_null(new):
        return 0.0
    if is_null(old) or is_null(new):
        return 1.0
    if old == new:
        return 0.0
    if isinstance(old, str) and isinstance(new, str):
        longest = max(len(old), len(new))
        if longest == 0:
            return 0.0
        return edit_distance(old, new) / longest
    return 1.0


def cell_cost(old: Any, new: Any, confidence: Optional[float]) -> float:
    """Cost of changing one cell from *old* to *new* under *confidence*."""
    conf = DEFAULT_CONFIDENCE if confidence is None else confidence
    return conf * value_distance(old, new)


class RefCostCache:
    """Memoized :func:`cell_cost` over interned value refs.

    The vectorized hRepair scores each candidate value against every
    mismatching member of an equivalence class; within one class — and
    across classes sharing values — the same ``(old, new, confidence)``
    triple recurs constantly.  Keys are the *exact* refs, not canon refs:
    two ``==``-equal values of different types (``0`` vs ``0.0``) share a
    canon but could in principle behave differently under
    :func:`value_distance`, and the standing invariant is byte-identity
    with the per-value reference path, so nothing coarser than identity
    of the interned instances is assumed.
    """

    __slots__ = ("_table", "_memo")

    def __init__(self, table: Any):
        self._table = table
        self._memo: dict = {}

    def cost(self, old_ref: int, new_ref: int, conf_ref: int) -> float:
        key = (old_ref, new_ref, conf_ref)
        c = self._memo.get(key)
        if c is None:
            vals = self._table.values
            c = self._memo[key] = cell_cost(
                vals[old_ref], vals[new_ref], vals[conf_ref]
            )
        return c


def repair_cost(repaired: Relation, original: Relation) -> float:
    """``cost(Dr, D)``: total weighted distance of the repair.

    Tuples are matched by tid; both relations must share the schema and
    the repair may not add or remove tuples.
    """
    if repaired.schema != original.schema:
        raise DataError("repair and original must share a schema")
    if set(repaired.tids()) != set(original.tids()):
        raise DataError("repair must contain exactly the original tuples (by tid)")
    total = 0.0
    for t in original:
        r = repaired.by_tid(t.tid)  # type: ignore[arg-type]
        for attr in original.schema.names:
            if cell_changed(t[attr], r[attr]):
                total += cell_cost(t[attr], r[attr], t.conf(attr))
    return total
