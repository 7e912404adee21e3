"""Changesets: first-class micro-batches of edits against a relation.

A :class:`Changeset` collects tuple inserts, tuple deletes and cell edits
(value and/or confidence) and applies them to a
:class:`~repro.relational.relation.Relation` in one call.  Every
operation is routed through the relation's observer hooks
(``set_value`` / ``add`` / ``remove``), so incrementally maintained
indexes — the shared group stores, the violation index, the entropy
index — stay coherent without rebuilds.  This is the delta format
:class:`~repro.pipeline.session.CleaningSession.apply` consumes.

Example
-------
>>> delta = (Changeset()
...          .edit(3, "city", "Edi")
...          .edit(7, "phone", "3456789", conf=1.0)
...          .insert({"FN": "Bob", "city": "Ldn"})
...          .delete(12))                                # doctest: +SKIP
>>> session.apply(delta)                                 # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.exceptions import DataError
from repro.relational.attribute import require_atom
from repro.relational.relation import Relation


class _Keep:
    """Sentinel: leave the current value / confidence unchanged."""

    _instance: Optional["_Keep"] = None

    def __new__(cls) -> "_Keep":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "KEEP"


#: Sentinel for :meth:`Changeset.edit`: keep the current value/confidence.
KEEP = _Keep()


@dataclass(frozen=True)
class CellEdit:
    """Assign ``t[attr] := value`` (and/or ``t[attr].cf := conf``)."""

    tid: int
    attr: str
    value: Any = KEEP
    conf: Union[float, None, _Keep] = KEEP


@dataclass(frozen=True)
class Insert:
    """Insert a fresh tuple built from *values* (missing attrs → null)."""

    values: Mapping[str, Any]
    confidences: Optional[Mapping[str, Optional[float]]] = None


@dataclass(frozen=True)
class Delete:
    """Delete the tuple with identifier *tid*."""

    tid: int


Op = Union[CellEdit, Insert, Delete]


@dataclass
class AppliedChangeset:
    """What a :meth:`Changeset.apply_to` call actually did.

    ``edited_cells`` lists the cells whose value *or* confidence was
    assigned (including no-op assignments); ``inserted_tids`` the tids the
    relation gave the new tuples, in op order; ``deleted_tids`` the
    removed tuples.
    """

    edited_cells: List[Tuple[int, str]] = field(default_factory=list)
    inserted_tids: List[int] = field(default_factory=list)
    deleted_tids: List[int] = field(default_factory=list)

    def touched_tids(self) -> List[int]:
        """Distinct surviving tids the changeset touched (edits + inserts,
        in first-touch order; deleted tuples are gone and excluded)."""
        seen = dict.fromkeys(tid for tid, _attr in self.edited_cells)
        seen.update(dict.fromkeys(self.inserted_tids))
        for tid in self.deleted_tids:
            seen.pop(tid, None)
        return list(seen)

    def all_tids(self) -> set:
        """Every tid the changeset touched — edited, inserted *or*
        deleted.  This is the re-plan reuse guard of
        :class:`~repro.pipeline.sharding.ShardedCleaningSession`: a
        shard containing any of these tids cannot reuse its session."""
        out = {tid for tid, _attr in self.edited_cells}
        out.update(self.inserted_tids)
        out.update(self.deleted_tids)
        return out


class Changeset:
    """An ordered micro-batch of relation edits (fluent builder).

    Operations apply in insertion order, so an ``insert`` followed by
    ``edit``/``delete`` on another tuple behaves as written; edits to a
    tuple inserted *by the same changeset* are not expressible (the tid
    is only assigned at apply time) — put the final values in the insert.
    """

    def __init__(self, ops: Optional[List[Op]] = None):
        self.ops: List[Op] = list(ops) if ops else []

    @classmethod
    def concat(cls, changesets: Iterable["Changeset"]) -> "Changeset":
        """One changeset carrying the ops of *changesets*, in order.

        Applying the concatenation is equivalent to applying the parts
        one after another — ops execute in insertion order either way —
        which is what lets ``apply_many`` ship one coalesced per-shard
        delta per coordinator round-trip instead of one per changeset.
        (The one asymmetry: an op referencing a tid inserted by an
        *earlier changeset of the same batch* cannot validate, because
        tids are only assigned at apply time — the same rule that already
        holds within a single changeset.)
        """
        ops: List[Op] = []
        for changeset in changesets:
            ops.extend(changeset.ops)
        return cls(ops)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def edit(
        self,
        tid: int,
        attr: str,
        value: Any = KEEP,
        conf: Union[float, None, _Keep] = KEEP,
    ) -> "Changeset":
        """Queue ``t[attr] := value`` (and/or a confidence assignment)."""
        if value is KEEP and conf is KEEP:
            raise DataError("edit() needs a value and/or a confidence")
        self.ops.append(CellEdit(tid, attr, value, conf))
        return self

    def insert(
        self,
        values: Mapping[str, Any],
        confidences: Optional[Mapping[str, Optional[float]]] = None,
    ) -> "Changeset":
        """Queue a tuple insert."""
        self.ops.append(Insert(dict(values), dict(confidences) if confidences else None))
        return self

    def delete(self, tid: int) -> "Changeset":
        """Queue a tuple delete."""
        self.ops.append(Delete(tid))
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {"edit": 0, "insert": 0, "delete": 0}
        for op in self.ops:
            if isinstance(op, CellEdit):
                kinds["edit"] += 1
            elif isinstance(op, Insert):
                kinds["insert"] += 1
            else:
                kinds["delete"] += 1
        return (
            f"Changeset({kinds['edit']} edits, {kinds['insert']} inserts, "
            f"{kinds['delete']} deletes)"
        )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def validate_against(self, relation: Relation) -> None:
        """Check every operation against *relation* without mutating it.

        Simulates the op sequence (edits/deletes on a tid deleted
        earlier in the same changeset fail; unknown tids, unknown
        attributes, unhashable values and out-of-range confidences
        fail), raising
        :class:`~repro.exceptions.DataError` /
        :class:`~repro.exceptions.SchemaError`.  :meth:`apply_to` runs
        this before mutating anything, so a bad op can never leave the
        relation — or its observer-maintained indexes — half-updated.
        """
        schema = relation.schema
        deleted: set = set()
        for op in self.ops:
            if isinstance(op, CellEdit):
                if op.tid in deleted or not relation.has_tid(op.tid):
                    raise DataError(
                        f"changeset edits unknown tuple #{op.tid} of "
                        f"relation {schema.name!r}"
                    )
                schema.check_attrs([op.attr])
                if op.value is not KEEP:
                    require_atom(op.value, op.tid, op.attr)
                if op.conf is not KEEP and op.conf is not None:
                    try:
                        in_range = 0.0 <= op.conf <= 1.0  # type: ignore[operator]
                    except TypeError:
                        in_range = False  # unorderable type: reject up front
                    if not in_range:
                        raise DataError(
                            f"changeset sets confidence {op.conf!r} outside "
                            f"[0, 1] on tuple #{op.tid}"
                        )
            elif isinstance(op, Insert):
                for attr, value in op.values.items():
                    schema.check_attrs([attr])
                    require_atom(value, None, attr)
                if op.confidences:
                    for attr, conf in op.confidences.items():
                        schema.check_attrs([attr])
                        if conf is not None and not 0.0 <= conf <= 1.0:
                            raise DataError(
                                f"changeset inserts confidence {conf!r} "
                                f"outside [0, 1] for attribute {attr!r}"
                            )
            else:
                if op.tid in deleted or not relation.has_tid(op.tid):
                    raise DataError(
                        f"changeset deletes unknown tuple #{op.tid} of "
                        f"relation {schema.name!r}"
                    )
                deleted.add(op.tid)

    def apply_to(self, relation: Relation) -> AppliedChangeset:
        """Apply every operation to *relation*, in order — atomically.

        All mutations go through the relation's notifying entry points,
        so observers (index registries) see each one.  The whole op
        sequence is validated via :meth:`validate_against` **before any
        mutation**: an edit or delete naming an unknown tid, an unknown
        attribute, or an out-of-range confidence raises
        :class:`~repro.exceptions.DataError` /
        :class:`~repro.exceptions.SchemaError` while the relation — and
        every observer-maintained index — is still untouched.  A
        changeset therefore either applies in full or not at all.
        """
        self.validate_against(relation)
        applied = AppliedChangeset()
        for op in self.ops:
            if isinstance(op, CellEdit):
                t = relation.by_tid(op.tid)
                if op.value is not KEEP:
                    relation.set_value(t, op.attr, op.value)
                if op.conf is not KEEP:
                    t.set_conf(op.attr, op.conf)  # type: ignore[arg-type]
                applied.edited_cells.append((op.tid, op.attr))
            elif isinstance(op, Insert):
                t = relation.add_row(op.values, op.confidences)
                applied.inserted_tids.append(t.tid)
            else:
                relation.remove(op.tid)
                applied.deleted_tids.append(op.tid)
        return applied
