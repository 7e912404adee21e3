"""Attributes, domains and the distinguished ``NULL`` value.

The relational substrate is deliberately small: the paper's algorithms need
named, optionally typed attributes, per-attribute finite domains for the
static analyses (Theorems 4.1/4.2 enumerate active domains), and a SQL-style
``null`` with the *simple semantics* adopted in Section 7 of the paper
(equality involving ``null`` evaluates to true in hRepair, while CFD pattern
matching ``≍`` is false on ``null``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import copysign
from typing import Any, Iterable, Optional, Tuple

from repro.exceptions import DataError, SchemaError


class NullType:
    """Singleton type of the SQL-style ``NULL`` marker.

    ``NULL`` compares equal only to itself under Python ``==`` (identity);
    the *simple SQL semantics* used by hRepair — where ``t1[X] = t2[X]`` is
    true if either side is ``null`` — is implemented explicitly by
    :func:`repro.core.hrepair.null_eq`, not by overloading ``__eq__`` here.
    That keeps ordinary dictionary/set behaviour predictable.
    """

    _instance: Optional["NullType"] = None

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("repro.NULL")

    def __deepcopy__(self, memo: dict) -> "NullType":
        return self

    def __copy__(self) -> "NullType":
        return self


#: The distinguished null marker used across the library.
NULL = NullType()


def is_null(value: Any) -> bool:
    """Return ``True`` iff *value* is the distinguished :data:`NULL` marker."""
    return value is NULL


def cell_changed(old: Any, new: Any) -> bool:
    """Whether a cell holding *old* differs from *new*.  Identity comes
    first: a cell that holds the very same object is unchanged even when
    the object is unequal to itself (NaN) — the equality the columnar
    backend's interned refs give, so both backends agree."""
    return old is not new and old != new


def require_atom(value: Any, tid: Optional[int], attr: str) -> None:
    """The value-domain rule: a cell holds a hashable atom, as in the paper.

    Group keys, interning tables and match caches all key cells by value,
    so a value that cannot be hashed (a list, a dict) has no place in any
    of them.  Raises :class:`~repro.exceptions.DataError` naming the
    tuple (``None``: a tuple not yet inserted) and the attribute.
    """
    try:
        hash(value)
    except TypeError:
        where = "an inserted tuple" if tid is None else f"tuple #{tid}"
        raise DataError(
            f"{where}: attribute {attr!r} holds an unhashable "
            f"{type(value).__name__} {value!r}; a cell holds a hashable atom"
        ) from None


def interning_key(value: Any) -> Tuple[type, Any]:
    """The key value-interning tables deduplicate *value* under.

    ``(type, value)``, so ``0``/``0.0``/``False`` keep distinct refs —
    except ``-0.0``, which equals and hashes like ``0.0`` and would fold
    into whichever zero was interned first, losing its sign.  It gets a
    key of its own (a string can never be a float's value) and still
    compares ``==`` to ``0.0``.  Only falsy values can be ``-0.0``, so
    tables build ``(type, value)`` inline for truthy values and call
    this for the rest.
    """
    if isinstance(value, float) and value == 0.0 and copysign(1.0, value) < 0.0:
        return (value.__class__, "-0.0")
    return (value.__class__, value)


@dataclass(frozen=True)
class Domain:
    """A (possibly finite) attribute domain.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"string"`` or ``"bool"``.
    values:
        When not ``None``, the finite set of admissible values.  Finite
        domains matter for the consistency/implication small-model searches,
        which enumerate ``adom(A)`` plus "at most one extra distinct value
        drawn from dom(A), if such a value exists" (proof of Theorem 4.1).
    """

    name: str = "string"
    values: Optional[frozenset] = None

    @staticmethod
    def finite(values: Iterable, name: str = "finite") -> "Domain":
        """Build a finite domain from an iterable of values."""
        return Domain(name=name, values=frozenset(values))

    @property
    def is_finite(self) -> bool:
        """Whether the domain has a finite, explicitly listed value set."""
        return self.values is not None

    def __contains__(self, value: Any) -> bool:
        if self.values is None:
            return True
        return value in self.values

    def fresh_value(self, used: Iterable) -> Optional[Any]:
        """Return a value of this domain outside *used*, or ``None``.

        For an infinite domain a synthetic fresh string is produced.  For a
        finite domain the first unused value (in sorted order, for
        determinism) is returned, or ``None`` when the domain is exhausted —
        exactly the "at most an extra distinct value ... if such a value
        exists" clause in the proof of Theorem 4.1.
        """
        used_set = set(used)
        if self.values is None:
            candidate = "⁑fresh"
            index = 0
            while f"{candidate}{index}" in used_set:
                index += 1
            return f"{candidate}{index}"
        for value in sorted(self.values, key=repr):
            if value not in used_set:
                return value
        return None


#: Convenient shared domains.
STRING = Domain("string")
BOOL = Domain.finite({True, False}, name="bool")


@dataclass(frozen=True)
class Attribute:
    """A named attribute with an optional domain.

    Attributes are value objects: two attributes are interchangeable when
    their name and domain coincide.  Schemas index them by name, so names
    must be unique within a schema.
    """

    name: str
    domain: Domain = field(default=STRING)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name
