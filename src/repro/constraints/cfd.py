"""Conditional functional dependencies (CFDs), Section 2.1 of the paper.

A CFD ``φ = R(X → Y, tp)`` pairs an embedded FD ``X → Y`` with a pattern
tuple ``tp`` over ``X ∪ Y`` whose entries are constants or the unnamed
wildcard ``'_'``.  Satisfaction uses the match operator ``≍``: ``v1 ≍ v2``
iff ``v1 = v2`` or one of them is the wildcard.

``D ⊨ φ`` iff for all tuples ``t1, t2`` in ``D``: whenever
``t1[X] = t2[X] ≍ tp[X]`` then ``t1[Y] = t2[Y] ≍ tp[Y]``.  Taking
``t1 = t2`` shows that a *constant* pattern on the RHS constrains single
tuples, which is why normalized CFDs split into constant and variable
classes (Section 3.1).

An attribute may occur on both sides with *different* pattern entries —
the paper's normalization rule φ4 = (FN → FN, Bob ‖ Robert) is exactly
that — so the LHS and RHS pattern entries are stored separately.

Following Section 7, a tuple containing :data:`NULL` in a pattern-matched
attribute never matches: "CFDs only apply to those tuples that precisely
match a pattern tuple, which does not contain null".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConstraintError
from repro.relational.attribute import is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple


class Wildcard:
    """Singleton for the unnamed variable ``'_'`` in pattern tuples."""

    _instance: Optional["Wildcard"] = None

    def __new__(cls) -> "Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "_"

    def __hash__(self) -> int:
        return hash("repro.WILDCARD")

    def __deepcopy__(self, memo: dict) -> "Wildcard":
        return self


#: The unnamed wildcard variable appearing in pattern tuples.
WILDCARD = Wildcard()


def is_wildcard(value: Any) -> bool:
    """Whether *value* is the pattern wildcard ``'_'``."""
    return value is WILDCARD


def pattern_match(value: Any, pattern_value: Any) -> bool:
    """The ``≍`` operator on a single attribute.

    ``value ≍ pattern_value`` iff they are equal or the pattern entry is the
    wildcard.  :data:`NULL` never matches a pattern (Section 7), not even a
    wildcard — a null cell carries no evidence that the rule premise holds.
    Equality is identity-first (:func:`~repro.relational.attribute.cell_changed`),
    as in the columnar bulk builds' canon-ref compare: a cell holding the
    pattern's very NaN object matches it.
    """
    if is_null(value):
        return False
    if is_wildcard(pattern_value):
        return True
    return value is pattern_value or value == pattern_value


PatternValue = Union[Any, Wildcard]


@dataclass(frozen=True)
class Violation:
    """A detected CFD violation.

    ``tids`` holds one tid for a single-tuple (constant-pattern) violation
    and two tids for a pair (variable) violation; ``attr`` is the RHS
    attribute on which the violation manifests.
    """

    constraint: "CFD"
    tids: Tuple[int, ...]
    attr: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Violation({self.constraint.name}, tids={self.tids}, attr={self.attr!r})"


class CFD:
    """A conditional functional dependency ``R(X → Y, tp)``.

    Parameters
    ----------
    schema:
        The schema ``R`` the CFD is defined on.
    lhs:
        The attribute list ``X``.
    rhs:
        The attribute list ``Y``.  Most algorithms require the *normalized*
        single-attribute form; use :meth:`normalize`.
    pattern:
        Mapping from attribute (in ``X ∪ Y``) to a constant or
        :data:`WILDCARD`, applied to both sides where the attribute
        occurs.  Attributes absent from the mapping default to the
        wildcard, so plain FDs need no explicit pattern.
    lhs_pattern, rhs_pattern:
        Side-specific pattern entries, overriding ``pattern``; required
        when an attribute occurs on both sides with different entries
        (e.g. the normalization rule ``(FN → FN, Bob ‖ Robert)``).
    name:
        Optional identifier used in reports (e.g. ``"phi1"``).

    Examples
    --------
    >>> from repro.relational import Schema
    >>> tran = Schema("tran", ["FN", "AC", "city"])
    >>> phi1 = CFD(tran, ["AC"], ["city"], {"AC": "131", "city": "Edi"}, name="phi1")
    >>> phi1.is_constant
    True
    >>> phi4 = CFD(tran, ["FN"], ["FN"], lhs_pattern={"FN": "Bob"},
    ...            rhs_pattern={"FN": "Robert"}, name="phi4")
    >>> phi4.rhs_constant
    'Robert'
    """

    __slots__ = ("schema", "lhs", "rhs", "lhs_pattern", "rhs_pattern", "name")

    def __init__(
        self,
        schema: Schema,
        lhs: Sequence[str],
        rhs: Sequence[str],
        pattern: Optional[Mapping[str, PatternValue]] = None,
        lhs_pattern: Optional[Mapping[str, PatternValue]] = None,
        rhs_pattern: Optional[Mapping[str, PatternValue]] = None,
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.lhs: Tuple[str, ...] = schema.check_attrs(lhs)
        self.rhs: Tuple[str, ...] = schema.check_attrs(rhs)
        if not self.rhs:
            raise ConstraintError("a CFD must have at least one RHS attribute")
        if len(set(self.lhs)) != len(self.lhs):
            raise ConstraintError(f"duplicate LHS attributes in CFD: {self.lhs}")
        if len(set(self.rhs)) != len(self.rhs):
            raise ConstraintError(f"duplicate RHS attributes in CFD: {self.rhs}")

        def build_side(
            attrs: Tuple[str, ...],
            side: Optional[Mapping[str, PatternValue]],
            side_name: str,
        ) -> Dict[str, PatternValue]:
            out: Dict[str, PatternValue] = {}
            attr_set = set(attrs)
            if side:
                for attr, value in side.items():
                    if attr not in attr_set:
                        raise ConstraintError(
                            f"{side_name} pattern attribute {attr!r} not in the CFD's {side_name}"
                        )
                    out[attr] = value
            if pattern:
                for attr, value in pattern.items():
                    if attr in attr_set:
                        out.setdefault(attr, value)
            for attr in attrs:
                out.setdefault(attr, WILDCARD)
            return out

        if pattern:
            scope = set(self.lhs) | set(self.rhs)
            for attr in pattern:
                if attr not in scope:
                    raise ConstraintError(
                        f"pattern attribute {attr!r} is not in X ∪ Y of the CFD"
                    )
        self.lhs_pattern = build_side(self.lhs, lhs_pattern, "LHS")
        self.rhs_pattern = build_side(self.rhs, rhs_pattern, "RHS")
        self.name = name or f"cfd({schema.name}:{','.join(self.lhs)}->{','.join(self.rhs)})"

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_normalized(self) -> bool:
        """Whether ``|RHS| = 1`` (Section 2.2, "Normalized CFDs and MDs")."""
        return len(self.rhs) == 1

    @property
    def is_constant(self) -> bool:
        """Normalized CFD whose RHS pattern entry is a constant."""
        return self.is_normalized and not is_wildcard(self.rhs_pattern[self.rhs[0]])

    @property
    def is_variable(self) -> bool:
        """Normalized CFD whose RHS pattern entry is the wildcard."""
        return self.is_normalized and is_wildcard(self.rhs_pattern[self.rhs[0]])

    @property
    def is_fd(self) -> bool:
        """Whether every pattern entry is a wildcard (a traditional FD)."""
        return all(is_wildcard(v) for v in self.lhs_pattern.values()) and all(
            is_wildcard(v) for v in self.rhs_pattern.values()
        )

    @property
    def rhs_attr(self) -> str:
        """The single RHS attribute of a normalized CFD."""
        if not self.is_normalized:
            raise ConstraintError(f"CFD {self.name} is not normalized")
        return self.rhs[0]

    @property
    def rhs_constant(self) -> Any:
        """The RHS pattern constant of a constant CFD."""
        if not self.is_constant:
            raise ConstraintError(f"CFD {self.name} is not a constant CFD")
        return self.rhs_pattern[self.rhs[0]]

    def normalize(self) -> List["CFD"]:
        """Split into the equivalent set of single-RHS CFDs.

        "Every CFD ξ can be expressed as an equivalent set Sξ of normalized
        CFDs, such that the cardinality of Sξ is bounded by the size of
        RHS(ξ)" (Section 2.2).
        """
        if self.is_normalized:
            return [self]
        out = []
        for i, attr in enumerate(self.rhs):
            out.append(
                CFD(
                    self.schema,
                    self.lhs,
                    [attr],
                    lhs_pattern=dict(self.lhs_pattern),
                    rhs_pattern={attr: self.rhs_pattern[attr]},
                    name=f"{self.name}#{i}",
                )
            )
        return out

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def lhs_matches(self, t: CTuple) -> bool:
        """Whether ``t[X] ≍ tp[X]`` (nulls never match)."""
        return all(pattern_match(t[a], self.lhs_pattern[a]) for a in self.lhs)

    def rhs_matches(self, t: CTuple) -> bool:
        """Whether ``t[Y] ≍ tp[Y]``."""
        return all(pattern_match(t[a], self.rhs_pattern[a]) for a in self.rhs)

    def satisfied_by(self, relation: Relation) -> bool:
        """``D ⊨ φ``: the pairwise CFD semantics of Section 2.1."""
        return not self._find_violations(relation, first_only=True)

    def violations(
        self, relation: Relation, violation_index: Optional[Any] = None
    ) -> List[Violation]:
        """All violations of this CFD in *relation*.

        Single-tuple violations are reported for constant-pattern RHS
        attributes; pair violations for wildcard RHS attributes.  Pair
        violations are reported once per (unordered) pair and attribute.

        When *violation_index* is given (a maintained
        :class:`~repro.indexing.violation_index.ViolationIndex` covering
        this CFD's derived rule — e.g. a
        :class:`~repro.pipeline.session.CleaningSession`'s check index),
        the scan is routed through
        :func:`repro.analysis.consistency.relation_violations` over the
        index's LHS partitions instead of rescanning the relation —
        identical output (strict null semantics, same order), without
        the O(|D|) pass per call.  Index-free callers keep the
        brute-force path.
        """
        if violation_index is not None and self.is_normalized:
            from repro.analysis.consistency import relation_violations

            return relation_violations(
                relation, [self], violation_index, null_semantics="strict"
            )
        return self._find_violations(relation, first_only=False)

    def _find_violations(self, relation: Relation, first_only: bool) -> List[Violation]:
        out: List[Violation] = []
        # Single-tuple check (t1 = t2): t[X] ≍ tp[X] requires t[Y] ≍ tp[Y].
        matching: List[CTuple] = []
        for t in relation:
            if not self.lhs_matches(t):
                continue
            matching.append(t)
            for attr in self.rhs:
                if not pattern_match(t[attr], self.rhs_pattern[attr]):
                    out.append(Violation(self, (t.tid,), attr))
                    if first_only:
                        return out
        # Pair check among tuples agreeing on X.
        groups: Dict[Tuple[Any, ...], List[CTuple]] = {}
        for t in matching:
            groups.setdefault(t.project(self.lhs), []).append(t)
        for group in groups.values():
            if len(group) < 2:
                continue
            for attr in self.rhs:
                seen: Dict[Any, CTuple] = {}
                for t in group:
                    value = t[attr]
                    for other_value, witness in seen.items():
                        if other_value != value:
                            out.append(Violation(self, (witness.tid, t.tid), attr))
                            if first_only:
                                return out
                    seen.setdefault(value, t)
        return out

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def attributes(self) -> Tuple[str, ...]:
        """All attributes mentioned (X then Y, deduplicated, ordered)."""
        seen = dict.fromkeys(self.lhs)
        seen.update(dict.fromkeys(self.rhs))
        return tuple(seen)

    def key_attrs(self) -> Tuple[str, ...]:
        """The partition-key attributes for inverted indexing: the LHS ``X``.

        Tuples agreeing on ``X`` (and matching ``tp[X]``) fall in the same
        partition ``Δ(x̄)``; a violation can only involve tuples of one
        partition, which is what makes incremental violation detection
        sound (see :mod:`repro.indexing.violation_index`).
        """
        return self.lhs

    def scope_attrs(self) -> Tuple[str, ...]:
        """All data attributes whose change can affect this CFD's
        violations: ``X ∪ Y`` (for normalized CFDs, ``X ∪ {B}``)."""
        return self.attributes()

    def constants(self) -> Dict[str, List[Any]]:
        """Constant pattern entries per attribute (LHS and RHS merged)."""
        out: Dict[str, List[Any]] = {}
        for side in (self.lhs_pattern, self.rhs_pattern):
            for attr, value in side.items():
                if not is_wildcard(value):
                    out.setdefault(attr, [])
                    if value not in out[attr]:
                        out[attr].append(value)
        return out

    def size(self) -> int:
        """The length of the CFD (attribute count), used in ``size(Θ)``."""
        return len(self.lhs) + len(self.rhs)

    def _key(self) -> Tuple:
        return (
            self.schema.name,
            self.lhs,
            self.rhs,
            tuple(sorted((a, repr(v)) for a, v in self.lhs_pattern.items())),
            tuple(sorted((a, repr(v)) for a, v in self.rhs_pattern.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFD):
            return NotImplemented
        return self.schema == other.schema and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def fmt(attrs: Iterable[str], side: Mapping[str, PatternValue]) -> str:
            parts = []
            for a in attrs:
                v = side[a]
                parts.append(a if is_wildcard(v) else f"{a}={v!r}")
            return ", ".join(parts)

        return (
            f"CFD[{self.name}]({self.schema.name}: "
            f"{fmt(self.lhs, self.lhs_pattern)} -> {fmt(self.rhs, self.rhs_pattern)})"
        )


def satisfies_all(relation: Relation, cfds: Iterable[CFD]) -> bool:
    """``D ⊨ Σ``: whether *relation* satisfies every CFD in *cfds*."""
    return all(cfd.satisfied_by(relation) for cfd in cfds)


def all_violations(relation: Relation, cfds: Iterable[CFD]) -> List[Violation]:
    """Collect violations of every CFD in *cfds* against *relation*."""
    out: List[Violation] = []
    for cfd in cfds:
        out.extend(cfd.violations(relation))
    return out
