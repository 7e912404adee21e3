"""Matching dependencies (MDs), positive and negative — Section 2.2.

A positive MD across a data schema ``R`` and a master schema ``Rm``::

    ⋀_{j∈[1,k]} (R[Aj] ≈j Rm[Bj])  →  ⋀_{i∈[1,h]} (R[Ei] ⇌ Rm[Fi])

With the refined semantics of the paper (matching a dirty relation against
*clean master data*): ``(D, Dm) ⊨ ψ`` iff for all ``t ∈ D`` and ``s ∈ Dm``,
if ``t[Aj] ≈j s[Bj]`` for every ``j`` then ``t[Ei] = s[Fi]`` for every
``i`` — i.e. no more tuples of ``D`` can be updated with master values.

A negative MD (after Arasu et al. 2009 / Whang et al. 2009)::

    ⋀_j (R[Aj] ≠ Rm[Bj])  →  ⋁_i (R[Ei] ⇎ Rm[Fi])

says tuples disagreeing on all premise attributes may not be identified.
Proposition 2.6 shows negative MDs can be compiled away into the positive
set in ``O(|Γ+||Γ−|)`` time; :func:`embed_negative` implements that
construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConstraintError
from repro.relational.attribute import cell_changed, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import CTuple
from repro.similarity.predicates import EQ, JoinFilterSpec, SimilarityPredicate, join_filter_for


class MDClause:
    """One premise conjunct ``R[A] ≈ Rm[B]`` of a positive MD."""

    __slots__ = ("attr", "master_attr", "predicate")

    def __init__(self, attr: str, master_attr: str, predicate: SimilarityPredicate = EQ):
        self.attr = attr
        self.master_attr = master_attr
        self.predicate = predicate

    def holds(self, t: CTuple, s: CTuple) -> bool:
        """Whether ``t[A] ≈ s[B]`` (nulls never match, Section 7)."""
        return self.predicate(t[self.attr], s[self.master_attr])

    @property
    def is_equality(self) -> bool:
        """Whether the predicate is exact equality (drives confidence, §3.1)."""
        return self.predicate.is_equality

    def join_filter(self) -> Optional[JoinFilterSpec]:
        """Filter parameters for the similarity-join engine, or ``None``.

        Maps the clause predicate to a lossless filter family (edit-k ⇒
        q-gram count bound, Jaccard-t ⇒ prefix length); ``None`` when no
        bound family applies and matching must scan.
        """
        return join_filter_for(self.predicate)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MDClause):
            return NotImplemented
        return (
            self.attr == other.attr
            and self.master_attr == other.master_attr
            and self.predicate.name == other.predicate.name
        )

    def __hash__(self) -> int:
        return hash((self.attr, self.master_attr, self.predicate.name))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        op = "=" if self.is_equality else f"~{self.predicate.name}"
        return f"{self.attr} {op} {self.master_attr}"


class MDViolation:
    """A pair ``(t, s)`` whose premise holds but identification fails."""

    __slots__ = ("md", "tid", "master_tid", "attrs")

    def __init__(self, md: "MD", tid: int, master_tid: int, attrs: Tuple[str, ...]):
        self.md = md
        self.tid = tid
        self.master_tid = master_tid
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MDViolation({self.md.name}, t#{self.tid} vs s#{self.master_tid}, "
            f"attrs={self.attrs})"
        )


class MD:
    """A positive matching dependency on ``(R, Rm)``.

    Parameters
    ----------
    schema, master_schema:
        The data schema ``R`` and master schema ``Rm``.
    premise:
        Iterable of :class:`MDClause` (or ``(attr, master_attr)`` /
        ``(attr, master_attr, predicate)`` tuples, which are promoted).
    rhs:
        Iterable of identification pairs ``(Ei, Fi)``.
    name:
        Optional identifier for reports.
    """

    __slots__ = ("schema", "master_schema", "premise", "rhs", "name", "_eval_order")

    def __init__(
        self,
        schema: Schema,
        master_schema: Schema,
        premise: Iterable,
        rhs: Iterable[Tuple[str, str]],
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.master_schema = master_schema
        clauses: List[MDClause] = []
        for item in premise:
            if isinstance(item, MDClause):
                clause = item
            elif len(item) == 2:
                clause = MDClause(item[0], item[1])
            elif len(item) == 3:
                clause = MDClause(item[0], item[1], item[2])
            else:
                raise ConstraintError(f"bad MD premise clause {item!r}")
            schema.check_attrs([clause.attr])
            master_schema.check_attrs([clause.master_attr])
            clauses.append(clause)
        if not clauses:
            raise ConstraintError("an MD must have a non-empty premise")
        self.premise: Tuple[MDClause, ...] = tuple(clauses)
        pairs: List[Tuple[str, str]] = []
        for attr, master_attr in rhs:
            schema.check_attrs([attr])
            master_schema.check_attrs([master_attr])
            pairs.append((attr, master_attr))
        if not pairs:
            raise ConstraintError("an MD must have at least one RHS pair")
        self.rhs: Tuple[Tuple[str, str], ...] = tuple(pairs)
        self.name = name or (
            f"md({schema.name}~{master_schema.name}:"
            f"{','.join(c.attr for c in self.premise)}->"
            f"{','.join(a for a, _ in self.rhs)})"
        )
        # Premise evaluation order: cheap equality clauses first so
        # expensive similarity predicates run only on surviving pairs.
        self._eval_order: Tuple[MDClause, ...] = tuple(
            sorted(self.premise, key=lambda c: (not c.is_equality,))
        )

    # ------------------------------------------------------------------
    # Classification / normalization
    # ------------------------------------------------------------------
    @property
    def is_normalized(self) -> bool:
        """Whether the RHS is a single attribute pair (Section 2.2)."""
        return len(self.rhs) == 1

    @property
    def rhs_pair(self) -> Tuple[str, str]:
        """The single ``(E, F)`` pair of a normalized MD."""
        if not self.is_normalized:
            raise ConstraintError(f"MD {self.name} is not normalized")
        return self.rhs[0]

    def normalize(self) -> List["MD"]:
        """Split into the equivalent set of single-RHS MDs."""
        if self.is_normalized:
            return [self]
        return [
            MD(
                self.schema,
                self.master_schema,
                self.premise,
                [pair],
                name=f"{self.name}#{i}",
            )
            for i, pair in enumerate(self.rhs)
        ]

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def premise_holds(self, t: CTuple, s: CTuple) -> bool:
        """Whether every premise conjunct holds on the pair ``(t, s)``.

        Clauses are evaluated equality-first, which prunes most pairs
        before any similarity predicate (e.g. edit distance) runs.
        """
        return all(clause.holds(t, s) for clause in self._eval_order)

    def identified(self, t: CTuple, s: CTuple) -> bool:
        """Whether ``t[Ei] = s[Fi]`` for every RHS pair (identity first,
        so a cell holding its master value's very NaN object agrees)."""
        return not any(cell_changed(t[e], s[f]) for e, f in self.rhs)

    def mismatched_rhs(self, t: CTuple, s: CTuple) -> Tuple[str, ...]:
        """The data-side RHS attributes ``Ei`` with ``t[Ei] ≠ s[Fi]``."""
        return tuple(e for e, f in self.rhs if cell_changed(t[e], s[f]))

    def satisfied_by(self, relation: Relation, master: Relation) -> bool:
        """``(D, Dm) ⊨ ψ``: no more tuples can be matched-and-updated."""
        for t in relation:
            for s in master:
                if self.premise_holds(t, s) and not self.identified(t, s):
                    return False
        return True

    def violations(self, relation: Relation, master: Relation) -> List[MDViolation]:
        """All violating ``(t, s)`` pairs with their mismatched attributes."""
        out: List[MDViolation] = []
        for t in relation:
            for s in master:
                if self.premise_holds(t, s):
                    attrs = self.mismatched_rhs(t, s)
                    if attrs:
                        out.append(MDViolation(self, t.tid, s.tid, attrs))
        return out

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def lhs_attrs(self) -> Tuple[str, ...]:
        """Data-side premise attributes (used by the dependency graph)."""
        return tuple(dict.fromkeys(c.attr for c in self.premise))

    def rhs_attrs(self) -> Tuple[str, ...]:
        """Data-side RHS attributes ``Ei``."""
        return tuple(dict.fromkeys(e for e, _ in self.rhs))

    def equality_premise_attrs(self) -> Tuple[str, ...]:
        """Premise attributes compared with exact equality (for fuzzy min)."""
        return tuple(dict.fromkeys(c.attr for c in self.premise if c.is_equality))

    def blocking_key_attrs(self) -> Tuple[str, ...]:
        """The data-side blocking-key attributes for inverted indexing.

        Tuples sharing the projection on the *equality* premise attributes
        can only match master tuples from the same exact-index bucket, so
        this projection partitions the data side for incremental violation
        detection (empty when the premise is pure-similarity — then all
        tuples share the single degenerate partition).
        """
        return self.equality_premise_attrs()

    def scope_attrs(self) -> Tuple[str, ...]:
        """All data attributes whose change can affect this MD's
        violations: premise attributes plus the RHS data attributes."""
        return tuple(dict.fromkeys(self.lhs_attrs() + self.rhs_attrs()))

    def size(self) -> int:
        """Length of the MD (attribute count), used in ``size(Θ)``."""
        return len(self.premise) + len(self.rhs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MD):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.master_schema == other.master_schema
            and self.premise == other.premise
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((self.schema.name, self.master_schema.name, self.premise, self.rhs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        prem = " ∧ ".join(repr(c) for c in self.premise)
        rhs = " ∧ ".join(f"{e}⇌{f}" for e, f in self.rhs)
        return f"MD[{self.name}]({prem} -> {rhs})"


class NegativeMD:
    """A negative MD ``⋀_j (R[Aj] ≠ Rm[Bj]) → ⋁_i (R[Ei] ⇎ Rm[Fi])``.

    ``(D, Dm) ⊨ ψ⁻`` iff for all ``t, s``: if ``t[Aj] ≠ s[Bj]`` for all
    ``j``, then ``t[Ei] ≠ s[Fi]`` for some ``i``.
    """

    __slots__ = ("schema", "master_schema", "premise", "rhs", "name")

    def __init__(
        self,
        schema: Schema,
        master_schema: Schema,
        premise: Iterable[Tuple[str, str]],
        rhs: Iterable[Tuple[str, str]],
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.master_schema = master_schema
        prem: List[Tuple[str, str]] = []
        for attr, master_attr in premise:
            schema.check_attrs([attr])
            master_schema.check_attrs([master_attr])
            prem.append((attr, master_attr))
        if not prem:
            raise ConstraintError("a negative MD must have a non-empty premise")
        self.premise: Tuple[Tuple[str, str], ...] = tuple(prem)
        pairs: List[Tuple[str, str]] = []
        for attr, master_attr in rhs:
            schema.check_attrs([attr])
            master_schema.check_attrs([master_attr])
            pairs.append((attr, master_attr))
        if not pairs:
            raise ConstraintError("a negative MD must have at least one RHS pair")
        self.rhs: Tuple[Tuple[str, str], ...] = tuple(pairs)
        self.name = name or f"nmd({schema.name}~{master_schema.name})"

    def premise_holds(self, t: CTuple, s: CTuple) -> bool:
        """Whether ``t[Aj] ≠ s[Bj]`` for every premise pair.

        Null on either side makes the inequality *hold* vacuously false?
        No: the paper gives no special null semantics for negative MDs; we
        treat null as incomparable, so a premise involving null does not
        hold and the negative MD places no constraint on that pair.
        """
        for attr, master_attr in self.premise:
            left, right = t[attr], s[master_attr]
            if is_null(left) or is_null(right):
                return False
            if left == right:
                return False
        return True

    def satisfied_by(self, relation: Relation, master: Relation) -> bool:
        """``(D, Dm) ⊨ ψ⁻`` per Section 2.2."""
        for t in relation:
            for s in master:
                if self.premise_holds(t, s):
                    if all(t[e] == s[f] for e, f in self.rhs):
                        return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        prem = " ∧ ".join(f"{a}≠{b}" for a, b in self.premise)
        rhs = " ∨ ".join(f"{e}⇎{f}" for e, f in self.rhs)
        return f"NegativeMD[{self.name}]({prem} -> {rhs})"


def embed_negative(
    positives: Sequence[MD],
    negatives: Sequence[NegativeMD],
) -> List[MD]:
    """Compile negative MDs into the positive set (Proposition 2.6).

    Follows the constructive proof: every positive MD is first normalized;
    then, for each negative MD, the *equality* counterparts of its premise
    pairs are conjoined to the positive MD's premise.  The result is a set
    of positive MDs equivalent to ``Γ+ ∪ Γ−``, computed in
    ``O(|Γ+|·|Γ−|)`` time.

    Example 2.5 of the paper: embedding the gender negative rule into ψ
    yields ψ′ whose premise additionally requires ``tran[gd] = card[gd]``.
    """
    out: List[MD] = []
    for positive in positives:
        for normalized in positive.normalize():
            clauses: List[MDClause] = list(normalized.premise)
            existing = {(c.attr, c.master_attr, c.predicate.name) for c in clauses}
            for negative in negatives:
                for attr, master_attr in negative.premise:
                    key = (attr, master_attr, EQ.name)
                    if key in existing:
                        continue
                    existing.add(key)
                    clauses.append(MDClause(attr, master_attr, EQ))
            suffix = "+" if negatives else ""
            out.append(
                MD(
                    normalized.schema,
                    normalized.master_schema,
                    clauses,
                    list(normalized.rhs),
                    name=normalized.name + suffix,
                )
            )
    return out


def satisfies_all_mds(relation: Relation, master: Relation, mds: Iterable[MD]) -> bool:
    """``(D, Dm) ⊨ Γ``: satisfaction of a whole positive-MD set."""
    return all(md.satisfied_by(relation, master) for md in mds)
