"""Similarity predicates — the set Υ used in matching dependencies.

An MD premise conjunct has the form ``R[A] ≈j Rm[B]`` where ``≈j`` is drawn
from a set Υ of similarity predicates "e.g., q-grams, Jaro distance or edit
distance" (Section 2.2).  Equality ``=`` is itself a (degenerate) member of
Υ, and the paper's confidence-propagation rule treats it specially: the
derived confidence minimum ranges over premise attributes whose predicate
*is* equality (Section 3.1).

A :class:`SimilarityPredicate` wraps a boolean test over two values plus
metadata: a name, whether it is exact equality, and an optional *distance
budget* ``k`` that blocking indexes can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.exceptions import ConstraintError
from repro.relational.attribute import is_null
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.levenshtein import edit_similarity, within_edit_distance
from repro.similarity.qgrams import qgram_similarity


@dataclass(frozen=True)
class SimilarityPredicate:
    """A named boolean similarity test ``≈`` over attribute values.

    Parameters
    ----------
    name:
        Registry name, e.g. ``"eq"`` or ``"edit<=2"``.
    test:
        Callable of two values returning truthiness.  ``NULL`` on either
        side always fails (CFD/MD matching does not apply to nulls,
        Section 7).
    is_equality:
        True only for exact equality — drives confidence propagation.
    edit_budget:
        When the predicate is (at least as strict as) "edit distance ≤ k",
        the value of k; lets the suffix-tree blocking prune candidates.
        ``None`` when no such bound applies.
    qgram_q:
        For q-gram Jaccard predicates, the gram length; ``None`` otherwise.
    qgram_threshold:
        For q-gram Jaccard predicates, the similarity threshold; ``None``
        otherwise.  Together with ``qgram_q`` this lets the similarity-join
        engine derive exact prefix/size/overlap filter bounds.
    """

    name: str
    test: Callable[[Any, Any], bool] = field(compare=False)
    is_equality: bool = False
    edit_budget: Optional[int] = None
    qgram_q: Optional[int] = None
    qgram_threshold: Optional[float] = None

    def __call__(self, left: Any, right: Any) -> bool:
        if is_null(left) or is_null(right):
            return False
        return bool(self.test(left, right))

    def __reduce__(self):
        """Pickle by *name*: the test callable is usually a lambda, but
        every built-in and parametric predicate (``eq``, ``edit<=K``,
        ``jw>=T``, ...) can be reconstructed from its registry name.
        Process-pool sharding relies on this to ship MDs to workers.
        Custom predicates must be registered in :data:`DEFAULT_REGISTRY`
        under a parseable/registered name to cross process boundaries.
        """
        return (_predicate_by_name, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SimilarityPredicate({self.name!r})"


def _as_str(value: Any) -> str:
    return value if isinstance(value, str) else str(value)


#: Exact equality — the ``=`` member of Υ.
EQ = SimilarityPredicate("eq", lambda a, b: a == b, is_equality=True, edit_budget=0)

#: Case/whitespace-insensitive equality, a common normalization predicate.
EQ_NORMALIZED = SimilarityPredicate(
    "eq_normalized",
    lambda a, b: _as_str(a).strip().lower() == _as_str(b).strip().lower(),
)


def edit_within(k: int) -> SimilarityPredicate:
    """Predicate "edit distance ≤ k" (the thresholded kernel form)."""
    if k < 0:
        raise ConstraintError(f"edit distance bound must be >= 0, got {k}")
    return SimilarityPredicate(
        f"edit<={k}",
        lambda a, b: within_edit_distance(_as_str(a), _as_str(b), k),
        edit_budget=k,
    )


def edit_sim_at_least(threshold: float) -> SimilarityPredicate:
    """Predicate "normalized edit similarity ≥ threshold"."""
    if not 0.0 <= threshold <= 1.0:
        raise ConstraintError(f"threshold must be in [0, 1], got {threshold}")
    return SimilarityPredicate(
        f"editsim>={threshold:g}",
        lambda a, b: edit_similarity(_as_str(a), _as_str(b)) >= threshold,
    )


def jaro_winkler_at_least(threshold: float) -> SimilarityPredicate:
    """Predicate "Jaro–Winkler similarity ≥ threshold"."""
    if not 0.0 <= threshold <= 1.0:
        raise ConstraintError(f"threshold must be in [0, 1], got {threshold}")
    return SimilarityPredicate(
        f"jw>={threshold:g}",
        lambda a, b: jaro_winkler_similarity(_as_str(a), _as_str(b)) >= threshold,
    )


def qgram_jaccard_at_least(threshold: float, q: int = 2) -> SimilarityPredicate:
    """Predicate "q-gram Jaccard similarity ≥ threshold"."""
    if not 0.0 <= threshold <= 1.0:
        raise ConstraintError(f"threshold must be in [0, 1], got {threshold}")
    return SimilarityPredicate(
        f"qgram{q}>={threshold:g}",
        lambda a, b: qgram_similarity(_as_str(a), _as_str(b), q=q) >= threshold,
        qgram_q=q,
        qgram_threshold=threshold,
    )


class PredicateRegistry:
    """A named registry of similarity predicates (the set Υ).

    The textual rule parser resolves predicate names through a registry, so
    rule files can reference ``~edit<=2`` etc.  A default registry with the
    common predicates is available as :data:`DEFAULT_REGISTRY`.
    """

    def __init__(self) -> None:
        self._predicates: Dict[str, SimilarityPredicate] = {}

    def register(self, predicate: SimilarityPredicate) -> SimilarityPredicate:
        """Add *predicate* under its name; returns it for chaining."""
        self._predicates[predicate.name] = predicate
        return predicate

    def get(self, name: str) -> SimilarityPredicate:
        """Look up a predicate; parses parametric names on demand.

        Supported parametric forms: ``edit<=K``, ``editsim>=T``, ``jw>=T``
        and ``qgramQ>=T``.
        """
        if name in self._predicates:
            return self._predicates[name]
        parsed = self._parse_parametric(name)
        if parsed is not None:
            return self.register(parsed)
        raise ConstraintError(f"unknown similarity predicate {name!r}")

    @staticmethod
    def _parse_parametric(name: str) -> Optional[SimilarityPredicate]:
        try:
            if name.startswith("edit<="):
                return edit_within(int(name[len("edit<=") :]))
            if name.startswith("editsim>="):
                return edit_sim_at_least(float(name[len("editsim>=") :]))
            if name.startswith("jw>="):
                return jaro_winkler_at_least(float(name[len("jw>=") :]))
            if name.startswith("qgram"):
                rest = name[len("qgram") :]
                if ">=" in rest:
                    q_text, threshold_text = rest.split(">=", 1)
                    return qgram_jaccard_at_least(float(threshold_text), q=int(q_text))
        except (ValueError, ConstraintError):
            return None
        return None

    def names(self) -> tuple:
        """Registered predicate names."""
        return tuple(self._predicates)


#: Registry pre-populated with equality and normalized equality.
DEFAULT_REGISTRY = PredicateRegistry()
DEFAULT_REGISTRY.register(EQ)
DEFAULT_REGISTRY.register(EQ_NORMALIZED)


def _predicate_by_name(name: str) -> SimilarityPredicate:
    """Unpickling hook: resolve a predicate through the default registry
    (parametric names like ``edit<=2`` are parsed on demand)."""
    return DEFAULT_REGISTRY.get(name)


@dataclass(frozen=True)
class JoinFilterSpec:
    """Filter parameters the similarity-join engine derives from a predicate.

    ``kind`` selects the bound family:

    * ``"edit"`` — the predicate guarantees ``edit_distance <= k``; the
      engine uses the q-gram count bound (shared grams >=
      ``max(|G_u|, |G_v|) - k*q``), a ±k length window and a ``k*q + 1``
      token prefix.
    * ``"jaccard"`` — the predicate is q-gram Jaccard >= t; the engine
      uses the ``t/(1+t)`` overlap bound, the ``[t*a, a/t]`` size window
      and the matching prefix lengths, and can even *verify* from the
      indexed gram sets without re-tokenizing.

    Every bound is a necessary condition for the predicate to hold, so the
    filter pipeline is lossless; survivors are confirmed with the exact
    predicate (or exact gram-set arithmetic), keeping match sets
    byte-identical to a full scan.
    """

    kind: str
    q: int
    edit_budget: Optional[int] = None
    threshold: Optional[float] = None


#: Gram length used for edit-bound filtering (the Jaccard family carries
#: its own q in the predicate).
EDIT_FILTER_Q = 2


def join_filter_for(predicate: SimilarityPredicate) -> Optional[JoinFilterSpec]:
    """The :class:`JoinFilterSpec` for *predicate*, or ``None``.

    ``None`` means the similarity-join engine has no usable bound family
    for this predicate (e.g. Jaro–Winkler) and must fall back to a full
    scan — still exact, just unfiltered.  Equality predicates return
    ``None`` too: they are served by the hash-based :class:`ExactIndex`.
    """
    if predicate.is_equality:
        return None
    if predicate.qgram_q is not None and predicate.qgram_threshold is not None:
        if predicate.qgram_threshold <= 0.0:
            return None  # J >= 0 admits everything; no filter possible
        return JoinFilterSpec(
            kind="jaccard", q=predicate.qgram_q, threshold=predicate.qgram_threshold
        )
    if predicate.edit_budget is not None:
        return JoinFilterSpec(kind="edit", q=EDIT_FILTER_Q, edit_budget=predicate.edit_budget)
    return None
