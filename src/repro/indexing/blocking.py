"""Blocking indexes for MD similarity search against master data.

Checking an MD premise naively costs ``O(|D|·|Dm|)`` similarity tests.
Section 5.2 cuts the master-side factor to a constant ``l`` ("we find that
l ≤ 20 typically suffices") using two complementary indexes:

* :class:`ExactIndex` — a hash index on the master projection of the
  *equality* premise attributes (traditional exact-match indexing);
* a :class:`~repro.indexing.suffix_tree.GeneralizedSuffixTree` per
  similarity-compared master attribute, used to retrieve the top-``l``
  master values by LCS, which upper-bounds candidates for bounded
  edit/Hamming distance (the ``max(|u|,|v|)/(K+1)`` LCS bound).

:class:`MDBlockingIndex` combines both: when the MD has equality premise
clauses the (small) exact bucket is scanned and every clause verified —
after a lossless q-gram signature test drops the members that provably
fail an edit-budget clause (each bucket keeps its members' signatures,
built on its first probe); otherwise similarity candidates seed the
scan.  :func:`build_md_indexes` builds one index per distinct premise:
the normalized siblings of a multi-RHS MD share its exact index, match
cache and signatures.  The similarity side is engine-switched
(``REPRO_MATCH_ENGINE``):

* ``join`` (default) — the filtered inverted-index similarity join of
  :mod:`repro.matching.simjoin`: length/prefix/count filters over a
  q-gram index, then exact verification.  Lossless, so :attr:`is_exact`
  holds and ``matches()`` is exhaustive by construction;
* ``reference`` — the paper's per-lookup top-``l`` LCS retrieval from a
  generalized suffix tree.  Fast but *lossy*: the cap can drop true
  matches (``is_exact`` is False), which downstream code compensates for
  with rare-path exhaustive re-verification.

A ``use_suffix_tree=False`` escape hatch forces full scans under either
engine — that is the baseline of the blocking ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constraints.md import MD
from repro.relational.attribute import is_null
from repro.relational.columns import match_engine
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple
from repro.indexing.suffix_tree import GeneralizedSuffixTree
from repro.similarity.predicates import EDIT_FILTER_Q, _as_str
from repro.similarity.qgrams import GramBits

#: A bucket member with the text and q-gram signature of one attribute.
SigEntry = Tuple[CTuple, str, int]


class ExactIndex:
    """Hash index from a projection of *attrs* to the matching tuples.

    Tuples with a null in any indexed attribute are skipped (they can never
    satisfy an equality premise, Section 7).
    """

    def __init__(self, relation: Relation, attrs: Sequence[str]):
        relation.schema.check_attrs(attrs)
        self.attrs: Tuple[str, ...] = tuple(attrs)
        self._buckets: Dict[Tuple[Any, ...], List[CTuple]] = {}
        for t in relation:
            if t.has_null(self.attrs):
                continue
            self._buckets.setdefault(t.project(self.attrs), []).append(t)

    def lookup(self, key: Tuple[Any, ...]) -> List[CTuple]:
        """Tuples whose projection equals *key* (possibly empty)."""
        return self._buckets.get(key, [])

    def lookup_tuple(self, t: CTuple, attrs: Sequence[str]) -> List[CTuple]:
        """Tuples matching the projection of *t* on *attrs* (data-side names)."""
        return self.lookup(t.project(attrs))

    def bucket_count(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)


class MDBlockingIndex:
    """Candidate retrieval for one MD premise against fixed master data.

    Only the premise is read, so every MD with the same premise can share
    one index (:func:`build_md_indexes`); callers take the RHS from their
    own rule.

    Parameters
    ----------
    md:
        The (normalized) MD whose premise drives candidate search.
    master:
        The master relation ``Dm`` (assumed immutable during cleaning —
        master data is clean and never updated).
    top_l:
        The ``l`` of the top-``l`` LCS retrieval (paper default ≤ 20).
    use_suffix_tree:
        When false, similarity clauses fall back to scanning all of
        ``Dm`` and equality buckets are verified unfiltered (the
        ablation baseline) under either engine.
    engine:
        ``"join"`` or ``"reference"``; defaults to the process-wide
        :func:`~repro.relational.columns.match_engine` flag.
    """

    def __init__(
        self,
        md: MD,
        master: Relation,
        top_l: int = 20,
        use_suffix_tree: bool = True,
        engine: Optional[str] = None,
    ):
        self.md = md
        self.master = master
        self.top_l = top_l
        self.use_suffix_tree = use_suffix_tree
        self.engine = match_engine() if engine is None else engine
        if self.engine not in ("join", "reference"):
            raise ValueError(f"unknown match engine {self.engine!r}")
        self._eq_clauses = [c for c in md.premise if c.is_equality]
        self._eq_attrs = tuple(c.attr for c in self._eq_clauses)
        self._sim_clauses = [c for c in md.premise if not c.is_equality]
        self._premise_attrs = tuple(dict.fromkeys(c.attr for c in md.premise))
        self._match_cache: Dict[Tuple[Any, ...], List[CTuple]] = {}
        #: Retrieval-effort counters (the match-engine benchmark reads
        #: these): premise lookups, master tuples examined post-filter,
        #: and residual per-tuple predicate evaluations.
        self.stats: Dict[str, int] = {"lookups": 0, "candidates": 0, "verify_calls": 0}
        self._exact: Optional[ExactIndex] = None
        if self._eq_clauses:
            self._exact = ExactIndex(master, [c.master_attr for c in self._eq_clauses])
        # Edit-budget clauses prune equality buckets by q-gram signature
        # (:meth:`_signature_filter`); the ablation scans them unfiltered,
        # which keeps it the oracle the filter is tested against.
        self._edit_clauses = (
            [c for c in self._sim_clauses if c.predicate.edit_budget is not None]
            if use_suffix_tree
            else []
        )
        #: Equality key -> per edit clause, the bucket's non-null members
        #: as ``(member, text, signature)`` in bucket order; built on the
        #: bucket's first probe (master data is immutable).
        self._bucket_sigs: Dict[Tuple[Any, ...], List[List[SigEntry]]] = {}
        #: Signature bit of each q-gram met so far (probes and members).
        self._gram_bits = GramBits(EDIT_FILTER_Q)
        # One suffix tree per similarity-compared master attribute that has
        # a usable edit budget; built lazily only when needed.
        self._trees: Dict[str, GeneralizedSuffixTree] = {}
        self._tree_values: Dict[str, Dict[int, List[CTuple]]] = {}
        #: The similarity-join index (join engine, pure-similarity premise).
        self.join_index = None
        self._join_clause = None
        self._positions: Optional[Dict[Optional[int], int]] = None
        if use_suffix_tree and not self._eq_clauses:
            if self.engine == "join":
                # Imported lazily: ``matching`` imports the matcher, which
                # imports this module — a module-level import would cycle.
                from repro.matching.simjoin import QGramIndex

                for clause in self._sim_clauses:
                    spec = clause.join_filter()
                    if spec is not None:
                        self.join_index = QGramIndex(
                            master, clause.master_attr, spec, clause.predicate
                        )
                        self._join_clause = clause
                        break
            else:
                for clause in self._sim_clauses:
                    if clause.predicate.edit_budget is not None:
                        self._build_tree(clause.master_attr)
                        break

    @property
    def is_exact(self) -> bool:
        """Whether candidate retrieval is lossless — i.e. :meth:`matches`
        finds *every* premise match.  True for equality blocking, full
        scans, and the join engine (whose filters are upper-bound-sound,
        making retrieval exhaustive by construction).  Only the reference
        engine's suffix-tree retrieval caps candidates at top-``l`` and
        may drop true matches; verdict-style callers must not rely on it."""
        return (
            self._exact is not None
            or not self.use_suffix_tree
            or self.engine == "join"
        )

    @property
    def verify_calls(self) -> int:
        """Total similarity verifications so far: full premise checks plus
        (join engine) per-distinct-value driving-predicate checks."""
        total = self.stats["verify_calls"]
        if self.join_index is not None:
            total += self.join_index.stats["verify_calls"]
        return total

    def _tid_positions(self) -> Dict[Optional[int], int]:
        positions = self._positions
        if positions is None:
            positions = self._positions = {
                tid: i for i, tid in enumerate(self.master.tids())
            }
        return positions

    def _build_tree(self, master_attr: str) -> None:
        if master_attr in self._trees:
            return
        tree = GeneralizedSuffixTree()
        by_value: Dict[str, List[CTuple]] = {}
        for s in self.master:
            value = s[master_attr]
            if is_null(value):
                continue
            by_value.setdefault(str(value), []).append(s)
        sid_tuples: Dict[int, List[CTuple]] = {}
        for sid, (value, tuples) in enumerate(sorted(by_value.items())):
            tree.add_string(sid, value)
            sid_tuples[sid] = tuples
        self._trees[master_attr] = tree
        self._tree_values[master_attr] = sid_tuples

    # ------------------------------------------------------------------
    # Candidate retrieval
    # ------------------------------------------------------------------
    def candidates(self, t: CTuple) -> List[CTuple]:
        """Master tuples worth verifying against *t* (superset of matches
        under the index's pruning guarantees)."""
        if self._exact is not None:
            key = t.project(self._eq_attrs)
            if any(is_null(v) for v in key):
                return []
            bucket = self._exact.lookup(key)
            if bucket and self._edit_clauses:
                return self._signature_filter(t, key, bucket)
            return bucket
        if self.join_index is not None:
            value = t[self._join_clause.attr]
            if is_null(value):
                return []
            out: List[CTuple] = []
            for group in self.join_index.probe_groups(value):
                out.extend(group.tuples)
            positions = self._tid_positions()
            out.sort(key=lambda s: positions[s.tid])
            return out
        if self.use_suffix_tree:
            for clause in self._sim_clauses:
                budget = clause.predicate.edit_budget
                if budget is None or clause.master_attr not in self._trees:
                    continue
                value = t[clause.attr]
                if is_null(value):
                    return []
                tree = self._trees[clause.master_attr]
                sids = tree.lcs_candidates(str(value), budget, self.top_l)
                out = []
                for sid in sids:
                    out.extend(self._tree_values[clause.master_attr][sid])
                return out
        return self.master.tuples()

    def _signature_filter(
        self, t: CTuple, key: Tuple[Any, ...], bucket: List[CTuple]
    ) -> List[CTuple]:
        """The members of *bucket* (the equality bucket of *key*) whose
        q-gram signatures admit every edit-budget clause against *t*, in
        bucket order.

        :func:`~repro.similarity.qgrams.edit_signature_admits` is a
        necessary condition of ``edit_distance <= k`` and null values
        fail every predicate, so every dropped member provably fails the
        premise and the result still holds all of the bucket's matches.
        A probe costs one signature plus two popcounts per member: the
        members' texts and signatures stay with the bucket.
        """
        per_clause = self._bucket_sigs.get(key)
        if per_clause is None:
            per_clause = self._bucket_sigs[key] = [
                self._member_sigs(bucket, clause.master_attr)
                for clause in self._edit_clauses
            ]
        kept = bucket
        for clause, members in zip(self._edit_clauses, per_clause):
            value = t[clause.attr]
            if is_null(value):
                return []
            probe_text = _as_str(value)
            probe: Optional[int] = None
            limit = clause.predicate.edit_budget * EDIT_FILTER_Q
            alive = None if kept is bucket else {id(s) for s in kept}
            kept = []
            for s, text, sig in members:
                if alive is not None and id(s) not in alive:
                    continue
                # Equal strings are within any budget: no signature needed
                # (often the whole bucket, when the probe is a clean copy).
                if text != probe_text:
                    if probe is None:
                        probe = self._gram_bits.signature(probe_text)
                    # edit_signature_admits, inlined on the hot loop.
                    if (
                        (probe & ~sig).bit_count() > limit
                        or (sig & ~probe).bit_count() > limit
                    ):
                        continue
                kept.append(s)
        return kept

    def _member_sigs(
        self, bucket: List[CTuple], master_attr: str
    ) -> List[SigEntry]:
        """``(member, text, signature)`` of the bucket's members whose
        *master_attr* is not null, in bucket order."""
        sign = self._gram_bits.signature
        out: List[SigEntry] = []
        for s in bucket:
            value = s[master_attr]
            if not is_null(value):
                text = _as_str(value)
                out.append((s, text, sign(text)))
        return out

    def _join_matches(self, t: CTuple) -> List[CTuple]:
        """Join-engine ``matches()``: the driving predicate is verified
        once per distinct master value (exactly, inside the join index);
        only the residual premise clauses run per tuple.  The result is
        sorted into master insertion order — byte-identical to filtering
        a full scan."""
        value = t[self._join_clause.attr]
        if is_null(value):
            return []
        residual = list(self.md._eval_order)
        try:
            residual.remove(self._join_clause)
        except ValueError:  # pragma: no cover - premise always holds it
            pass
        out: List[CTuple] = []
        for group in self.join_index.verified_groups(value):
            self.stats["candidates"] += len(group.tuples)
            if not residual:
                out.extend(group.tuples)
                continue
            for s in group.tuples:
                held = True
                for clause in residual:
                    self.stats["verify_calls"] += 1
                    if not clause.holds(t, s):
                        held = False
                        break
                if held:
                    out.append(s)
        positions = self._tid_positions()
        out.sort(key=lambda s: positions[s.tid])
        return out

    def matches(self, t: CTuple) -> List[CTuple]:
        """All master tuples whose full premise holds against *t*."""
        self.stats["lookups"] += 1
        if self._exact is None and self.join_index is not None:
            return self._join_matches(t)
        out: List[CTuple] = []
        for s in self.candidates(t):
            self.stats["candidates"] += 1
            self.stats["verify_calls"] += 1
            if self.md.premise_holds(t, s):
                out.append(s)
        return out

    def find_match(self, t: CTuple) -> Optional[CTuple]:
        """The first (smallest master tid) premise-satisfying master tuple.

        Deterministic: candidates are ordered by master tid before
        verification, so repeated runs pick the same witness.
        """
        if self._exact is None and self.join_index is not None:
            matched = self._join_matches(t)
            if not matched:
                return None
            return min(matched, key=lambda s: s.tid or 0)
        best: Optional[CTuple] = None
        for s in self.candidates(t):
            if self.md.premise_holds(t, s):
                if best is None or (s.tid or 0) < (best.tid or 0):
                    best = s
        return best

    # ------------------------------------------------------------------
    # Memoized retrieval (the indexed rule engine's MD match cache)
    # ------------------------------------------------------------------
    def cached_matches(self, t: CTuple) -> List[CTuple]:
        """Like :meth:`matches`, memoized by the premise projection.

        The premise verdict depends only on ``t``'s premise-attribute
        values, and master data is immutable during cleaning — so the
        (expensive, similarity-heavy) verification runs once per distinct
        projection instead of once per tuple per resolution round.
        Callers must not mutate the returned list.
        """
        key = t.project(self._premise_attrs)
        hit = self._match_cache.get(key)
        if hit is None:
            hit = self._match_cache[key] = self.matches(t)
        return hit

    def cached_find_match(self, t: CTuple) -> Optional[CTuple]:
        """Memoized :meth:`find_match` (same deterministic witness; a
        single match is its own minimum)."""
        matched = self.cached_matches(t)
        if not matched:
            return None
        if len(matched) == 1:
            return matched[0]
        return min(matched, key=lambda s: s.tid or 0)

    # ------------------------------------------------------------------
    # Snapshot support (session persistence re-warms the cache)
    # ------------------------------------------------------------------
    def cache_entries(self) -> List[Tuple[Tuple[Any, ...], List[int]]]:
        """The memoized match cache as ``(premise projection, master
        tids)`` pairs, in insertion order.

        Master tuples are referenced by tid — the master relation is
        immutable and travels separately in a snapshot, so this is the
        compact, relation-independent form :mod:`repro.pipeline.snapshot`
        persists.
        """
        return [
            (key, [s.tid for s in matched])
            for key, matched in self._match_cache.items()
        ]

    def warm_cache(
        self, entries: Iterable[Tuple[Tuple[Any, ...], Sequence[int]]]
    ) -> None:
        """Re-populate the match cache from :meth:`cache_entries` output.

        Tids resolve against this index's own master relation, preserving
        the original match lists (and their order) exactly — restoring a
        session starts with the cache as warm as it was at save time.
        """
        for key, tids in entries:
            self._match_cache[tuple(key)] = [
                self.master.by_tid(tid) for tid in tids
            ]


def build_md_indexes(
    mds: Iterable[MD],
    master: Relation,
    top_l: int = 20,
    use_suffix_tree: bool = True,
    engine: Optional[str] = None,
) -> Dict[str, MDBlockingIndex]:
    """Map every normalized MD's name to the :class:`MDBlockingIndex` of
    its premise.

    One index is built per distinct premise (``tuple(md.premise)``): the
    normalized siblings of a multi-RHS MD resolve to the same object, so
    each distinct premise projection is verified once for all of them.
    """
    out: Dict[str, MDBlockingIndex] = {}
    by_premise: Dict[Tuple[Any, ...], MDBlockingIndex] = {}
    for md in mds:
        for normalized in md.normalize():
            premise = tuple(normalized.premise)
            index = by_premise.get(premise)
            if index is None:
                index = by_premise[premise] = MDBlockingIndex(
                    normalized,
                    master,
                    top_l=top_l,
                    use_suffix_tree=use_suffix_tree,
                    engine=engine,
                )
            out[normalized.name] = index
    return out
