"""Set-based similarity-join engine for MD premise matching.

MD premise verification is a thresholded similarity join: every dirty
tuple must find the master tuples whose compared attribute is within an
edit budget (or above a Jaccard threshold).  The reference path walks a
generalized suffix tree per lookup and keeps only the top-l LCS
candidates — fast, but *lossy*: the cap can drop true matches, forcing
rare-path exhaustive re-verification downstream.

This module replaces that with the classic filtered inverted-index join
(Gravano et al. 2001; Xiao et al. 2011, both cited by the paper):

1. **length filter** — group master rows by attribute value (one group
   per distinct value; duplicates index once) and bucket the groups by
   size key (string length for edit-k, gram-set size for Jaccard-t); a
   probe only visits buckets inside the admissible window;
2. **prefix filter** — tokens are globally ordered by ascending master
   frequency; each bucket holds inverted lists over only the first
   ``|G| - T_min + 1`` tokens of each profile, and a probe scans only
   its own prefix, so frequent grams never explode the candidate set;
3. **count filter** — surviving ``(probe, group)`` pairs are checked
   with a sorted-merge overlap count that aborts early once the
   remaining tokens cannot reach the required bound;
4. **verify** — survivors are confirmed with the exact predicate (thresholded
   bit-parallel edit distance), or, for Jaccard, with exact set arithmetic over the
   already-tokenized profiles — no re-tokenization, no approximation.

Every filter is an upper bound a true match cannot violate, so the
pipeline is *lossless*: ``matches()`` through this engine is exhaustive
by construction, and byte-identical to a full scan.  The engine sits
behind ``REPRO_MATCH_ENGINE`` (see :mod:`repro.relational.columns`);
``indexing/blocking.py`` dispatches to it for pure-similarity premises.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.attribute import interning_key, is_null
from repro.relational.columns import GLOBAL_TABLE
from repro.relational.relation import Relation
from repro.relational.tuples import CTuple
from repro.similarity.predicates import JoinFilterSpec, SimilarityPredicate, _as_str
from repro.similarity.qgrams import (
    edit_overlap_bound,
    edit_prefix_length,
    jaccard_overlap_bound,
    jaccard_prefix_length,
    jaccard_size_window,
    qgram_multiset_tokens,
    qgram_set,
)

__all__ = ["ProfileCache", "QGramIndex", "ValueGroup"]


class ProfileCache:
    """Memoized q-gram token profiles, :class:`~repro.core.cost.RefCostCache`-style.

    Keys prefer the *canon ref* from the process-wide interning table:
    for strings, canon equality is ``==`` equality and ``==`` strings
    tokenize identically, so one profile serves every occurrence of a
    master value *and* every dirty-side probe that shares it — the
    predicate-call path never re-runs :func:`~repro.similarity.qgrams.qgrams`
    for a string the index has seen.  Values outside the table
    (dict-backed relations, uninterned probes) fall back to keying by
    their ``str()`` form.  ``hits``/``misses`` back the cache tests and
    the benchmark counters.
    """

    __slots__ = ("hits", "misses", "_tokenize", "_by_ref", "_by_str")

    def __init__(self, tokenize):
        self.hits = 0
        self.misses = 0
        self._tokenize = tokenize
        self._by_ref: Dict[int, Tuple[Any, ...]] = {}
        self._by_str: Dict[str, Tuple[Any, ...]] = {}

    def profile(self, value: Any) -> Tuple[Any, ...]:
        """The token profile of *value* (tokenized at most once per
        distinct string)."""
        if isinstance(value, str):
            ref = GLOBAL_TABLE.find_canon(value)
            if ref is not None:
                prof = self._by_ref.get(ref)
                if prof is None:
                    self.misses += 1
                    prof = self._by_ref[ref] = self._tokenize(value)
                else:
                    self.hits += 1
                return prof
            s = value
        else:
            s = str(value)
        prof = self._by_str.get(s)
        if prof is None:
            self.misses += 1
            prof = self._by_str[s] = self._tokenize(s)
        else:
            self.hits += 1
        return prof


class ValueGroup:
    """All master tuples sharing one (exact) compared-attribute value."""

    __slots__ = ("value", "string", "tuples", "tokens")

    def __init__(self, value: Any, string: str, tuples: List[CTuple]):
        self.value = value
        self.string = string
        self.tuples = tuples
        #: Sorted global token ids of the value's q-gram profile.
        self.tokens: array = array("l")


class QGramIndex:
    """A length-bucketed q-gram inverted index over one master attribute.

    Built once per (MD, similarity clause); ``probe_groups`` runs the
    lossless length → prefix → count filter pipeline and
    ``verified_groups`` additionally confirms the driving predicate, so
    its result is exactly the set of distinct master values matching the
    probe.  ``stats`` records probe/candidate/verify counters for the
    benchmark's filter-effectiveness columns.
    """

    def __init__(
        self,
        master: Relation,
        attr: str,
        spec: JoinFilterSpec,
        predicate: SimilarityPredicate,
    ):
        self.attr = attr
        self.spec = spec
        self.predicate = predicate
        if spec.kind == "edit":
            tokenize = lambda s: qgram_multiset_tokens(s, spec.q)  # noqa: E731
        elif spec.kind == "jaccard":
            tokenize = lambda s: tuple(sorted(qgram_set(s, spec.q)))  # noqa: E731
        else:
            raise ValueError(f"unknown join filter kind {spec.kind!r}")
        self.profiles = ProfileCache(tokenize)
        self.stats: Dict[str, int] = {
            "probes": 0,
            "prefix_candidates": 0,
            "count_checks": 0,
            "filter_survivors": 0,
            "verify_calls": 0,
            "verify_matches": 0,
        }
        self.groups: List[ValueGroup] = []
        #: size key -> token id -> gids whose prefix holds the token.
        self._buckets: Dict[int, Dict[int, array]] = {}
        #: size key -> every gid in the bucket (for the no-prune path).
        self._members: Dict[int, List[int]] = {}
        self._token_ids: Dict[Any, int] = {}
        #: Probe-side tokens absent from the master vocabulary get stable
        #: negative ids: globally rarest (they sort first), never present
        #: in any inverted list, but still occupying prefix slots — both
        #: required for the prefix filter's total-order argument.
        self._unknown: Dict[Any, int] = {}
        self._build(master)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _value_groups(self, master: Relation) -> List[ValueGroup]:
        """Master tuples grouped by exact attribute value, first-encounter
        order.  Columnar masters group by interned ref (duplicate strings
        index once, no per-tuple dict reads); dict-backed masters group by
        the same key the interning table uses
        (:func:`~repro.relational.attribute.interning_key`)."""
        store = master.column_store
        groups: List[ValueGroup] = []
        if store is not None:
            refs = master.column(self.attr)
            by_ref: Dict[int, List[CTuple]] = {}
            for t, ref in zip(master, refs):
                rows = by_ref.get(ref)
                if rows is None:
                    rows = by_ref[ref] = []
                rows.append(t)
            values = store.table.values
            strings = store.table.strings(list(by_ref))
            for (ref, rows), string in zip(by_ref.items(), strings):
                value = values[ref]
                if is_null(value):
                    continue
                groups.append(ValueGroup(value, string, rows))
            return groups
        by_key: Dict[Tuple[type, Any], List[CTuple]] = {}
        keyed: List[Tuple[Any, List[CTuple]]] = []
        for t in master:
            value = t[self.attr]
            if is_null(value):
                continue
            key = (value.__class__, value) if value else interning_key(value)
            rows = by_key.get(key)
            if rows is None:
                rows = by_key[key] = []
                keyed.append((value, rows))
            rows.append(t)
        for value, rows in keyed:
            groups.append(ValueGroup(value, _as_str(value), rows))
        return groups

    def _index_prefix_length(self, size: int) -> int:
        spec = self.spec
        if spec.kind == "edit":
            return min(size, edit_prefix_length(spec.edit_budget, spec.q))
        return min(size, max(jaccard_prefix_length(size, spec.threshold), 0))

    def _build(self, master: Relation) -> None:
        self.groups = self._value_groups(master)
        raw: List[Tuple[Any, ...]] = []
        frequency: Dict[Any, int] = {}
        for group in self.groups:
            prof = self.profiles.profile(group.value)
            raw.append(prof)
            for token in prof:
                frequency[token] = frequency.get(token, 0) + 1
        order = sorted(frequency, key=lambda token: (frequency[token], token))
        self._token_ids = {token: i for i, token in enumerate(order)}
        token_ids = self._token_ids
        for gid, (group, prof) in enumerate(zip(self.groups, raw)):
            ids = sorted(token_ids[token] for token in prof)
            group.tokens = array("l", ids)
            size_key = (
                len(group.string) if self.spec.kind == "edit" else len(ids)
            )
            bucket = self._buckets.get(size_key)
            if bucket is None:
                bucket = self._buckets[size_key] = {}
                self._members[size_key] = []
            self._members[size_key].append(gid)
            for token_id in ids[: self._index_prefix_length(len(ids))]:
                postings = bucket.get(token_id)
                if postings is None:
                    postings = bucket[token_id] = array("l")
                postings.append(gid)

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def _encode(self, profile: Tuple[Any, ...]) -> array:
        token_ids = self._token_ids
        unknown = self._unknown
        out = []
        for token in profile:
            token_id = token_ids.get(token)
            if token_id is None:
                token_id = unknown.get(token)
                if token_id is None:
                    token_id = unknown[token] = -1 - len(unknown)
            out.append(token_id)
        out.sort()
        return array("l", out)

    def _admissible(self, string: str, probe_size: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(size_key, required_overlap)`` for every bucket a true
        match of this probe could inhabit."""
        spec = self.spec
        if spec.kind == "edit":
            k, q = spec.edit_budget, spec.q
            length = len(string)
            for size_key in range(max(length - k, 0), length + k + 1):
                yield size_key, edit_overlap_bound(length, size_key, k, q)
            return
        lo, hi = jaccard_size_window(probe_size, spec.threshold)
        if hi - lo + 1 > len(self._members):
            keys: Iterable[int] = [b for b in self._members if lo <= b <= hi]
        else:
            keys = range(lo, hi + 1)
        for size_key in keys:
            yield size_key, jaccard_overlap_bound(probe_size, size_key, spec.threshold)

    @staticmethod
    def _overlap_at_least(a: array, b: array, need: int) -> bool:
        """Whether two sorted token arrays share >= *need* tokens, with an
        early abort once the remainder cannot reach the bound."""
        i = j = shared = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            if shared + min(la - i, lb - j) < need:
                return False
            x, y = a[i], b[j]
            if x == y:
                shared += 1
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
        return shared >= need

    @staticmethod
    def _overlap(a: array, b: array) -> int:
        i = j = shared = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            x, y = a[i], b[j]
            if x == y:
                shared += 1
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
        return shared

    def probe_groups(self, value: Any) -> List[ValueGroup]:
        """Value groups surviving the length/prefix/count filters — a
        guaranteed superset of the true matches, in group-build order."""
        self.stats["probes"] += 1
        string = _as_str(value)
        probe = self._encode(self.profiles.profile(value))
        probe_size = len(probe)
        groups = self.groups
        out: List[int] = []
        for size_key, need in self._admissible(string, probe_size):
            members = self._members.get(size_key)
            if not members:
                continue
            if need <= 0:
                out.extend(members)  # bound cannot prune this size pair
                continue
            sample = groups[members[0]]
            if need > min(probe_size, len(sample.tokens)):
                continue  # overlap bound exceeds either set: impossible
            bucket = self._buckets[size_key]
            seen = set()
            for token_id in probe[: probe_size - need + 1]:
                if token_id < 0:
                    continue  # unknown token: counts toward the prefix,
                    # can never hit an inverted list
                postings = bucket.get(token_id)
                if postings is not None:
                    seen.update(postings)
            self.stats["prefix_candidates"] += len(seen)
            for gid in seen:
                self.stats["count_checks"] += 1
                if self._overlap_at_least(probe, groups[gid].tokens, need):
                    out.append(gid)
        out.sort()
        self.stats["filter_survivors"] += len(out)
        return [groups[gid] for gid in out]

    def verified_groups(self, value: Any) -> List[ValueGroup]:
        """Exactly the value groups whose value satisfies the driving
        predicate against *value* (filter pipeline + exact verification)."""
        survivors = self.probe_groups(value)
        out: List[ValueGroup] = []
        if self.spec.kind == "jaccard":
            # Verify from the indexed gram sets: same integer
            # |intersection| / |union| the predicate computes, without
            # re-tokenizing either side.
            probe = self._encode(self.profiles.profile(value))
            probe_size = len(probe)
            threshold = self.spec.threshold
            for group in survivors:
                self.stats["verify_calls"] += 1
                shared = self._overlap(probe, group.tokens)
                union = probe_size + len(group.tokens) - shared
                similarity = 1.0 if union == 0 else shared / union
                if similarity >= threshold:
                    self.stats["verify_matches"] += 1
                    out.append(group)
            return out
        for group in survivors:
            self.stats["verify_calls"] += 1
            if self.predicate(value, group.value):
                self.stats["verify_matches"] += 1
                out.append(group)
        return out
