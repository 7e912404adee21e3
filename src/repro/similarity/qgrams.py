"""q-gram decomposition and Jaccard similarity.

q-grams appear in the paper's predicate set Υ (Section 2.2); Jaccard
similarity over token or q-gram sets is the classic fast similarity used by
blocking and similarity joins (Xiao et al. 2011, cited by the paper).
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from typing import FrozenSet, Sequence, Set, Tuple

#: Slack for the float arithmetic in the Jaccard filter bounds below.
#: Bounds are only ever *relaxed* by it (windows widen, thresholds drop),
#: so rounding can never over-prune; the final predicate call restores
#: exactness.
FILTER_EPS = 1e-9


def qgrams(s: str, q: int = 2, pad: bool = True, pad_char: str = "#") -> Counter:
    """The multiset of q-grams of *s* as a :class:`collections.Counter`.

    Parameters
    ----------
    s:
        Input string.
    q:
        Gram length; must be positive.
    pad:
        When true the string is padded with ``q - 1`` copies of *pad_char*
        on both sides, so boundary characters contribute q grams each —
        the standard convention for q-gram string joins.
    pad_char:
        Padding character (should not occur in the data).
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    if pad and q > 1:
        s = pad_char * (q - 1) + s + pad_char * (q - 1)
    if len(s) < q:
        return Counter([s] if s else [])
    return Counter(s[i : i + q] for i in range(len(s) - q + 1))


def qgram_set(s: str, q: int = 2, pad: bool = True) -> FrozenSet[str]:
    """The *set* of q-grams of *s* (multiplicities dropped)."""
    return frozenset(qgrams(s, q=q, pad=pad))


def jaccard_similarity(a: Set, b: Set) -> float:
    """Jaccard similarity ``|a ∩ b| / |a ∪ b|`` of two sets.

    Two empty sets are fully similar (1.0) by convention.
    """
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def qgram_similarity(a: str, b: str, q: int = 2) -> float:
    """Jaccard similarity of the q-gram sets of *a* and *b*.

    Examples
    --------
    >>> qgram_similarity("abc", "abc")
    1.0
    >>> qgram_similarity("abc", "xyz")
    0.0
    """
    return jaccard_similarity(set(qgram_set(a, q)), set(qgram_set(b, q)))


def token_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of whitespace token sets (fuzzy token matching).

    A lightweight stand-in for the fuzzy-token similarity of Wang et al.
    2011 cited in the paper's related work.
    """
    return jaccard_similarity(set(a.split()), set(b.split()))


def overlap_coefficient(a: Set, b: Set) -> float:
    """Overlap coefficient ``|a ∩ b| / min(|a|, |b|)``; 1.0 for two empty sets."""
    if not a or not b:
        return 1.0 if not a and not b else 0.0
    return len(a & b) / min(len(a), len(b))


# ----------------------------------------------------------------------
# Filter-bound helpers for the set-based similarity join
# (``matching/simjoin.py``).  All bounds are *necessary* conditions —
# upper bounds on what a true match can violate — so pruning with them is
# lossless; survivors are re-verified with the exact predicate.
# ----------------------------------------------------------------------


def qgram_multiset_tokens(s: str, q: int = 2, pad: bool = True) -> Tuple[Tuple[str, int], ...]:
    """The padded q-gram *multiset* of *s* encoded as a token set.

    Each gram occurrence becomes a distinct ``(gram, occurrence#)`` token,
    the standard trick that lets multiset overlap be computed with plain
    set machinery (an inverted index keyed by tokens).  With padding and
    ``q >= 2`` the token count is exactly ``len(s) + q - 1``.
    """
    counts = qgrams(s, q=q, pad=pad)
    return tuple((gram, occ) for gram, n in counts.items() for occ in range(n))


def qgram_profile_size(length: int, q: int = 2) -> int:
    """Padded multiset q-gram count of any string of *length* chars (``q >= 2``)."""
    return length + q - 1


def edit_overlap_bound(len_a: int, len_b: int, k: int, q: int = 2) -> int:
    """Minimum shared (multiset) q-grams of two strings within edit distance *k*.

    One edit destroys at most *q* grams, so strings with
    ``edit_distance <= k`` share at least ``max(|G_a|, |G_b|) - k*q``
    grams (Gravano et al. 2001).  A result ``<= 0`` means the bound
    cannot prune for this length pair.
    """
    return qgram_profile_size(max(len_a, len_b), q) - k * q


#: Bits of a gram's bit index in a :func:`qgram_signature`.
SIGNATURE_INDEX_BITS = 8
#: Width in bits of a :func:`qgram_signature`.
SIGNATURE_BITS = 1 << SIGNATURE_INDEX_BITS


def gram_bit(gram: str) -> int:
    """The :func:`qgram_signature` bit of one (padded) gram: the bit
    indexed by the top :data:`SIGNATURE_INDEX_BITS` bits of
    ``crc32(utf32le(gram))``."""
    code = zlib.crc32(gram.encode("utf-32-le", "surrogatepass"))
    return 1 << (code >> (32 - SIGNATURE_INDEX_BITS))


def qgram_signature(s: str, q: int = 2) -> int:
    """Fixed-width bit signature of the padded q-gram set of *s*.

    Gram ``g`` (the padded grams of :func:`qgrams`) sets
    :func:`gram_bit` ``(g)``: a fixed code, unlike the salted ``hash()``,
    so signatures — and the filter decisions built on them — repeat
    across processes.
    """
    if q > 1:
        s = "#" * (q - 1) + s + "#" * (q - 1)
    sig = 0
    for i in range(len(s) - q + 1):
        sig |= gram_bit(s[i : i + q])
    return sig


class GramBits(dict):
    """A memo of :func:`gram_bit` for signing many strings.

    ``table.signature(s)`` equals ``qgram_signature(s, q)`` at one dict
    lookup per gram; each distinct gram is encoded and hashed once.
    """

    __slots__ = ("q",)

    def __init__(self, q: int = 2):
        super().__init__()
        self.q = q

    def __missing__(self, gram: str) -> int:
        bit = self[gram] = gram_bit(gram)
        return bit

    def signature(self, s: str) -> int:
        q = self.q
        if q > 1:
            s = "#" * (q - 1) + s + "#" * (q - 1)
        sig = 0
        for i in range(len(s) - q + 1):
            sig |= self[s[i : i + q]]
        return sig


def edit_signature_admits(sig_a: int, sig_b: int, k: int, q: int = 2) -> bool:
    """Whether two :func:`qgram_signature` values allow edit distance <= *k*.

    Necessary condition, so rejecting on ``False`` is lossless: with
    ``edit_distance <= k`` each string keeps all but at most ``k*q`` of
    its padded grams in the other (the count bound of
    :func:`edit_overlap_bound`), and every bit one signature has and the
    other lacks stands for at least one such lost gram.  Hash collisions
    only merge bits, which can hide a difference but never invent one.
    """
    budget = k * q
    return (
        (sig_a & ~sig_b).bit_count() <= budget
        and (sig_b & ~sig_a).bit_count() <= budget
    )


def edit_prefix_length(k: int, q: int = 2) -> int:
    """Prefix-filter length for the edit-*k* bound: ``k*q + 1`` tokens.

    If two profiles share ``>= |G| - k*q`` tokens, they must share one
    within the first ``k*q + 1`` tokens of any fixed global token order.
    """
    return k * q + 1


def jaccard_size_window(size: int, threshold: float) -> Tuple[int, int]:
    """Admissible partner set sizes ``[lo, hi]`` for Jaccard >= *threshold*.

    ``J(a, b) >= t`` forces ``t*|a| <= |b| <= |a|/t``.  *threshold* must be
    positive (a zero threshold admits everything and cannot filter).
    """
    lo = math.ceil(threshold * size - FILTER_EPS)
    hi = math.floor(size / threshold + FILTER_EPS)
    return max(lo, 0), hi


def jaccard_overlap_bound(size_a: int, size_b: int, threshold: float) -> int:
    """Minimum overlap of two sets with Jaccard >= *threshold*:
    ``ceil(t/(1+t) * (|a| + |b|))``."""
    need = threshold * (size_a + size_b) / (1.0 + threshold)
    return math.ceil(need - FILTER_EPS)


def jaccard_prefix_length(size: int, threshold: float) -> int:
    """Prefix-filter length for a set of *size* tokens under Jaccard-*t*.

    The smallest possible required overlap for this set (against its
    smallest admissible partner) is ``ceil(t * size)``; skipping more than
    ``size - ceil(t*size)`` tokens could skip every shared one.
    """
    return size - math.ceil(threshold * size - FILTER_EPS) + 1
