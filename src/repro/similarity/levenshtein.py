"""Edit (Levenshtein) distance and derived similarity.

The paper's experiments "used edit distance for similarity test, defined as
the minimum number of single-character insertions, deletions and
substitutions needed to convert a value from v to v′" (Section 8).  Both
forms — the unbounded distance the Section 3.1 cost model prices repairs
with, and the thresholded test ``edit_distance(a, b, max_distance=k)``
that MD premise verification calls on every match-cache miss — run one
bit-parallel kernel (:func:`_bit_parallel_distance`, Myers 1999 in
Hyyrö's formulation for global distance): one DP column is packed into
two delta bit vectors over Python ints, so a column costs a dozen
big-int operations instead of ``|a|`` interpreted cell updates.
"""

from __future__ import annotations

from typing import Dict, Optional


def _bit_parallel_distance(a: str, b: str) -> int:
    """Levenshtein distance of two non-empty strings, one column of the
    DP per character of *b*, the column packed over ``len(a)`` bits.

    ``pv``/``mv`` hold the column's vertical +1/−1 deltas
    ``D[i][j] - D[i-1][j]``; ``score`` tracks the last row
    ``D[len(a)][j]``.  Row 0 is ``D[0][j] = j``, so every column shifts
    a +1 horizontal delta in at the bottom bit.
    """
    peq: Dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    pv = full
    mv = 0
    score = len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def edit_distance(a: str, b: str, max_distance: Optional[int] = None) -> int:
    """Levenshtein distance between *a* and *b*.

    Parameters
    ----------
    a, b:
        The two strings.
    max_distance:
        When given, the result is ``min(distance, max_distance + 1)``:
        exact within the bound, ``max_distance + 1`` beyond it — and
        returned without running the kernel when the length gap alone
        exceeds the bound.

    Examples
    --------
    >>> edit_distance("Bob", "Robert")
    4
    >>> edit_distance("Mark", "Marc")
    1
    >>> edit_distance("abc", "abc")
    0
    >>> edit_distance("kitten", "sitting", max_distance=1)
    2
    """
    if a == b:
        return 0
    # Strip the common prefix and suffix: edits there are never needed,
    # and near-duplicate strings (the common case in matching) shrink to
    # a tiny core.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    # The longer string goes into the bit vectors and the shorter one
    # drives the loop: a wider int costs far less than another column.
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if max_distance is not None:
        if max_distance < 0:
            return max_distance + 1 if la > 0 else 0
        if la - lb > max_distance:
            return max_distance + 1
    distance = _bit_parallel_distance(a, b) if lb else la
    if max_distance is not None and distance > max_distance:
        return max_distance + 1
    return distance


def within_edit_distance(a: str, b: str, k: int) -> bool:
    """Whether ``edit_distance(a, b) <= k`` (thresholded form)."""
    if k < 0:
        return False
    return edit_distance(a, b, max_distance=k) <= k


def edit_similarity(a: str, b: str) -> float:
    """Normalized edit similarity in ``[0, 1]``.

    Defined as ``1 - dis(a, b) / max(|a|, |b|)`` — the same normalization
    the paper's cost model uses ("to ensure that longer strings with
    1-character difference are closer than shorter strings with 1-character
    difference", Section 3.1).  Two empty strings are fully similar.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - edit_distance(a, b) / longest
