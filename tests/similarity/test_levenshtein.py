"""Tests for edit distance and edit similarity."""

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import value_distance
from repro.similarity import edit_distance, edit_similarity, within_edit_distance


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("Bob", "Robert", 4),
            ("Mark", "Marc", 1),
            ("M.", "Mark", 3),
            ("intention", "execution", 5),
            ("abcdef", "abXdef", 1),  # exercises prefix/suffix stripping
            ("aaaa", "aaa", 1),
            ("xy", "yx", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_symmetry(self):
        assert edit_distance("sunday", "saturday") == edit_distance("saturday", "sunday")

    def test_max_distance_early_exit_over(self):
        # Result only needs to exceed the bound, not be exact.
        assert edit_distance("aaaaaaaa", "bbbbbbbb", max_distance=2) > 2

    def test_max_distance_exact_when_within(self):
        assert edit_distance("kitten", "sitting", max_distance=5) == 3

    def test_max_distance_length_gap(self):
        assert edit_distance("a", "abcdefgh", max_distance=3) == 4  # bound + 1


class TestWithinEditDistance:
    def test_true_at_bound(self):
        assert within_edit_distance("kitten", "sitting", 3)

    def test_false_below_bound(self):
        assert not within_edit_distance("kitten", "sitting", 2)

    def test_negative_bound(self):
        assert not within_edit_distance("a", "a", -1)

    def test_zero_bound_equal(self):
        assert within_edit_distance("same", "same", 0)


class TestEditSimilarity:
    def test_identical(self):
        assert edit_similarity("abc", "abc") == 1.0

    def test_disjoint(self):
        assert edit_similarity("abc", "xyz") == 0.0

    def test_empty_pair(self):
        assert edit_similarity("", "") == 1.0

    def test_normalization_by_longer_string(self):
        # One edit in a long string is closer than one edit in a short one
        # (the paper's normalization rationale, Section 3.1).
        assert edit_similarity("abcdefghij", "abcdefghiX") > edit_similarity("ab", "aX")

    def test_bounds(self):
        assert 0.0 <= edit_similarity("hello", "help") <= 1.0


class TestBandedAgainstClassicDP:
    """Adversarial coverage for the thresholded form.

    The contract: ``edit_distance(a, b, max_distance=k)`` equals the
    true distance when it is ≤ k, and exactly ``k + 1`` otherwise.
    Fuzzed against the textbook full-matrix DP (the oracle of every
    edit-distance test) over small alphabets (including unicode),
    lengths 0–8 and bounds 0–4.
    """

    @staticmethod
    def classic(a: str, b: str) -> int:
        rows = len(a) + 1
        cols = len(b) + 1
        dp = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            dp[i][0] = i
        for j in range(cols):
            dp[0][j] = j
        for i in range(1, rows):
            for j in range(1, cols):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                dp[i][j] = min(
                    dp[i - 1][j] + 1,
                    dp[i][j - 1] + 1,
                    dp[i - 1][j - 1] + cost,
                )
        return dp[-1][-1]

    def check(self, a: str, b: str, k: int) -> None:
        true_distance = self.classic(a, b)
        banded = edit_distance(a, b, max_distance=k)
        expected = true_distance if true_distance <= k else k + 1
        assert banded == expected, (a, b, k, banded, expected)
        assert within_edit_distance(a, b, k) == (true_distance <= k)

    def test_property_small_alphabet(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=400, deadline=None)
        @given(
            a=st.text(alphabet="ab", max_size=8),
            b=st.text(alphabet="ab", max_size=8),
            k=st.integers(min_value=0, max_value=4),
        )
        def run(a, b, k):
            self.check(a, b, k)

        run()

    def test_property_three_letters(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=300, deadline=None)
        @given(
            a=st.text(alphabet="abc", max_size=7),
            b=st.text(alphabet="abc", max_size=7),
            k=st.integers(min_value=0, max_value=3),
        )
        def run(a, b, k):
            self.check(a, b, k)

        run()

    def test_property_unicode(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200, deadline=None)
        @given(
            a=st.text(alphabet="αβñ", max_size=6),
            b=st.text(alphabet="αβñ", max_size=6),
            k=st.integers(min_value=0, max_value=4),
        )
        def run(a, b, k):
            self.check(a, b, k)

        run()

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize(
        "a,b",
        [
            ("", ""),
            ("", "abcd"),
            ("abcd", ""),
            ("aaaa", "aaab"),
            ("ñandú", "nandu"),
            ("αβγ", "αγβ"),
        ],
    )
    def test_edges(self, a, b, k):
        self.check(a, b, k)


#: Alphabets of the kernel fuzz: two and three letters (many equal
#: characters, so long shared runs and deep carries), and Unicode with
#: astral characters (one code point each, never a surrogate pair).
KERNEL_ALPHABETS = ["ab", "abc", "aé\U0001d11e\U0001f600"]


@st.composite
def kernel_pairs(draw):
    """A string of 0–200 characters and a partner: either a copy with a
    few random edits (distances inside small budgets) or an unrelated
    string (distances far beyond them).  Lengths cross the 64- and
    128-bit word edges, where the kernel's add carries across words."""
    alphabet = draw(st.sampled_from(KERNEL_ALPHABETS))
    letters = st.sampled_from(alphabet)
    size = draw(st.one_of(
        st.integers(min_value=0, max_value=200),
        st.sampled_from([63, 64, 65, 127, 128, 129]),
    ))
    a = draw(st.lists(letters, min_size=size, max_size=size))
    if draw(st.booleans()):
        b = list(a)
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            pos = draw(st.integers(min_value=0, max_value=len(b)))
            op = draw(st.sampled_from(["insert", "delete", "replace"]))
            if op == "insert":
                b.insert(pos, draw(letters))
            elif pos < len(b):
                if op == "delete":
                    del b[pos]
                else:
                    b[pos] = draw(letters)
    else:
        b = draw(st.lists(letters, max_size=200))
    return "".join(a), "".join(b)


class TestKernelAgainstClassicDP:
    """Both forms of the bit-parallel kernel equal the full-matrix DP
    (invariant 42): the unbounded distance exactly, the thresholded one
    as ``min(d, k + 1)`` for ``k`` in 0–6, and so do the callers built
    on them."""

    @given(kernel_pairs())
    @settings(max_examples=150, deadline=None)
    @example(("a" * 64, "b" * 64))
    @example(("ab" * 64, "ba" * 64))
    @example(("a" * 129, "a" * 63 + "b" + "a" * 64))
    @example(("\U0001d11e" * 65, "\U0001d11e" * 64))
    def test_both_forms_equal_the_oracle(self, pair):
        a, b = pair
        d = TestBandedAgainstClassicDP.classic(a, b)
        assert edit_distance(a, b) == d
        assert edit_distance(b, a) == d
        for k in range(7):
            assert edit_distance(a, b, max_distance=k) == min(d, k + 1)
            assert within_edit_distance(a, b, k) == (d <= k)
        longest = max(len(a), len(b))
        if longest:
            assert edit_similarity(a, b) == 1.0 - d / longest
            assert value_distance(a, b) == d / longest
        else:
            assert edit_similarity(a, b) == 1.0
            assert value_distance(a, b) == 0.0
