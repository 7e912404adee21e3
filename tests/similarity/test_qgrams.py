"""Tests for q-grams, Jaccard similarity and q-gram signatures."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (
    jaccard_similarity,
    overlap_coefficient,
    qgram_set,
    qgram_similarity,
    qgrams,
    token_jaccard,
)
from repro.similarity.levenshtein import edit_distance
from repro.similarity.qgrams import (
    GramBits,
    SIGNATURE_BITS,
    edit_signature_admits,
    qgram_signature,
)


class TestQgrams:
    def test_padded_bigrams(self):
        grams = qgrams("ab", q=2)
        assert grams == {"#a": 1, "ab": 1, "b#": 1}

    def test_unpadded(self):
        grams = qgrams("abc", q=2, pad=False)
        assert grams == {"ab": 1, "bc": 1}

    def test_multiplicities_counted(self):
        grams = qgrams("aaa", q=2, pad=False)
        assert grams["aa"] == 2

    def test_q1_is_characters(self):
        assert qgrams("aba", q=1) == {"a": 2, "b": 1}

    def test_short_string_unpadded(self):
        assert qgrams("a", q=3, pad=False) == {"a": 1}

    def test_empty_string(self):
        assert qgrams("", q=2, pad=False) == {}

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)

    def test_qgram_set_drops_counts(self):
        assert qgram_set("aaa", q=2, pad=False) == frozenset({"aa"})


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_partial(self):
        assert jaccard_similarity({1, 2, 3}, {2, 3, 4}) == 0.5


class TestQgramSimilarity:
    def test_identical(self):
        assert qgram_similarity("abc", "abc") == 1.0

    def test_disjoint(self):
        assert qgram_similarity("abc", "xyz") == 0.0

    def test_symmetry(self):
        assert qgram_similarity("night", "nacht") == qgram_similarity("nacht", "night")

    def test_in_bounds(self):
        assert 0.0 < qgram_similarity("night", "nacht") < 1.0


class TestTokenJaccard:
    def test_shared_tokens(self):
        assert token_jaccard("data cleaning rules", "cleaning data") == pytest.approx(2 / 3)

    def test_identical(self):
        assert token_jaccard("a b", "b a") == 1.0


class TestOverlap:
    def test_subset_is_one(self):
        assert overlap_coefficient({1, 2}, {1, 2, 3}) == 1.0

    def test_empty_one_side(self):
        assert overlap_coefficient(set(), {1}) == 0.0

    def test_both_empty(self):
        assert overlap_coefficient(set(), set()) == 1.0


# The pad character itself, non-ASCII (an astral one included) and, via
# min size 0, empty strings.
CHARS = st.sampled_from(["a", "b", "c", " ", "#", "é", "ß", "字", "\U0001F600"])
words = st.text(alphabet=CHARS, max_size=12) | st.text(max_size=6)
edit_ops = st.lists(
    st.tuples(st.sampled_from(["ins", "del", "sub"]), st.integers(0, 99), CHARS),
    max_size=5,
)


def _edited(s, ops):
    for op, raw, ch in ops:
        if op == "ins":
            i = raw % (len(s) + 1)
            s = s[:i] + ch + s[i:]
        elif s:
            i = raw % len(s)
            s = s[:i] + (ch if op == "sub" else "") + s[i + 1 :]
    return s


# Unrelated pairs and pairs a few edits apart (the ones that must pass).
pairs = st.tuples(words, words) | st.tuples(words, edit_ops).map(
    lambda drawn: (drawn[0], _edited(*drawn))
)


#: One gram table per q, shared by every example (hits and misses).
TABLES = {}


class TestQgramSignature:
    @settings(max_examples=300, deadline=None)
    @given(pair=pairs, k=st.integers(min_value=0, max_value=5))
    def test_never_rejects_a_pair_within_budget(self, pair, k):
        a, b = pair
        if edit_distance(a, b) <= k:
            assert edit_signature_admits(qgram_signature(a), qgram_signature(b), k)

    def test_fixed_width(self):
        for s in ["", "#", "a", "abc" * 40, "\U0001F600\ud800"]:
            assert 0 < qgram_signature(s) < 1 << SIGNATURE_BITS

    def test_pinned_bits(self):
        # The gram code of every signature this filter ever produced.
        assert qgram_signature("near-duplicate titles \u00e9") == (
            0x448002000200010810102000001841002000200048021080000000000800
        )

    @settings(max_examples=200, deadline=None)
    @given(s=st.text(max_size=40), q=st.integers(min_value=1, max_value=3))
    def test_gram_table_equals_the_reference(self, s, q):
        table = TABLES.setdefault(q, GramBits(q))  # warm across examples
        assert table.signature(s) == qgram_signature(s, q)

    def test_rejects_distant_strings(self):
        a = qgram_signature("similarity joins over strings")
        b = qgram_signature("probabilistic query processing")
        assert not edit_signature_admits(a, b, 3)
        assert edit_signature_admits(a, a, 0)

    def test_same_in_every_process(self):
        """The gram code is not the salted ``hash()``: signatures (and
        so the filter's verify counts) repeat across processes."""
        code = (
            "from repro.similarity.qgrams import qgram_signature; "
            "print(qgram_signature('near-duplicate titles \u00e9'))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        runs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(env, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for seed in ("1", "2")
        }
        assert runs == {str(qgram_signature("near-duplicate titles \u00e9"))}
