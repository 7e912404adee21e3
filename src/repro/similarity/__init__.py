"""Similarity metrics and predicates (the set Υ of the paper, Section 2.2).

Provides edit distance (one bit-parallel kernel), Hamming, Jaro and
Jaro–Winkler, q-gram/Jaccard, longest-common-substring utilities (the
blocking bound of Section 5.2), and the :class:`SimilarityPredicate`
abstraction that matching dependencies are defined over.
"""

from repro.similarity.hamming import hamming_distance, hamming_similarity, within_hamming_distance
from repro.similarity.jaro import jaro_similarity, jaro_winkler_similarity
from repro.similarity.lcs import (
    common_prefix_length,
    lcs_blocking_bound,
    lcs_similarity,
    longest_common_substring,
    longest_common_substring_length,
    passes_lcs_filter,
    split_bound_pieces,
)
from repro.similarity.levenshtein import edit_distance, edit_similarity, within_edit_distance
from repro.similarity.predicates import (
    DEFAULT_REGISTRY,
    EQ,
    EQ_NORMALIZED,
    JoinFilterSpec,
    PredicateRegistry,
    SimilarityPredicate,
    edit_sim_at_least,
    edit_within,
    jaro_winkler_at_least,
    join_filter_for,
    qgram_jaccard_at_least,
)
from repro.similarity.qgrams import (
    jaccard_similarity,
    overlap_coefficient,
    qgram_multiset_tokens,
    qgram_set,
    qgram_similarity,
    qgrams,
    token_jaccard,
)

__all__ = [
    "DEFAULT_REGISTRY",
    "EQ",
    "EQ_NORMALIZED",
    "JoinFilterSpec",
    "PredicateRegistry",
    "SimilarityPredicate",
    "common_prefix_length",
    "edit_distance",
    "edit_sim_at_least",
    "edit_similarity",
    "edit_within",
    "hamming_distance",
    "hamming_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_at_least",
    "jaro_winkler_similarity",
    "join_filter_for",
    "lcs_blocking_bound",
    "lcs_similarity",
    "longest_common_substring",
    "longest_common_substring_length",
    "overlap_coefficient",
    "passes_lcs_filter",
    "qgram_jaccard_at_least",
    "qgram_multiset_tokens",
    "qgram_set",
    "qgram_similarity",
    "qgrams",
    "split_bound_pieces",
    "token_jaccard",
    "within_edit_distance",
    "within_hamming_distance",
]
