"""Indexing structures backing the cleaning algorithms.

* :class:`GeneralizedSuffixTree` — top-``l`` LCS blocking for MD
  similarity search (Section 5.2).
* :class:`AVLTree` — the balanced tree underlying the entropy structure.
* :class:`EntropyIndex` — the 2-in-1 hash-table + AVL structure per
  variable CFD (Section 6.3); :func:`rank_conflicting` ranks any set of
  groups by its AVL key on demand (eRepair's indexed path).
* :class:`ExactIndex` / :class:`MDBlockingIndex` — equality and
  similarity blocking for MDs against master data.
* :class:`CFDGroupStore` / :class:`MDGroupStore` /
  :class:`GroupStoreRegistry` — shared LHS-keyed group stores: one
  grouping per rule spec, fanned out to every consumer (the violation
  index of every phase and the session's delta closure).
* :class:`ViolationIndex` — per-rule inverted partition indexes with
  dirty work queues, powering incremental violation detection across all
  three repair phases (see ``docs/architecture.md``).
"""

from repro.indexing.avl import AVLTree
from repro.indexing.blocking import ExactIndex, MDBlockingIndex, build_md_indexes
from repro.indexing.entropy_index import (
    EntropyIndex,
    GroupStats,
    entropy_of_counts,
    rank_conflicting,
)
from repro.indexing.group_store import (
    CFDGroupStore,
    GroupStoreRegistry,
    MDGroupStore,
)
from repro.indexing.suffix_tree import GeneralizedSuffixTree
from repro.indexing.violation_index import CFDPartition, MDPartition, ViolationIndex

__all__ = [
    "AVLTree",
    "CFDGroupStore",
    "CFDPartition",
    "EntropyIndex",
    "ExactIndex",
    "GeneralizedSuffixTree",
    "GroupStats",
    "GroupStoreRegistry",
    "MDGroupStore",
    "MDPartition",
    "MDBlockingIndex",
    "ViolationIndex",
    "build_md_indexes",
    "entropy_of_counts",
    "rank_conflicting",
]
