"""Fix-order traces: reconstructing a global fix log from shard runs.

Partition-parallel cleaning (:mod:`repro.pipeline.sharding`) runs each
repair phase independently per shard and must then merge the per-shard
fix logs into the *byte-identical* sequence an unsharded run over the
whole relation produces.  Because shards never interact (the shard plan
keeps every variable-CFD group inside one shard, and all other rules are
per-tuple), an unsharded run's fixes restricted to one shard's tuples
are exactly that shard's fixes, in the same relative order — the global
log is some deterministic *interleaving* of the shard logs.  The traces
below capture just enough scheduling structure to replay that
interleaving without re-running any rule logic:

* **cRepair** (:class:`WorklistTrace`) pops a FIFO worklist seeded by an
  initialization pass and extended by each pop's own pushes.  The global
  pop order is the breadth-first order of a forest whose roots are the
  initialization pushes (totally ordered by a content rank: rule index
  and tid) and whose children hang off the pop that pushed them.  Each
  shard records its root ranks plus, per pop, how many children it
  pushed and how many fixes it recorded; :func:`merge_worklist_fixes`
  replays the unified queue.  (Restricted to one shard, global FIFO
  order equals shard-local FIFO order, so when the simulation pops a
  shard token the shard's *next* recorded pop is the right one.)
* **eRepair / hRepair** (:class:`RoundTrace`) run fixpoint rounds over
  rules, draining per-rule work queues whose order is content-derived:
  ascending tid for per-tuple rules, the entropy-AVL key
  ``(H, sort_key(ȳ), smallest member tid)`` for eRepair's conflict
  groups, ascending smallest member tid for hRepair's dirty partitions.
  A shard stays active in exactly the global rounds its own writes dirty
  (dirtiness never crosses shards), so tagging every fix with ``(round,
  rule index, candidate rank)`` makes the global order a stable sort of
  the concatenated shard logs (:func:`merge_round_fixes`).  Candidate
  ranks are unique across shards — each ends in a tid, and tids are
  disjoint — so ties only occur within one candidate of one shard, where
  the recorded order is already correct.

Traces are opt-in (``trace=None`` keeps the phases on their zero-cost
path) and are collected by :class:`~repro.pipeline.session.CleaningSession`
when constructed with ``collect_traces=True``.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.fixes import Fix

#: A content-derived total order over schedulable work items; tuples of
#: ints/floats/strings only, so ranks compare across processes.
Rank = Tuple


@dataclass
class WorklistTrace:
    """The scheduling skeleton of one cRepair run (see module docstring).

    ``root_ranks`` holds one rank per worklist entry pushed *before* the
    main loop, in push order; ``pops`` holds one ``(children_pushed,
    fixes_recorded)`` pair per pop of the main loop, in pop order.  Every
    push is eventually popped (the queue drains), so
    ``len(pops) == len(root_ranks) + sum(children)``.
    """

    root_ranks: List[Rank] = field(default_factory=list)
    pops: List[Tuple[int, int]] = field(default_factory=list)

    def pack_pops(self) -> Tuple[array, array]:
        """The pop list as two parallel int columns ``(children, fixes)``
        — the wire form used by :mod:`repro.pipeline.payload` (a list of
        2-tuples pickles one opcode pair per pop; arrays pickle as raw
        machine bytes)."""
        return (
            array("i", [children for children, _fixes in self.pops]),
            array("i", [fixes for _children, fixes in self.pops]),
        )

    @staticmethod
    def unpack_pops(
        children: Sequence[int], fixes: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """Inverse of :meth:`pack_pops`."""
        return list(zip(children, fixes))


@dataclass
class RoundTrace:
    """Per-fix scheduling tokens of one eRepair or hRepair run.

    ``tokens[i]`` tags the i-th fix the phase recorded with
    ``(round, rule_index, candidate_rank)``; sorting the union of shard
    logs by token (stably) reproduces the unsharded emission order.
    """

    tokens: List[Rank] = field(default_factory=list)


def merge_worklist_fixes(
    parts: Sequence[Tuple[Sequence[Fix], WorklistTrace]],
) -> List[Fix]:
    """Interleave per-shard cRepair fixes into the global FIFO order.

    *parts* pairs each shard's fix segment (the deterministic fixes it
    recorded, in order) with its :class:`WorklistTrace`.  The unified
    queue starts with all shards' roots merged by rank; popping a shard
    token consumes that shard's next recorded pop, emits its fixes and
    enqueues one token per child it pushed.
    """
    roots: List[Tuple[Rank, int]] = []
    for shard, (_fixes, trace) in enumerate(parts):
        expected = len(trace.root_ranks) + sum(c for c, _f in trace.pops)
        if expected != len(trace.pops):
            raise ValueError(
                f"inconsistent worklist trace for shard {shard}: "
                f"{len(trace.pops)} pops vs {expected} pushes"
            )
        for rank in trace.root_ranks:
            roots.append((rank, shard))
    roots.sort()

    queue = deque(shard for _rank, shard in roots)
    next_pop = [0] * len(parts)
    next_fix = [0] * len(parts)
    out: List[Fix] = []
    while queue:
        shard = queue.popleft()
        fixes, trace = parts[shard]
        children, n_fixes = trace.pops[next_pop[shard]]
        next_pop[shard] += 1
        if n_fixes:
            out.extend(fixes[next_fix[shard] : next_fix[shard] + n_fixes])
            next_fix[shard] += n_fixes
        if children:
            queue.extend([shard] * children)
    for shard, (fixes, _trace) in enumerate(parts):
        if next_fix[shard] != len(fixes):
            raise ValueError(
                f"worklist merge consumed {next_fix[shard]} of "
                f"{len(fixes)} fixes of shard {shard}"
            )
    return out


def merge_round_fixes(
    parts: Sequence[Tuple[Sequence[Fix], RoundTrace]],
) -> List[Fix]:
    """Interleave per-shard round-driven fixes (eRepair/hRepair) into the
    global emission order: a stable sort of the concatenated logs by
    their ``(round, rule, candidate rank)`` tokens."""
    tagged: List[Tuple[Rank, Fix]] = []
    for shard, (fixes, trace) in enumerate(parts):
        if len(fixes) != len(trace.tokens):
            raise ValueError(
                f"round trace of shard {shard} tags {len(trace.tokens)} "
                f"fixes but the segment holds {len(fixes)}"
            )
        tagged.extend(zip(trace.tokens, fixes))
    tagged.sort(key=lambda pair: pair[0])
    return [fix for _token, fix in tagged]
