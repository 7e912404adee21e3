"""Partition-parallel sharded cleaning: plan, fan out, merge — exactly.

The three repair phases are embarrassingly parallel along the blocking
structure of the rules themselves: a CFD violation never couples tuples
that disagree on the rule's LHS key (``CFD.key_attrs()``), an MD check
couples one data tuple with the *immutable* master relation only, and
constant-CFD checks are per-tuple.  Co-partitioning the working relation
so that no variable-CFD group straddles shards therefore lets one
:class:`~repro.pipeline.session.CleaningSession` per shard run every
phase independently — the pay-once-then-answer-under-updates shape of
the session, scaled out across processes.

Plan
----
:class:`ShardPlanner` computes the *coarsest common refinement* of all
rules' shard keys: tuples are unioned whenever they share a variable-CFD
group (``t[X] ≍ tp[X]`` and equal LHS projection — a hard correctness
constraint) or an MD equality-blocking group
(``MD.blocking_key_attrs()`` — an affinity constraint that keeps the
per-shard MD match caches as hot as the unsharded one; pure-similarity
MDs, whose blocking key is empty, are per-tuple against master and add
no constraint).  The resulting connected components are packed into
``n_shards`` balanced bins.  When the rule keys are incompatible — one
component swallows the relation, as chained FDs over a denormalized
schema can arrange — the plan *degenerates to a single shard* and the
sharded session behaves exactly like (and costs no more than) an
unsharded one.

Exactness
---------
Because shards never interact, an unsharded run's behaviour restricted
to one shard's tuples *is* the shard run (same fixes, same relative
order).  Two mechanisms turn that into byte-identical observable state:

* **Scheduling traces** (:mod:`repro.core.trace`): each shard session
  records how its phases scheduled work, and the coordinator replays
  the unified schedule to interleave per-shard fix logs into the exact
  unsharded emission order.
* **Group-key collision detection**: the plan is computed on *base*
  group keys, but repairs may rewrite LHS cells and create new groups
  mid-run.  Every shard session tracks the set of group keys that ever
  existed per rule spec; if the same key ever materializes in two
  shards, the shard-local trajectories may have diverged from the
  global one, so the coordinator merges the colliding shards and
  re-cleans.  Shard count strictly decreases per retry, so the loop
  terminates — in the worst case at one shard, which is trivially
  exact.

Incremental re-planning
-----------------------
Shards carry **component-stable ids**: when a shard is (re)cleaned its
id is derived from the content of its tid set (a digest of the sorted
tids), and that id addresses the shard's long-lived worker session for
as long as the shard exists.  A re-plan — triggered by inserts or
variable-CFD-premise edits — recomputes the coupling components of the
edited base and *keeps* every previous shard whose membership is still
exactly a union of current components and whose tuples the delta never
touched: those shards' sessions (match caches, group stores, fix-log
segments, traces) are reused verbatim, with **zero** coordinator↔worker
traffic.  Only components orphaned by the delta are re-packed and
re-cleaned, so ``stats["shards_recleaned"]`` tracks the *touched*
components, not the shard count.  Reuse is sound because shards never
interact while the collision certificate holds — and the certificate is
re-checked across reused *and* fresh shards after every re-plan, with
the usual merge-and-retry (and, ultimately, the single-shard plan) as
the escape hatch; ``reuse_sessions=False`` forces the PR 3 behaviour of
rebuilding every shard on every re-plan.

Batching and the wire format
----------------------------
``apply_many([δ1, δ2, …])`` (and the ``buffer()``/``flush()`` pair)
coalesces several changesets into one micro-batch: ops are routed and
shipped as **one** per-shard delta per coordinator round-trip, and a
batch that forces a re-plan pays for it once instead of once per
changeset.  Everything that crosses the process boundary travels in the
columnar form of :mod:`repro.pipeline.payload` — typed arrays over a
per-message value dictionary instead of pickled object graphs — and the
``n_workers=1`` serial executor skips serialization entirely (raw
in-process objects; regression-tested to never call ``pickle.dumps``).

``apply(changeset)`` routes each op to the shard owning its tid and
mirrors the unsharded session's strategy choice: deltas that are scoped
in every shard stay scoped (cost ∝ delta, no cross-process state
shipping beyond the ops and the touched rows); inserts and edits to any
variable-CFD premise attribute — edits that could re-shard tuples — take
the re-plan path, which is the sharded counterpart of the session's warm
full replay (master-side indexes stay hot in every worker process).

Equivalence — repaired relation, per-cell costs, satisfaction verdict
and the *full ordered fix log* — is property-tested against an unsharded
session in ``tests/properties/test_property_sharding.py`` and re-checked
by the ``sharded`` and ``replan`` scenarios of
``benchmarks/perf_report.py``.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.consistency import assert_consistent
from repro.constraints.cfd import CFD
from repro.constraints.md import MD, NegativeMD, embed_negative
from repro.core.crepair import CRepairResult
from repro.core.erepair import ERepairResult
from repro.core.fixes import Fix, FixLog
from repro.core.hrepair import HRepairResult
from repro.core.trace import merge_round_fixes, merge_worklist_fixes
from repro.core.uniclean import CleaningResult, UniCleanConfig
from repro.exceptions import (
    DataError,
    RetriesExhausted,
    ShardTimeout,
    TornFrame,
    WorkerFailure,
)
from repro.pipeline import faults, payload
from repro.pipeline.changeset import CellEdit, Changeset, Delete, Insert, Op
from repro.pipeline.faults import InjectedFault
from repro.pipeline.supervision import (
    SlotFailure,
    SupervisedSlot,
    SupervisionPolicy,
)
from repro.pipeline.session import ApplyResult, CleaningSession
from repro.relational.relation import Relation
from repro.relational.schema import Schema

Cell = Tuple[int, str]
Key = Tuple[Any, ...]
Spec = Tuple

_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _shard_content_id(tids: Sequence[int]) -> str:
    """A content-derived shard id: digest of the (sorted) tid set.

    Stable across processes and re-plans — the property that lets a
    re-plan recognise an unchanged shard and address its live session.
    """
    return hashlib.blake2b(
        array("q", tids).tobytes(), digest_size=8
    ).hexdigest()


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass
class ShardPlan:
    """A co-partitioning of a relation's tids into shards.

    ``shards[i]`` is the sorted tid list of shard *i*; ``shard_of`` is
    the inverse map; ``ids[i]`` is the shard's stable session address
    (see :func:`_shard_content_id`).  ``n_components`` counts the
    connected components of the group-coupling graph (the finest legal
    partition); ``degenerate`` flags a single-shard plan with ``reason``
    saying why.
    """

    shards: List[List[int]]
    shard_of: Dict[int, int]
    n_components: int
    degenerate: bool = False
    reason: str = ""
    ids: List[str] = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        return len(self.shards)


class ShardPlanner:
    """Computes shard plans from the rules' own blocking structure.

    Parameters
    ----------
    cfds, mds:
        *Normalized* rule sets (as a session holds them).
    include_md_affinity:
        Also co-locate MD equality-blocking groups (cache affinity; see
        the module docstring).  Correctness never requires it.
    """

    def __init__(
        self,
        cfds: Sequence[CFD],
        mds: Sequence[MD] = (),
        include_md_affinity: bool = True,
    ):
        self.variable_cfds = [cfd for cfd in cfds if cfd.is_variable]
        self.mds = [md for md in mds if md.blocking_key_attrs()]
        self.include_md_affinity = include_md_affinity

    def partition_attrs(self) -> frozenset:
        """Attributes whose *edit* can move a tuple between variable-CFD
        groups — and hence, potentially, between shards."""
        out: Set[str] = set()
        for cfd in self.variable_cfds:
            out.update(cfd.lhs)
        return frozenset(out)

    def components(self, relation: Relation) -> List[List[int]]:
        """Connected components of the group-coupling graph — the finest
        legal partition of *relation* — biggest first (ties by smallest
        member tid), members ascending."""
        tids = list(relation.tids())
        if not tids:
            return []
        parent: Dict[int, int] = {tid: tid for tid in tids}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for cfd in self.variable_cfds:
            first_of: Dict[Key, int] = {}
            lhs = cfd.lhs
            for t in relation:
                if not cfd.lhs_matches(t):
                    continue
                key = t.project(lhs)
                anchor = first_of.setdefault(key, t.tid)
                if anchor != t.tid:
                    union(anchor, t.tid)
        if self.include_md_affinity:
            for md in self.mds:
                attrs = md.blocking_key_attrs()
                first_of = {}
                for t in relation:
                    if t.has_null(attrs):
                        continue  # null keys never satisfy an equality premise
                    key = t.project(attrs)
                    anchor = first_of.setdefault(key, t.tid)
                    if anchor != t.tid:
                        union(anchor, t.tid)

        components: Dict[int, List[int]] = {}
        for tid in tids:
            components.setdefault(find(tid), []).append(tid)
        out = [sorted(component) for component in components.values()]
        out.sort(key=lambda component: (-len(component), component[0]))
        return out

    @staticmethod
    def pack(components: List[List[int]], n_bins: int) -> List[List[int]]:
        """Deterministic balanced packing: each component (expected
        biggest-first) goes into the currently lightest bin."""
        bins = max(1, min(n_bins, len(components)))
        shards: List[List[int]] = [[] for _ in range(bins)]
        loads = [0] * bins
        for component in components:
            target = min(range(bins), key=lambda i: (loads[i], i))
            shards[target].extend(component)
            loads[target] += len(component)
        for shard in shards:
            shard.sort()
        return shards

    def plan(self, relation: Relation, n_shards: int) -> ShardPlan:
        """Partition *relation* into at most *n_shards* co-partitions."""
        tids = list(relation.tids())
        if n_shards <= 1 or len(tids) <= 1:
            return ShardPlan(
                shards=[tids],
                shard_of={tid: 0 for tid in tids},
                n_components=1 if tids else 0,
                degenerate=True,
                reason="single shard requested",
            )
        ordered = self.components(relation)
        if len(ordered) == 1:
            return ShardPlan(
                shards=[tids],
                shard_of={tid: 0 for tid in tids},
                n_components=1,
                degenerate=True,
                reason="rule keys are incompatible: one coupling component",
            )
        shards = self.pack(ordered, n_shards)
        shard_of = {
            tid: index for index, shard in enumerate(shards) for tid in shard
        }
        return ShardPlan(
            shards=shards,
            shard_of=shard_of,
            n_components=len(ordered),
        )


# ----------------------------------------------------------------------
# Worker protocol (runs in the coordinator process or in pool workers)
# ----------------------------------------------------------------------
@dataclass
class _PhaseCounts:
    crepair: Optional[Dict[str, int]] = None
    erepair: Optional[Dict[str, int]] = None
    hrepair: Optional[Dict[str, int]] = None


@dataclass
class _CleanOutcome:
    """What one shard ships back after a (re)clean."""

    shard_id: str
    repaired: Optional[Relation]  # None when the caller knows state is unchanged
    segments: Dict[str, List[Fix]]
    traces: Dict[str, Any]
    costs: Dict[Cell, float]
    clean: bool
    counts: _PhaseCounts
    timings: Dict[str, float]
    ever_keys: Dict[Spec, Set[Key]]
    #: Coordinator-side flag: whether ``segments``/``traces`` still
    #: describe a from-scratch clean of the shard's *current* base
    #: (cleared once a scoped apply touches the shard).
    fullform: bool = True


@dataclass
class _ApplyOutcome:
    """What one shard ships back after an apply."""

    shard_id: str
    mode: str  # "scoped" | "full"
    full: Optional[_CleanOutcome] = None
    # Scoped fields:
    perturbed: List[Cell] = field(default_factory=list)
    dead: List[int] = field(default_factory=list)
    rows: Dict[int, Tuple[List[Any], List[Optional[float]]]] = field(
        default_factory=dict
    )
    segments: Dict[str, List[Fix]] = field(default_factory=dict)
    traces: Dict[str, Any] = field(default_factory=dict)
    costs: Dict[Cell, float] = field(default_factory=dict)
    clean: bool = True
    counts: _PhaseCounts = field(default_factory=_PhaseCounts)
    timings: Dict[str, float] = field(default_factory=dict)
    ever_keys: Dict[Spec, Set[Key]] = field(default_factory=dict)
    replays: int = 0
    affected: int = 0
    affected_cells: int = 0


def _result_counts(c_result, e_result, h_result) -> _PhaseCounts:
    counts = _PhaseCounts()
    if c_result is not None:
        counts.crepair = {
            "deterministic_fixes": c_result.deterministic_fixes,
            "confirmed_cells": c_result.confirmed_cells,
            "rules_fired": c_result.rules_fired,
        }
    if e_result is not None:
        counts.erepair = {
            "reliable_fixes": e_result.reliable_fixes,
            "rounds": e_result.rounds,
        }
    if h_result is not None:
        counts.hrepair = {
            "possible_fixes": h_result.possible_fixes,
            "merges": h_result.merges,
            "upgrades": h_result.upgrades,
            "unresolved": h_result.unresolved,
            "rounds": h_result.rounds,
        }
    return counts


class _WorkerState:
    """Per-process shard host: long-lived sessions + shared master-side
    indexes (blocking indexes and MD match caches are built once per
    process and reused by every shard session it hosts).  Sessions are
    keyed by the shard's stable content id, so they survive re-plans
    that leave the shard's membership alone."""

    def __init__(
        self,
        cfds: Sequence[CFD],
        mds: Sequence[MD],
        master: Optional[Relation],
        config: UniCleanConfig,
        track_legacy_bytes: bool = False,
    ):
        self.cfds = list(cfds)
        self.mds = list(mds)
        self.master = master
        self.config = config
        self.track_legacy_bytes = track_legacy_bytes
        self.md_indexes: Dict[str, Any] = {}
        self.sessions: Dict[str, CleaningSession] = {}
        self._schemas: Dict[Tuple[str, Tuple[str, ...]], Schema] = {}
        for cfd in self.cfds:
            schema = cfd.schema
            self._schemas.setdefault((schema.name, schema.names), schema)
        if master is not None:
            schema = master.schema
            self._schemas.setdefault((schema.name, schema.names), schema)

    def schema_lookup(
        self, name: str, names: Tuple[str, ...]
    ) -> Optional[Schema]:
        """Resolve (and cache) the schema of a decoded relation, reusing
        the instance the rules/master already carry when shapes match."""
        key = (name, names)
        schema = self._schemas.get(key)
        if schema is None:
            schema = self._schemas[key] = Schema(name, names)
        return schema

    # -- lifecycle -----------------------------------------------------
    def reset(self, _shard_id) -> bool:
        for session in self.sessions.values():
            session.close()
        self.sessions.clear()
        return True

    def retain_shards(self, _shard_id, keep: Sequence[str]) -> bool:
        """Close every hosted session whose shard id is not in *keep* —
        how a re-plan retires shards whose membership changed."""
        wanted = set(keep)
        for sid in list(self.sessions):
            if sid not in wanted:
                self.sessions.pop(sid).close()
        return True

    def merge_ever_keys(
        self, shard_id: str, ever_keys: Dict[Spec, Set[Key]]
    ) -> bool:
        """Union remembered group keys into a rebuilt session.

        Crash recovery rebuilds a lost shard session with a fresh
        ``clean_shard`` of its current base — which resets the session's
        ``ever_group_keys`` to the fresh clean's.  The collision
        certificate, however, must keep every key the lost session ever
        materialized, so the coordinator ships its stored view's keys
        back in.  A superset only ever causes *more* shard merging,
        which is always exact (any topology yields byte-identical
        observables)."""
        session = self.sessions[shard_id]
        for spec, keys in ever_keys.items():
            session.ever_group_keys.setdefault(spec, set()).update(keys)
        return True

    # -- operations ----------------------------------------------------
    def clean_shard(self, shard_id: str, relation: Relation) -> _CleanOutcome:
        old = self.sessions.pop(shard_id, None)
        if old is not None:
            old.close()
        session = CleaningSession.from_normalized(
            self.cfds,
            self.mds,
            self.master,
            self.config,
            md_indexes=self.md_indexes,
            collect_traces=True,
        )
        self.sessions[shard_id] = session
        result = session.clean(relation)
        return self._clean_outcome(shard_id, session, result.clean, result.timings)

    def reclean_shard(self, shard_id: str) -> _CleanOutcome:
        """Re-clean from the shard's current (possibly just-edited) base:
        deterministic, so the shard state is reproduced, and the
        log/traces become full-form — used when a re-plan or another
        shard's fallback demands a full-form merge.  Ships **no**
        relation: the session's exactness invariant (a scoped apply
        leaves exactly the state a from-scratch clean of the edited base
        produces, and every scoped apply ships its perturbed rows) means
        the coordinator's merged working already equals this re-clean's
        result, so only the log/trace/cost metadata needs to travel."""
        session = self.sessions[shard_id]
        result = session.reclean()
        outcome = self._clean_outcome(
            shard_id, session, result.clean, result.timings
        )
        outcome.repaired = None
        return outcome

    def snapshot_shard(self, shard_id: str) -> bytes:
        """Serialize the hosted session of *shard_id* (environment-free:
        rules, config and master stay with the worker — see
        :mod:`repro.pipeline.snapshot`)."""
        from repro.pipeline import snapshot

        return snapshot.encode_session(
            self.sessions[shard_id], include_environment=False
        )

    def restore_shard(self, shard_id: str, blob: bytes) -> bool:
        """Rebuild the session of *shard_id* from a :meth:`snapshot_shard`
        blob, re-attaching it to this worker's rules, master data and
        shared master-side indexes (whose match caches the snapshot
        re-warms)."""
        from repro.pipeline import snapshot

        old = self.sessions.pop(shard_id, None)
        if old is not None:
            old.close()
        self.sessions[shard_id] = snapshot.decode_session(
            blob,
            environment=(
                self.cfds, self.mds, self.master, self.config, self.md_indexes
            ),
        )
        return True

    def apply_shard(self, shard_id: str, ops: Sequence[Op]) -> _ApplyOutcome:
        session = self.sessions[shard_id]
        out = session.apply(Changeset(list(ops)))
        if out.full_reclean:
            return _ApplyOutcome(
                shard_id=shard_id,
                mode="full",
                full=self._clean_outcome(
                    shard_id, session, out.clean, out.timings
                ),
            )
        schema_names = session.working.schema.names
        perturbed = sorted(session.last_perturbed)
        rows: Dict[int, Tuple[List[Any], List[Optional[float]]]] = {}
        for tid in {tid for tid, _attr in perturbed}:
            t = session.working.by_tid(tid)
            rows[tid] = (
                [t[attr] for attr in schema_names],
                [t.conf(attr) for attr in schema_names],
            )
        return _ApplyOutcome(
            shard_id=shard_id,
            mode="scoped",
            perturbed=perturbed,
            dead=[op.tid for op in ops if isinstance(op, Delete)],
            rows=rows,
            segments={k: list(v) for k, v in session.last_segments.items()},
            traces=dict(session.last_traces),
            costs=dict(session._cell_costs),
            clean=out.clean,
            counts=_result_counts(
                out.crepair_result, out.erepair_result, out.hrepair_result
            ),
            timings=out.timings,
            ever_keys={s: set(k) for s, k in session.ever_group_keys.items()},
            replays=out.replays,
            affected=out.affected,
            affected_cells=out.affected_cells,
        )

    def is_clean_shard(self, shard_id: str) -> bool:
        return self.sessions[shard_id].is_clean()

    # -- helpers -------------------------------------------------------
    def _clean_outcome(
        self,
        shard_id: str,
        session: CleaningSession,
        clean: bool,
        timings: Dict[str, float],
    ) -> _CleanOutcome:
        assert session.working is not None
        return _CleanOutcome(
            shard_id=shard_id,
            repaired=session.working.clone(),
            segments={k: list(v) for k, v in session.last_segments.items()},
            traces=dict(session.last_traces),
            costs=dict(session._cell_costs),
            clean=clean,
            counts=_result_counts(
                session._last_c_result,
                session._last_e_result,
                session._last_h_result,
            ),
            timings=dict(timings),
            ever_keys={s: set(k) for s, k in session.ever_group_keys.items()},
        )


# ----------------------------------------------------------------------
# Wire framing (process pool only — the serial runner ships raw objects)
# ----------------------------------------------------------------------
def _encode_request(
    shard_id,
    method: str,
    args: tuple,
    fault: Optional[Tuple[str, Optional[float]]] = None,
) -> bytes:
    """Frame one worker call as a columnar message (see
    :mod:`repro.pipeline.payload`) inside a CRC envelope
    (:func:`repro.pipeline.payload.frame`).  *fault* is an optional
    one-shot worker-side fault directive (:mod:`repro.pipeline.faults`)
    the coordinator embeds for deterministic fault injection."""
    table = payload.ValueTable()
    body: Dict[str, Any] = {}
    if method == "clean_shard":
        body["relation"] = payload.encode_relation(args[0], table)
    elif method == "apply_shard":
        body["ops"] = payload.encode_ops(args[0], table)
    elif method == "retain_shards":
        body["keep"] = list(args[0])
    elif method == "restore_shard":
        body["blob"] = args[0]  # already framed+checksummed snapshot bytes
    elif args:
        body["args"] = args
    message = {
        "id": shard_id, "method": method, "body": body, "values": table.values,
    }
    if fault is not None:
        message["fault"] = fault
    return payload.frame(pickle.dumps(message, _PROTOCOL))


def _decode_request(blob: bytes, state: _WorkerState):
    return _decode_request_message(
        pickle.loads(payload.unframe(blob, "request")), state
    )


def _decode_request_message(message: Dict[str, Any], state: _WorkerState):
    method = message["method"]
    body = message["body"]
    values = message["values"]
    if method == "clean_shard":
        args: tuple = (
            payload.decode_relation(
                body["relation"], values, state.schema_lookup
            ),
        )
    elif method == "apply_shard":
        args = (payload.decode_ops(body["ops"], values),)
    elif method == "retain_shards":
        args = (body["keep"],)
    elif method == "restore_shard":
        args = (body["blob"],)
    else:
        args = tuple(body.get("args", ()))
    return message["id"], method, args


def _encode_clean_outcome(
    outcome: _CleanOutcome, table: payload.ValueTable
) -> Dict[str, Any]:
    return {
        "shard_id": outcome.shard_id,
        "repaired": (
            payload.encode_relation(outcome.repaired, table)
            if outcome.repaired is not None
            else None
        ),
        "segments": {
            phase: payload.encode_fixes(fixes, table)
            for phase, fixes in outcome.segments.items()
        },
        "traces": {
            phase: payload.encode_trace(trace, table)
            for phase, trace in outcome.traces.items()
        },
        "costs": payload.encode_costs(outcome.costs, table),
        "clean": outcome.clean,
        "counts": outcome.counts,
        "timings": outcome.timings,
        "ever": payload.encode_ever_keys(outcome.ever_keys, table),
    }


def _decode_clean_outcome(blob: Dict[str, Any], values: List[Any]) -> _CleanOutcome:
    return _CleanOutcome(
        shard_id=blob["shard_id"],
        repaired=(
            payload.decode_relation(blob["repaired"], values)
            if blob["repaired"] is not None
            else None
        ),
        segments={
            phase: payload.decode_fixes(part, values)
            for phase, part in blob["segments"].items()
        },
        traces={
            phase: payload.decode_trace(part, values)
            for phase, part in blob["traces"].items()
        },
        costs=payload.decode_costs(blob["costs"], values),
        clean=blob["clean"],
        counts=blob["counts"],
        timings=blob["timings"],
        ever_keys=payload.decode_ever_keys(blob["ever"], values),
    )


def _encode_apply_outcome(
    outcome: _ApplyOutcome, table: payload.ValueTable
) -> Dict[str, Any]:
    return {
        "shard_id": outcome.shard_id,
        "mode": outcome.mode,
        "full": (
            _encode_clean_outcome(outcome.full, table)
            if outcome.full is not None
            else None
        ),
        "perturbed": payload.encode_cells(outcome.perturbed, table),
        "dead": payload.pack_ints(outcome.dead),
        "rows": payload.encode_rows(outcome.rows, table),
        "segments": {
            phase: payload.encode_fixes(fixes, table)
            for phase, fixes in outcome.segments.items()
        },
        "traces": {
            phase: payload.encode_trace(trace, table)
            for phase, trace in outcome.traces.items()
        },
        "costs": payload.encode_costs(outcome.costs, table),
        "clean": outcome.clean,
        "counts": outcome.counts,
        "timings": outcome.timings,
        "ever": payload.encode_ever_keys(outcome.ever_keys, table),
        "replays": outcome.replays,
        "affected": outcome.affected,
        "affected_cells": outcome.affected_cells,
    }


def _decode_apply_outcome(blob: Dict[str, Any], values: List[Any]) -> _ApplyOutcome:
    return _ApplyOutcome(
        shard_id=blob["shard_id"],
        mode=blob["mode"],
        full=(
            _decode_clean_outcome(blob["full"], values)
            if blob["full"] is not None
            else None
        ),
        perturbed=payload.decode_cells(blob["perturbed"], values),
        dead=list(blob["dead"]),
        rows=payload.decode_rows(blob["rows"], values),
        segments={
            phase: payload.decode_fixes(part, values)
            for phase, part in blob["segments"].items()
        },
        traces={
            phase: payload.decode_trace(part, values)
            for phase, part in blob["traces"].items()
        },
        costs=payload.decode_costs(blob["costs"], values),
        clean=blob["clean"],
        counts=blob["counts"],
        timings=blob["timings"],
        ever_keys=payload.decode_ever_keys(blob["ever"], values),
        replays=blob["replays"],
        affected=blob["affected"],
        affected_cells=blob["affected_cells"],
    )


def _encode_response(result: Any, track_legacy_bytes: bool) -> bytes:
    legacy = (
        len(pickle.dumps(result, _PROTOCOL)) if track_legacy_bytes else 0
    )
    table = payload.ValueTable()
    if isinstance(result, _CleanOutcome):
        body: Tuple[str, Any] = ("clean", _encode_clean_outcome(result, table))
    elif isinstance(result, _ApplyOutcome):
        body = ("apply", _encode_apply_outcome(result, table))
    else:
        body = ("raw", result)
    return pickle.dumps(
        {"body": body, "values": table.values, "legacy": legacy}, _PROTOCOL
    )


def _decode_response(blob: bytes) -> Tuple[Any, int]:
    message = pickle.loads(blob)
    tag, body = message["body"]
    values = message["values"]
    if tag == "clean":
        result: Any = _decode_clean_outcome(body, values)
    elif tag == "apply":
        result = _decode_apply_outcome(body, values)
    else:
        result = body
    return result, message["legacy"]


# Module-level hooks for ProcessPoolExecutor (must be picklable by name).
_PROCESS_STATE: Optional[_WorkerState] = None


def _process_init(spec_blob: bytes) -> None:
    global _PROCESS_STATE
    cfds, mds, master, config, track_legacy_bytes = pickle.loads(spec_blob)
    _PROCESS_STATE = _WorkerState(
        cfds, mds, master, config, track_legacy_bytes=track_legacy_bytes
    )


def _process_call(blob: bytes) -> bytes:
    assert _PROCESS_STATE is not None, "worker not initialized"
    # Frame validation and the fault directive both run BEFORE the
    # request is decoded into a state-changing call: a torn request and
    # every worker-side injected fault are provably pre-execution, so a
    # supervised re-send of the same request is always safe.
    message = pickle.loads(payload.unframe(blob, "request"))
    faults.obey(message.get("fault"))
    shard_id, method, args = _decode_request_message(message, _PROCESS_STATE)
    result = getattr(_PROCESS_STATE, method)(shard_id, *args)
    return payload.frame(
        _encode_response(result, _PROCESS_STATE.track_legacy_bytes)
    )


class _SerialRunner:
    """In-process execution (``n_workers=1``): same protocol, raw Python
    objects end to end — **zero** serialization (no ``pickle.dumps``
    anywhere on this path; regression-tested).

    Keeping the serial path on the identical worker code means the
    debugging story ("run it serial, step through") exercises the exact
    production logic.  The fault injector is consulted per dispatch so
    its hit counters advance identically to the process runner's, but
    only the ``kill`` (coordinator SIGKILL — the crash-recovery drill)
    and ``delay`` kinds act here: there is no worker process to crash,
    hang or respawn.
    """

    bytes_sent = 0
    bytes_received = 0
    legacy_bytes_sent = 0
    legacy_bytes_received = 0
    dispatch_retries = 0
    dispatch_timeouts = 0
    worker_respawns = 0
    serial_fallbacks = 0

    def __init__(self, cfds, mds, master, config):
        self._state = _WorkerState(cfds, mds, master, config)

    def run(self, calls: Sequence[Tuple[str, str, tuple]]) -> List[Any]:
        out = []
        for shard_id, method, args in calls:
            self._consult_faults(method, shard_id)
            out.append(getattr(self._state, method)(shard_id, *args))
        return out

    def broadcast(self, method: str, args: tuple = ()) -> None:
        self._consult_faults(method, None)
        getattr(self._state, method)(None, *args)

    @staticmethod
    def _consult_faults(method: str, shard_id: Optional[str]) -> None:
        injector = faults.active()
        if injector is None:
            return
        plan = injector.plan_dispatch(method, shard_id)
        if plan.kill:
            faults.kill_self()
        if plan.directive is not None and plan.directive[0] == "delay":
            faults.obey(plan.directive)

    def close(self) -> None:
        self._state.reset(None)


class _ProcessRunner:
    """The supervised runner: one single-worker pool per slot; a shard's
    slot is derived from its content id, so shard→slot affinity survives
    re-plans and every live shard session stays in its worker across
    calls.  All traffic is framed through the columnar codecs inside a
    CRC envelope, and the byte counters record exactly what crossed the
    boundary.

    Supervision (see :mod:`repro.pipeline.supervision`): every dispatch
    is awaited under the policy's per-dispatch timeout with a bounded
    per-slot retry budget.  Failures split into **soft** (the worker
    provably never executed the call — a torn request or an injected
    pre-execution error — so the one request is simply re-sent) and
    **hard** (the worker is dead or of unknown state — a broken pool, a
    timeout, or a torn *response* after execution): the slot is killed,
    respawned, its resident shard sessions are rebuilt from the
    coordinator's base via *recovery* (exact, because session state is a
    deterministic function of the shard base), and the slot's in-flight
    batch is re-run.  When the budget runs out the slot either escalates
    to an in-process serial fallback (``policy.serial_fallback``) or the
    typed failure propagates (:class:`~repro.exceptions.RetriesExhausted`
    with the last failure as ``__cause__``; the direct typed error when
    ``max_retries == 0``).
    """

    def __init__(self, cfds, mds, master, config, n_workers: int,
                 track_legacy_bytes: bool = False,
                 policy: Optional[SupervisionPolicy] = None,
                 recovery=None):
        self._spec = (cfds, mds, master, config)
        spec_blob = pickle.dumps(
            (cfds, mds, master, config, track_legacy_bytes)
        )

        def _spawn() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=1, initializer=_process_init, initargs=(spec_blob,)
            )

        self._slots = [SupervisedSlot(i, _spawn) for i in range(n_workers)]
        self.policy = policy if policy is not None else SupervisionPolicy()
        #: ``recovery(exclude)`` → the worker-call sequence that rebuilds
        #: every live shard session (minus *exclude*) from coordinator
        #: state; installed by the owning session.
        self._recovery = recovery
        self._fallback_state: Optional[_WorkerState] = None
        self.track_legacy_bytes = track_legacy_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        self.legacy_bytes_sent = 0
        self.legacy_bytes_received = 0
        self.dispatch_retries = 0
        self.dispatch_timeouts = 0
        self.worker_respawns = 0
        self.serial_fallbacks = 0

    # -- addressing ----------------------------------------------------
    def _slot_index(self, shard_id: Union[str, int, None]) -> int:
        if isinstance(shard_id, str):
            return int(shard_id, 16) % len(self._slots)
        # legacy / broadcast addressing
        return (shard_id or 0) % len(self._slots)

    # -- the public runner protocol ------------------------------------
    def run(self, calls: Sequence[Tuple[str, str, tuple]]) -> List[Any]:
        results: List[Any] = [None] * len(calls)
        by_slot: Dict[int, List[int]] = {}
        for i, (shard_id, _method, _args) in enumerate(calls):
            by_slot.setdefault(self._slot_index(shard_id), []).append(i)
        # Submit every slot's first attempt up front so healthy slots
        # overlap; retries then serialize per slot.
        first: Dict[int, Any] = {}
        for index in sorted(by_slot):
            slot = self._slots[index]
            if slot.escalated:
                first[index] = None
                continue
            try:
                first[index] = self._submit_batch(slot, by_slot[index], calls)
            except SlotFailure as failure:
                first[index] = failure
        for index in sorted(by_slot):
            self._run_slot(
                self._slots[index], by_slot[index], calls, results,
                first[index],
            )
        return results

    def broadcast(self, method: str, args: tuple = ()) -> None:
        call = (None, method, args)
        for slot in self._slots:
            if not slot.escalated:
                self._broadcast_slot(slot, call)
        if self._fallback_state is not None:
            getattr(self._fallback_state, method)(None, *args)

    def close(self) -> None:
        for slot in self._slots:
            slot.kill()
        if self._fallback_state is not None:
            self._fallback_state.reset(None)
            self._fallback_state = None

    # -- encoding and single dispatches --------------------------------
    def _encode_call(self, call: Tuple[Any, str, tuple]):
        shard_id, method, args = call
        injector = faults.active()
        plan = (
            injector.plan_dispatch(method, shard_id)
            if injector is not None
            else None
        )
        if plan is not None and plan.kill:
            faults.kill_self()
        blob = _encode_request(
            shard_id, method, args,
            fault=plan.directive if plan is not None else None,
        )
        if plan is not None and plan.torn_request:
            blob = faults.mangle(blob)
        self.bytes_sent += len(blob)
        if self.track_legacy_bytes:
            self.legacy_bytes_sent += len(
                pickle.dumps((shard_id, method, args), _PROTOCOL)
            )
        return blob, plan

    def _submit_one(self, slot: SupervisedSlot, call, index: int):
        blob, plan = self._encode_call(call)
        try:
            future = slot.submit(_process_call, blob)
        except WorkerFailure as exc:
            slot.kill(primary=exc)
            raise SlotFailure(exc, hard=True)
        return index, future, plan

    def _submit_batch(self, slot: SupervisedSlot, indices, calls):
        return [self._submit_one(slot, calls[i], i) for i in indices]

    def _receive(self, slot: SupervisedSlot, future, plan) -> Any:
        """Await one response and decode it; every failure after this
        point is **hard** (the worker may have executed the call)."""
        try:
            response = slot.result(future, self.policy.timeout)
        except ShardTimeout as exc:
            self.dispatch_timeouts += 1
            slot.kill(primary=exc)  # never leave a hung worker behind
            raise SlotFailure(exc, hard=True)
        except WorkerFailure as exc:
            slot.kill(primary=exc)
            raise SlotFailure(exc, hard=True)
        if plan is not None and plan.torn_response:
            response = faults.mangle(response)
        try:
            body = payload.unframe(response, "response")
        except TornFrame as exc:
            # The worker DID execute the call; only the reply was lost.
            # Re-running e.g. apply_shard against the same session would
            # double-apply, so recovery must rebuild the slot's state.
            raise SlotFailure(exc, hard=True)
        self.bytes_received += len(response)
        result, legacy = _decode_response(body)
        self.legacy_bytes_received += legacy
        return result

    def _dispatch_once(self, slot: SupervisedSlot, call) -> Any:
        """One supervised round-trip with no soft-retry absorption: any
        failure surfaces as a hard :class:`SlotFailure` (the caller's
        retry loop respawns and re-runs — recovery calls and broadcasts
        are safe to repeat against a rebuilt slot)."""
        _index, future, plan = self._submit_one(slot, call, -1)
        try:
            return self._receive(slot, future, plan)
        except SlotFailure:
            raise
        except (TornFrame, InjectedFault) as exc:
            raise SlotFailure(exc, hard=True)

    # -- the supervised batch loop -------------------------------------
    def _run_slot(self, slot: SupervisedSlot, indices, calls, results, first):
        if slot.escalated:
            self._run_fallback(indices, calls, results)
            return
        budget = [0]
        submitted = first if isinstance(first, list) else None
        pending: Optional[SlotFailure] = (
            first if isinstance(first, SlotFailure) else None
        )
        while True:
            if pending is None:
                try:
                    if submitted is None:
                        submitted = self._submit_batch(slot, indices, calls)
                    self._collect_batch(slot, submitted, calls, results, budget)
                    return
                except SlotFailure as exc:
                    pending = exc
            submitted = None
            budget[0] += 1
            if budget[0] > self.policy.max_retries:
                slot.kill(primary=pending.error)
                if self.policy.serial_fallback:
                    self._escalate(slot, indices, calls, results)
                    return
                self._raise_final(pending)
            self.dispatch_retries += 1
            if pending.hard:
                self.worker_respawns += 1
                slot.respawn(primary=pending.error)
            self.policy.sleep(budget[0] - 1)
            if pending.hard:
                try:
                    self._rebuild_slot(slot, indices, calls)
                except SlotFailure as exc:
                    pending = exc
                    continue
            pending = None

    def _collect_batch(self, slot, submitted, calls, results, budget):
        for position in range(len(submitted)):
            index, future, plan = submitted[position]
            while True:
                try:
                    results[index] = self._receive(slot, future, plan)
                    break
                except SlotFailure:
                    raise
                except (TornFrame, InjectedFault) as exc:
                    # Raised worker-side BEFORE execution (frame checks
                    # and fault directives run first): re-sending this
                    # one request is safe, and the rest of the batch is
                    # untouched.  The soft retry shares the slot budget.
                    budget[0] += 1
                    if budget[0] > self.policy.max_retries:
                        raise SlotFailure(exc, hard=False)
                    self.dispatch_retries += 1
                    self.policy.sleep(budget[0] - 1)
                    index, future, plan = self._submit_one(
                        slot, calls[index], index
                    )

    def _rebuild_slot(self, slot: SupervisedSlot, indices, calls) -> None:
        """Re-create the shard sessions a dead slot hosted.

        Exact because a shard session's state is a deterministic
        function of its current base (the scoped-apply invariant: a
        scoped apply leaves exactly the state a from-scratch clean of
        the edited base produces) — so ``clean_shard`` over the
        coordinator's base, plus the remembered ever-group-keys, equals
        the lost state.  Shards whose in-flight batch call re-establishes
        them anyway (``clean_shard`` / ``restore_shard``) are excluded by
        the recovery callback."""
        if self._recovery is None:
            return
        exclude = {
            calls[i][0]
            for i in indices
            if calls[i][1] in ("clean_shard", "restore_shard")
        }
        for call in self._recovery(exclude):
            if self._slot_index(call[0]) != slot.index:
                continue
            self._dispatch_once(slot, call)

    # -- escalation to the in-process serial fallback ------------------
    def _ensure_fallback(self) -> _WorkerState:
        if self._fallback_state is None:
            cfds, mds, master, config = self._spec
            self._fallback_state = _WorkerState(cfds, mds, master, config)
        return self._fallback_state

    def _escalate(self, slot: SupervisedSlot, indices, calls, results):
        """Degrade the slot to in-process execution: rebuild its resident
        sessions in the coordinator (exact — see :meth:`_rebuild_slot`)
        and run the in-flight batch there.  The slot stays escalated for
        the rest of the runner's life."""
        self.serial_fallbacks += 1
        slot.escalated = True
        state = self._ensure_fallback()
        exclude = {
            calls[i][0]
            for i in indices
            if calls[i][1] in ("clean_shard", "restore_shard")
        }
        if self._recovery is not None:
            for shard_id, method, args in self._recovery(exclude):
                if self._slot_index(shard_id) != slot.index:
                    continue
                getattr(state, method)(shard_id, *args)
        self._run_fallback(indices, calls, results)

    def _run_fallback(self, indices, calls, results) -> None:
        state = self._ensure_fallback()
        for i in indices:
            shard_id, method, args = calls[i]
            results[i] = getattr(state, method)(shard_id, *args)

    # -- supervised broadcasts -----------------------------------------
    def _broadcast_slot(self, slot: SupervisedSlot, call) -> None:
        used = 0
        pending: Optional[SlotFailure] = None
        while True:
            if pending is None:
                try:
                    self._dispatch_once(slot, call)
                    return
                except SlotFailure as exc:
                    pending = exc
            used += 1
            if used > self.policy.max_retries:
                slot.kill(primary=pending.error)
                if self.policy.serial_fallback:
                    self._escalate_broadcast(slot, call)
                    return
                self._raise_final(pending)
            self.dispatch_retries += 1
            if pending.hard:
                self.worker_respawns += 1
                slot.respawn(primary=pending.error)
            self.policy.sleep(used - 1)
            # "reset" wipes every session anyway — skip the rebuild.
            if pending.hard and call[1] != "reset":
                try:
                    self._rebuild_slot(slot, (), [])
                except SlotFailure as exc:
                    pending = exc
                    continue
            pending = None

    def _escalate_broadcast(self, slot: SupervisedSlot, call) -> None:
        self.serial_fallbacks += 1
        slot.escalated = True
        state = self._ensure_fallback()
        if self._recovery is not None and call[1] != "reset":
            for shard_id, method, args in self._recovery(set()):
                if self._slot_index(shard_id) != slot.index:
                    continue
                getattr(state, method)(shard_id, *args)
        # The shared fallback state receives the broadcast itself exactly
        # once, at the end of broadcast().

    def _raise_final(self, failure: SlotFailure) -> None:
        """Surface the budget-exhaustion failure.  With retries enabled
        the wrapper chains the last underlying error as ``__cause__``;
        with ``max_retries=0`` the direct error is raised bare — never
        ``raise x from x``, which would knot the cause chain into a
        cycle (and clobber the error's own ``__cause__``)."""
        if self.policy.max_retries > 0:
            raise RetriesExhausted(
                f"dispatch retries exhausted "
                f"(max_retries={self.policy.max_retries}) and the "
                f"supervision policy forbids the serial fallback"
            ) from failure.error
        raise failure.error


# ----------------------------------------------------------------------
# The sharded session
# ----------------------------------------------------------------------
class ShardedCleaningSession:
    """A drop-in :class:`CleaningSession` that fans the work out across
    co-partitioned shards (see the module docstring for the plan and the
    exactness argument).

    Parameters
    ----------
    cfds, mds, negative_mds, master, config:
        As for :class:`CleaningSession` (normalization, negative-MD
        embedding and the optional consistency check run once, here).
        ``config.use_violation_index`` must stay enabled — collision
        detection rides the shared group stores.
    n_workers:
        Process-pool slots.  ``1`` (the default) runs every shard in
        this process through the identical worker code path — the
        debugging mode, and the right choice for small relations where
        process startup dominates.
    n_shards:
        Target shard count (default ``n_workers``).  The planner may
        produce fewer shards (fewer coupling components), and collision
        retries may merge shards further.
    include_md_affinity:
        Forwarded to :class:`ShardPlanner`.
    reuse_sessions:
        Reuse unaffected shard sessions across re-plans (the default;
        see "Incremental re-planning" in the module docstring).
        ``False`` is the documented escape hatch: every re-plan rebuilds
        every shard from scratch, exactly the PR 3 behaviour.
    track_legacy_bytes:
        Benchmark-only: additionally pickle every payload the PR 3 way
        and record the byte counts in ``stats`` so the columnar savings
        can be asserted structurally (never enable in production — it
        doubles the serialization work).

    Examples
    --------
    >>> session = ShardedCleaningSession(cfds=sigma, mds=gamma,
    ...                                  master=dm, n_workers=4)  # doctest: +SKIP
    >>> result = session.clean(dirty)                             # doctest: +SKIP
    >>> out = session.apply(Changeset().edit(3, "city", "Edi"))   # doctest: +SKIP
    >>> out = session.apply_many([delta1, delta2])                # doctest: +SKIP
    """

    def __init__(
        self,
        cfds: Sequence[CFD] = (),
        mds: Sequence[MD] = (),
        negative_mds: Sequence[NegativeMD] = (),
        master: Optional[Relation] = None,
        config: Optional[UniCleanConfig] = None,
        n_workers: int = 1,
        n_shards: Optional[int] = None,
        include_md_affinity: bool = True,
        reuse_sessions: bool = True,
        track_legacy_bytes: bool = False,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        checkpoint_retain: int = 3,
    ):
        self.config = config or UniCleanConfig()
        self.cfds: List[CFD] = []
        for cfd in cfds:
            self.cfds.extend(cfd.normalize())
        if negative_mds:
            self.mds = embed_negative(list(mds), list(negative_mds))
        else:
            self.mds = []
            for md in mds:
                self.mds.extend(md.normalize())
        if self.mds and master is None:
            raise ValueError("MDs require master data")
        self.master = master
        if self.config.check_consistency and self.cfds:
            assert_consistent(self.cfds[0].schema, self.cfds, self.mds, master)
        self._finish_init(
            n_workers, n_shards, include_md_affinity, reuse_sessions,
            track_legacy_bytes, supervision, checkpoint_dir,
            checkpoint_every, checkpoint_retain,
        )

    @classmethod
    def from_normalized(
        cls,
        cfds: Sequence[CFD],
        mds: Sequence[MD],
        master: Optional[Relation],
        config: UniCleanConfig,
        n_workers: int = 1,
        n_shards: Optional[int] = None,
        include_md_affinity: bool = True,
        reuse_sessions: bool = True,
        track_legacy_bytes: bool = False,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        checkpoint_retain: int = 3,
    ) -> "ShardedCleaningSession":
        """Build a sharded session over already-normalized rules, skipping
        normalization and the consistency analysis — the snapshot-restore
        constructor (:mod:`repro.pipeline.snapshot` persists the session's
        normalized rule forms)."""
        session = cls.__new__(cls)
        session.config = config
        session.cfds = list(cfds)
        session.mds = list(mds)
        session.master = master
        session._finish_init(
            n_workers, n_shards, include_md_affinity, reuse_sessions,
            track_legacy_bytes, supervision, checkpoint_dir,
            checkpoint_every, checkpoint_retain,
        )
        return session

    def _finish_init(
        self,
        n_workers: int,
        n_shards: Optional[int],
        include_md_affinity: bool,
        reuse_sessions: bool,
        track_legacy_bytes: bool,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        checkpoint_retain: int = 3,
    ) -> None:
        if not self.config.use_violation_index:
            raise ValueError(
                "ShardedCleaningSession requires use_violation_index: "
                "group-key collision detection rides the shared group stores"
            )
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.include_md_affinity = include_md_affinity
        self.n_shards = n_shards if n_shards is not None else n_workers
        self.reuse_sessions = reuse_sessions
        self.track_legacy_bytes = track_legacy_bytes
        self.planner = ShardPlanner(
            self.cfds, self.mds, include_md_affinity=self.include_md_affinity
        )
        self._partition_attrs = self.planner.partition_attrs()
        self.supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_retain = checkpoint_retain
        self._ops_since_checkpoint = 0

        self._runner: Optional[Any] = None
        self._closed = False
        #: Poisoned by an unrecovered worker failure: coordinator and
        #: worker state may disagree (observables were never merged), so
        #: apply/save/is_clean refuse until a fresh clean() or restore().
        self._failed = False
        self.plan: Optional[ShardPlan] = None
        self.base: Optional[Relation] = None
        self.working: Optional[Relation] = None
        self.fix_log: FixLog = FixLog()
        self._shard_views: Dict[str, _CleanOutcome] = {}
        #: Shard ids with a live session in some worker.
        self._session_ids: Set[str] = set()
        #: Shard id → current tid membership (aliases ``plan.shards`` so
        #: delete-driven membership edits stay visible) — what crash
        #: recovery restricts the base by to rebuild a lost session.
        self._shard_tids: Dict[str, List[int]] = {}
        #: Changesets queued by :meth:`buffer`, applied by :meth:`flush`.
        self._pending: List[Changeset] = []
        self._last_clean = False
        #: Observability counters: plans, collision retries, apply modes,
        #: per-re-plan shard reuse, coordinator↔worker payload bytes
        #: (zero on the serial path, which never serializes), and the
        #: supervision ledger (retries, timeouts, respawns, fallbacks,
        #: checkpoints).
        self.stats: Dict[str, int] = {
            "plans": 0,
            "collision_retries": 0,
            "scoped_applies": 0,
            "full_applies": 0,
            "shards_recleaned": 0,
            "shards_reused": 0,
            "bytes_to_workers": 0,
            "bytes_from_workers": 0,
            "legacy_bytes_to_workers": 0,
            "legacy_bytes_from_workers": 0,
            "dispatch_retries": 0,
            "dispatch_timeouts": 0,
            "worker_respawns": 0,
            "serial_fallbacks": 0,
            "checkpoints_written": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_runner(self):
        if self._runner is None:
            if self.n_workers == 1:
                self._runner = _SerialRunner(
                    self.cfds, self.mds, self.master, self.config
                )
            else:
                self._runner = _ProcessRunner(
                    self.cfds, self.mds, self.master, self.config,
                    self.n_workers,
                    track_legacy_bytes=self.track_legacy_bytes,
                    policy=self.supervision,
                    recovery=self._recovery_calls,
                )
        return self._runner

    def _sync_io_stats(self) -> None:
        runner = self._runner
        if runner is None:
            return
        self.stats["bytes_to_workers"] = runner.bytes_sent
        self.stats["bytes_from_workers"] = runner.bytes_received
        self.stats["legacy_bytes_to_workers"] = runner.legacy_bytes_sent
        self.stats["legacy_bytes_from_workers"] = runner.legacy_bytes_received
        self.stats["dispatch_retries"] = runner.dispatch_retries
        self.stats["dispatch_timeouts"] = runner.dispatch_timeouts
        self.stats["worker_respawns"] = runner.worker_respawns
        self.stats["serial_fallbacks"] = runner.serial_fallbacks

    def _recovery_calls(
        self, exclude: Set[str]
    ) -> List[Tuple[str, str, tuple]]:
        """The worker-call sequence that rebuilds every live shard
        session (minus *exclude*) from coordinator state after a worker
        died — exact because a shard session's state is a deterministic
        function of its current base (see ``_WorkerState.reclean_shard``),
        and the remembered ever-group-keys are unioned back in so the
        collision certificate keeps the lost session's memory."""
        calls: List[Tuple[str, str, tuple]] = []
        if self.base is None:
            return calls
        for sid in sorted(self._session_ids - set(exclude)):
            tids = self._shard_tids.get(sid)
            if tids is None:
                continue
            live = [tid for tid in tids if self.base.has_tid(tid)]
            if not live:
                continue
            calls.append(
                (sid, "clean_shard", (self.base.restrict(live, copy=False),))
            )
            view = self._shard_views.get(sid)
            if view is not None and view.ever_keys:
                calls.append(
                    (sid, "merge_ever_keys",
                     ({s: set(k) for s, k in view.ever_keys.items()},))
                )
        return calls

    @contextmanager
    def _absorb_failure(self):
        """Poison the session when a typed supervision failure escapes:
        some workers may have executed calls the coordinator never
        merged, so coordinator and worker state can disagree (the
        observables themselves are never half-merged — merging happens
        strictly after every outcome arrived)."""
        try:
            yield
        except (WorkerFailure, TornFrame, InjectedFault):
            self._failed = True
            raise

    def _check_usable(self, what: str) -> None:
        if self._failed:
            raise DataError(
                f"ShardedCleaningSession.{what} refused: the session is "
                "in a failed state after an unrecovered worker failure — "
                "run clean() again or restore() a snapshot/checkpoint"
            )

    def _maybe_checkpoint(self) -> None:
        """The auto-checkpoint policy: after every ``checkpoint_every``
        successful state-changing operations (clean/apply), write a
        durable snapshot under ``checkpoint_dir`` and prune all but the
        newest ``checkpoint_retain``."""
        if self.checkpoint_dir is None or self.checkpoint_every <= 0:
            return
        self._ops_since_checkpoint += 1
        if self._ops_since_checkpoint < self.checkpoint_every:
            return
        if self._pending:
            return  # buffered deltas are not state yet; the flush counts
        from repro.pipeline import snapshot

        snapshot.save_checkpoint(
            self, self.checkpoint_dir, retain=self.checkpoint_retain
        )
        self._ops_since_checkpoint = 0
        self.stats["checkpoints_written"] += 1

    def close(self) -> None:
        """Shut down worker processes / detach serial sessions.

        The per-shard sessions die with their workers, so ``apply`` and
        ``is_clean`` raise afterwards; a fresh ``clean()`` restarts the
        session lifecycle.  Changesets still sitting in the
        :meth:`buffer` queue are discarded.

        Idempotent and failure-safe: a second ``close()``, or a
        ``close()`` on a poisoned session whose workers already died,
        is a no-op that never raises — slot teardown force-kills
        best-effort and swallows cleanup errors from already-dead pools
        (they only surface, chained, during *failure-path* respawns;
        see :meth:`SupervisedSlot.kill`).
        """
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.close()
        self._session_ids = set()
        self._pending = []
        self._closed = True

    def __enter__(self) -> "ShardedCleaningSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Snapshots (see repro/pipeline/snapshot.py)
    # ------------------------------------------------------------------
    def save(self, path) -> int:
        """Write a durable snapshot of the whole sharded session to the
        directory *path*: one checksummed snapshot per shard (pulled from
        its worker) plus a manifest with the coordinator state, written
        last so the directory is never observable half-saved.  Shard ids
        (:func:`_shard_content_id`) name the files, so a later
        :meth:`restore` re-attaches each shard to its worker slot.
        Requires a prior :meth:`clean` and an empty :meth:`buffer` queue.
        Returns total bytes written.
        """
        from repro.pipeline import snapshot

        self._check_usable("save()")
        with self._absorb_failure():
            return snapshot.save_sharded(self, path)

    @classmethod
    def restore(
        cls,
        path,
        n_workers: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        checkpoint_retain: int = 3,
    ) -> "ShardedCleaningSession":
        """Rebuild a sharded session from a :meth:`save` directory.

        Restored shards keep their content ids, worker-slot affinity and
        full-form views, so the next sticky re-plan reuses them instead
        of re-cleaning; subsequent ``apply``/``apply_many`` observables
        are byte-identical to the never-stopped session's.  *n_workers*
        optionally overrides the saved pool size (shard state is
        worker-agnostic).  The runner's payload byte counters restart at
        the restore traffic itself; the logical counters (plans,
        collision retries, apply modes, reuse) continue from their saved
        values.  Raises :class:`~repro.exceptions.SnapshotCorrupt` on
        any checksum/format failure, including a shard file that does
        not match the manifest digest.  *supervision* and the
        ``checkpoint_*`` knobs configure the restored session (they are
        runtime policy, not snapshot state).
        """
        from repro.pipeline import snapshot

        return snapshot.restore_sharded(
            path,
            n_workers=n_workers,
            supervision=supervision,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_retain=checkpoint_retain,
        )

    @classmethod
    def restore_latest(
        cls,
        checkpoint_dir,
        n_workers: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint_every: int = 0,
        checkpoint_retain: int = 3,
    ) -> "ShardedCleaningSession":
        """Restore the newest restorable checkpoint under
        *checkpoint_dir* (written by the ``checkpoint_every`` policy),
        falling back past corrupt or torn checkpoints to the newest one
        that validates.  The restored session keeps checkpointing into
        the same directory when *checkpoint_every* is set.  Raises
        :class:`~repro.exceptions.SnapshotError` when no checkpoint
        validates."""
        from repro.pipeline import snapshot

        return snapshot.restore_latest_checkpoint(
            checkpoint_dir,
            n_workers=n_workers,
            supervision=supervision,
            checkpoint_every=checkpoint_every,
            checkpoint_retain=checkpoint_retain,
        )

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------
    def clean(self, relation: Relation) -> CleaningResult:
        """Shard *relation*, clean every shard, merge — exactly like an
        unsharded ``CleaningSession.clean`` of the same relation."""
        self._closed = False  # a fresh clean restarts the lifecycle
        self._failed = False  # ... and clears a poisoned session
        self.base = relation.clone()
        self.plan = None  # a new base invalidates every previous shard
        self._shard_views = {}
        self._shard_tids = {}
        with self._absorb_failure():
            result = self._clean_base(touched=None)
        self._maybe_checkpoint()
        return result

    # -- re-plan core --------------------------------------------------
    def _converge(
        self,
        shard_sets: List[List[int]],
        valid: Dict[str, _CleanOutcome],
        reclean_ids: Set[str],
        address: Dict[Tuple[int, ...], str],
    ) -> Tuple[List[str], List[List[int]], Set[str]]:
        """Bring every shard of *shard_sets* to a valid full-form clean,
        merging on group-key collisions until the plan holds.

        *valid* seeds reusable views (shards whose sessions and stored
        full-form outcomes match the current base); *reclean_ids* names
        shards whose session is current but whose stored log is not
        full-form (they re-clean in place, shipping no relation);
        *address* pins existing shard ids to their tid sets.  Returns
        ``(ids, shard_sets, cleaned_ids)`` with *valid* updated in
        place.
        """
        runner = self._ensure_runner()
        cleaned: Set[str] = set()
        while True:
            self.stats["plans"] += 1
            ids: List[str] = []
            for tids in shard_sets:
                key = tuple(tids)
                sid = address.get(key)
                if sid is None:
                    sid = address[key] = _shard_content_id(tids)
                ids.append(sid)
            # Update the coordinator's view of membership and liveness
            # BEFORE the retain broadcast: a worker that dies during the
            # broadcast is recovered against this state, so it must
            # already describe the post-retain world.
            for sid, tids in zip(ids, shard_sets):
                self._shard_tids[sid] = tids
            keep = set(ids)
            if self._session_ids - keep:
                self._session_ids &= keep
                self._shard_tids = {
                    sid: tids
                    for sid, tids in self._shard_tids.items()
                    if sid in keep
                }
                runner.broadcast("retain_shards", (sorted(keep),))
            calls: List[Tuple[str, str, tuple]] = []
            for sid, tids in zip(ids, shard_sets):
                if sid in valid and sid not in reclean_ids:
                    continue
                if sid in self._session_ids and sid in reclean_ids:
                    calls.append((sid, "reclean_shard", ()))
                else:
                    assert self.base is not None
                    calls.append(
                        (sid, "clean_shard",
                         (self.base.restrict(tids, copy=False),))
                    )
            outcomes: List[_CleanOutcome] = runner.run(calls)
            self.stats["shards_recleaned"] += len(calls)
            for outcome in outcomes:
                valid[outcome.shard_id] = outcome
                self._session_ids.add(outcome.shard_id)
                reclean_ids.discard(outcome.shard_id)
                cleaned.add(outcome.shard_id)
            merged = self._colliding_shard_sets(
                shard_sets, [valid[sid].ever_keys for sid in ids]
            )
            if merged is None:
                self.stats["shards_reused"] += sum(
                    1 for sid in ids if sid not in cleaned
                )
                return ids, shard_sets, cleaned
            self.stats["collision_retries"] += 1
            shard_sets = merged

    def _sticky_shard_sets(
        self,
        components: List[List[int]],
        touched: Set[int],
        valid: Dict[str, _CleanOutcome],
        reclean_ids: Set[str],
        address: Dict[Tuple[int, ...], str],
    ) -> List[List[int]]:
        """The component-stable re-plan: keep every previous shard whose
        membership is still exactly a union of current components and
        whose tuples the delta never touched; re-pack the rest."""
        assert self.plan is not None
        comp_of: Dict[int, int] = {}
        for index, component in enumerate(components):
            for tid in component:
                comp_of[tid] = index
        used: Set[int] = set()
        kept_sets: List[List[int]] = []
        for index, tids in enumerate(self.plan.shards):
            sid = self.plan.ids[index] if index < len(self.plan.ids) else None
            if sid is None or sid not in self._session_ids or not tids:
                continue
            if touched.intersection(tids):
                continue
            comps: Set[int] = set()
            intact = True
            for tid in tids:
                ci = comp_of.get(tid)
                if ci is None:
                    intact = False
                    break
                comps.add(ci)
            if not intact:
                continue
            if sum(len(components[ci]) for ci in comps) != len(tids):
                continue  # a coupled tuple now sits outside the shard
            address[tuple(tids)] = sid
            view = self._shard_views.get(sid)
            if view is not None and view.fullform:
                valid[sid] = view
            else:
                reclean_ids.add(sid)
            used.update(comps)
            kept_sets.append(tids)
        pool = [
            component
            for index, component in enumerate(components)
            if index not in used
        ]
        fresh_sets = (
            self.planner.pack(pool, max(1, self.n_shards - len(kept_sets)))
            if pool
            else []
        )
        return kept_sets + fresh_sets

    def _clean_base(self, touched: Optional[Set[int]] = None) -> CleaningResult:
        assert self.base is not None
        tids = list(self.base.tids())
        if tids != sorted(tids):
            # The exact-order merge ranks cRepair init work by tid, which
            # equals the unsharded initialization (insertion) order only
            # when tids ascend.  Every construction path in this library
            # produces ascending tids; a caller who interleaved explicit
            # out-of-order tids must normalize first.
            raise ValueError(
                "ShardedCleaningSession requires tids in ascending insertion "
                "order (rebuild the relation, e.g. via restrict(sorted tids))"
            )
        runner = self._ensure_runner()
        started = time.perf_counter()

        valid: Dict[str, _CleanOutcome] = {}
        reclean_ids: Set[str] = set()
        address: Dict[Tuple[int, ...], str] = {}
        reuse_allowed = (
            self.reuse_sessions
            and touched is not None
            and self.plan is not None
            and bool(self.plan.ids)
            and bool(self._session_ids)
        )
        if reuse_allowed:
            components = self.planner.components(self.base)
            shard_sets = self._sticky_shard_sets(
                components, touched, valid, reclean_ids, address
            )
            n_components = len(components)
            degenerate = len(shard_sets) == 1
            reason = "one coupling component" if degenerate else ""
        else:
            plan = self.planner.plan(self.base, self.n_shards)
            shard_sets = plan.shards
            n_components = plan.n_components
            degenerate, reason = plan.degenerate, plan.reason
            # Clear coordinator liveness BEFORE the reset broadcast:
            # recovery of a worker that dies mid-reset must not try to
            # rebuild sessions the reset is wiping anyway.
            self._session_ids = set()
            self._shard_views = {}
            self._shard_tids = {}
            runner.broadcast("reset")

        retries_before = self.stats["collision_retries"]
        ids, shard_sets, cleaned = self._converge(
            shard_sets, valid, reclean_ids, address
        )
        if len(shard_sets) == 1 and (
            self.stats["collision_retries"] > retries_before
        ):
            degenerate, reason = True, "collision retries merged all shards"
        elif reuse_allowed:
            degenerate = len(shard_sets) == 1
            reason = reason if degenerate else ""

        self._install_plan(shard_sets, ids, n_components, degenerate, reason)
        assert self.plan is not None
        ids = self.plan.ids
        shard_sets = self.plan.shards

        old_working = self.working
        working = Relation(self.base.schema)
        working._next_tid = self.base._next_tid
        working._retired = set(self.base._retired)
        fresh_outcomes: List[_CleanOutcome] = []
        #: tid → its repaired tuple; ``None`` marks a reused /
        #: re-cleaned-in-place shard whose tuples the previous merged
        #: working still holds (shards never interact, and scoped
        #: applies ship their rows, so that restriction is exact).
        repaired_of: Dict[int, Optional[Any]] = {}
        for sid, tids_ in zip(ids, shard_sets):
            view = valid[sid]
            if sid in cleaned:
                fresh_outcomes.append(view)
            if view.repaired is not None:
                for t in view.repaired:
                    repaired_of[t.tid] = t
                view.repaired = None  # merged; free the per-shard copy
            else:
                assert old_working is not None
                for tid_ in tids_:
                    repaired_of[tid_] = None
        # Populate in base insertion order (= the unsharded working's
        # iteration order); reused tuples are cloned so snapshots
        # returned to earlier callers stay frozen.
        for tid in self.base.tids():
            t = repaired_of[tid]
            working._install(
                old_working._tuples[tid].clone() if t is None else t
            )
        self.working = working
        self._shard_views = {sid: valid[sid] for sid in ids}
        self.fix_log = self._merge_full_logs()
        c_result, e_result, h_result = self._merged_phase_results()
        self._last_clean = all(
            view.clean for view in self._shard_views.values()
        )
        timings = self._merged_timings(
            (outcome.timings for outcome in fresh_outcomes), started
        )
        self._sync_io_stats()
        return CleaningResult(
            repaired=self.working,
            fix_log=self.fix_log,
            crepair_result=c_result,
            erepair_result=e_result,
            hrepair_result=h_result,
            cost=self._total_cost(),
            clean=self._last_clean,
            timings=timings,
        )

    # ------------------------------------------------------------------
    # Incremental apply
    # ------------------------------------------------------------------
    def buffer(self, changeset: Changeset) -> "ShardedCleaningSession":
        """Queue *changeset* without applying it; :meth:`flush` applies
        everything buffered as one coalesced micro-batch."""
        self._pending.append(changeset)
        return self

    def flush(self) -> Optional[ApplyResult]:
        """Apply the buffered changesets via :meth:`apply_many` (one
        fan-out round-trip).

        An empty buffer — or a buffer of changesets that carry no ops —
        is a contractual **no-op**: returns ``None``, dispatches nothing,
        leaves the plan and every ``stats`` counter untouched, and does
        not count toward the checkpoint policy.  (Same contract as
        ``apply_many([])``.)
        """
        if not self._pending:
            return None
        pending, self._pending = self._pending, []
        return self.apply_many(pending)

    def apply(self, changeset: Changeset) -> Optional[ApplyResult]:
        """Re-clean under *changeset*; byte-identical to an unsharded
        ``CleaningSession.apply`` of the same delta.  See
        :meth:`apply_many` for the batched form (and for the ``None``
        no-op contract on an op-less changeset)."""
        return self.apply_many([changeset])

    def apply_many(
        self, changesets: Union[Changeset, Sequence[Changeset]]
    ) -> Optional[ApplyResult]:
        """Apply several changesets as **one** micro-batch — exactly
        ``apply(Changeset.concat(changesets))``.

        Ops route to the shard owning their tid and ship as one
        coalesced per-shard delta per coordinator round-trip.  Inserts
        and edits of variable-CFD premise attributes (the only edits
        that can move a tuple between shards) send the whole batch down
        the re-plan path — paid once for the batch, with unaffected
        shards' sessions reused (see the module docstring).  Everything
        else attempts the scoped path per shard, falling back exactly
        when the unsharded session would.

        An **empty batch** (no changesets, or only op-less changesets)
        is a contractual no-op: returns ``None`` after the usual
        lifecycle checks, with no dispatch, no plan change, no ``stats``
        mutation and no checkpoint-policy tick — never a degenerate
        zero-op scoped apply.
        """
        if isinstance(changesets, Changeset):
            changesets = [changesets]
        changeset = Changeset.concat(changesets)
        self._check_usable("apply()")
        if self._closed or self.working is None or self.base is None:
            raise DataError(
                "ShardedCleaningSession.apply() requires a prior clean() "
                "(and a session that has not been close()d)"
            )
        if not changeset.ops:
            return None
        changeset.validate_against(self.base)
        started = time.perf_counter()

        # An edit to a variable-CFD premise attribute can move a tuple
        # between shards — unless the same changeset deletes the tuple,
        # in which case the unsharded session drops the seed too (the
        # tuple is gone before any replay reads it) and stays scoped.
        deleted = {op.tid for op in changeset.ops if isinstance(op, Delete)}
        needs_replan = any(
            isinstance(op, Insert)
            or (
                isinstance(op, CellEdit)
                and op.attr in self._partition_attrs
                and op.tid not in deleted
            )
            for op in changeset.ops
        )
        with self._absorb_failure():
            if needs_replan:
                result = self._full_apply(changeset, started)
            else:
                result = self._apply_routed(changeset, started)
        self._maybe_checkpoint()
        return result

    def _apply_routed(
        self, changeset: Changeset, started: float
    ) -> ApplyResult:
        """The scoped route of :meth:`apply_many`: coalesce ops per
        shard, dispatch, and merge — retrying on the merged topology
        when the collision certificate breaks."""
        while True:
            assert self.plan is not None
            by_shard: Dict[int, List[Op]] = {}
            for op in changeset.ops:
                by_shard.setdefault(self.plan.shard_of[op.tid], []).append(op)
            runner = self._ensure_runner()
            calls = [
                (self.plan.ids[index], "apply_shard", (ops,))
                for index, ops in sorted(by_shard.items())
            ]
            outcomes: List[_ApplyOutcome] = runner.run(calls)

            ever = {o.shard_id: self._outcome_ever_keys(o) for o in outcomes}
            merged_sets = self._colliding_shard_sets(
                self.plan.shards,
                [
                    ever.get(sid, self._shard_views[sid].ever_keys)
                    for sid in self.plan.ids
                ],
            )
            if merged_sets is not None:
                # The shard-local trajectories may have diverged from the
                # global one: discard the attempt, re-clean the (pre-edit)
                # base on the merged topology, and retry the delta.
                self.stats["collision_retries"] += 1
                self._reclean_on_sets(
                    merged_sets, dirty_ids={o.shard_id for o in outcomes}
                )
                continue

            if any(o.mode == "full" for o in outcomes):
                return self._finish_mixed_apply(changeset, outcomes, started)
            return self._finish_scoped_apply(changeset, outcomes, started)

    # -- apply paths ---------------------------------------------------
    def _full_apply(self, changeset: Changeset, started: float) -> ApplyResult:
        """The sharded warm full replay: edit the base, re-plan, re-clean.

        Byte-identical to the unsharded fallback (a from-scratch clean of
        the edited base).  Worker-cached master-side indexes keep it
        warm, and the component-stable re-plan reuses every shard the
        delta left alone.
        """
        assert self.base is not None
        self.stats["full_applies"] += 1
        applied = changeset.apply_to(self.base)
        result = self._clean_base(touched=applied.all_tids())
        timings = dict(result.timings)
        timings["wall"] = time.perf_counter() - started
        return ApplyResult(
            repaired=result.repaired,
            fix_log=result.fix_log,
            crepair_result=result.crepair_result,
            erepair_result=result.erepair_result,
            hrepair_result=result.hrepair_result,
            cost=result.cost,
            clean=result.clean,
            affected=len(result.repaired),
            affected_cells=len(result.repaired)
            * len(result.repaired.schema.names),
            replays=0,
            full_reclean=True,
            timings=timings,
        )

    def _finish_scoped_apply(
        self,
        changeset: Changeset,
        outcomes: List[_ApplyOutcome],
        started: float,
    ) -> ApplyResult:
        """Every shard stayed scoped: splice the merged log and state."""
        assert self.base is not None and self.working is not None
        assert self.plan is not None
        self.stats["scoped_applies"] += 1
        changeset.apply_to(self.base)

        dead: Set[int] = set()
        perturbed: Set[Cell] = set()
        for outcome in outcomes:
            dead.update(outcome.dead)
            perturbed.update(outcome.perturbed)
            view = self._shard_views[outcome.shard_id]
            view.costs = dict(outcome.costs)
            view.clean = outcome.clean
            view.ever_keys = self._outcome_ever_keys(outcome)
            if outcome.perturbed or outcome.dead or any(
                outcome.segments.values()
            ):
                # The stored full-form segments no longer describe a
                # from-scratch clean of this shard's (now-evolved) base.
                view.fullform = False
            self._install_scoped_rows(outcome)
        for tid in dead:
            self._drop_dead_tid(tid)

        log = self.fix_log.without_tids(dead).without_cells(perturbed)
        if log is self.fix_log:
            # Nothing was spliced out: record into a copy, not into the
            # log an earlier result handed out.
            log = log.copy()
        for fix in self._merge_apply_segments(outcomes):
            log.record(fix)
        self.fix_log = log

        c_result, e_result, h_result = self._merged_apply_results(outcomes)
        self._last_clean = all(v.clean for v in self._shard_views.values())
        timings = self._merged_timings((o.timings for o in outcomes), started)
        self._sync_io_stats()
        return ApplyResult(
            repaired=self.working,
            fix_log=self.fix_log,
            crepair_result=c_result,
            erepair_result=e_result,
            hrepair_result=h_result,
            cost=self._total_cost(),
            clean=self._last_clean,
            affected=len({tid for tid, _attr in perturbed}),
            affected_cells=len(perturbed),
            replays=sum(o.replays for o in outcomes),
            timings=timings,
        )

    def _finish_mixed_apply(
        self,
        changeset: Changeset,
        outcomes: List[_ApplyOutcome],
        started: float,
    ) -> ApplyResult:
        """At least one shard fell back to its full replay — exactly the
        situations where the unsharded session re-cleans everything, so
        bring every shard to full-form and merge fresh logs.  Shards
        whose stored view is still full-form (no scoped apply since
        their last clean, no ops in this batch) skip the re-clean — and
        the round-trip — entirely."""
        assert self.base is not None and self.plan is not None
        self.stats["full_applies"] += 1
        applied = changeset.apply_to(self.base)
        runner = self._ensure_runner()

        views: Dict[str, _CleanOutcome] = {
            o.shard_id: o.full for o in outcomes if o.mode == "full"
        }
        scoped_ids = {o.shard_id for o in outcomes if o.mode == "scoped"}
        # A scoped shard's re-clean below ships no rows: its edits reach
        # the merged working relation only through its scoped outcome.
        for outcome in outcomes:
            if outcome.mode == "scoped":
                self._install_scoped_rows(outcome)
        reclean_ids: List[str] = []
        reused = 0
        for sid in self.plan.ids:
            if sid in views:
                continue
            view = self._shard_views[sid]
            if sid not in scoped_ids and view.fullform:
                views[sid] = view  # still exact and full-form: reuse
                reused += 1
            else:
                reclean_ids.append(sid)
        recleaned: List[_CleanOutcome] = runner.run(
            [(sid, "reclean_shard", ()) for sid in reclean_ids]
        )
        # Shards whose own apply fell back to a full replay re-cleaned
        # inside apply_shard — count them alongside the explicit ones.
        self.stats["shards_recleaned"] += len(reclean_ids) + len(
            [o for o in outcomes if o.mode == "full"]
        )
        self.stats["shards_reused"] += reused
        for outcome in recleaned:
            views[outcome.shard_id] = outcome
        merged_sets = self._colliding_shard_sets(
            self.plan.shards, [views[sid].ever_keys for sid in self.plan.ids]
        )
        if merged_sets is not None:
            # Rare: the full replays themselves collided across shards.
            # The base is already edited, so this is a plain re-plan
            # (whose own loop keeps merging until collision-free).
            # Adopt the just-recleaned views first — they are valid
            # full-form outcomes for the current base of op-free shards.
            for outcome in recleaned:
                views_sid = outcome.shard_id
                self._shard_views[views_sid] = outcome
            self.stats["collision_retries"] += 1
            result = self._clean_base(touched=applied.all_tids())
            timings = dict(result.timings)
            timings["wall"] = time.perf_counter() - started
            return ApplyResult(
                repaired=result.repaired,
                fix_log=result.fix_log,
                crepair_result=result.crepair_result,
                erepair_result=result.erepair_result,
                hrepair_result=result.hrepair_result,
                cost=result.cost,
                clean=result.clean,
                affected=len(result.repaired),
                affected_cells=len(result.repaired)
                * len(result.repaired.schema.names),
                replays=0,
                full_reclean=True,
                timings=timings,
            )

        for op in changeset.ops:
            if isinstance(op, Delete):
                self._drop_dead_tid(op.tid)
        fresh: List[_CleanOutcome] = []
        for sid, outcome in views.items():
            if outcome is not self._shard_views.get(sid):
                fresh.append(outcome)
            self._shard_views[sid] = outcome
            if outcome.repaired is not None:
                for t in outcome.repaired:
                    self.working._install(t)
                outcome.repaired = None
        self.fix_log = self._merge_full_logs()
        c_result, e_result, h_result = self._merged_phase_results()
        self._last_clean = all(v.clean for v in self._shard_views.values())
        timings = self._merged_timings(
            (outcome.timings for outcome in fresh), started
        )
        self._sync_io_stats()
        return ApplyResult(
            repaired=self.working,
            fix_log=self.fix_log,
            crepair_result=c_result,
            erepair_result=e_result,
            hrepair_result=h_result,
            cost=self._total_cost(),
            clean=self._last_clean,
            affected=len(self.working),
            affected_cells=len(self.working) * len(self.working.schema.names),
            replays=0,
            full_reclean=True,
            timings=timings,
        )

    def _install_scoped_rows(self, outcome: _ApplyOutcome) -> None:
        """Write a scoped shard apply's perturbed rows (values and
        confidences) into the merged working relation."""
        assert self.working is not None
        names = self.working.schema.names
        for tid, (values, confs) in outcome.rows.items():
            t = self.working.by_tid(tid)
            for attr, value, conf in zip(names, values, confs):
                t[attr] = value
                t.set_conf(attr, conf)

    def _drop_dead_tid(self, tid: int) -> None:
        """Remove a deleted tuple from the merged working relation *and*
        the plan (both the tid→shard map and the shard tid lists — a
        later re-plan restricts the base by those lists, so a stale dead
        tid would make ``Relation.restrict`` raise mid-recovery).  The
        shard's id — its session address — survives the membership
        change; the next re-plan re-validates membership against it."""
        assert self.working is not None and self.plan is not None
        if self.working.has_tid(tid):
            self.working.remove(tid)
        shard = self.plan.shard_of.pop(tid, None)
        if shard is not None:
            self.plan.shards[shard].remove(tid)

    # ------------------------------------------------------------------
    # Collision handling
    # ------------------------------------------------------------------
    @staticmethod
    def _colliding_shard_sets(
        shard_sets: List[List[int]],
        ever_keys_by_shard: Sequence[Dict[Spec, Set[Key]]],
    ) -> Optional[List[List[int]]]:
        """Merge shards that ever materialized the same group key.

        Returns the merged tid sets, or ``None`` when the plan held (no
        key ever existed in two shards — the certificate that the shard
        trajectories compose into the global one).
        """
        n = len(shard_sets)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        collided = False
        owner: Dict[Tuple[Spec, Key], int] = {}
        for shard, ever in enumerate(ever_keys_by_shard):
            for spec, keys in ever.items():
                for key in keys:
                    holder = owner.setdefault((spec, key), shard)
                    if holder != shard:
                        ra, rb = find(holder), find(shard)
                        if ra != rb:
                            parent[rb] = ra
                            collided = True
        if not collided:
            return None
        merged: Dict[int, List[int]] = {}
        for shard, tids in enumerate(shard_sets):
            merged.setdefault(find(shard), []).extend(tids)
        out = [sorted(tids) for _root, tids in sorted(merged.items())]
        return out

    def _reclean_on_sets(
        self, shard_sets: List[List[int]], dirty_ids: Set[str]
    ) -> None:
        """Rebuild shard sessions on *shard_sets* from the current
        (pre-delta) base — the recovery step of an apply-time collision.
        Sessions of shards that saw no ops in the failed attempt
        (*dirty_ids*) and whose membership the merge left alone are
        reused."""
        assert self.base is not None and self.plan is not None
        assert self.working is not None
        valid: Dict[str, _CleanOutcome] = {}
        reclean_ids: Set[str] = set()
        address: Dict[Tuple[int, ...], str] = {}
        new_keys = {tuple(tids) for tids in shard_sets}
        for index, tids in enumerate(self.plan.shards):
            sid = self.plan.ids[index]
            key = tuple(tids)
            if key not in new_keys or sid not in self._session_ids:
                continue
            if sid in dirty_ids:
                continue  # worker session diverged in the failed attempt
            address[key] = sid
            view = self._shard_views.get(sid)
            if view is not None and view.fullform:
                valid[sid] = view
            else:
                reclean_ids.add(sid)
        ids, shard_sets, _cleaned = self._converge(
            shard_sets, valid, reclean_ids, address
        )
        self._install_plan(
            shard_sets,
            ids,
            self.plan.n_components,
            degenerate=len(shard_sets) == 1,
            reason="collision retries merged shards"
            if len(shard_sets) == 1
            else "",
        )
        ids = self.plan.ids
        for sid in ids:
            view = valid[sid]
            if view.repaired is not None:
                for t in view.repaired:
                    self.working._install(t)
                view.repaired = None
        self._shard_views = {sid: valid[sid] for sid in ids}
        self.fix_log = self._merge_full_logs()
        self._last_clean = all(v.clean for v in self._shard_views.values())

    def _install_plan(
        self,
        shard_sets: List[List[int]],
        ids: List[str],
        n_components: int,
        degenerate: bool,
        reason: str,
    ) -> None:
        """Install ``self.plan`` with shards in canonical order
        (ascending smallest member tid) and the tid→shard inverse map."""
        order = sorted(
            range(len(shard_sets)),
            key=lambda i: shard_sets[i][0] if shard_sets[i] else -1,
        )
        ordered_sets = [shard_sets[i] for i in order]
        self.plan = ShardPlan(
            shards=ordered_sets,
            shard_of={
                tid: index
                for index, tids in enumerate(ordered_sets)
                for tid in tids
            },
            n_components=n_components,
            degenerate=degenerate,
            reason=reason,
            ids=[ids[i] for i in order],
        )
        # The recovery registry aliases the plan's tid lists on purpose:
        # _drop_dead_tid edits them in place, so recovery always sees
        # current membership.
        self._shard_tids = {
            sid: tids for sid, tids in zip(self.plan.ids, self.plan.shards)
        }

    @staticmethod
    def _outcome_ever_keys(outcome: _ApplyOutcome) -> Dict[Spec, Set[Key]]:
        if outcome.mode == "full":
            assert outcome.full is not None
            return outcome.full.ever_keys
        return outcome.ever_keys

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _ordered_views(self) -> List[_CleanOutcome]:
        assert self.plan is not None
        return [self._shard_views[sid] for sid in self.plan.ids]

    def _merge_full_logs(self) -> FixLog:
        views = self._ordered_views()
        log = FixLog()
        for fix in self._merge_segments(
            [(v.segments, v.traces) for v in views]
        ):
            log.record(fix)
        return log

    def _merge_apply_segments(
        self, outcomes: List[_ApplyOutcome]
    ) -> List[Fix]:
        parts = [
            (o.segments, o.traces)
            for o in sorted(outcomes, key=lambda o: o.shard_id)
        ]
        return self._merge_segments(parts)

    @staticmethod
    def _merge_segments(
        parts: Sequence[Tuple[Dict[str, List[Fix]], Dict[str, Any]]]
    ) -> List[Fix]:
        """Interleave per-shard phase segments into the global fix order
        (phases are contiguous in an unsharded log: c, then e, then h)."""
        out: List[Fix] = []
        crepair_parts = [
            (segments["crepair"], traces["crepair"])
            for segments, traces in parts
            if traces.get("crepair") is not None
        ]
        if crepair_parts:
            out.extend(merge_worklist_fixes(crepair_parts))
        for phase in ("erepair", "hrepair"):
            round_parts = [
                (segments[phase], traces[phase])
                for segments, traces in parts
                if traces.get(phase) is not None
            ]
            if round_parts:
                out.extend(merge_round_fixes(round_parts))
        return out

    def _merged_phase_results(
        self,
    ) -> Tuple[
        Optional[CRepairResult], Optional[ERepairResult], Optional[HRepairResult]
    ]:
        views = self._ordered_views()
        return self._merge_counts(
            [v.counts for v in views], self.working, self.fix_log
        )

    def _merged_apply_results(self, outcomes: List[_ApplyOutcome]):
        return self._merge_counts(
            [o.counts for o in outcomes], self.working, self.fix_log
        )

    @staticmethod
    def _merge_counts(counts: Sequence[_PhaseCounts], relation, log):
        c_result = e_result = h_result = None
        c_parts = [c.crepair for c in counts if c.crepair is not None]
        if c_parts:
            c_result = CRepairResult(
                relation=relation,
                fix_log=log,
                deterministic_fixes=sum(p["deterministic_fixes"] for p in c_parts),
                confirmed_cells=sum(p["confirmed_cells"] for p in c_parts),
                rules_fired=sum(p["rules_fired"] for p in c_parts),
            )
        e_parts = [c.erepair for c in counts if c.erepair is not None]
        if e_parts:
            e_result = ERepairResult(
                relation=relation,
                fix_log=log,
                reliable_fixes=sum(p["reliable_fixes"] for p in e_parts),
                rounds=max(p["rounds"] for p in e_parts),
            )
        h_parts = [c.hrepair for c in counts if c.hrepair is not None]
        if h_parts:
            h_result = HRepairResult(
                relation=relation,
                fix_log=log,
                possible_fixes=sum(p["possible_fixes"] for p in h_parts),
                merges=sum(p["merges"] for p in h_parts),
                upgrades=sum(p["upgrades"] for p in h_parts),
                unresolved=sum(p["unresolved"] for p in h_parts),
                rounds=max(p["rounds"] for p in h_parts),
            )
        return c_result, e_result, h_result

    def _total_cost(self) -> float:
        return sum(
            sum(view.costs.values()) for view in self._shard_views.values()
        )

    def _merged_timings(self, timing_dicts, started: float) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for timings in timing_dicts:
            for key, value in timings.items():
                merged[key] = merged.get(key, 0.0) + value
        merged["wall"] = time.perf_counter() - started
        return merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_clean(self) -> bool:
        """Whether the merged working repair satisfies Σ and Γ (conjunction
        of per-shard verdicts; exact because no group key spans shards)."""
        if self._closed or self.working is None or self.plan is None:
            raise DataError(
                "ShardedCleaningSession.is_clean() requires a prior clean() "
                "(and a session that has not been close()d)"
            )
        self._check_usable("is_clean()")
        runner = self._ensure_runner()
        with self._absorb_failure():
            verdicts = runner.run(
                [(sid, "is_clean_shard", ()) for sid in self.plan.ids]
            )
        self._sync_io_stats()
        return all(verdicts)
