"""Metric catalog and the per-layer metrics of a traced pass.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names and
units the benchmark prints; ``selftest.py`` checks that BENCHMARK.json
declares exactly these.  Normalization (see NOTES.md): per-layer times
and counts are *per operation* of the traced pass (a clean, an apply, a
write ticket) unless the name says otherwise; ratios are ratios; the
supervision counters, ``snapshot.checkpoints``, ``service.snapshots_cut``
and ``service.queue_depth_max`` are totals over the pass.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from spans import Span, Tracer, self_times, subtree

#: name → (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p95_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_mem_mb": ("MB", "lower"),
}

#: serve_part's read side: printed after END_TO_END, not declared,
#: because batch and stream runs have no reads (see NOTES.md).
SERVE_READS: Dict[str, Tuple[str, str]] = {
    "read_p50_ms": ("ms", "lower"),
    "read_p95_ms": ("ms", "lower"),
}

_KINDS = ("cat", "score", "delete", "insert", "premise")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "relational.load_s": ("s", "lower"),
    "relational.clone_s": ("s", "lower"),
    "relational.clone_calls": ("count", "lower"),
    "group_store.build_s": ("s", "lower"),
    "group_store.build_calls": ("count", "lower"),
    "blocking.build_s": ("s", "lower"),
    "blocking.match_s": ("s", "lower"),
    "blocking.match_calls": ("count", "lower"),
    "blocking.lookups": ("count", "lower"),
    "blocking.cache_hit_ratio": ("ratio", "higher"),
    "blocking.verify_calls": ("count", "lower"),
    "blocking.match_yield": ("ratio", "higher"),
    "blocking.eq_lookups": ("count", "lower"),
    "blocking.qgram_lookups": ("count", "lower"),
    "simjoin.probes": ("count", "lower"),
    "crepair.busy_s": ("s", "lower"),
    "crepair.fixes": ("count", "higher"),
    "erepair.busy_s": ("s", "lower"),
    "erepair.fixes": ("count", "higher"),
    "hrepair.busy_s": ("s", "lower"),
    "hrepair.fixes": ("count", "higher"),
    "consistency.verify_s": ("s", "lower"),
    "consistency.verify_calls": ("count", "lower"),
    "session.apply_s": ("s", "lower"),
    "session.self_s": ("s", "lower"),
    "session.full_replay_ratio": ("ratio", "lower"),
    "session.affected_cells": ("count", "lower"),
    **{
        f"session.{kind}_{mode}": ("ratio", "higher" if mode == "scoped"
                                   else "lower")
        for kind in _KINDS for mode in ("scoped", "full")
    },
    "sharding.plan_s": ("s", "lower"),
    "sharding.plans": ("count", "lower"),
    "sharding.apply_s": ("s", "lower"),
    "sharding.self_s": ("s", "lower"),
    "sharding.replan_ratio": ("ratio", "lower"),
    "sharding.shards_recleaned": ("count", "lower"),
    "sharding.shards_reused": ("count", "higher"),
    "sharding.worker_busy_s": ("s", "lower"),
    "sharding.parallel_eff": ("ratio", "higher"),
    "payload.encode_s": ("s", "lower"),
    "payload.decode_s": ("s", "lower"),
    "payload.bytes_to_workers": ("bytes", "lower"),
    "payload.bytes_from_workers": ("bytes", "lower"),
    "supervision.retries": ("count", "lower"),
    "supervision.respawns": ("count", "lower"),
    "supervision.fallbacks": ("count", "lower"),
    "snapshot.checkpoint_s": ("s", "lower"),
    "snapshot.checkpoints": ("count", "lower"),
    "snapshot.bytes": ("bytes", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.batch_ms": ("ms", "lower"),
    "service.commit_ms": ("ms", "lower"),
    "service.coalesce_ratio": ("ratio", "higher"),
    "service.read_wait_ms": ("ms", "lower"),
    "service.read_clone_s": ("s", "lower"),
    "service.snapshots_cut": ("count", "lower"),
    "service.queue_depth_max": ("count", "lower"),
    "service.generator_lag_ms": ("ms", "lower"),
}

#: The self times of one workload's trees must add up to their roots'
#: durations within this share (plus 1 ms for clock rounding).
SELF_TIME_TOLERANCE = 0.01


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ticket_trees(tracer: Tracer, tickets: List[Any]) -> List[Span]:
    """Root one span tree per acknowledged write ticket.

    The consumer thread's ``sharding.apply`` span (one per batch) hangs
    under its batch's first ticket, between that ticket's queue wait and
    its commit (bookkeeping plus any inline checkpoint up to the ack);
    the other tickets of a coalesced batch wait in ``service.coalesced``.
    """
    by_changeset = {id(t.changeset): t for t in tickets}
    roots: List[Span] = []
    commits: List[Span] = []
    for batch in tracer.batches:
        members = [by_changeset[c] for c in batch["changesets"]
                   if c in by_changeset]
        if not members:
            continue
        apply_span: Span = batch["span"]
        for index, ticket in enumerate(members):
            op = f"w{ticket.seq}"
            root = tracer.add_span("service.ticket", "service",
                                   ticket.submitted_at, ticket.acked_at, op=op)
            tracer.add_span("service.queue_wait", "service",
                            ticket.submitted_at, apply_span.start,
                            parent=root.id, op=op)
            if index == 0:
                apply_span.parent = root.id
                for sp in subtree(tracer.spans, apply_span):
                    sp.op = op
                commits.append(tracer.add_span(
                    "service.commit", "service", apply_span.end,
                    ticket.acked_at, parent=root.id, op=op))
            else:
                tracer.add_span("service.coalesced", "service",
                                apply_span.start, ticket.acked_at,
                                parent=root.id, op=op)
            roots.append(root)
    for sp in tracer.spans:
        if sp.name != "snapshot.checkpoint" or sp.parent is not None:
            continue
        for commit in commits:
            if commit.start <= sp.start and sp.end <= commit.end:
                sp.parent = commit.id
                for child in subtree(tracer.spans, sp):
                    child.op = commit.op
                break
    return roots


def per_layer(tracer: Tracer, kind: str, roots: List[Span],
              setup_root: Span, outcome: Any, workers: int
              ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics over the op trees in *roots* (plus the set-up
    tree for ``relational.load_s``); returns ``(metrics, accounting)``."""
    spans = tracer.spans
    op_roots = [r for r in roots if r.name != "service.read"]
    read_roots = [r for r in roots if r.name == "service.read"]
    n_ops = max(1, len(op_roots))

    members: List[Span] = []
    for root in roots:
        members.extend(subtree(spans, root))
    by_layer, by_name, root_total, gap = self_times(spans, roots)

    def total(name: str, among: List[Span] = members) -> float:
        return sum(sp.duration for sp in among if sp.name == name)

    def calls(name: str) -> int:
        return sum(1 for sp in members if sp.name == name)

    counts = tracer.counts
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    m["relational.load_s"] = total("relational.load",
                                   subtree(spans, setup_root))
    m["relational.clone_s"] = total("relational.clone") / n_ops
    m["relational.clone_calls"] = calls("relational.clone") / n_ops
    m["group_store.build_s"] = total("group_store.build") / n_ops
    m["group_store.build_calls"] = calls("group_store.build") / n_ops
    m["blocking.build_s"] = total("blocking.build") / n_ops
    m["blocking.match_s"] = total("blocking.match") / n_ops
    m["blocking.match_calls"] = calls("blocking.match") / n_ops
    lookups = counts.get("blocking.lookups", 0)
    m["blocking.lookups"] = lookups / n_ops
    m["blocking.cache_hit_ratio"] = _ratio(
        lookups - calls("blocking.match"), lookups)
    verify = tracer.verify_calls()
    m["blocking.verify_calls"] = verify / n_ops
    m["blocking.match_yield"] = _ratio(counts.get("blocking.matched", 0),
                                       verify)
    m["blocking.eq_lookups"] = counts.get("blocking.eq_lookups", 0) / n_ops
    m["blocking.qgram_lookups"] = (
        counts.get("blocking.qgram_lookups", 0) / n_ops)
    m["simjoin.probes"] = tracer.probes() / n_ops
    for phase in ("crepair", "erepair", "hrepair"):
        m[f"{phase}.busy_s"] = total(f"{phase}.run") / n_ops
        m[f"{phase}.fixes"] = counts.get(f"{phase}.fixes", 0) / n_ops
    m["consistency.verify_s"] = total("consistency.verify") / n_ops
    m["consistency.verify_calls"] = calls("consistency.verify") / n_ops
    m["session.self_s"] = by_layer.get("session", 0.0) / n_ops

    if kind == "stream":
        extra = outcome.extra
        applies = max(1, len(outcome.op_ms))
        m["session.apply_s"] = total("op.apply") / n_ops
        full = sum(v for k, v in extra["modes"].items() if k.endswith("_full"))
        m["session.full_replay_ratio"] = full / applies
        m["session.affected_cells"] = extra["affected_cells"] / applies
        for key, value in extra["modes"].items():
            m[f"session.{key}"] = value / applies

    if kind == "serve":
        read_members = [sp for root in read_roots
                        for sp in subtree(spans, root)]
        _serve_layers(m, tracer, total, calls, by_layer, read_roots,
                      read_members, n_ops, outcome, workers)

    accounting = {
        "roots": len(roots),
        "root_total_s": root_total,
        "self_by_layer_s": by_layer,
        "self_by_span_s": by_name,
        "gap_s": gap,
        "gap_ok": abs(gap) <= SELF_TIME_TOLERANCE * root_total + 1e-3,
    }
    return m, accounting


def _serve_layers(m, tracer, total, calls, by_layer, read_roots,
                  read_members, n_ops, outcome, workers) -> None:
    """The sharding, payload, supervision, snapshot and service layers of
    serve_part: coordinator spans plus what each batch returned."""
    batches = [b for b in tracer.batches if b["span"].parent is not None]
    n_batches = max(1, len(batches))
    apply_total = sum(b["span"].duration for b in batches)

    busy = {"crepair": 0.0, "erepair": 0.0, "hrepair": 0.0}
    worker_busy = 0.0
    stats: Dict[str, int] = {}
    fixes = {"crepair": 0, "erepair": 0, "hrepair": 0}
    for batch in batches:
        for key, value in batch["timings"].items():
            if key == "wall":
                continue
            worker_busy += value
            if key in busy:
                busy[key] += value
        for key, value in batch["stats"].items():
            stats[key] = stats.get(key, 0) + value
        for key, value in batch["fixes"].items():
            fixes[key] += value
    for phase in busy:
        m[f"{phase}.busy_s"] = busy[phase] / n_ops
        m[f"{phase}.fixes"] = fixes[phase] / n_ops

    m["sharding.plan_s"] = total("sharding.plan") / n_ops
    m["sharding.plans"] = stats.get("plans", 0) / n_ops
    m["sharding.apply_s"] = apply_total / n_ops
    m["sharding.self_s"] = by_layer.get("sharding", 0.0) / n_ops
    m["sharding.replan_ratio"] = sum(
        1 for b in batches if b["replan"]) / n_batches
    m["sharding.shards_recleaned"] = stats.get("shards_recleaned", 0) / n_ops
    m["sharding.shards_reused"] = stats.get("shards_reused", 0) / n_ops
    m["sharding.worker_busy_s"] = worker_busy / n_ops
    m["sharding.parallel_eff"] = _ratio(worker_busy, workers * apply_total)
    m["payload.encode_s"] = total("payload.encode") / n_ops
    m["payload.decode_s"] = (total("payload.decode")
                             + total("payload.unframe")) / n_ops
    m["payload.bytes_to_workers"] = stats.get("bytes_to_workers", 0) / n_ops
    m["payload.bytes_from_workers"] = (
        stats.get("bytes_from_workers", 0) / n_ops)
    m["supervision.retries"] = stats.get("dispatch_retries", 0)
    m["supervision.respawns"] = stats.get("worker_respawns", 0)
    m["supervision.fallbacks"] = stats.get("serial_fallbacks", 0)

    n_cp = calls("snapshot.checkpoint")
    m["snapshot.checkpoints"] = n_cp
    m["snapshot.checkpoint_s"] = _ratio(total("snapshot.checkpoint"), n_cp)
    m["snapshot.bytes"] = _ratio(tracer.counts.get("snapshot.bytes", 0),
                                 tracer.counts.get("snapshot.checkpoints", 0))

    m["service.queue_wait_ms"] = 1e3 * total("service.queue_wait") / n_ops
    m["service.batch_ms"] = 1e3 * apply_total / n_batches
    m["service.commit_ms"] = 1e3 * total("service.commit") / n_batches
    m["service.coalesce_ratio"] = n_ops / n_batches
    n_reads = max(1, len(read_roots))
    read_total = sum(r.duration for r in read_roots)
    clones = [sp for sp in read_members if sp.name == "relational.clone"]
    clone_total = sum(sp.duration for sp in clones)
    m["service.read_clone_s"] = clone_total / n_reads
    m["service.read_wait_ms"] = 1e3 * (read_total - clone_total) / n_reads
    m["service.snapshots_cut"] = len(clones)
    m["service.queue_depth_max"] = outcome.extra["depth_max"]
    lags = outcome.extra["lags"]
    m["service.generator_lag_ms"] = statistics.mean(lags) if lags else 0.0
