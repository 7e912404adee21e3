"""In-memory spans around the calls into each layer of the cleaning system.

The tracer never edits the program: :func:`install` replaces a layer's
public entry point *on the name where its caller looks it up* (a module
global such as ``repro.pipeline.session.crepair``, a class attribute
such as ``Relation.clone``, or an attribute of one live object such as
the registered session's ``apply_many``) with a wrapper that records a
span and, where the layer returns them, its counters.  Worker processes
are out of reach, so sharded runs take worker-side numbers from the
``timings``/``stats`` the program already returns.

A span is ``(id, name, layer, start, end, parent, op)``; spans of one
operation share ``op``.  A layer's self time is its span's duration
minus the part of that interval its child spans cover, so the self
times of one tree add up to its root's duration unless a child escapes
its parent (which :func:`self_times` reports as an accounting gap).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

clock = time.monotonic  # the clock ``WriteTicket`` stamps use


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "op")

    def __init__(self, sid, name, layer, start, parent, op):
        self.id = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start

    def as_json(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Span and counter sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: MD blocking indexes built while tracing (verify/probe counters).
        self.md_indexes: List[Any] = []
        #: One record per call of the registered session's apply_many.
        self.batches: List[Dict[str, Any]] = []
        self.verify_base = 0
        self.probe_base = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Forked shard workers inherit the wrappers; spans recorded there
        # could never be collected, so tracing stays off in them.
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False
        self.spans = []
        self.batches = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, op: Any = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(
            next(self._ids), name, layer, clock(),
            parent.id if parent is not None else None,
            op if op is not None or parent is None else parent.op,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = clock()
            stack.pop()
            self.spans.append(sp)

    def add_span(self, name, layer, start, end, parent=None, op=None) -> Span:
        """Record a span whose bounds were stamped elsewhere (tickets)."""
        sp = Span(next(self._ids), name, layer, start, parent, op)
        sp.end = end
        self.spans.append(sp)
        return sp

    def mark(self) -> None:
        """Start a measured pass: zero the counters and remember the
        verify-call totals of the MD indexes built so far."""
        self.counts.clear()
        self.verify_base = sum(i.verify_calls for i in self.md_indexes)
        self.probe_base = _probes(self.md_indexes)

    def verify_calls(self) -> int:
        return sum(i.verify_calls for i in self.md_indexes) - self.verify_base

    def probes(self) -> int:
        return _probes(self.md_indexes) - self.probe_base

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        on_result: Optional[Callable[[Any, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name, layer):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: Path, roots: Iterable[Span]) -> None:
        """Write the spans of the given trees (and their counters)."""
        keep = {sp.id for sp in roots}
        children = _children(self.spans)
        stack = list(keep)
        while stack:
            for child in children.get(stack.pop(), ()):
                if child.id not in keep:
                    keep.add(child.id)
                    stack.append(child.id)
        path.write_text(json.dumps({
            "spans": [sp.as_json() for sp in self.spans if sp.id in keep],
            "counts": dict(self.counts),
        }))


def _probes(indexes: Iterable[Any]) -> int:
    return sum(i.join_index.stats["probes"] for i in indexes
               if i.join_index is not None)


def _children(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            out.setdefault(sp.parent, []).append(sp)
    return out


def self_times(
    spans: List[Span], roots: List[Span]
) -> Tuple[Dict[str, float], Dict[str, float], float, float]:
    """Self time per layer and per span name over the trees of *roots*.

    Returns ``(by_layer, by_name, root_total, gap)`` where ``gap`` is
    ``sum(self times) - sum(root durations)``: zero when every child lies
    inside its parent and no two siblings overlap.
    """
    children = _children(spans)
    by_layer: Dict[str, float] = {}
    by_name: Dict[str, float] = {}
    root_total = 0.0
    total_self = 0.0
    for root in roots:
        root_total += root.duration
        stack = [root]
        while stack:
            sp = stack.pop()
            kids = children.get(sp.id, [])
            covered = covered_by(sp, kids)
            own = sp.duration - covered
            by_layer[sp.layer] = by_layer.get(sp.layer, 0.0) + own
            by_name[sp.name] = by_name.get(sp.name, 0.0) + own
            total_self += own
            stack.extend(kids)
    return by_layer, by_name, root_total, total_self - root_total


def covered_by(parent: Span, kids: List[Span]) -> float:
    """Length of ``parent``'s interval covered by the union of *kids*."""
    lo, hi = parent.start, parent.end or parent.start
    intervals = sorted(
        (max(lo, k.start), min(hi, k.end or k.start)) for k in kids
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def subtree(spans: List[Span], root: Span) -> List[Span]:
    """*root* and every span below it."""
    children = _children(spans)
    out = [root]
    stack = [root]
    while stack:
        for child in children.get(stack.pop().id, ()):
            out.append(child)
            stack.append(child)
    return out


# ----------------------------------------------------------------------
# The layer map: which entry point each layer's span wraps.
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the entry points of every in-process layer.  Call once per
    process, then toggle ``tracer.enabled``."""
    import repro.pipeline.session as session_mod
    import repro.pipeline.sharding as sharding_mod
    import repro.pipeline.snapshot as snapshot_mod
    import repro.pipeline.payload as payload_mod
    import repro.relational.io as rio
    from repro.indexing.blocking import MDBlockingIndex
    from repro.indexing.group_store import GroupStoreRegistry
    from repro.pipeline.session import CleaningSession
    from repro.pipeline.sharding import ShardPlanner
    from repro.relational.relation import Relation

    # relational: CSV load (the benchmark's own read path) and clones.
    tracer.wrap(rio, "read_csv", "relational.load", "relational")
    tracer.wrap(Relation, "clone", "relational.clone", "relational")

    # group_store: LHS-keyed group builds.
    tracer.wrap(GroupStoreRegistry, "ensure_rules", "group_store.build",
                "group_store")

    # blocking: master-side index build, premise matching, memo lookups.
    def built(args, kwargs, indexes):
        tracer.md_indexes.extend(indexes.values())

    tracer.wrap(session_mod, "build_md_indexes", "blocking.build",
                "blocking", built)

    tracer.wrap(MDBlockingIndex, "matches", "blocking.match", "blocking",
                lambda a, k, r: tracer.count("blocking.matched", len(r)))
    _count_lookups(tracer, MDBlockingIndex)

    # Repair phases and verification, as the session calls them.
    for phase, field in (
        ("crepair", "deterministic_fixes"),
        ("erepair", "reliable_fixes"),
        ("hrepair", "possible_fixes"),
    ):
        def fixes(args, kwargs, result, _phase=phase, _field=field):
            tracer.count(f"{_phase}.fixes", getattr(result, _field))

        tracer.wrap(session_mod, phase, f"{phase}.run", phase, fixes)
    tracer.wrap(session_mod, "relation_is_clean", "consistency.verify",
                "consistency")

    # session: full (re)cleans inside a session.
    tracer.wrap(CleaningSession, "clean", "session.clean", "session")

    # sharding: the planner; payload: the coordinator's wire codecs.
    for attr in ("plan", "components"):
        tracer.wrap(ShardPlanner, attr, "sharding.plan", "sharding",
                    lambda a, k, r: tracer.count("sharding.planner_calls"))
    tracer.wrap(sharding_mod, "_encode_request", "payload.encode", "payload")
    tracer.wrap(sharding_mod, "_decode_response", "payload.decode", "payload")
    tracer.wrap(payload_mod, "unframe", "payload.unframe", "payload")

    # snapshot: checkpoints (the service writes them before acking).
    def checkpointed(args, kwargs, target):
        tracer.count("snapshot.checkpoints")
        tracer.count("snapshot.bytes", sum(
            p.stat().st_size for p in Path(target).rglob("*") if p.is_file()
        ))

    tracer.wrap(snapshot_mod, "save_checkpoint", "snapshot.checkpoint",
                "snapshot", checkpointed)


def _count_lookups(tracer: Tracer, index_cls: Any) -> None:
    """Count the memoized MD lookups without a span (they are too many,
    and too cheap, for one).  Every lookup passes through
    ``cached_matches`` once (``cached_find_match`` calls it; only a miss
    calls ``matches``), and each is classed by the path ``matches`` takes
    for its index: the q-gram join when the premise has no equality
    clause, an equality bucket otherwise.  Every shipped rule set gives
    each MD an equality clause, so the two classes add up to all lookups.
    """
    original = index_cls.cached_matches

    @functools.wraps(original)
    def cached_matches(index, t):
        if tracer.enabled:
            tracer.count("blocking.lookups")
            if index.join_index is not None:
                tracer.count("blocking.qgram_lookups")
            elif any(c.is_equality for c in index.md.premise):
                tracer.count("blocking.eq_lookups")
        return original(index, t)

    index_cls.cached_matches = cached_matches


def wrap_sharded(tracer: Tracer, session: Any) -> None:
    """Wrap the registered sharded session's ``apply_many`` (the service
    looks it up on the instance) and record one batch per call, with the
    worker-side phase timings and counters the session returns."""
    original = session.apply_many

    @functools.wraps(original)
    def apply_many(changesets):
        if not tracer.enabled:
            return original(changesets)
        before = dict(session.stats)
        planner_before = tracer.counts.get("sharding.planner_calls", 0)
        with tracer.span("sharding.apply", "sharding") as sp:
            result = original(changesets)
        after = session.stats
        timings = dict(result.timings) if result is not None else {}
        tracer.batches.append({
            "span": sp,
            "changesets": [id(cs) for cs in changesets],
            "replan": tracer.counts.get("sharding.planner_calls", 0)
            > planner_before,
            "timings": timings,
            "fixes": _result_fixes(result),
            "stats": {key: after[key] - before.get(key, 0) for key in after},
        })
        return result

    session.apply_many = apply_many


def _result_fixes(result: Any) -> Dict[str, int]:
    if result is None:
        return {}
    out = {}
    for phase, attr, field in (
        ("crepair", "crepair_result", "deterministic_fixes"),
        ("erepair", "erepair_result", "reliable_fixes"),
        ("hrepair", "hrepair_result", "possible_fixes"),
    ):
        value = getattr(result, attr, None)
        out[phase] = getattr(value, field, 0) if value is not None else 0
    return out
