"""The four workloads: seeded inputs, set-up, measured passes, output gates.

Each workload is one way users drive the system (see NOTES.md for why
each exists and which layers it stresses):

* ``batch_part`` / ``batch_dblp`` — cold ``UniClean(...).clean()``;
* ``stream_part`` — one ``CleaningSession`` under a closed-loop client
  applying single-op changesets;
* ``serve_part`` — ``CleaningService`` over a two-worker
  ``ShardedCleaningSession`` with an open-loop writer, a fixed-rate
  reader and a closing burst.

Everything here runs inside one measuring process; ``run.py`` spawns it
so that the inputs are read by a process that has not interned them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import threading
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.relational.io as rio
from repro.analysis.consistency import relation_is_clean
from repro.core.uniclean import UniClean, UniCleanConfig
from repro.datasets import (
    DBLP_SCHEMA, PART_SCHEMA, dblp_rules, generate_dblp,
    generate_partitioned, part_rules,
)
from repro.exceptions import ServiceOverloaded
from repro.pipeline import (
    Changeset, CleaningService, CleaningSession, FlushPolicy,
    ShardedCleaningSession,
)

from spans import Tracer, clock, wrap_sharded

CONFIG = UniCleanConfig(eta=1.0)
TENANT = "part"


@dataclass(frozen=True)
class Spec:
    """One workload's shape.  Sizes fit a 25-second run on 2 CPUs."""

    name: str
    kind: str  # "batch" | "stream" | "serve"
    dataset: str  # "part" | "dblp"
    size: int
    blocks: int = 0
    master_size: int = 0
    #: stream: applies in the traced pass (fixed, so counters repeat).
    traced_ops: int = 0
    #: stream/serve: applies in the memory pass (see memory_pass).
    memory_ops: int = 0
    workers: int = 2
    shards: int = 8
    #: serve: the writer's fixed schedule, ``write_gap`` seconds after a
    #: catalog edit and ``heavy_gap`` after a heavy op (see run_serve).
    write_gap: float = 0.0
    heavy_gap: float = 0.0
    read_rate: float = 0.0  # reads/s, fixed rate
    burst: int = 0  # back-to-back writes closing the serve run
    checkpoint_every: int = 0


WORKLOADS: Dict[str, Spec] = {
    "batch_part": Spec("batch_part", "batch", "part", 3000, blocks=12),
    "batch_dblp": Spec("batch_dblp", "batch", "dblp", 500, master_size=250),
    "stream_part": Spec("stream_part", "stream", "part", 2000, blocks=8,
                        traced_ops=100, memory_ops=15),
    "serve_part": Spec("serve_part", "serve", "part", 800, blocks=8,
                       memory_ops=15, write_gap=0.025, heavy_gap=0.4,
                       read_rate=25.0,
                       burst=320, checkpoint_every=32),
}

#: The self-test's scale: the same workloads, small enough to run all
#: four in seconds.
TINY: Dict[str, Spec] = {
    "batch_part": replace(WORKLOADS["batch_part"], size=400, blocks=4),
    "batch_dblp": replace(WORKLOADS["batch_dblp"], size=80, master_size=40),
    "stream_part": replace(WORKLOADS["stream_part"], size=300, blocks=4,
                           traced_ops=20, memory_ops=5),
    "serve_part": replace(WORKLOADS["serve_part"], size=300, blocks=4,
                          shards=4, memory_ops=5, write_gap=0.02,
                          heavy_gap=0.17, read_rate=20.0, burst=8,
                          checkpoint_every=4),
}


def spec_for(name: str, scale: str) -> Spec:
    return (TINY if scale == "tiny" else WORKLOADS)[name]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_inputs(spec: Spec, seed: int, workdir: Path) -> None:
    """Generate the workload's dirty and master relations from *seed*
    and write them as CSV (values and confidences)."""
    if spec.dataset == "part":
        ds = generate_partitioned(size=spec.size, n_blocks=spec.blocks,
                                  seed=seed)
    else:
        ds = generate_dblp(size=spec.size, master_size=spec.master_size,
                           seed=seed)
    workdir.mkdir(parents=True, exist_ok=True)
    rio.write_csv(ds.dirty, workdir / "dirty.csv")
    rio.write_csv(ds.master, workdir / "master.csv")


@dataclass
class Inputs:
    dirty: Any
    master: Any
    cfds: list
    mds: list


def load(spec: Spec, seed: int, workdir: Path) -> Inputs:
    schema = PART_SCHEMA if spec.dataset == "part" else DBLP_SCHEMA
    dirty = rio.read_csv(schema, workdir / "dirty.csv")
    master = rio.read_csv(schema, workdir / "master.csv")
    cfds, mds = part_rules(seed) if spec.dataset == "part" else dblp_rules()
    return Inputs(dirty, master, cfds, mds)


def cleaner(inputs: Inputs) -> UniClean:
    return UniClean(cfds=inputs.cfds, mds=inputs.mds, master=inputs.master,
                    config=CONFIG)


# ----------------------------------------------------------------------
# Set-up: everything until the program is ready for its first operation
# ----------------------------------------------------------------------
def _probe_loop(buffer: memoryview) -> int:
    """Fixed work: interpreter-bound dict and integer updates, then
    strided passes over a buffer larger than the caches (the repair
    phases are both).  Nothing it allocates is tracked by the cyclic GC,
    so its time does not depend on the process's heap."""
    counts: Dict[int, int] = {}
    total = 0
    for i in range(100_000):
        key = i % 2003
        counts[key] = counts.get(key, 0) + i
        total += key * 31 % 7
    for _ in range(8):
        total += len(bytes(buffer[::64]))
    return total


class SpeedProbe:
    """The machine's speed while a run measures.

    On the shared 2-CPU box this benchmark was tuned on, CPU speed drifts
    by 15-30% over seconds as other tenants come and go — a fixed
    pure-Python loop drifts as much as a clean does — so raw times of two
    runs compare the neighbours as much as the program.  Runs time
    ``_probe_loop`` between operations and report every time at the
    reference speed: an operation's raw time times ``REFERENCE_S`` over
    the mean of the probes just before and just after it.  The speed
    phases last seconds, longer than an operation, so this removes them
    where one run-wide factor would not.  Raw values stay in the report.
    """

    #: The probe's median time on the box the benchmark was tuned on.
    REFERENCE_S = 0.05

    def __init__(self, interval: float = 0.5):
        self.times: List[float] = []
        self.interval = interval
        self._due = 0.0
        self._buffer = memoryview(bytearray(8 << 20))

    def maybe(self) -> None:
        """Probe if *interval* seconds passed since the last probe."""
        if time.perf_counter() >= self._due:
            self.probe()

    def probe(self) -> None:
        gc.disable()
        try:
            started = time.perf_counter()
            _probe_loop(self._buffer)
            ended = time.perf_counter()
        finally:
            gc.enable()
        self.times.append(ended - started)
        self._due = ended + self.interval

    def mark(self) -> int:
        """The index of the latest probe (taken before an operation)."""
        return len(self.times) - 1

    def at_reference(self, values: List[float],
                     marks: List[int]) -> List[float]:
        """*values* at the reference speed; call after a closing probe."""
        t = self.times
        return [v * 2 * self.REFERENCE_S / (t[j] + t[j + 1])
                for v, j in zip(values, marks)]

    @property
    def scale(self) -> float:
        """One factor for the whole run (set-up, throughput bursts)."""
        return self.REFERENCE_S / statistics.median(self.times)


@dataclass
class Ready:
    spec: Spec
    seed: int
    workdir: Path
    inputs: Inputs
    setup_s: float
    #: Speed scale measured right after set-up (see SpeedProbe).
    setup_scale: float
    session: Any = None
    service: Any = None


def setup(spec: Spec, seed: int, workdir: Path,
          tracer: Optional[Tracer] = None) -> Ready:
    started = time.perf_counter()
    with _root(tracer, "op.setup", "setup"):
        inputs = load(spec, seed, workdir)
        cleaner(inputs)
        session = service = None
        if spec.kind == "stream":
            session = CleaningSession(cfds=inputs.cfds, mds=inputs.mds,
                                      master=inputs.master, config=CONFIG)
            session.clean(inputs.dirty)
        elif spec.kind == "serve":
            session = ShardedCleaningSession(
                cfds=inputs.cfds, mds=inputs.mds, master=inputs.master,
                config=CONFIG, n_workers=spec.workers, n_shards=spec.shards,
            )
            if tracer is not None:
                wrap_sharded(tracer, session)
            session.clean(inputs.dirty)
            service = CleaningService(
                flush_policy=FlushPolicy(max_batch=16, max_linger=0.0)
            )
            service.register(
                TENANT, session, checkpoint_dir=workdir / "checkpoints",
                checkpoint_every=spec.checkpoint_every,
            )
    setup_s = time.perf_counter() - started
    probe = SpeedProbe()
    for _ in range(3):
        probe.probe()
    return Ready(spec, seed, workdir, inputs, setup_s, probe.scale,
                 session, service)


def teardown(ready: Ready) -> None:
    if ready.service is not None:
        ready.service.close()
    elif ready.session is not None:
        ready.session.close()


def _root(tracer: Optional[Tracer], name: str, layer: str, op: Any = None):
    """The root span of one operation, or nothing when not tracing."""
    if tracer is None or not tracer.enabled:
        return nullcontext()
    return tracer.span(name, layer, op=op if op is not None else name)


# ----------------------------------------------------------------------
# Helpers shared by the passes
# ----------------------------------------------------------------------
def p95(values: List[float]) -> float:
    """The 95th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def full_state(relation) -> Dict[int, tuple]:
    names = relation.schema.names
    return {
        t.tid: tuple((repr(t[a]), t.conf(a)) for a in names)
        for t in relation
    }


def digest(result) -> str:
    """SHA-256 of repaired state, ordered fix log and cost."""
    h = hashlib.sha256()
    names = result.repaired.schema.names
    for t in result.repaired:
        h.update(repr((t.tid, [(t[a], t.conf(a)) for a in names])).encode())
    for f in result.fix_log:
        h.update(repr((f.kind.value, f.rule_name, f.tid, f.attr,
                       f.old_value, f.new_value, f.source)).encode())
    h.update(repr(result.cost).encode())
    return h.hexdigest()


class PointReads:
    """Seeded point reads of one cell by tuple id (absent once deleted)."""

    def __init__(self, tids: List[int], names, seed: int):
        rng = random.Random(seed * 7 + 3)
        self.keys = [(rng.choice(tids), rng.choice(names)) for _ in range(997)]
        self.i = 0

    def next(self) -> Callable:
        tid, attr = self.keys[self.i % len(self.keys)]
        self.i += 1
        return lambda relation: (
            relation.by_tid(tid)[attr] if relation.has_tid(tid) else None)


class OpMix:
    """Seeded single-op changesets for the stream and serve clients.

    Four in five ops are catalog edits (``cat`` or ``score``), which the
    session can mostly replay scoped; the fifth cycles through a delete,
    an insert and a premise edit (``grp``), which take the full replay.
    The fixed cycle pins the heavy share at 20%: p50 lies in the scoped
    mode and p95 deep inside the full-replay mode on every seed, and the
    few catalog edits that also replay in full (their share depends on
    the seed's data) move the mean apply time by a small fraction only.
    Ops target only original tuples that are still live.
    """

    HEAVY = ("delete", "insert", "premise")
    CYCLE = 5

    def __init__(self, dirty, seed: int):
        self.rng = random.Random(seed * 7919 + 17)
        self.rows = {t.tid: t.as_dict() for t in dirty}
        self.live = sorted(self.rows)
        self.grps = sorted({row["grp"] for row in self.rows.values()})
        self.i = 0

    def next(self) -> Tuple[str, Changeset]:
        rng = self.rng
        slot = self.i
        self.i += 1
        cs = Changeset()
        if slot % self.CYCLE == self.CYCLE - 1:
            kind = self.HEAVY[(slot // self.CYCLE) % len(self.HEAVY)]
        else:
            kind = "cat" if rng.random() < 0.75 else "score"
        if kind == "delete":
            index = rng.randrange(len(self.live))
            self.live[index], self.live[-1] = self.live[-1], self.live[index]
            cs.delete(self.live.pop())
        elif kind == "insert":
            row = dict(self.rows[rng.choice(self.live)])
            row["score"] = str(rng.randrange(5, 100))
            cs.insert(row)
        elif kind == "premise":
            cs.edit(rng.choice(self.live), "grp", rng.choice(self.grps))
        elif kind == "cat":
            donor = self.rows[rng.choice(self.live)]
            cs.edit(rng.choice(self.live), "cat", donor["cat"])
        else:
            cs.edit(rng.choice(self.live), "score", str(rng.randrange(5, 100)))
        return kind, cs


@dataclass
class Outcome:
    """What one measured pass saw.  Times are at the reference speed
    (see SpeedProbe); ``raw`` holds them as measured.  ``read_ms`` is
    serve_part's only, and stays raw there (see run_serve)."""

    op_ms: List[float]
    read_ms: List[float]
    throughput: float
    attempted: int
    failed: int
    raw: "Outcome"
    extra: Dict[str, Any]


# ----------------------------------------------------------------------
# batch_*: cold cleans
# ----------------------------------------------------------------------
def run_batch(ready: Ready, seconds: float,
              tracer: Optional[Tracer] = None) -> Outcome:
    inputs = ready.inputs
    op_ms: List[float] = []
    digests: List[str] = []
    last = None
    failed = 0
    # One untimed, untraced clean first: lazy set-up that a process pays
    # once (imports on first use) is not part of a cold clean.
    tracing = tracer is not None and tracer.enabled
    if tracing:
        tracer.enabled = False
    digests.append(digest(cleaner(inputs).clean(inputs.dirty)))
    if tracing:
        tracer.enabled = True
    probe = SpeedProbe()
    marks: List[int] = []
    deadline = time.perf_counter() + seconds
    while len(op_ms) + failed < 3 or time.perf_counter() < deadline:
        last = result = None
        gc.collect()  # no garbage of the previous sample in this one
        probe.probe()
        fresh = cleaner(inputs)  # a fresh instance: cold MD indexes
        try:
            with _root(tracer, "op.clean", "session", op=len(op_ms)):
                started = time.perf_counter()
                result = fresh.clean(inputs.dirty)
                op_ms.append((time.perf_counter() - started) * 1e3)
                marks.append(probe.mark())
        except Exception:  # counted as a failed operation
            traceback.print_exc()
            failed += 1
            continue
        digests.append(digest(result))
        last = result
    probe.probe()
    rows = len(inputs.dirty)
    return _closed_loop(probe, op_ms, marks, rows, len(op_ms) + failed,
                        failed, {"digests": digests, "last": last,
                                 "probe_s": probe.times})


def _closed_loop(probe: SpeedProbe, raw_ms: List[float], marks: List[int],
                 work_per_op: float, attempted: int, failed: int,
                 extra: Dict[str, Any]) -> Outcome:
    """A closed-loop pass: throughput is work per second of op time."""
    def outcome(op_ms: List[float], raw=None) -> Outcome:
        return Outcome(op_ms, [],
                       throughput=work_per_op * len(op_ms) / (sum(op_ms) / 1e3),
                       attempted=attempted, failed=failed, raw=raw,
                       extra=extra)

    return outcome(probe.at_reference(raw_ms, marks), outcome(raw_ms))


def gate_batch(ready: Ready, outcome: Outcome,
               recorded: Optional[str]) -> Dict[str, Any]:
    inputs = ready.inputs
    last = outcome.extra["last"]
    digests = set(outcome.extra["digests"])
    gates: Dict[str, Any] = {}
    gates["independent_verify"] = last is not None and relation_is_clean(
        last.repaired, inputs.cfds, inputs.mds, inputs.master
    )
    gates["digest_stable"] = len(digests) == 1
    if recorded is not None:
        gates["digest_recorded"] = digests == {recorded}
    return gates


# ----------------------------------------------------------------------
# stream_part: closed-loop applies on one session
# ----------------------------------------------------------------------
def run_stream(ready: Ready, seconds: Optional[float],
               n_ops: Optional[int] = None,
               tracer: Optional[Tracer] = None) -> Outcome:
    session = ready.session
    mix = OpMix(ready.inputs.dirty, ready.seed)
    op_ms: List[float] = []
    modes: Dict[str, int] = {}
    affected_cells = 0
    failed = 0
    last = None
    probe = SpeedProbe()
    marks: List[int] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while (
        len(op_ms) + failed < n_ops if n_ops is not None
        else time.perf_counter() < deadline
    ):
        probe.maybe()
        kind, cs = mix.next()
        try:
            with _root(tracer, "op.apply", "session", op=mix.i):
                started = time.perf_counter()
                out = session.apply(cs)
                op_ms.append((time.perf_counter() - started) * 1e3)
                marks.append(probe.mark())
        except Exception:  # counted as a failed operation
            traceback.print_exc()
            failed += 1
            continue
        last = out
        mode = "full" if out.full_reclean else "scoped"
        modes[f"{kind}_{mode}"] = modes.get(f"{kind}_{mode}", 0) + 1
        affected_cells += out.affected_cells
    probe.probe()
    return _closed_loop(probe, op_ms, marks, 1, len(op_ms) + failed, failed,
                        {"modes": modes, "affected_cells": affected_cells,
                         "last": last, "probe_s": probe.times})


def traced_peak(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run *fn* under tracemalloc: its result and the heap peak in MB."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def memory_pass(ready: Ready) -> Tuple[Any, float]:
    """The workload's heap peak, in a pass apart from the timed ones.

    batch: one cold clean (its result is gated with the samples').
    stream: a fresh ``CleaningSession``'s initial clean plus the first
    ``memory_ops`` applies of the seed's op mix, so the memory the
    session holds and allocates across applies counts.  serve: the same
    on a fresh ``ShardedCleaningSession``; tracemalloc sees the
    coordinator's heap, the workers' heaps are out of its reach.
    """
    spec, inputs = ready.spec, ready.inputs
    if spec.kind == "batch":
        return traced_peak(lambda: cleaner(inputs).clean(inputs.dirty))
    return traced_peak(lambda: _session_pass(ready))


def _session_pass(ready: Ready) -> None:
    spec, inputs = ready.spec, ready.inputs
    if spec.kind == "stream":
        session = CleaningSession(cfds=inputs.cfds, mds=inputs.mds,
                                  master=inputs.master, config=CONFIG)
    else:
        session = ShardedCleaningSession(
            cfds=inputs.cfds, mds=inputs.mds, master=inputs.master,
            config=CONFIG, n_workers=spec.workers, n_shards=spec.shards,
        )
    try:
        session.clean(inputs.dirty)
        mix = OpMix(inputs.dirty, ready.seed)
        for _ in range(spec.memory_ops):
            session.apply(mix.next()[1])
    finally:
        session.close()


def gate_stream(ready: Ready, outcome: Outcome) -> Dict[str, Any]:
    session = ready.session
    reference = cleaner(ready.inputs).clean(session.base)
    last = outcome.extra["last"]
    gates = {
        "state_equals_scratch_clean":
            full_state(session.working) == full_state(reference.repaired),
        "cost_equals_scratch_clean": last is not None and _close(
            last.cost, reference.cost),
        "verdict_equals_scratch_clean": last is not None
        and last.clean == reference.clean,
    }
    return gates


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# serve_part: open-loop writer + fixed-rate reader + burst
# ----------------------------------------------------------------------
#: serve_part's burst runs in ``BURST_PARTS`` parts.  After each part,
#: and after each cycle of the open loop, the queue drains and
#: ``BOUNDARY_PROBES`` speed probes run on the quiet process.
BURST_PARTS = 5
BOUNDARY_PROBES = 2


def _sleep_until(due: float) -> None:
    delay = due - clock()
    if delay > 0:
        time.sleep(delay)


def run_serve(ready: Ready, seconds: float,
              tracer: Optional[Tracer] = None) -> Outcome:
    """The open loop, one op-mix cycle at a time, then a burst in
    ``BURST_PARTS`` parts.

    In a cycle the writer sends the four catalog edits ``write_gap``
    apart and then the heavy op, which gets ``heavy_gap`` before the
    next cycle.  The schedule is fixed in advance; the gap is two to
    three times a heavy op's usual time, so a heavy op slowed by a
    loaded machine still does not queue the next write, and p50 stays
    in the unqueued scoped mode.  Reads run at ``read_rate`` beside the writes.  After each
    cycle the queue drains and speed probes run on the quiet process;
    every write and burst part is scaled by the median of the probes
    just before and after it (see SpeedProbe) — the writer, reader and
    commit threads share the interpreter, so nothing can be probed
    between single writes.  The service flushes without a linger, so an
    unqueued write waits on no fixed sleep and its time follows the
    machine's speed.  Read latencies stay raw: most reads are a
    dictionary lookup on a cached snapshot."""
    spec = ready.spec
    service = ready.service
    if tracer is not None and tracer.enabled:
        # ``query`` looks ``read`` up on the instance: its snapshot
        # clones then land under the read's span.
        tracer.wrap(service, "read", "service.read_call", "service")
    mix = OpMix(ready.inputs.dirty, ready.seed)
    reads = PointReads(list(ready.inputs.dirty.tids()),
                       ready.inputs.dirty.schema.names, ready.seed)
    sent: List[Tuple[float, Any]] = []  # (due, ticket)
    lags: List[float] = []
    depth_max = [0]
    refused = [0]
    read_ms: List[float] = []
    read_failed = [0]
    failed_tickets = 0
    probe = SpeedProbe()
    probe.probe()  # warm-up: the first pass faults the buffer in
    bounds: List[List[float]] = []

    def boundary() -> float:
        """Probe; return the reference-speed factor of the stretch since
        the previous boundary."""
        first = len(probe.times)
        for _ in range(BOUNDARY_PROBES):
            probe.probe()
        bounds.append(probe.times[first:])
        if len(bounds) < 2:
            return 1.0
        return SpeedProbe.REFERENCE_S / statistics.median(
            bounds[-2] + bounds[-1])

    cycle_s = (OpMix.CYCLE - 1) * spec.write_gap + spec.heavy_gap
    cycles = max(1, round(seconds / cycle_s))
    n_reads = max(1, round(spec.read_rate * cycle_s))

    def writer(start: float) -> None:
        due = start
        for _ in range(OpMix.CYCLE):
            kind, cs = mix.next()
            _sleep_until(due)
            lags.append((clock() - due) * 1e3)
            try:
                ticket = service.submit(TENANT, cs, block=False)
            except ServiceOverloaded:
                refused[0] += 1
            else:
                sent.append((due, ticket))
                depth = service.stats(TENANT)["queue_depth"]
                depth_max[0] = max(depth_max[0], depth)
            due += spec.heavy_gap if kind in OpMix.HEAVY else spec.write_gap

    def reader(start: float) -> None:
        for j in range(n_reads):
            due = start + j / spec.read_rate
            fn = reads.next()
            _sleep_until(due)
            try:
                with _root(tracer, "service.read", "service",
                           op=f"r{reads.i}"):
                    service.query(TENANT, fn)
            except Exception:  # counted as a failed operation
                traceback.print_exc()
                read_failed[0] += 1
                continue
            read_ms.append((clock() - due) * 1e3)

    op_raw: List[float] = []
    op_ms: List[float] = []
    boundary()
    for _ in range(cycles):
        start = clock() + 0.01
        first = len(sent)
        threads = [
            threading.Thread(target=writer, args=(start,),
                             name="bench-writer"),
            threading.Thread(target=reader, args=(start,),
                             name="bench-reader"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cycle_ms: List[float] = []
        for due, ticket in sent[first:]:
            try:
                ticket.result(timeout=120.0)
                cycle_ms.append((ticket.acked_at - due) * 1e3)
            except Exception:  # a failed ticket
                traceback.print_exc()
                failed_tickets += 1
        factor = boundary()
        op_raw.extend(cycle_ms)
        op_ms.extend(v * factor for v in cycle_ms)

    # Capacity: back-to-back bursts of the same op mix.
    burst: List[Any] = []
    burst_raw_s = burst_ref_s = 0.0
    burst_acked = 0
    for part in range(BURST_PARTS):
        size = spec.burst // BURST_PARTS + (part < spec.burst % BURST_PARTS)
        began = clock()
        tickets: List[Any] = []
        for _ in range(size):
            _kind, cs = mix.next()
            try:
                tickets.append(service.submit(TENANT, cs, timeout=60.0))
            except ServiceOverloaded:
                refused[0] += 1
        for ticket in tickets:
            try:
                ticket.result(timeout=120.0)
            except Exception:  # a failed ticket
                traceback.print_exc()
                failed_tickets += 1
        acked = [t for t in tickets if t.ack_seq is not None]
        ended = max((t.acked_at for t in acked), default=clock())
        factor = boundary()
        burst.extend(tickets)
        burst_acked += len(acked)
        burst_raw_s += ended - began
        burst_ref_s += (ended - began) * factor

    raw = Outcome(op_raw, read_ms, burst_acked / max(burst_raw_s, 1e-9),
                  0, 0, None, {})
    return Outcome(
        op_ms, read_ms,
        throughput=burst_acked / max(burst_ref_s, 1e-9),
        attempted=cycles * (OpMix.CYCLE + n_reads) + spec.burst,
        failed=failed_tickets + refused[0] + read_failed[0],
        raw=raw,
        extra={"tickets": [t for _due, t in sent], "burst": burst,
               "lags": lags, "depth_max": depth_max[0],
               "refused": refused[0], "probe_s": probe.times},
    )


def gate_serve(ready: Ready, outcome: Outcome) -> Dict[str, Any]:
    service = ready.service
    tickets = [t for t in outcome.extra["tickets"] + outcome.extra["burst"]
               if t.ack_seq is not None]
    by_ack = sorted(tickets, key=lambda t: t.ack_seq)
    served = service.read(TENANT)
    edited = ready.inputs.dirty.clone()
    for ticket in by_ack:
        Changeset(list(ticket.changeset.ops)).apply_to(edited)
    reference = cleaner(ready.inputs).clean(edited)
    gates = {
        "acks_in_submission_order":
            [t.seq for t in by_ack] == sorted(t.seq for t in by_ack),
        "state_equals_serial_replay":
            full_state(served) == full_state(reference.repaired),
    }
    return gates


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(setup_s: float, outcome: Outcome,
               peak_mb: float) -> Dict[str, float]:
    """The end-to-end metrics every workload reports, plus serve_part's
    read latencies (see NOTES.md)."""
    out = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(outcome.op_ms),
        "op_p95_ms": p95(outcome.op_ms),
        "throughput_per_s": outcome.throughput,
        "peak_mem_mb": peak_mb,
    }
    if outcome.read_ms:
        out["read_p50_ms"] = statistics.median(outcome.read_ms)
        out["read_p95_ms"] = p95(outcome.read_ms)
    return out


def load_recorded_digest(root: Path, spec: Spec, scale: str,
                         seed: int) -> Optional[str]:
    path = root / "digests.json"
    if not path.exists():
        return None
    table = json.loads(path.read_text())
    return table.get(scale, {}).get(spec.name, {}).get(str(seed))
