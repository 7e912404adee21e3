#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload batch_part --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced and a traced pass (half the seconds each)
and reports the per-layer metrics, the tracing overhead on every
end-to-end metric, and the span dump (``.perfbench/trace-<workload>.json``).
Each run checks the workload's outputs and exits non-zero when a gate
fails.  The last line of standard output is the JSON result; the lines
before it name every metric with its unit, the provenance, the path
shares and the gates.  See NOTES.md for the workloads and metrics.

Inputs are generated here from ``--seed`` and written as CSV; set-up and
measurement run in child processes so that every set-up sample reads
the inputs in a process that has not interned them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
FLAGS = ("REPRO_COLUMNAR", "REPRO_CHECK_ENGINE", "REPRO_REPAIR_ENGINE",
         "REPRO_MATCH_ENGINE")
#: Set-up samples per untraced run (the measuring child gives one).
SETUP_SAMPLES = 5
#: Every child must end before the run's 180-second limit.
RUN_LIMIT_S = 170.0
STARTED = time.monotonic()
NAMES = ("batch_part", "batch_dblp", "stream_part", "serve_part")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's input sizes")
    parser.add_argument("--role", choices=("main", "setup", "measure"),
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--perturb", default="",
                        help="self-test only: corrupt one output so its "
                             "gate must fail")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` and this directory on the path, with
    every engine flag unset so the defaults are what is measured."""
    for flag in FLAGS:
        os.environ.pop(flag, None)
    for path in (str(BENCH), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# Child roles
# ----------------------------------------------------------------------
def _role_setup(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads as wl

    spec = wl.spec_for(args.workload, args.scale)
    ready = wl.setup(spec, args.seed, Path(args.workdir))
    wl.teardown(ready)
    return {"setup_s": ready.setup_s * ready.setup_scale,
            "raw_setup_s": ready.setup_s}


def _role_measure(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads as wl
    from metrics import per_layer, ticket_trees
    from spans import Tracer, install

    spec = wl.spec_for(args.workload, args.scale)
    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        tracer.enabled = True
    ready = wl.setup(spec, args.seed, workdir, tracer)
    report: Dict[str, Any] = {"setup_s": ready.setup_s * ready.setup_scale}
    try:
        if tracer is not None:
            setup_root = next(sp for sp in tracer.spans if sp.name == "op.setup")
            tracer.mark()
        if spec.kind == "batch":
            outcome = wl.run_batch(ready, args.seconds, tracer)
        elif spec.kind == "stream":
            outcome = wl.run_stream(
                ready, args.seconds,
                n_ops=spec.traced_ops if tracer is not None else None,
                tracer=tracer,
            )
        else:
            outcome = wl.run_serve(ready, args.seconds, tracer)

        if tracer is not None:
            roots = [sp for sp in tracer.spans if sp.parent is None
                     and sp.name in ("op.clean", "op.apply", "service.read")]
            if spec.kind == "serve":
                roots = ticket_trees(tracer, outcome.extra["tickets"]) + roots
            if args.perturb == "spans":
                # A child outliving its parent breaks the accounting.
                child = next(sp for sp in tracer.spans
                             if sp.parent == roots[0].id)
                child.end += 1.0
            layer, accounting = per_layer(tracer, spec.kind, roots,
                                          setup_root, outcome, spec.workers)
            report["per_layer"] = layer
            report["accounting"] = accounting
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{spec.name}.json", roots + [setup_root])
            # The gates and the memory pass run untraced.
            tracer.enabled = False

        _perturb(args.perturb, ready, outcome)
        if spec.kind == "batch":
            recorded = wl.load_recorded_digest(BENCH, spec, args.scale,
                                               args.seed)
            gates = wl.gate_batch(ready, outcome, recorded)
        elif spec.kind == "stream":
            gates = wl.gate_stream(ready, outcome)
        else:
            gates = wl.gate_serve(ready, outcome)
        memory_result, peak_mb = wl.memory_pass(ready)
        if spec.kind == "batch":
            gates["digest_of_memory_pass"] = (
                [wl.digest(memory_result)] == outcome.extra["digests"][:1])
        if tracer is not None:
            gates["self_times_sum_to_roots"] = report["accounting"]["gap_ok"]
        report["gates"] = gates
        report["end_to_end"] = wl.end_to_end(
            ready.setup_s * ready.setup_scale, outcome, peak_mb)
        report["raw_end_to_end"] = wl.end_to_end(ready.setup_s, outcome.raw,
                                                 peak_mb)
        report["attempted"] = outcome.attempted
        report["failed"] = outcome.failed
        report["ops"] = len(outcome.op_ms)
        report["reads"] = len(outcome.read_ms)
        report["shares"] = _shares(spec, ready, outcome)
        report["probe_s"] = outcome.extra["probe_s"]
    finally:
        if tracer is not None:
            tracer.enabled = False
        wl.teardown(ready)
    return report


def _shares(spec, ready, outcome) -> Dict[str, Any]:
    """Path-share counters: which code path each operation took."""
    if spec.kind == "stream":
        return {"apply_kind_mode": outcome.extra["modes"]}
    if spec.kind == "serve":
        stats = ready.session.stats
        return {
            "routed_scoped_batches": stats["scoped_applies"],
            "replan_or_full_batches": stats["full_applies"],
            "writes_refused": outcome.extra["refused"],
        }
    return {}


def _perturb(what: str, ready, outcome) -> None:
    """Self-test hook: corrupt one output so the matching gate fails."""
    if what in ("", "spans"):
        return
    if what == "digest":
        outcome.extra["digests"][0] = "0" * 64
        return
    if what == "cost":
        outcome.extra["last"].cost += 1.0
        return
    if what == "verdict":
        outcome.extra["last"].clean = not outcome.extra["last"].clean
        return
    if what == "acks":
        first, second = outcome.extra["tickets"][:2]
        first.ack_seq, second.ack_seq = second.ack_seq, first.ack_seq
        return
    if what == "verify":
        relation = outcome.extra["last"].repaired
    elif what == "state":
        relation = (ready.service.read("part") if ready.service is not None
                    else ready.session.working)
    else:
        raise ValueError(f"unknown perturbation {what!r}")
    # A cell whose variable-CFD group has another member, so the flip
    # also breaks the rule (the verify gate must see it).
    cfd = next(c for c in ready.inputs.cfds if c.is_variable)
    lhs = list(cfd.lhs)
    rhs = cfd.rhs[0]
    seen = {}
    for t in relation:
        key = tuple(t[a] for a in lhs)
        if key in seen:
            relation.set_value(t, rhs, f"{t[rhs]}#flipped")
            return
        seen[key] = t
    raise ValueError("no variable-CFD group with two members to perturb")


# ----------------------------------------------------------------------
# The command-line entry point
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, role: str, workdir: Path,
           seconds: float, trace: int, tag: str) -> Dict[str, Any]:
    out = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--scale", args.scale, "--role", role,
        "--workdir", str(workdir), "--out", str(out),
    ]
    if args.perturb and role == "measure":
        cmd += ["--perturb", args.perturb]
    env = {k: v for k, v in os.environ.items() if k not in FLAGS}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                            start_new_session=True)
    left = RUN_LIMIT_S - (time.monotonic() - STARTED)
    try:
        code = proc.wait(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Stop whatever is left in the child's process group (a hung
        # child, or shard workers it failed to close) and reap the child.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RuntimeError(f"{role} child passed the run's time limit")
    if code != 0:
        raise RuntimeError(f"{role} child exited with code {code}")
    return json.loads(out.read_text())


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "flags": {flag: os.environ.get(flag) for flag in FLAGS},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.role != "main":
        _import_program()
        role = _role_setup if args.role == "setup" else _role_measure
        Path(args.out).write_text(json.dumps(role(args), default=float))
        return 0
    provenance = _provenance(args)  # before the flags are cleared
    _import_program()

    import workloads as wl
    from metrics import END_TO_END, PER_LAYER, SERVE_READS

    spec = wl.spec_for(args.workload, args.scale)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl.make_inputs(spec, args.seed, workdir)
        if args.trace:
            half = args.seconds / 2
            plain = _child(args, "measure", workdir, half, 0, "untraced")
            traced = _child(args, "measure", workdir, half, 1, "traced")
            runs = [plain, traced]
            metrics = traced["per_layer"]
            catalog = PER_LAYER
            overhead = {
                name: traced["end_to_end"][name] - plain["end_to_end"][name]
                for name in plain["end_to_end"]
            }
        else:
            samples = [
                _child(args, "setup", workdir, 0.0, 0, f"setup{i}")["setup_s"]
                for i in range(SETUP_SAMPLES - 1)
            ]
            plain = _child(args, "measure", workdir, args.seconds, 0,
                           "untraced")
            runs = [plain]
            samples.append(plain["setup_s"])
            metrics = dict(plain["end_to_end"])
            metrics["setup_s"] = statistics.median(samples)
            catalog = END_TO_END
            overhead = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates = {f"{i}.{k}": v for i, run in enumerate(runs)
             for k, v in run["gates"].items()}
    correct = all(v is True for v in gates.values())
    result = {
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            name: {"value": metrics[name], "unit": catalog[name][0]}
            for name in catalog
        },
    }
    report = {"provenance": provenance, "result": result, "runs": runs,
              "tracing_overhead": overhead}
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float))

    print(f"provenance: {json.dumps(provenance)}")
    for run in runs:
        reads = f" reads={run['reads']}" if run["reads"] else ""
        raw = run["raw_end_to_end"]
        print(f"ops={run['ops']}{reads} raw: "
              + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f" shares={json.dumps(run['shares'])}")
    for name, value in gates.items():
        print(f"gate {name}: {'pass' if value is True else 'FAIL'}")
    if overhead is not None:
        for name, delta in overhead.items():
            unit = {**END_TO_END, **SERVE_READS}[name][0]
            print(f"tracing overhead {name}: {delta:+.6g} {unit}")
        accounting = traced["accounting"]
        print(f"self-time accounting: roots={accounting['roots']} "
              f"root_total={accounting['root_total_s']:.6f}s "
              f"gap={accounting['gap_s']:+.6f}s")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"failed_frac: {failed_frac:.6g} ratio")
    for name, entry in result["metrics"].items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    for name, (unit, _better) in SERVE_READS.items():
        if name in metrics:  # serve_part's reads: printed, not declared
            print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
