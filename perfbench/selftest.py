#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py                 # about two minutes
    python3 perfbench/selftest.py --record 0-29   # refresh digests.json
    python3 perfbench/selftest.py --record 3 --scale tiny

Checks, at the tiny scale:

* BENCHMARK.json declares exactly the metrics ``metrics.py`` emits;
* every workload, untraced and traced, prints every named metric with
  its unit (and serve_part its read latencies, which are not declared);
* each output gate fails on a perturbed output (a flipped cell, an
  altered digest, cost or verdict, swapped acks, a child span outliving
  its parent), and the run then exits non-zero;
* a directory holding only BENCHMARK.json and perfbench/ makes the
  benchmark exit non-zero without printing a result.

``--record`` recomputes the batch workloads' output digests (repaired
state, ordered fix log, cost) for the given seeds at the given scale.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args: List[str], cwd: Path = ROOT) -> Tuple[int, str]:
    """Run the benchmark copy under *cwd*; return (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py")] + args,
        cwd=str(cwd), capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_declaration(problems: List[str]) -> None:
    sys.path.insert(0, str(BENCH))
    from metrics import END_TO_END, PER_LAYER

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        if got != dict(catalog):
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")


def check_workloads(problems: List[str]) -> None:
    sys.path.insert(0, str(BENCH))
    from metrics import END_TO_END, PER_LAYER, SERVE_READS

    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for workload in ("batch_part", "batch_dblp", "stream_part", "serve_part"):
        for trace, catalog in ((0, END_TO_END), (1, PER_LAYER)):
            code, out = _run(["--workload", workload, "--seed", "3",
                              "--seconds", "2", "--trace", str(trace),
                              "--scale", "tiny"])
            result = _result(out)
            tag = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{tag}: no result line (exit {code})")
                continue
            metrics = result["metrics"]
            missing = [n for n in catalog if n not in metrics]
            wrong = [n for n in catalog if n in metrics
                     and metrics[n]["unit"] != catalog[n][0]]
            extra = sorted(set(metrics) - set(catalog))
            if extra:
                wrong.append(f"undeclared result keys {extra}")
            printed = dict(catalog)
            if workload == "serve_part" and trace == 0:
                printed.update(SERVE_READS)
            lines = out.splitlines()
            for name, (unit, _better) in printed.items():
                if not any(line.startswith(f"{name}: ")
                           and line.endswith(f" {unit}") for line in lines):
                    missing.append(f"{name} (text line)")
            if missing or wrong:
                problems.append(f"{tag}: missing {missing}, wrong unit {wrong}")
            if workload in declared and (code != 0 or not result["correct"]):
                problems.append(f"{tag}: gates failed (exit {code})")
            print(f"{tag}: exit={code} correct={result['correct']} "
                  f"metrics={len(metrics)}")


#: (workload, trace, perturbation, gates that must fail).  Seed 3 of
#: the tiny batch workloads has a recorded digest.
NEGATIVE = (
    ("batch_part", 0, "verify", ["independent_verify"]),
    ("batch_part", 0, "digest", ["digest_stable", "digest_recorded",
                                 "digest_of_memory_pass"]),
    ("batch_dblp", 0, "verify", ["independent_verify"]),
    ("batch_dblp", 0, "digest", ["digest_recorded"]),
    ("stream_part", 0, "state", ["state_equals_scratch_clean"]),
    ("stream_part", 0, "cost", ["cost_equals_scratch_clean"]),
    ("stream_part", 0, "verdict", ["verdict_equals_scratch_clean"]),
    ("stream_part", 1, "spans", ["self_times_sum_to_roots"]),
    ("serve_part", 0, "state", ["state_equals_serial_replay"]),
    ("serve_part", 0, "acks", ["acks_in_submission_order"]),
)


def check_negative(problems: List[str]) -> None:
    for workload, trace, perturb, gates in NEGATIVE:
        code, out = _run(["--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace),
                          "--scale", "tiny", "--perturb", perturb])
        missed = [g for g in gates if f"gate {trace}.{g}: FAIL" not in out]
        print(f"{workload} perturb={perturb}: exit={code} "
              f"missed={missed}")
        if code == 0 or missed:
            problems.append(f"{workload}: gates {missed} missed a "
                            f"{perturb} perturbation (exit {code})")


def check_without_program(problems: List[str]) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = _run(["--workload", "batch_part", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without the program: exit={code}")
    if code == 0 or _result(out) is not None:
        problems.append("without the program the benchmark did not fail")


def record(scale: str, seeds: List[int]) -> None:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import workloads as wl

    path = BENCH / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    work = ROOT / ".perfbench" / "record"
    for name in ("batch_part", "batch_dblp"):
        spec = wl.spec_for(name, scale)
        for seed in seeds:
            wl.make_inputs(spec, seed, work)
            inputs = wl.load(spec, seed, work)
            value = wl.digest(wl.cleaner(inputs).clean(inputs.dirty))
            table.setdefault(scale, {}).setdefault(name, {})[str(seed)] = value
            print(scale, name, seed, value, flush=True)
    shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", help="seed range like 0-29")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="the scale --record records")
    args = parser.parse_args()
    if args.record:
        lo, _, hi = args.record.partition("-")
        record(args.scale, list(range(int(lo), int(hi or lo) + 1)))
        return 0
    problems: List[str] = []
    check_declaration(problems)
    check_workloads(problems)
    check_negative(problems)
    check_without_program(problems)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
