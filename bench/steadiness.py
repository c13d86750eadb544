"""Run the benchmark in sets of the same code and report whether it is steady.

    python3 bench/steadiness.py [--runs 10] [--sets 2]

Each set runs every workload of BENCHMARK.json once per seed (seeds 0 ..
runs - 1) for its run_seconds, with tracing off. For each workload and end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over median),
and whether the spread and the drift of the median from set 1 stay within
the metric's bound in BENCHMARK.json (the spread of setup_s is shown but not
bounded). It also checks that the failed share is the same in every set and
that each (workload, seed) wrote the same files in every set. Then it makes
TRACED_PAIRS pairs of an untraced and a traced run per workload on seed 0,
checks that the traced counts agree, and prints the per-layer metrics and
the tracing overhead: the traced minus the untraced wall_s of each pair, and
their median. The overhead counts as resolved only when every pair gives it
the same sign. It ends with the machine's core count, the versions and the
BLAS libraries loaded.
Exits 1 if anything is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import EXACT_UNITS, SPEC

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = SPEC["run_seconds"]
TRACED_PAIRS = 5


def bench_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["files"] = {ln.split()[2]: ln.split()[1] for ln in lines if ln.startswith("sha256 ")}
    traced = [float(ln.split()[2]) for ln in lines if ln.startswith("traced wall_s ")]
    result["traced_wall_s"] = traced[0] if traced else None
    return result


def environment() -> list[str]:
    probe = ("import numpy, scipy, scipy.linalg, platform; "
             "libs = sorted({l.split()[-1].rsplit('/', 1)[-1] for l in open('/proc/self/maps') "
             "if 'blas' in l.lower() or 'lapack' in l.lower()}); "
             "print(platform.python_version(), numpy.__version__, scipy.__version__, *libs)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout.split()
    return [
        f"nproc: {len(os.sched_getaffinity(0))} (os.cpu_count {os.cpu_count()})",
        f"machine: {platform.machine()} {platform.processor() or ''}".rstrip(),
        f"python {out[0]}, numpy {out[1]}, scipy {out[2]}",
        f"BLAS/LAPACK libraries loaded: {', '.join(out[3:]) or 'none found'}",
        "BLAS threads: not pinned (OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})",
    ]


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    seeds = list(range(args.runs))

    results: dict[tuple[int, str], list[dict]] = {}
    for s in range(args.sets):
        for w in workloads:
            started = time.strftime("%H:%M:%S")
            results[s, w] = [bench_run(w, seed, 0) for seed in seeds]
            print(f"set {s + 1} {w}: seeds {seeds[0]}..{seeds[-1]} from {started}",
                  file=sys.stderr, flush=True)

    ok = True
    print(f"{args.sets} sets x {args.runs} runs (seeds {seeds[0]}..{seeds[-1]}), "
          f"{SECONDS} s per run")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'drift':>7}  verdict")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            base = None
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[s, w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                base = med if base is None else base
                drift = sign * (med - base) / base
                good = (name == "setup_s" or spread <= bound) and drift <= bound
                ok &= good
                print(f"  {name:<12} {s + 1:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.2%} {drift:>+7.2%}  {'ok' if good else 'OUTSIDE'} "
                      f"(bound {bound:.0%})")
        shares = {s: sum(r["failed"] for r in results[s, w])
                  / sum(r["attempted"] for r in results[s, w]) for s in range(args.sets)}
        correct = all(r["correct"] for s in range(args.sets) for r in results[s, w])
        same_files = all(results[s, w][k]["files"] == results[0, w][k]["files"]
                         for s in range(args.sets) for k in range(len(seeds)))
        ok &= correct and same_files and len(set(shares.values())) == 1
        print(f"  failed share per set: {list(shares.values())}; all runs correct: {correct}; "
              f"same files in every set: {same_files}")

    for w in workloads:
        # untraced and traced runs alternate, so machine drift hits both alike
        pairs = [(bench_run(w, 0, 0), bench_run(w, 0, 1)) for _ in range(TRACED_PAIRS)]
        traced = [t for _, t in pairs]
        untraced = statistics.median(u["metrics"]["wall_s"]["value"] for u, _ in pairs)
        diffs = [t["traced_wall_s"] - u["metrics"]["wall_s"]["value"] for u, t in pairs]
        overhead = statistics.median(diffs)
        resolved = max(diffs) < 0 or min(diffs) > 0
        print(f"\n{w} traced (seed 0, {TRACED_PAIRS} runs, each after an untraced one), "
              f"untraced wall_s {untraced:.3f} s")
        print(f"  tracing overhead per pair: {', '.join(f'{d:+.3f}' for d in diffs)} s; "
              f"median {overhead:+.3f} s ({overhead / untraced:+.1%}), "
              f"{'resolved' if resolved else 'unresolved: the pairs disagree in sign'}")
        for name, entry in traced[0]["metrics"].items():
            values = [t["metrics"][name]["value"] for t in traced]
            exact = entry["unit"] in EXACT_UNITS
            repeat = "" if not exact else ("  repeats" if len(set(values)) == 1 else "  DIFFERS")
            ok &= not exact or len(set(values)) == 1
            shown = ", ".join(f"{v:.6g}" for v in values)
            print(f"  {name:<36} {shown} {entry['unit']}{repeat}")
        ok &= all(t["correct"] for t in traced)

    print()
    for line in environment():
        print(line)
    print(f"verdict: {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
