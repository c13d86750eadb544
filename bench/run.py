"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the workload's CLI commands in a fresh interpreter
(``child.py``) that imports ``duality_bench`` from ``src/`` of this checkout.
Rounds repeat while another round fits in ``--seconds``. The first round's
output files are checked against the oracles; every later round must write
byte-identical files. Before the rounds, a few interpreters that only import
the package give more ``setup_s`` samples.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics (medians over rounds); with ``--trace 1`` the rounds are traced and
the line reports the per-layer metrics, while the spans go to
``bench/traces/``. The lines before it give the SHA-256 of every output
file. Exits 1 without a result if the program cannot be started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = BENCH / "out"
TRACES = BENCH / "traces"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# per-layer metrics in these units must repeat exactly between rounds
EXACT_UNITS = ("count", "samples", "B")


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(work: Path, commands: list, out: Path, trace: bool,
              importtime: bool = False) -> tuple[dict, str]:
    request = work / "request.json"
    result = work / "result.json"
    result.unlink(missing_ok=True)
    request.write_text(json.dumps({
        "src": str(SRC), "commands": commands, "out": str(out),
        "trace": trace, "result": str(result),
    }), encoding="utf-8")
    flags = ["-X", "importtime"] if importtime else []
    t0 = _monotonic()
    proc = subprocess.run(
        [sys.executable, *flags, str(BENCH / "child.py"), str(request), repr(t0)],
        stdout=sys.stderr, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"benchmark child exited with code {proc.returncode}")
    if not importtime:
        sys.stderr.write(proc.stderr)
    return json.loads(result.read_text(encoding="utf-8")), proc.stderr


def import_breakdown(importtime_log: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and the rest of duality_bench,
    from ``python -X importtime`` output.

    numpy and scipy are the cumulative times of their outermost modules;
    duality_bench is the self time of every other module imported under it.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(head.split(":")[1]), int(cumulative)))
    totals = Counter()
    ancestors: list[str] = []
    # the log lists children before parents; reversed, parents come first
    for depth, name, self_us, cumulative_us in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        outer = {a.split(".")[0] for a in ancestors}
        if package in ("numpy", "scipy") and package not in outer:
            totals[package] += cumulative_us
        if "duality_bench" in outer | {package} and not (outer | {package}) & {"numpy", "scipy"}:
            totals["duality_bench"] += self_us
        ancestors.append(name)
    return {f"import.{k}_s": totals[k] / 1e6 for k in ("numpy", "scipy", "duality_bench")}


def hash_files(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        return _run(work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plan = WORKLOADS[workload](seed, work)
    out = work / "out"
    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        probe, log = run_child(work, [], out, trace=False, importtime=trace)
        setup.append(probe["setup_s"])
        if trace:
            imports.append(import_breakdown(log))

    problems: list[str] = []
    rounds, durations = [], []
    start = _monotonic()
    while not rounds or _monotonic() - start + statistics.fmean(durations) <= seconds:
        began = _monotonic()
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result, _ = run_child(work, plan.commands, out, trace)
        result["files"] = hash_files(out)
        if not rounds:
            try:
                found, expected_codes = plan.check(out)
            except (OSError, LookupError, ValueError, TypeError) as exc:
                found, expected_codes = [f"outputs could not be read: {exc!r}"], []
            problems += found
        elif result["files"] != rounds[0]["files"]:
            problems.append(f"round {len(rounds) + 1} wrote files that differ from round 1")
        rounds.append(result)
        durations.append(_monotonic() - began)
    setup += [r["setup_s"] for r in rounds]

    attempted = len(plan.commands) * len(rounds)
    expected_codes = expected_codes or [0] * len(plan.commands)
    failed = sum(code != want for r in rounds
                 for code, want in zip(r["exit_codes"], expected_codes))
    for name, digest in rounds[0]["files"].items():
        print(f"sha256 {digest} {name}")
    print(f"{workload} seed {seed}: {len(rounds)} rounds, "
          f"wall_s per round {[round(r['wall_s'], 3) for r in rounds]}", file=sys.stderr)

    if trace:
        print(f"traced wall_s {statistics.median(r['wall_s'] for r in rounds)!r}")
        values = {k: statistics.median(m[k] for m in imports) for k in imports[0]}
        for metric in SPEC["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            if name in values:
                continue
            per_round = [r["trace"]["metrics"][name] for r in rounds]
            if unit in EXACT_UNITS and len(set(per_round)) > 1:
                problems.append(f"{name} differs between rounds: {per_round}")
            values[name] = statistics.median(per_round)
        metrics = SPEC["per_layer"]
        TRACES.mkdir(parents=True, exist_ok=True)
        (TRACES / f"{workload}-seed{seed}.json").write_text(json.dumps(
            [r["trace"]["spans"] for r in rounds]), encoding="utf-8")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = SPEC["end_to_end"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
