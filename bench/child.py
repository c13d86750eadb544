"""One round of a workload in a fresh interpreter.

    python3 bench/child.py <request.json> <t0>

``t0`` is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so ``setup_s`` covers interpreter start-up and the import of
``duality_bench.cli``. The request names the source tree, the CLI argument
lists, the output directory, whether to trace, and where to write the result.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    request_path, t0 = sys.argv[1], float(sys.argv[2])
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    import duality_bench.cli as cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    origin = Path(cli.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"duality_bench was imported from {origin}, not from {src}")
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall_s = cpu_s = 0.0
    codes = []
    for op, argv in enumerate(request["commands"]):
        argv = [request["out"] if a == "{out}" else a for a in argv]
        if tracer is not None:
            tracer.op = op
        c0, w0 = _cpu_s(), time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            codes.append(exc.code if isinstance(exc.code, int) else 2)
        except Exception:  # a crash is a failed command; the round goes on
            traceback.print_exc()
            codes.append(-1)
        wall_s += time.perf_counter() - w0
        cpu_s += _cpu_s() - c0
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
    }
    if tracer is not None:
        result["trace"] = tracer.finish()
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
