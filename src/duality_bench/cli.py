"""Command-line entry point.

    duality-bench {run-gibbs | run-cavi | diagnose | verify-duality}
        --config <path> [--out <dir>] [--seed <u64>] [--parallel-chains N]

Exit codes: 0 success; 1 a diagnostic/verification check failed (the failure
list is machine-readable in the JSON report); 2 config error; 3 runtime model
error. Every output file is a pure function of the config file bytes (and the
artifact version): fixed seeds, 17-significant-digit floats, stable key
order, LF endings.

The default output directory is, in order: --out, output.directory from the
config, the DUALITY_BENCH_OUT environment variable, ./out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from duality_bench import __version__
from duality_bench.cavi import (
    check_grid_path,
    initial_factors,
    run_cavi,
    state_from_jsonable,
    state_to_jsonable,
)
from duality_bench.config import RunConfig, load_config
from duality_bench.diagnostics import build_report, duality_suite
from duality_bench.errors import ConfigError, DualityBenchError, ModelError
from duality_bench.gibbs import ChainTrace, check_init, estimate, pooled_trace, run_chains
from duality_bench.serialize import write_csv, write_json, write_trace_csv

__all__ = ["main"]


def _out_dir(args, cfg: RunConfig) -> Path:
    directory = args.out or cfg.output_directory or os.environ.get(
        "DUALITY_BENCH_OUT") or "out"
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _model_echo(cfg: RunConfig) -> dict:
    return dict(cfg.model_section)


def _trace_header(model) -> list[str]:
    dec = model.decomposition
    header = ["cycle"]
    for i, d in enumerate(dec.block_dims):
        header.extend(f"block{i + 1}_dim{k + 1}" for k in range(d))
    return header


def _write_trace(path: Path, model, trace: ChainTrace) -> None:
    write_trace_csv(path, _trace_header(model), trace.burn_in + 1, trace.samples)


def _estimates_payload(cfg: RunConfig, model, traces: list[ChainTrace]) -> dict:
    pooled = pooled_trace(traces)
    dim = model.decomposition.total_dim
    estimands = []

    def add(name, fn):
        est = estimate(pooled, fn)
        estimands.append({
            "name": name,
            "mean": est.mean,
            "standard_error": est.standard_error,
            "n_samples": est.n_samples,
        })

    for d in range(dim):
        add(f"mean_dim{d + 1}", lambda s, d=d: s[:, d])
    for d in range(dim):
        add(f"second_moment_dim{d + 1}", lambda s, d=d: s[:, d] ** 2)
    for a in range(dim):
        for b in range(a + 1, dim):
            add(f"cross_moment_dim{a + 1}_dim{b + 1}", lambda s, a=a, b=b: s[:, a] * s[:, b])
    stds = pooled.samples.std(axis=0)
    correlations = []
    for a in range(dim):
        for b in range(a + 1, dim):
            # undefined for constant coordinates (degenerate targets)
            if stds[a] > 0 and stds[b] > 0:
                value = float(np.corrcoef(pooled.samples[:, a],
                                          pooled.samples[:, b])[0, 1])
            else:
                value = None
            correlations.append({
                "name": f"sample_correlation_dim{a + 1}_dim{b + 1}",
                "value": value,
            })
    return {
        "artifact_version": __version__,
        "model": _model_echo(cfg),
        "n_chains": len(traces),
        "seeds": [t.seed for t in traces],
        "burn_in": traces[0].burn_in,
        "n_cycles": traces[0].n_cycles,
        "init_strategy": traces[0].init_strategy,
        "n_samples": len(pooled),
        "estimands": estimands,
        "sample_correlations": correlations,
    }


def _checked(key: str, fn, *args):
    """``fn(*args)``, run before any chain or CAVI: a ModelError or ValueError
    becomes a config error (exit 2) naming ``key``."""
    try:
        return fn(*args)
    except (ModelError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _gibbs_config(cfg: RunConfig, model, seed: int | None):
    """The chain settings, with the initializer tried on the model first."""
    gibbs_cfg = cfg.gibbs_config(seed_override=seed)
    _checked("gibbs.init", check_init, model, gibbs_cfg)
    return gibbs_cfg


def cmd_run_gibbs(args) -> int:
    cfg = load_config(args.config)
    model = cfg.build_model()
    gibbs_cfg = _gibbs_config(cfg, model, args.seed)
    traces = run_chains(model, gibbs_cfg, args.parallel_chains)
    out = _out_dir(args, cfg)
    if len(traces) == 1:
        _write_trace(out / "trace.csv", model, traces[0])
    else:
        for k, trace in enumerate(traces):
            _write_trace(out / f"trace_chain{k + 1}.csv", model, trace)
    write_json(out / "estimates.json", _estimates_payload(cfg, model, traces))
    return 0


def cmd_run_cavi(args) -> int:
    cfg = load_config(args.config)
    model = cfg.build_model()
    cavi_cfg = cfg.cavi_config()
    if cavi_cfg.path == "grid":
        _checked("cavi.path", check_grid_path, model)
    state = run_cavi(model, cavi_cfg, _checked("cavi.init", initial_factors, model, cavi_cfg))
    out = _out_dir(args, cfg)
    payload = {
        "artifact_version": __version__,
        "model": _model_echo(cfg),
        **state_to_jsonable(state),
    }
    write_json(out / "state.json", payload)
    return 0


def _load_state_file(path: str, model):
    """The stored CAVI state, checked before any chain runs: one factor per
    block, of a kind the model's closed forms take, whose product has a finite
    KL to the target (probed by one product KL)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"diagnostics.state_file: file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"diagnostics.state_file: invalid JSON: {exc}") from exc
    n_blocks = model.decomposition.n_blocks
    try:
        state = state_from_jsonable(data)
        if len(state.factors) != n_blocks:
            raise ValueError(f"{len(state.factors)} factors for {n_blocks} blocks")
        with np.errstate(invalid="ignore"):   # log 0 - log 0 on cells without mass
            kl = model.product_kl(state.factors)
        if not np.isfinite(kl):
            raise ValueError(f"the factor product has KL {kl} to the target "
                             "(mass where the target has none)")
    except (KeyError, ValueError, TypeError, ModelError) as exc:
        raise ConfigError(f"diagnostics.state_file: unusable state: {exc}") from exc
    return state


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    model = cfg.build_model()
    for i in range(model.decomposition.n_blocks):   # the report works on every block's measure
        _checked("model.block_dims", model.block_measure, i)
    options = cfg.diagnostics.report
    if options.info_method != "auto":   # "auto" picks a route every model has
        _checked("diagnostics.info_method", model.information_equality, 0, options.info_method)
    gibbs_cfg = _gibbs_config(cfg, model, args.seed)
    # CAVI draws no random numbers and takes milliseconds: run it before the
    # chain, so that a model it cannot serve fails at once
    if cfg.diagnostics.state_file is None:
        cavi_cfg = cfg.cavi_config()
        if cavi_cfg.path == "grid":
            raise ConfigError("cavi.path: the report needs the family's closed-form "
                              "factors; diagnose uses \"auto\"")
        state = run_cavi(model, cavi_cfg, _checked("cavi.init", initial_factors, model, cavi_cfg))
    else:
        state = _load_state_file(cfg.diagnostics.state_file, model)
    traces = run_chains(model, gibbs_cfg, args.parallel_chains)
    report = build_report(model, pooled_trace(traces), state, options)
    out = _out_dir(args, cfg)
    if "json" in cfg.output_formats:
        write_json(out / "report.json", {
            "artifact_version": __version__,
            **report.to_jsonable(),
        })
    if "csv" in cfg.output_formats:
        write_csv(out / "report.csv", *report.csv_table())
    if not report.passed:
        print("diagnostics failed: " + ", ".join(report.failures), file=sys.stderr)
        return 1
    return 0


def cmd_verify_duality(args) -> int:
    cfg = load_config(args.config)
    rows = duality_suite(cfg.build_model().echo()["family"], cfg.diagnostics.duality_trials,
                         cfg.diagnostics.report.suite_seed)
    out = _out_dir(args, cfg)
    write_csv(out / "duality_gaps.csv",
              ["trial", "gap", "at_optimum_flag"],
              [[r.trial, r.gap, int(r.at_optimum)] for r in rows])
    bad = [r for r in rows if not r.check.ok]
    if bad:
        print(f"duality verification failed on {len(bad)} of {len(rows)} rows",
              file=sys.stderr)
        return 1
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duality-bench",
        description="Gibbs/CAVI benchmark with duality-formula diagnostics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "run-gibbs": (cmd_run_gibbs, True),
        "run-cavi": (cmd_run_cavi, False),
        "diagnose": (cmd_diagnose, True),
        "verify-duality": (cmd_verify_duality, False),
    }
    for name, (handler, chains) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        if chains:
            p.add_argument("--seed", type=int, default=None,
                           help="override gibbs.seed from the config")
            p.add_argument("--parallel-chains", type=int, default=1,
                           help="run N chains with seeds seed, seed+1, ...")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "parallel_chains", 1) < 1:
        print("config error: --parallel-chains must be positive", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, DualityBenchError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
