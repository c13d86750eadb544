"""The benchmark's workloads: config files made from a workload seed, the CLI
commands run on them, and the checks of every output file against the
oracles in ``oracles.py``.

Like the oracles, this module imports nothing from ``duality_bench``: the
program sees only the config files written here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

N_CYCLES = 50_000
BURN_IN = 1_000
CHAINS = 2
DUALITY_TRIALS = 100
GAP_TOL = 1e-10
TILT_TOL = 1e-8
# Report values the program computes by closed form, enumeration or dense
# quadrature; measured errors against the oracles are below 1e-13.
VALUE_TOL = 1e-9
# The CAVI runs stop at a per-cycle change below 1e-10, so quantities of the
# converged factors agree with the exact fixed point to about that.
FIXED_POINT_TOL = 1e-7
CHAIN_MEAN_SE = 5.0
MC_FAR_SE = 6.0

# Bivariate Gaussian at rho = 0.5 with distinct variances, so that swapped
# blocks show in the checks. The mean is 0 because the grid path starts from
# standard-normal tables: from there it converges in 2 cycles, while with a
# nonzero mean it takes about 15, and each grid cycle costs seconds.
GAUSSIAN_MODEL = {
    "family": "gaussian",
    "mean": [0.0, 0.0],
    "covariance": [[1.0, 1.0], [1.0, 4.0]],
    "block_dims": [1, 1],
}
DISCRETE_SIZES = [4, 4, 4]

# report.json Monte Carlo field -> (exact field, check name)
MC_CHECKS = {
    "mi_mc": ("mutual_information", "mi_mc_within_3se"),
    "complement_entropy_mc": ("complement_entropy", "complement_entropy_mc_within_3se"),
    "conditional_entropy_mc": ("conditional_entropy", "conditional_entropy_mc_within_3se"),
}


@dataclass
class Plan:
    """One round of a workload: CLI argument lists (``{out}`` stands for the
    round's output directory) and the check of that directory.

    ``check(out)`` returns the problems found and the exit code each command
    should have given.
    """

    commands: list[list[str]]
    check: Callable[[Path], tuple[list[str], list[int]]]


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _seeds(seed: int, name: str) -> np.random.Generator:
    # one stream per (workload seed, workload) so workloads do not share draws
    return np.random.default_rng([seed, sum(name.encode())])


def _close(problems: list[str], what: str, got, want, tol: float) -> None:
    if not abs(float(got) - float(want)) <= tol:
        problems.append(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


# --------------------------------------------------------------------------
# Checks shared by the workloads
# --------------------------------------------------------------------------


def check_report(report: dict, truths: list[dict], gibbs: dict) -> tuple[list[str], int]:
    """Check report.json against per-block exact values.

    The Monte Carlo checks are 3-SE tests, so on some seeds one misses and
    ``diagnose`` rightly exits 1. Each flag is therefore recomputed from the
    reported estimate and SE and the exact value; returns the problems and
    the exit code the report implies.
    """
    problems: list[str] = []
    if report["gibbs"]["retained"] != gibbs["n_cycles"] - gibbs["burn_in"]:
        problems.append("report.json: retained samples != n_cycles - burn_in")
    if report["gibbs"]["seed"] != gibbs["seed"]:
        problems.append("report.json: Gibbs seed differs from the config")
    if not report["cavi"]["converged"]:
        problems.append("report.json: CAVI did not converge")
    if len(report["blocks"]) != len(truths):
        return problems + ["report.json: wrong number of blocks"], 1
    failures = []
    for i, (block, truth) in enumerate(zip(report["blocks"], truths)):
        label = f"report.json block{i + 1}"
        for key, (want, tol) in truth.items():
            _close(problems, f"{label}.{key}", block[key], want, tol)
        for mc_key, (exact_key, check) in MC_CHECKS.items():
            mc, se = block[mc_key], block[mc_key + "_se"]
            off = abs(mc - truth[exact_key][0])
            if block["checks"][check] != (off <= 3.0 * max(se, 1e-15)):
                problems.append(f"{label}.{check} disagrees with |{mc_key} - exact| / SE")
            if off > MC_FAR_SE * se:
                problems.append(f"{label}.{mc_key} is {off / se:.1f} SE from the exact value")
        for check, ok in block["checks"].items():
            if not ok:
                failures.append(f"block{i + 1}.{check}")
                if not check.endswith("_within_3se"):
                    problems.append(f"{label}: check {check} failed")
    if report["failures"] != failures or report["passed"] != (not failures):
        problems.append("report.json: failures list does not match the checks")
    return problems, 1 if failures else 0


def check_trace(path: Path, gibbs: dict, mu) -> tuple[list[str], np.ndarray]:
    problems = []
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    kept = gibbs["n_cycles"] - gibbs["burn_in"]
    if data.shape[0] != kept:
        problems.append(f"{path.name}: {data.shape[0]} rows, expected {kept}")
    if not np.array_equal(data[:, 0], np.arange(gibbs["burn_in"] + 1, gibbs["n_cycles"] + 1)):
        problems.append(f"{path.name}: cycle column is not burn_in+1 .. n_cycles")
    samples = data[:, 1:]
    problems += [f"{path.name}: {p}" for p in oracles.means_within_se(samples, mu, CHAIN_MEAN_SE)]
    return problems, samples


def check_duality_gaps(path: Path, trials: int) -> list[str]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["trial", "gap", "at_optimum_flag"]:
        return [f"{path.name}: unexpected header {rows[0]}"]
    rows = rows[1:]
    problems = []
    if len(rows) != 2 * trials:
        problems.append(f"{path.name}: {len(rows)} rows, expected {2 * trials}")
    for k, (trial, gap, flag) in enumerate(rows):
        gap = float(gap)
        if int(trial) != k // 2 or int(flag) != k % 2:
            problems.append(f"{path.name} row {k + 1}: trial/flag out of order")
        if gap < -GAP_TOL:
            problems.append(f"{path.name} row {k + 1}: gap {gap!r} < -{GAP_TOL:g}")
        if flag == "1" and gap > TILT_TOL:
            problems.append(f"{path.name} row {k + 1}: tilt gap {gap!r} > {TILT_TOL:g}")
    return problems


def check_gaussian_state(state: dict, model: dict, grid: bool) -> list[str]:
    """state.json against the closed-form CAVI fixed point and mean-field KL."""
    problems = []
    if not state["converged"]:
        problems.append("state.json: not converged")
    exact = oracles.gaussian_cavi_fixed_point(model["mean"], model["covariance"],
                                              model["block_dims"])
    for i, (factor, (mean, cov)) in enumerate(zip(state["factors"], exact)):
        if grid:
            if factor["type"] != "grid":
                problems.append(f"state.json factor {i + 1}: not a grid factor")
                continue
            got_mean, got_var = oracles.trapezoid_moments(factor["grid"], factor["values"])
            tol = FIXED_POINT_TOL
        else:
            got_mean, got_var = factor["mean"][0], factor["covariance"][0][0]
            tol = VALUE_TOL
        _close(problems, f"state.json factor {i + 1} mean", got_mean, mean[0], tol)
        _close(problems, f"state.json factor {i + 1} variance", got_var, cov[0, 0], tol)
    history = state["objective_history"]
    _close(problems, "state.json final objective", history[-1],
           oracles.gaussian_mean_field_kl(model["covariance"], model["block_dims"]),
           FIXED_POINT_TOL if grid else VALUE_TOL)
    if any(b > a + 1e-12 for a, b in zip(history, history[1:])):
        problems.append("state.json: objective history increases")
    return problems


def _gaussian_report_truths(model: dict) -> list[dict]:
    cov = model["covariance"]
    rho2 = oracles.bivariate_correlation(cov) ** 2
    truths = []
    for i in (0, 1):
        c = 1 - i
        h_c = 0.5 * np.log(2 * np.pi * np.e * cov[c][c])
        truths.append({
            "mutual_information": (oracles.bivariate_mutual_information(cov), VALUE_TOL),
            "complement_entropy": (h_c, VALUE_TOL),
            "conditional_entropy": (h_c + 0.5 * np.log1p(-rho2), VALUE_TOL),
            "squashing_constant": (oracles.bivariate_squashing_constant(cov), VALUE_TOL),
            "kl_factor_to_marginal": (oracles.bivariate_factor_kl_to_marginal(cov), VALUE_TOL),
        })
    return truths


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def gauss_session(seed: int, work: Path) -> Plan:
    rng = _seeds(seed, "gauss-session")
    gibbs = {"n_cycles": N_CYCLES, "burn_in": BURN_IN, "seed": int(rng.integers(2**32))}
    config = {
        "config_version": 1,
        "model": GAUSSIAN_MODEL,
        "gibbs": gibbs,
        "cavi": {"max_cycles": 200, "tolerance": 1e-10},
        "diagnostics": {"duality_trials": DUALITY_TRIALS,
                        "suite_seed": int(rng.integers(2**32))},
    }
    path = _write_config(work / "gauss-session.json", config)

    def check(out: Path) -> tuple[list[str], list[int]]:
        problems = []
        pooled = []
        for k in range(CHAINS):
            p, samples = check_trace(out / f"trace_chain{k + 1}.csv", gibbs,
                                     GAUSSIAN_MODEL["mean"])
            problems += p
            pooled.append(samples)
        pooled = np.concatenate(pooled)
        estimates = _load(out / "estimates.json")
        if estimates["seeds"] != [gibbs["seed"] + k for k in range(CHAINS)]:
            problems.append("estimates.json: chain seeds are not seed, seed+1")
        if estimates["n_samples"] != pooled.shape[0]:
            problems.append("estimates.json: n_samples differs from the traces")
        by_name = {e["name"]: e["mean"] for e in estimates["estimands"]}
        for d in range(pooled.shape[1]):
            _close(problems, f"estimates.json mean_dim{d + 1}", by_name[f"mean_dim{d + 1}"],
                   pooled[:, d].mean(), 1e-12)
        problems += check_gaussian_state(_load(out / "state.json"), GAUSSIAN_MODEL, grid=False)
        report_problems, diagnose_code = check_report(
            _load(out / "report.json"), _gaussian_report_truths(GAUSSIAN_MODEL), gibbs)
        problems += report_problems
        problems += check_duality_gaps(out / "duality_gaps.csv", DUALITY_TRIALS)
        return problems, [0, 0, diagnose_code, 0]

    return Plan(
        commands=[
            ["run-gibbs", "--config", path, "--out", "{out}", "--parallel-chains", str(CHAINS)],
            ["run-cavi", "--config", path, "--out", "{out}"],
            ["diagnose", "--config", path, "--out", "{out}"],
            ["verify-duality", "--config", path, "--out", "{out}"],
        ],
        check=check,
    )


def discrete_diagnose(seed: int, work: Path) -> Plan:
    rng = _seeds(seed, "discrete-diagnose")
    # Dirichlet(2) cells: dense, every cell positive, visibly dependent blocks
    cells = rng.gamma(2.0, size=int(np.prod(DISCRETE_SIZES)))
    pmf = (cells / cells.sum()).tolist()
    gibbs = {"n_cycles": N_CYCLES, "burn_in": BURN_IN, "seed": int(rng.integers(2**32))}
    config = {
        "config_version": 1,
        "model": {"family": "discrete", "support_sizes": DISCRETE_SIZES, "joint_pmf": pmf},
        "gibbs": gibbs,
        "cavi": {"max_cycles": 200, "tolerance": 1e-10},
        "diagnostics": {"suite_seed": int(rng.integers(2**32))},
    }
    path = _write_config(work / "discrete-diagnose.json", config)

    def check(out: Path) -> tuple[list[str], list[int]]:
        table = np.asarray(pmf).reshape(DISCRETE_SIZES)
        table = table / table.sum()
        factors = oracles.discrete_cavi(table)
        problems = []
        residual = oracles.discrete_fixed_point_residual(table, factors)
        if residual > 1e-12:
            problems.append(f"oracle CAVI fixed-point residual {residual:g}")
        truths = []
        for i in range(table.ndim):
            info = oracles.discrete_block_information(table, i)
            truth = {key: (value, VALUE_TOL) for key, value in info.items()}
            truth["squashing_constant"] = (
                oracles.discrete_squashing_constant(table, factors, i), FIXED_POINT_TOL)
            truth["kl_factor_to_marginal"] = (
                oracles.discrete_factor_kl_to_marginal(table, factors, i), FIXED_POINT_TOL)
            truths.append(truth)
        report_problems, code = check_report(_load(out / "report.json"), truths, gibbs)
        return problems + report_problems, [code]

    return Plan(commands=[["diagnose", "--config", path, "--out", "{out}"]], check=check)


def grid_cavi(seed: int, work: Path) -> Plan:
    # Nothing here is random: the grid path is deterministic and has no chain.
    config = {
        "config_version": 1,
        "model": GAUSSIAN_MODEL,
        "cavi": {"max_cycles": 200, "tolerance": 1e-10, "path": "grid"},
    }
    path = _write_config(work / "grid-cavi.json", config)

    def check(out: Path) -> tuple[list[str], list[int]]:
        return check_gaussian_state(_load(out / "state.json"), GAUSSIAN_MODEL, grid=True), [0]

    return Plan(commands=[["run-cavi", "--config", path, "--out", "{out}"]], check=check)


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "gauss-session": gauss_session,
    "discrete-diagnose": discrete_diagnose,
    "grid-cavi": grid_cavi,
}
