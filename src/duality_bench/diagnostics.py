"""Numerical verification of the duality formula and its corollaries.

Covers, per block of a target model:

- the duality gap  log E_p[exp h] - (E_q[h] - KL(q||p)), nonnegative and zero
  exactly at the exponential tilt of p by h;
- the induced functional  F{q} = E_q[log pi(theta_-i | theta_i, y)] -
  KL(q || pi(theta_i | y)), concave, bounded by log pi(theta_-i | y), and
  attaining that bound only at the full conditional;
- the information equalities  I = H(theta_-i) - H(theta_-i | theta_i)
  (and the symmetric form), each side computed independently;
- the squashing constant  R = integral of exp E_q[log full conditional] over
  the block, divided by exp KL(q_complement || complement marginal), with the
  pointwise bound  R * q_i <= marginal  and the KL lower bound
  KL(q_i || marginal) >= max{0, raw log value}.

Everything is computed on an explicit grid measure (trapezoid weights) or by
exact summation; densities are renormalized on that measure first, which
makes the Jensen-derived inequalities hold at float precision regardless of
truncation error. Exp-then-integrate steps use log-sum-exp.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from duality_bench.cavi import MeanFieldState
from duality_bench.core import InfoEquality, TargetModel
from duality_bench.errors import ModelError, SupportError
from duality_bench.gaussian import GaussianFactor
from duality_bench.gibbs import ChainTrace, Estimate, estimate, make_rng
from duality_bench.quadrature import (
    GRID_POINTS_1D,
    HALF_WIDTH_SIGMAS,
    log_integral,
    logsumexp,
    trapezoid_weights,
)

__all__ = [
    "DualityProblem",
    "DualityTrial",
    "make_continuous_duality_problem",
    "make_discrete_duality_problem",
    "duality_gap",
    "duality_suite",
    "duality_functional",
    "concavity_probe",
    "InfoEquality",
    "information_equality_check",
    "squashing_constant",
    "squash_pointwise_check",
    "KlBound",
    "kl_lower_bound",
    "ReportOptions",
    "BlockDiagnostics",
    "DiagnosticsReport",
    "build_report",
]

GAP_TOL = 1e-10
ATTAINMENT_TOL = 1e-8
CONCAVITY_TOL = 1e-8
INFO_TOL_CONTINUOUS = 1e-8
INFO_TOL_DISCRETE = 1e-12
SQUASH_TOL = 1e-10
RAW_BOUND_TOL = 1e-10
DISTANT_TV = 1e-4
SQUASH_GRID_POINTS = 1001


# --------------------------------------------------------------------------
# Theorem-level duality problems
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityProblem:
    """A (base p, test function h, candidate q) triple on one space.

    Continuous problems carry a quadrature grid and log densities at its
    nodes, both renormalized on the grid measure; discrete problems carry
    exact pmfs (grid is None) with -inf marking empty cells.
    """

    grid: np.ndarray | None
    log_base: np.ndarray
    test_values: np.ndarray
    log_candidate: np.ndarray

    def __post_init__(self):
        for name in ("log_base", "test_values", "log_candidate"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float)
            g.setflags(write=False)
            object.__setattr__(self, "grid", g)


def _gaussian_cover(*factors) -> np.ndarray:
    """Nodes over the union of the +-8 sigma spans of 1-D Gaussian factors."""
    if not factors:
        raise ValueError("pass an explicit grid for non-Gaussian densities")
    spans = [(float(f.mean[0]), float(np.sqrt(f.covariance[0, 0]))) for f in factors]
    lo = min(m - HALF_WIDTH_SIGMAS * s for m, s in spans)
    hi = max(m + HALF_WIDTH_SIGMAS * s for m, s in spans)
    return np.linspace(lo, hi, GRID_POINTS_1D)


def make_continuous_duality_problem(base, test_fn, candidate,
                                    grid=None) -> DualityProblem:
    """Tabulate p, h, q on a shared grid and renormalize on its measure.

    The grid defaults to the union +-8 sigma cover of Gaussian inputs. The
    integrability of exp(h) under p is checked numerically: the integrand
    must have decayed by 1e-12 relative to its peak at both grid ends.
    """
    if grid is None:
        grid = _gaussian_cover(*(f for f in (base, candidate) if f.kind == "gaussian"))
    grid = np.asarray(grid, dtype=float)
    log_p = base.log_values_at(grid)
    log_q = candidate.log_values_at(grid)
    h = np.asarray(test_fn(grid), dtype=float)
    if not np.all(np.isfinite(h)):
        raise ModelError("test function must be finite on the working grid")
    integrand = log_p + h
    peak = float(np.max(integrand))
    if max(integrand[0], integrand[-1]) > peak + np.log(1e-12):
        raise ModelError("exp h is not integrable against the base on the working grid")
    log_p = log_p - log_integral(log_p, grid)
    log_q = log_q - log_integral(log_q, grid)
    return DualityProblem(grid=grid, log_base=log_p, test_values=h, log_candidate=log_q)


def make_discrete_duality_problem(base_pmf, test_values,
                                  candidate_pmf) -> DualityProblem:
    p = np.asarray(base_pmf, dtype=float).reshape(-1)
    q = np.asarray(candidate_pmf, dtype=float).reshape(-1)
    h = np.asarray(test_values, dtype=float).reshape(-1)
    if not p.shape == q.shape == h.shape:
        raise ValueError("base, test values, and candidate must share one support")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("pmfs must be nonnegative")
    if np.any((q > 0) & (p <= 0)):
        raise SupportError("candidate has mass outside the base support")
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(p / p.sum()), np.log(q / q.sum())
    return DualityProblem(grid=None, log_base=log_p, test_values=h, log_candidate=log_q)


def duality_gap(problem: DualityProblem) -> float:
    """log E_p[exp h] - (E_q[h] - KL(q||p)); always >= -1e-10.

    Equals KL(q || exponential tilt of p by h) on the working measure, hence
    nonnegative up to roundoff and zero exactly at the tilt.
    """
    if problem.grid is not None:
        logw = np.log(trapezoid_weights(problem.grid))
        log_p = problem.log_base + logw
        log_q = problem.log_candidate + logw
        lhs = logsumexp(log_p + problem.test_values)
        q_mass = np.exp(log_q)
        e_q_h = float(np.sum(q_mass * problem.test_values))
        kl = float(np.sum(q_mass * (problem.log_candidate - problem.log_base)))
        return lhs - (e_q_h - kl)
    p_mask = problem.log_base > -np.inf
    lhs = logsumexp(problem.log_base[p_mask] + problem.test_values[p_mask])
    q = np.exp(problem.log_candidate)
    q_mask = q > 0
    e_q_h = float(np.sum(q[q_mask] * problem.test_values[q_mask]))
    kl = float(np.sum(q[q_mask] * (problem.log_candidate[q_mask] - problem.log_base[q_mask])))
    return lhs - (e_q_h - kl)


@dataclass(frozen=True)
class DualityTrial:
    trial: int
    family: str
    at_optimum: bool
    gap: float


def duality_suite(family: str, trials: int, seed: int) -> list[DualityTrial]:
    """Randomized duality checks: per trial, one random candidate and the
    exact exponential tilt of the same (p, h).

    Gaussian trials draw p and q with mean in [-2, 2] and variance in
    [0.25, 4], and quadratic test functions h(x) = a + b x - c x^2 with
    a, b in [-1, 1] and c in [0, 0.5] (so exp h stays integrable and the
    tilt is again Gaussian). Discrete trials draw Dirichlet-like positive
    vectors on supports of size 2..8 with h uniform in [-2, 2].
    """
    if trials < 1:
        raise ValueError("empty suite forbidden: trials must be positive")
    if family not in ("gaussian", "discrete"):
        raise ValueError(f"unknown family {family!r}")
    rng = make_rng(seed)
    out: list[DualityTrial] = []
    for t in range(trials):
        if family == "gaussian":
            p = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            q = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            a, b = rng.uniform(-1, 1, size=2)
            c = rng.uniform(0, 0.5)

            def h_fn(x, a=a, b=b, c=c):
                return a + b * x - c * x * x

            var_p = float(p.covariance[0, 0])
            mean_p = float(p.mean[0])
            tilt_prec = 1.0 / var_p + 2.0 * c
            tilt_var = 1.0 / tilt_prec
            tilt_mean = tilt_var * (mean_p / var_p + b)
            tilt = GaussianFactor([tilt_mean], [[tilt_var]])
            grid = _gaussian_cover(p, q, tilt)
            gap_rand = duality_gap(make_continuous_duality_problem(p, h_fn, q, grid))
            gap_tilt = duality_gap(make_continuous_duality_problem(p, h_fn, tilt, grid))
        else:
            n = int(rng.integers(2, 9))
            p = rng.exponential(size=n)
            p /= p.sum()
            q = rng.exponential(size=n)
            q /= q.sum()
            h = rng.uniform(-2, 2, size=n)
            tilt = p * np.exp(h)
            tilt /= tilt.sum()
            gap_rand = duality_gap(make_discrete_duality_problem(p, h, q))
            gap_tilt = duality_gap(make_discrete_duality_problem(p, h, tilt))
        out.append(DualityTrial(trial=t, family=family, at_optimum=False, gap=gap_rand))
        out.append(DualityTrial(trial=t, family=family, at_optimum=True, gap=gap_tilt))
    return out


# --------------------------------------------------------------------------
# The induced functional F and its concavity
# --------------------------------------------------------------------------


class _FunctionalWorkspace:
    """Per-(model, block, complement point) tables for fast F evaluation.

    F{q} = E_q[log pi(c | theta_i, y)] - KL(q || pi(theta_i | y)) for a fixed
    complement value c; the bound is log pi(theta_-i | y) at c.
    """

    def __init__(self, model: TargetModel, i: int, complement_value):
        if not model.has_analytic_marginals:
            raise ModelError("the functional needs analytic marginals")
        dec = model.decomposition
        dec.check_index(i)
        self.model = model
        self.i = i
        self.grid, self.weights = model.block_measure(i)
        c = np.asarray(complement_value, dtype=float).reshape(-1)
        points = np.empty((self.grid.size, dec.total_dim))
        points[:, dec.block_slice(i)] = self.grid.reshape(-1, 1)
        points[:, dec.complement_indices(i)] = c
        log_joint = np.asarray(model.log_density(points))
        self.log_marginal = model.log_marginals(i, points)[0]
        # the bound depends on c alone: evaluate it at a single row
        self.log_bound = float(model.log_marginals(i, points[:1])[1][0])
        with np.errstate(invalid="ignore"):
            # -inf at zero-marginal points; those fail the support check
            self.log_cond_at_c = np.where(
                self.log_marginal > -np.inf, log_joint - self.log_marginal, -np.inf)
        self.conditional_values = self.density_values(model.full_conditional(i, c))

    def _renormalize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        mass = float(np.sum(self.weights * values))
        if mass <= 0:
            raise ModelError("candidate density has zero mass on the block grid")
        return values / mass

    def density_values(self, q) -> np.ndarray:
        """Values of the factor q at the block nodes, renormalized on the measure."""
        return self._renormalize(q.values_at(self.grid))

    def value(self, q_values: np.ndarray) -> float:
        mass = self.weights * q_values
        support = mass > 0
        if np.any(support & np.isneginf(self.log_marginal)):
            raise SupportError("candidate has mass outside the marginal support")
        e_term = float(np.sum(mass[support] * self.log_cond_at_c[support]))
        with np.errstate(divide="ignore"):
            log_q = np.log(q_values[support])
        kl_term = float(np.sum(mass[support] * (log_q - self.log_marginal[support])))
        return e_term - kl_term

    def tv_from_conditional(self, q_values: np.ndarray) -> float:
        return 0.5 * float(np.sum(self.weights * np.abs(
            q_values - self.conditional_values)))

    def concavity_slack(self, pv: np.ndarray, qv: np.ndarray, a: float) -> float:
        """F(a p + (1-a) q) - [a F(p) + (1-a) F(q)] for density values pv, qv."""
        if not 0.0 <= a <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")
        mix = a * pv + (1.0 - a) * qv
        mass = float(np.sum(self.weights * mix))
        if abs(mass - 1.0) > 1e-10:
            raise ModelError(f"mixture mass {mass!r} deviates from 1 beyond 1e-10")
        return self.value(mix) - (a * self.value(pv) + (1.0 - a) * self.value(qv))


def duality_functional(model: TargetModel, i: int, complement_value, q) -> float:
    """F{q} at a fixed complement point; <= log pi(theta_-i | y) there,
    with equality only at the full conditional."""
    ws = _FunctionalWorkspace(model, i, complement_value)
    return ws.value(ws.density_values(q))


def concavity_probe(model: TargetModel, i: int, complement_value, p, q,
                    a: float) -> float:
    """F(a p + (1-a) q) - [a F(p) + (1-a) F(q)]; must be >= -1e-8."""
    ws = _FunctionalWorkspace(model, i, complement_value)
    return ws.concavity_slack(ws.density_values(p), ws.density_values(q), a)


# --------------------------------------------------------------------------
# Information equalities
# --------------------------------------------------------------------------


def information_equality_check(model: TargetModel, i: int,
                               method: str = "auto") -> InfoEquality:
    """I(theta_i; theta_-i), H(theta_-i), H(theta_-i | theta_i) (and the
    symmetric pair), computed independently, for the equality residuals."""
    model.decomposition.check_index(i)
    return model.information_equality(i, method)


def info_monte_carlo(model: TargetModel, trace: ChainTrace, i: int) -> dict[str, Estimate]:
    """Monte Carlo estimates of I, H(theta_-i), H(theta_-i|theta_i) from a
    Gibbs trace, with batch-means standard errors."""
    dec = model.decomposition
    if trace.samples.shape[1] != dec.total_dim:
        raise ModelError("trace and model disagree on the parameter dimension")
    log_joint = np.asarray(model.log_density(trace.samples))
    log_m_i, log_m_c = model.log_marginals(i, trace.samples)
    mi_values = log_joint - log_m_i - log_m_c
    h_c_values = -log_m_c
    h_cond_values = -(log_joint - log_m_i)
    return {
        "mutual_information": estimate(trace, lambda s, v=mi_values: v),
        "complement_entropy": estimate(trace, lambda s, v=h_c_values: v),
        "conditional_entropy": estimate(trace, lambda s, v=h_cond_values: v),
    }


# --------------------------------------------------------------------------
# Squashing constant, pointwise bound, KL lower bound
# --------------------------------------------------------------------------


def squashing_constant(model: TargetModel, state: MeanFieldState, i: int) -> float:
    """R = int exp E_{q(theta_-i)}[log pi(theta_i|theta_-i,y)] d theta_i
    / exp KL(q(theta_-i) || pi(theta_-i|y)); lies in (0, 1] for any
    complement density dominated by the complement marginal.

    Numerator on the block measure with log-sum-exp, denominator via the
    closed-form/enumerated KL.
    """
    model.decomposition.check_index(i)
    weights = model.block_measure(i)[1]
    expected = model.expected_log_conditional(state.factors, i)
    log_num = logsumexp(expected + np.log(weights))
    kl_c = model.product_kl(state.factors, i)
    if not np.isfinite(kl_c):
        raise SupportError("complement factor mass outside the complement marginal")
    return float(np.exp(log_num - kl_c))


def squash_pointwise_check(model: TargetModel, state: MeanFieldState, i: int,
                           grid=None) -> float:
    """min over the grid of pi(theta_i|y) - R * q*(theta_i); >= -1e-10.

    The grid defaults to the nodes of a 1001-point block measure. Pairs R
    with the stored factor i, which equals the coordinate update of the
    complement at a converged state. A tampered factor (e.g. an inflated
    variance) genuinely violates the inequality and is reported here.
    """
    model.decomposition.check_index(i)
    r_value = squashing_constant(model, state, i)
    if grid is None:
        grid = model.block_measure(i, SQUASH_GRID_POINTS)[0]
    grid = np.asarray(grid, dtype=float)
    marg = model.marginal(i).values_at(grid)
    return float(np.min(marg - r_value * state.factors[i].values_at(grid)))


@dataclass(frozen=True)
class KlBound:
    """KL(q*_i || marginal) with its algorithm-based lower bound.

    ``raw_log_value`` is log int exp E_{q*_i}[log pi(theta_-i|theta_i,y)]
    d theta_-i, which Jensen makes nonpositive; the bound is max{0, raw}.
    """

    raw_log_value: float
    bound: float
    kl: float


def kl_lower_bound(model: TargetModel, state: MeanFieldState, i: int) -> KlBound:
    model.decomposition.check_index(i)
    raw, kl = model.block_kl_terms(state.factors[i], i)
    return KlBound(raw_log_value=raw, bound=max(0.0, raw), kl=kl)


# --------------------------------------------------------------------------
# Aggregated per-block report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportOptions:
    """Knobs for the aggregated diagnostics run (all defaults spec-level)."""

    squash_grid_points: int = SQUASH_GRID_POINTS
    f_candidates: int = 50
    concavity_mixtures: int = 100
    suite_seed: int = 0
    info_method: str = "auto"
    reference_point: np.ndarray | None = None


@dataclass(frozen=True)
class BlockDiagnostics:
    """All scalar diagnostics for one block, plus named pass/fail checks."""

    block: int
    duality_gap: float
    functional_at_conditional: float
    log_complement_marginal: float
    attainment_abs_error: float
    f_suite_max_excess: float
    f_suite_min_distant_gap: float
    concavity_min_slack: float
    mutual_information: float
    complement_entropy: float
    conditional_entropy: float
    information_residual: float
    symmetric_information_residual: float
    info_method: str
    mi_mc: float
    mi_mc_se: float | None
    complement_entropy_mc: float
    complement_entropy_mc_se: float | None
    conditional_entropy_mc: float
    conditional_entropy_mc_se: float | None
    squashing_constant: float
    min_squash_slack: float
    kl_factor_to_marginal: float
    kl_lower_bound_raw: float
    kl_lower_bound: float
    checks: dict[str, bool]


@dataclass(frozen=True)
class DiagnosticsReport:
    model_echo: dict
    gibbs_echo: dict
    cavi_echo: dict
    options_echo: dict
    blocks: tuple[BlockDiagnostics, ...]
    passed: bool
    failures: tuple[str, ...]

    def to_jsonable(self) -> dict:
        blocks = []
        for b in self.blocks:
            d = asdict(b)
            d["checks"] = dict(b.checks)
            blocks.append(d)
        return {
            "model": self.model_echo,
            "gibbs": self.gibbs_echo,
            "cavi": self.cavi_echo,
            "options": self.options_echo,
            "blocks": blocks,
            "passed": self.passed,
            "failures": list(self.failures),
        }

    CSV_FIELDS = (
        "block", "duality_gap", "functional_at_conditional",
        "log_complement_marginal", "attainment_abs_error",
        "f_suite_max_excess", "f_suite_min_distant_gap", "concavity_min_slack",
        "mutual_information", "complement_entropy", "conditional_entropy",
        "information_residual", "symmetric_information_residual",
        "mi_mc", "mi_mc_se", "complement_entropy_mc", "complement_entropy_mc_se",
        "conditional_entropy_mc", "conditional_entropy_mc_se",
        "squashing_constant", "min_squash_slack", "kl_factor_to_marginal",
        "kl_lower_bound_raw", "kl_lower_bound", "passed",
    )

    def to_csv_rows(self) -> list[list]:
        rows = []
        for b in self.blocks:
            d = asdict(b)
            row = []
            for name in self.CSV_FIELDS:
                if name == "passed":
                    row.append(all(b.checks.values()))
                else:
                    row.append(d[name])
            rows.append(row)
        return rows


def build_report(model: TargetModel, trace: ChainTrace, state: MeanFieldState,
                 options: ReportOptions | None = None) -> DiagnosticsReport:
    """Run every per-block diagnostic and collect named pass/fail checks.

    The randomized candidate/mixture suites are driven by a Philox generator
    keyed with ``options.suite_seed``; the seed is echoed in the report, so
    the whole report is a pure function of (model, trace, state, options).
    """
    options = options or ReportOptions()
    dec = model.decomposition
    if trace.samples.shape[1] != dec.total_dim:
        raise ModelError("trace does not match the model decomposition")
    if len(state.factors) != dec.n_blocks:
        raise ModelError("state does not match the model decomposition")
    info_tol = INFO_TOL_DISCRETE if model.is_discrete else INFO_TOL_CONTINUOUS
    rng = make_rng(options.suite_seed)
    if options.reference_point is not None:
        reference = dec.check_vector(options.reference_point)
    else:
        reference = model.reference_point()
    blocks: list[BlockDiagnostics] = []
    failures: list[str] = []
    for i in range(dec.n_blocks):
        c_ref = reference[dec.complement_indices(i)]
        ws = _FunctionalWorkspace(model, i, c_ref)
        f_cond = ws.value(ws.conditional_values)
        attainment_err = abs(ws.log_bound - f_cond)
        gap_state = ws.log_bound - ws.value(ws.density_values(state.factors[i]))
        max_excess = -np.inf
        min_distant_gap = np.inf
        for _ in range(options.f_candidates):
            qv = ws.density_values(model.random_factor(i, rng))
            gap = ws.log_bound - ws.value(qv)
            max_excess = max(max_excess, -gap)
            if ws.tv_from_conditional(qv) > DISTANT_TV:
                min_distant_gap = min(min_distant_gap, gap)
        min_slack = np.inf
        for _ in range(options.concavity_mixtures):
            p_cand = model.random_factor(i, rng)
            q_cand = model.random_factor(i, rng)
            a = float(rng.uniform(0, 1))
            min_slack = min(min_slack, ws.concavity_slack(
                ws.density_values(p_cand), ws.density_values(q_cand), a))
        info = information_equality_check(model, i, method=options.info_method)
        mc = info_monte_carlo(model, trace, i)
        r_value = squashing_constant(model, state, i)
        squash_slack = squash_pointwise_check(
            model, state, i, grid=model.block_measure(i, options.squash_grid_points)[0])
        bound = kl_lower_bound(model, state, i)

        def _mc_ok(est: Estimate, truth: float) -> bool:
            if est.standard_error is None:
                return False
            return abs(est.mean - truth) <= 3.0 * max(est.standard_error, 1e-15)

        checks = {
            "duality_gap_nonnegative": gap_state >= -GAP_TOL,
            "functional_attained_at_conditional": attainment_err <= ATTAINMENT_TOL,
            "functional_bounded": max_excess <= ATTAINMENT_TOL,
            "functional_equality_only_at_conditional": min_distant_gap > ATTAINMENT_TOL,
            "concavity": min_slack >= -CONCAVITY_TOL,
            "information_equality": info.residual <= info_tol,
            "information_equality_symmetric": info.symmetric_residual <= info_tol,
            "mi_mc_within_3se": _mc_ok(mc["mutual_information"], info.mutual_information),
            "complement_entropy_mc_within_3se": _mc_ok(
                mc["complement_entropy"], info.complement_entropy),
            "conditional_entropy_mc_within_3se": _mc_ok(
                mc["conditional_entropy"], info.conditional_entropy),
            "squashing_constant_in_unit_interval": 0.0 < r_value <= 1.0 + SQUASH_TOL,
            "squash_pointwise": squash_slack >= -SQUASH_TOL,
            "kl_nonnegative": bound.kl >= 0.0,
            "kl_above_bound": bound.kl >= bound.bound - GAP_TOL,
            "kl_bound_raw_nonpositive": bound.raw_log_value <= RAW_BOUND_TOL,
        }
        label = i + 1
        failures.extend(f"block{label}.{name}" for name, ok in checks.items() if not ok)
        blocks.append(BlockDiagnostics(
            block=label,
            duality_gap=float(gap_state),
            functional_at_conditional=float(f_cond),
            log_complement_marginal=float(ws.log_bound),
            attainment_abs_error=float(attainment_err),
            f_suite_max_excess=float(max_excess),
            f_suite_min_distant_gap=float(min_distant_gap),
            concavity_min_slack=float(min_slack),
            mutual_information=info.mutual_information,
            complement_entropy=info.complement_entropy,
            conditional_entropy=info.conditional_entropy,
            information_residual=info.residual,
            symmetric_information_residual=info.symmetric_residual,
            info_method=info.method,
            mi_mc=mc["mutual_information"].mean,
            mi_mc_se=mc["mutual_information"].standard_error,
            complement_entropy_mc=mc["complement_entropy"].mean,
            complement_entropy_mc_se=mc["complement_entropy"].standard_error,
            conditional_entropy_mc=mc["conditional_entropy"].mean,
            conditional_entropy_mc_se=mc["conditional_entropy"].standard_error,
            squashing_constant=float(r_value),
            min_squash_slack=float(squash_slack),
            kl_factor_to_marginal=float(bound.kl),
            kl_lower_bound_raw=float(bound.raw_log_value),
            kl_lower_bound=float(bound.bound),
            checks=checks,
        ))
    return DiagnosticsReport(
        model_echo=model.echo(),
        gibbs_echo={
            "seed": trace.seed,
            "n_cycles": trace.n_cycles,
            "burn_in": trace.burn_in,
            "init_strategy": trace.init_strategy,
            "retained": len(trace),
        },
        cavi_echo={
            "converged": state.converged,
            "cycles": state.cycles,
            "max_change": state.max_change,
        },
        options_echo={
            "suite_seed": options.suite_seed,
            "f_candidates": options.f_candidates,
            "concavity_mixtures": options.concavity_mixtures,
            "squash_grid_points": options.squash_grid_points,
            "info_method": options.info_method,
        },
        blocks=tuple(blocks),
        passed=not failures,
        failures=tuple(failures),
    )
