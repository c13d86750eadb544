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
    "Check",
    "DualityProblem",
    "DualityTrial",
    "make_continuous_duality_problem",
    "make_discrete_duality_problem",
    "duality_gap",
    "duality_suite",
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
SQUASH_TOL = 1e-10
SQUASH_GRID_POINTS = 1001


@dataclass(frozen=True)
class Check:
    """One named verdict: ``value`` lies in the closed interval [lo, hi].

    A missing (None) or NaN value fails. A strict bound is written as the
    closed one at the next float (``np.nextafter``).
    """

    name: str
    value: float | None
    lo: float = -np.inf
    hi: float = np.inf

    @property
    def ok(self) -> bool:
        return self.value is not None and bool(self.lo <= self.value <= self.hi)


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
    """log E_p[exp h] - (E_q[h] - KL(q||p)), nonnegative up to roundoff.

    Equals KL(q || exponential tilt of p by h) on the working measure, hence
    nonnegative up to roundoff and zero exactly at the tilt.
    """
    # log weights of the working measure: trapezoid on a grid, 0 for counting
    logw = 0.0 if problem.grid is None else np.log(trapezoid_weights(problem.grid))
    h, log_p, log_q = problem.test_values, problem.log_base, problem.log_candidate
    p_mask, q_mask = log_p > -np.inf, log_q > -np.inf
    lhs = logsumexp((log_p + logw)[p_mask] + h[p_mask])
    q_mass = np.exp((log_q + logw)[q_mask])
    e_q_h = float(np.sum(q_mass * h[q_mask]))
    kl = float(np.sum(q_mass * (log_q[q_mask] - log_p[q_mask])))
    return lhs - (e_q_h - kl)


@dataclass(frozen=True)
class DualityTrial:
    trial: int
    at_optimum: bool
    gap: float

    @property
    def check(self) -> Check:
        """The gap is nonnegative, and zero at the exact tilt."""
        return Check("duality_gap", self.gap, lo=-GAP_TOL,
                     hi=ATTAINMENT_TOL if self.at_optimum else np.inf)


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

            # the tilt's precision is p's plus 2c; its precision times mean, p's plus b
            tilt_cov = 1.0 / (1.0 / p.covariance + 2.0 * c)
            tilt = GaussianFactor(tilt_cov[0] * (p.mean / p.covariance[0] + b), tilt_cov)
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
        out.append(DualityTrial(trial=t, at_optimum=False, gap=gap_rand))
        out.append(DualityTrial(trial=t, at_optimum=True, gap=gap_tilt))
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
        """F{q} for q's values at the block nodes; at most ``log_bound``, with
        equality only at the full conditional."""
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


def concavity_probe(model: TargetModel, i: int, complement_value, p, q,
                    a: float) -> float:
    """F(a p + (1-a) q) - [a F(p) + (1-a) F(q)], nonnegative up to roundoff."""
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
    """min over the grid of pi(theta_i|y) - R * q*(theta_i), nonnegative up to roundoff.

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
    """Knobs for the aggregated diagnostics run (all defaults spec-level), in
    the order the report echoes them."""

    suite_seed: int = 0
    f_candidates: int = 50
    concavity_mixtures: int = 100
    squash_grid_points: int = SQUASH_GRID_POINTS
    info_method: str = "auto"


@dataclass(frozen=True)
class BlockDiagnostics:
    """One block's reported values, in report order from its 1-based label
    ``block``, and its checks, in the order the report lists them."""

    values: dict
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class DiagnosticsReport:
    """The echoed inputs and the per-block diagnostics; the verdicts derive
    from the blocks' check records."""

    model_echo: dict
    gibbs_echo: dict
    cavi_echo: dict
    options_echo: dict
    blocks: tuple[BlockDiagnostics, ...]

    @property
    def failures(self) -> tuple[str, ...]:
        """``block<label>.<check>`` for every failed check, block by block."""
        return tuple(f"block{b.values['block']}.{c.name}"
                     for b in self.blocks for c in b.checks if not c.ok)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "model": self.model_echo,
            "gibbs": self.gibbs_echo,
            "cavi": self.cavi_echo,
            "options": self.options_echo,
            "blocks": [{**b.values, "checks": {c.name: c.ok for c in b.checks}}
                       for b in self.blocks],
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def csv_table(self) -> tuple[list[str], list[list]]:
        """The report.csv header and rows: one column per numeric value of a
        block, then whether all of the block's checks passed."""
        names = [k for k, v in self.blocks[0].values.items() if not isinstance(v, str)]
        return [*names, "passed"], [[b.values[k] for k in names] + [all(c.ok for c in b.checks)]
                                    for b in self.blocks]


def build_report(model: TargetModel, trace: ChainTrace, state: MeanFieldState,
                 options: ReportOptions | None = None) -> DiagnosticsReport:
    """Run every per-block diagnostic and collect its values and check records.

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
    # exact summation holds the information equalities to float precision
    info_tol = 1e-12 if model.is_discrete else 1e-8
    rng = make_rng(options.suite_seed)
    reference = model.reference_point()
    blocks: list[BlockDiagnostics] = []
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
            if ws.tv_from_conditional(qv) > 1e-4:   # distant from the conditional
                min_distant_gap = min(min_distant_gap, gap)
        min_slack = np.inf
        for _ in range(options.concavity_mixtures):
            p_cand = model.random_factor(i, rng)
            q_cand = model.random_factor(i, rng)
            a = float(rng.uniform(0, 1))
            min_slack = min(min_slack, ws.concavity_slack(
                ws.density_values(p_cand), ws.density_values(q_cand), a))
        info = information_equality_check(model, i, method=options.info_method)
        r_value = squashing_constant(model, state, i)
        squash_slack = squash_pointwise_check(
            model, state, i, grid=model.block_measure(i, options.squash_grid_points)[0])
        bound = kl_lower_bound(model, state, i)
        values = {
            "block": i + 1,
            "duality_gap": float(gap_state),
            "functional_at_conditional": float(f_cond),
            "log_complement_marginal": float(ws.log_bound),
            "attainment_abs_error": float(attainment_err),
            "f_suite_max_excess": float(max_excess),
            "f_suite_min_distant_gap": float(min_distant_gap),
            "concavity_min_slack": float(min_slack),
            "mutual_information": info.mutual_information,
            "complement_entropy": info.complement_entropy,
            "conditional_entropy": info.conditional_entropy,
            "information_residual": info.residual,
            "symmetric_information_residual": info.symmetric_residual,
            "info_method": info.method,
        }
        mc_checks = []
        for key, est in info_monte_carlo(model, trace, i).items():
            prefix = "mi" if key == "mutual_information" else key
            se = est.standard_error
            values[f"{prefix}_mc"], values[f"{prefix}_mc_se"] = est.mean, se
            # within 3 standard errors of the exact value; no verdict without an SE
            mc_checks.append(Check(f"{prefix}_mc_within_3se",
                                   None if se is None else abs(est.mean - getattr(info, key)),
                                   hi=3.0 * max(se or 0.0, 1e-15)))
        values.update({
            "squashing_constant": float(r_value),
            "min_squash_slack": float(squash_slack),
            "kl_factor_to_marginal": float(bound.kl),
            "kl_lower_bound_raw": float(bound.raw_log_value),
            "kl_lower_bound": float(bound.bound),
        })
        blocks.append(BlockDiagnostics(values, (
            Check("duality_gap_nonnegative", gap_state, lo=-GAP_TOL),
            Check("functional_attained_at_conditional", attainment_err, hi=ATTAINMENT_TOL),
            Check("functional_bounded", max_excess, hi=ATTAINMENT_TOL),
            Check("functional_equality_only_at_conditional", min_distant_gap,
                  lo=np.nextafter(ATTAINMENT_TOL, np.inf)),
            Check("concavity", min_slack, lo=-1e-8),
            Check("information_equality", info.residual, hi=info_tol),
            Check("information_equality_symmetric", info.symmetric_residual, hi=info_tol),
            *mc_checks,
            Check("squashing_constant_in_unit_interval", r_value,
                  lo=np.nextafter(0.0, 1.0), hi=1.0 + SQUASH_TOL),
            Check("squash_pointwise", squash_slack, lo=-SQUASH_TOL),
            Check("kl_nonnegative", bound.kl, lo=0.0),
            Check("kl_above_bound", bound.kl, lo=bound.bound - GAP_TOL),
            Check("kl_bound_raw_nonpositive", bound.raw_log_value, hi=1e-10),
        )))
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
        options_echo=asdict(options),
        blocks=tuple(blocks),
    )
