"""Numerical verification of the duality formula and its corollaries.

Covers, per block of a target model:

- the duality gap  log E_p[exp h] - (E_q[h] - KL(q||p)), nonnegative and zero
  exactly at the exponential tilt of p by h;
- the induced functional  F{q} = E_q[log pi(theta_-i | theta_i, y)] -
  KL(q || pi(theta_i | y)): the same objective E_q[h] - KL(q||p), with
  p = pi(theta_i | y) and h = log pi(theta_-i | theta_i, y). It is concave,
  bounded by log pi(theta_-i | y), the formula's left side, and attains that
  bound only at the full conditional, the tilt;
- the information equalities  I = H(theta_-i) - H(theta_-i | theta_i)
  (and the symmetric form), each side computed independently;
- the squashing constant  R = integral of exp E_q[log full conditional] over
  the block, divided by exp KL(q_complement || complement marginal), with the
  pointwise bound  R * q_i <= marginal  and the KL lower bound
  KL(q_i || marginal) >= max{0, raw log value}.

Everything is computed in closed form, on an explicit grid measure
(trapezoid weights) or by exact summation; densities are renormalized on a
measure first, which makes the Jensen-derived inequalities hold at float
precision regardless of truncation error. Exp-then-integrate steps use
log-sum-exp.
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
    logsumexp,
    normalized_on,
    trapezoid_weights,
)

__all__ = [
    "Check",
    "DualityTrial",
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
# Node values per chunk of the functional suite: a block's candidates, and its
# mixtures' p and q rows together, are drawn and evaluated 2**15 // nodes rows
# at a time (at least one candidate or mixture), to bound the suite's memory; a
# row's value does not depend on its chunk.
SUITE_CHUNK_VALUES = 2**15


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

    @property
    def margin(self) -> float:
        """The distance to the nearer bound, negative outside; NaN without a value."""
        value = np.nan if self.value is None else self.value
        return min(value - self.lo, self.hi - value)


# --------------------------------------------------------------------------
# The duality formula's objective and gap
# --------------------------------------------------------------------------


def _gaussian_cover(*factors) -> np.ndarray:
    """Nodes over the union of the +-8 sigma spans of 1-D Gaussian factors."""
    spans = [(float(f.mean[0]), float(np.sqrt(f.covariance[0, 0]))) for f in factors]
    lo = min(m - HALF_WIDTH_SIGMAS * s for m, s in spans)
    hi = max(m + HALF_WIDTH_SIGMAS * s for m, s in spans)
    return np.linspace(lo, hi, GRID_POINTS_1D)


def _mass(weights: np.ndarray, values: np.ndarray) -> float:
    """The mass of a density's values at a measure's nodes, by which the duality
    suite renormalizes p, q and the tilt; ModelError unless it is positive."""
    mass = float(np.sum(weights * values))
    if mass <= 0:
        raise ModelError("density has zero mass on the measure")
    return mass


def _dual_objective(weights, log_p, h, q_values):
    """E_q[h] - KL(q||p) on a measure, for its weights, log p and h at its nodes
    and q's values there, renormalized on it: a float for one row of values,
    an array over the leading axes of rows. Each sum runs over the nodes where
    q has mass, in node order."""
    mass = weights * q_values
    support = mass > 0
    if np.any(support & np.isneginf(log_p)):
        raise SupportError("candidate has mass outside the base support")
    with np.errstate(divide="ignore", invalid="ignore"):
        e_term = np.sum(mass * h, axis=-1, where=support)
        kl_terms = np.log(q_values)
        kl_terms -= log_p
        kl_terms *= mass
        kl_term = np.sum(kl_terms, axis=-1, where=support)
    objective = e_term - kl_term
    return float(objective) if objective.ndim == 0 else objective


def duality_gap(weights, log_p, h, q_values) -> float:
    """log E_p[exp h] - (E_q[h] - KL(q||p)) on a measure, for its weights, log p
    and h at its nodes and q's values there, p and q renormalized on it.

    Equals KL(q || exponential tilt of p by h) on the measure, hence
    nonnegative up to roundoff and zero exactly at the tilt. ValueError unless
    the four arrays share one support.
    """
    weights, log_p, h, q_values = (np.asarray(a, dtype=float)
                                   for a in (weights, log_p, h, q_values))
    if not weights.shape == log_p.shape == h.shape == q_values.shape:
        raise ValueError("weights, log p, h and q must share one support")
    objective = _dual_objective(weights, log_p, h, q_values)
    return logsumexp(np.log(weights) + log_p + h) - objective


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
            # the tilt's precision is p's plus 2c; its precision times mean, p's plus b
            tilt_cov = 1.0 / (1.0 / p.covariance + 2.0 * c)
            tilt = GaussianFactor(tilt_cov[0] * (p.mean / p.covariance[0] + b), tilt_cov)
            nodes = _gaussian_cover(p, q, tilt)
            weights = trapezoid_weights(nodes)
            h = a + b * nodes - c * nodes * nodes
            log_p, q, tilt = p.log_values_at(nodes), q.values_at(nodes), tilt.values_at(nodes)
        else:
            n = int(rng.integers(2, 9))
            p = rng.exponential(size=n)
            p /= p.sum()
            q = rng.exponential(size=n)
            q /= q.sum()
            h = rng.uniform(-2, 2, size=n)
            tilt = p * np.exp(h)
            tilt /= tilt.sum()
            weights, log_p = np.ones(n), np.log(p)
        # p in log space, so that its far tail stays finite where q has mass
        log_p = log_p - np.log(_mass(weights, np.exp(log_p)))
        for at_optimum, values in ((False, q), (True, tilt)):
            gap = duality_gap(weights, log_p, h, values / _mass(weights, values))
            out.append(DualityTrial(trial=t, at_optimum=at_optimum, gap=gap))
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
        log_joint, self.log_marginal, log_complement = model.log_densities(i, points)
        # the bound depends on c alone, the same on every row
        self.log_bound = float(log_complement[0])
        with np.errstate(invalid="ignore"):
            # -inf at zero-marginal points; those fail the support check
            self.log_cond_at_c = np.where(
                self.log_marginal > -np.inf, log_joint - self.log_marginal, -np.inf)
        self.conditional_values = self.density_values(model.full_conditional(i, c))

    def density_values(self, q) -> np.ndarray:
        """Values of the factor q at the block nodes, renormalized on the measure."""
        return normalized_on(self.weights, q.values_at(self.grid))

    # Each method below takes one row of values at the block nodes, or rows
    # along leading axes, and gives a float or an array over those axes; a
    # row's result does not depend on the rows beside it.

    def value(self, q_values: np.ndarray):
        """F{q} for q's values at the block nodes: the dual objective with base
        the block marginal and h = log pi(c | .); at most ``log_bound``, with
        equality only at the full conditional, the tilt."""
        return _dual_objective(self.weights, self.log_marginal, self.log_cond_at_c, q_values)

    def tv_from_conditional(self, q_values: np.ndarray):
        distance = np.abs(q_values - self.conditional_values)
        distance *= self.weights
        tv = 0.5 * np.sum(distance, axis=-1)
        return float(tv) if tv.ndim == 0 else tv

    def concavity_slack(self, pv: np.ndarray, qv: np.ndarray, a):
        """F(a p + (1-a) q) - [a F(p) + (1-a) F(q)] for density values pv, qv
        and a weight a in [0, 1] per row."""
        a = np.asarray(a, dtype=float)
        if not np.all((0.0 <= a) & (a <= 1.0)):
            raise ValueError("mixture weight must lie in [0, 1]")
        mix = a[..., None] * pv
        mix += (1.0 - a[..., None]) * qv
        mass = np.sum(self.weights * mix, axis=-1)
        off = np.abs(mass - 1.0) > 1e-10
        if np.any(off):
            raise ModelError(f"mixture mass {float(mass[off][0])!r} deviates from 1 beyond 1e-10")
        slack = self.value(mix) - (a * self.value(pv) + (1.0 - a) * self.value(qv))
        return float(slack) if slack.ndim == 0 else slack


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
    Gibbs trace, with batch-means standard errors, from one ``log_densities``
    call: log pi, log pi_i and log pi_-i at every trace row."""
    if trace.samples.shape[1] != model.decomposition.total_dim:
        raise ModelError("trace and model disagree on the parameter dimension")
    log_joint, log_m_i, log_m_c = model.log_densities(i, trace.samples)
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

    The numerator is the normalizer Z_i of the coordinate tilt, whose log
    ``TargetModel.tilt`` gives, and the denominator the closed-form/enumerated
    KL; neither needs a block measure, so R is defined on vector blocks too.
    """
    model.decomposition.check_index(i)
    log_num = model.tilt(state.factors, i)[1]
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
    def failed_checks(self) -> dict[str, Check]:
        """Every failed check by ``block<label>.<check>``, block by block."""
        return {f"block{b.values['block']}.{c.name}": c
                for b in self.blocks for c in b.checks if not c.ok}

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(self.failed_checks)

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


def _fold(fold, current: float, chunk: float) -> float:
    """``fold`` (max or min) of a running value and a chunk's, keeping a NaN
    from either: Python's max and min drop a NaN that comes second, which
    would let a NaN chunk pass a check. Otherwise ``fold``'s own result."""
    return chunk if np.isnan(chunk) else fold(current, chunk)


def build_report(model: TargetModel, trace: ChainTrace, state: MeanFieldState,
                 options: ReportOptions | None = None) -> DiagnosticsReport:
    """Run every per-block diagnostic and collect its values and check records.

    The randomized candidate/mixture suites are driven by a Philox generator
    keyed with ``options.suite_seed``; the seed is echoed in the report, so
    the whole report is a pure function of (model, trace, state, options).
    Per block, the generator draws the candidates, then every mixture weight,
    then the mixtures' p and q rows interleaved.
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
    # every block's estimates come first, so that a bad trace row raises
    # before any suite runs
    monte_carlo = [info_monte_carlo(model, trace, i) for i in range(dec.n_blocks)]
    blocks: list[BlockDiagnostics] = []
    for i in range(dec.n_blocks):
        c_ref = reference[dec.complement_indices(i)]
        ws = _FunctionalWorkspace(model, i, c_ref)
        f_cond = ws.value(ws.conditional_values)
        attainment_err = abs(ws.log_bound - f_cond)
        gap_state = ws.log_bound - ws.value(ws.density_values(state.factors[i]))
        rows = max(1, SUITE_CHUNK_VALUES // ws.grid.size)
        max_excess = -np.inf
        min_distant_gap = np.inf
        for start in range(0, options.f_candidates, rows):
            qv = model.random_values(i, rng, min(rows, options.f_candidates - start))
            gap = ws.log_bound - ws.value(qv)
            max_excess = _fold(max, max_excess, float(np.max(-gap)))
            distant = ws.tv_from_conditional(qv) > 1e-4   # distant from the conditional
            min_distant_gap = _fold(min, min_distant_gap,
                                    float(np.min(gap, where=distant, initial=np.inf)))
        mix_weights = rng.uniform(0, 1, size=options.concavity_mixtures)
        min_slack = np.inf
        pairs = max(1, rows // 2)   # mixtures per chunk: each draws a p and a q row
        for start in range(0, mix_weights.size, pairs):
            a = mix_weights[start:start + pairs]
            pq = model.random_values(i, rng, 2 * a.size)
            min_slack = _fold(min, min_slack,
                              float(np.min(ws.concavity_slack(pq[0::2], pq[1::2], a))))
        info = information_equality_check(model, i, method=options.info_method)
        r_value = squashing_constant(model, state, i)
        squash_slack = squash_pointwise_check(
            model, state, i, model.block_measure(i, options.squash_grid_points)[0])
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
        for key, est in monte_carlo[i].items():
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
