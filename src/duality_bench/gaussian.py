"""Multivariate Gaussian posterior target with closed-form block machinery.

The continuous oracle model: full conditionals, marginals, KL divergences,
entropies, mutual information, and the coordinate-ascent fixed point are all
available in closed form, so every diagnostic can be checked against
quadrature independently.

Conditioning conventions (precision form): with Lambda = Sigma^{-1} split into
block i rows/cols (``ii``) and complement rows/cols (``cc``),

    theta_i | theta_-i  ~  N(mu_i - Lambda_ii^{-1} Lambda_ic (x_c - mu_c),
                             Lambda_ii^{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from duality_bench.core import BlockDecomposition, InfoEquality, TargetModel
from duality_bench.errors import ModelError
from duality_bench.quadrature import (
    GRID_POINTS_1D,
    GRID_POINTS_2D,
    Factor,
    gaussian_grid,
    tensor_weights,
    trapezoid_weights,
)

__all__ = [
    "GaussianFactor",
    "GaussianTarget",
    "kl_divergence",
    "mutual_information",
]

_LOG_2PI = np.log(2.0 * np.pi)

SYMMETRY_TOL = 1e-12
MIN_EIGENVALUE = 1e-10
MAX_CONDITION = 1e8
PRECISION_CHECK_TOL = 1e-8


def _spd_cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a finite matrix. np.linalg.cholesky passes
    infs and NaNs through, so model and factor inputs go through
    ``_require_finite`` before anything is derived from them."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"{what} is not symmetric positive definite") from exc


def _require_finite(mean: np.ndarray, cov: np.ndarray, prefix: str = "") -> None:
    """ValueError on infs or NaNs, before any arithmetic can warn about them."""
    for name, arr in (("mean", mean), ("covariance", cov)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{prefix}{name} must not contain infs or NaNs")


def _substitute(lower: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Overwrite each row r of z (n, d) with the x solving lower @ x = r, by
    forward substitution that multiplies by each reciprocal pivot (as BLAS
    trsm does); returns z."""
    for k in range(lower.shape[0]):
        if k:
            z[:, k] -= z[:, :k] @ lower[k, :k]
        z[:, k] *= 1.0 / lower[k, k]
    return z


def _cho_inverse(chol: np.ndarray) -> np.ndarray:
    """(chol @ chol.T)^{-1}, symmetric up to rounding: the lower solve of the
    identity, then the upper one, run as a forward substitution in reversed
    order."""
    rev = slice(None, None, -1)
    z = _substitute(chol, np.eye(chol.shape[0]))
    _substitute(chol.T[rev, rev], z[:, rev])
    return z


def _block_diag(blocks) -> np.ndarray:
    sizes = [b.shape[0] for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for b, n in zip(blocks, sizes):
        out[start:start + n, start:start + n] = b
        start += n
    return out


@dataclass(frozen=True)
class GaussianFactor(Factor):
    """Gaussian density on one block: N(mean, covariance), covariance SPD."""

    mean: np.ndarray
    covariance: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)
    _log_det: float = field(init=False, repr=False)
    kind = "gaussian"

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"mean shape {mean.shape} and covariance shape {cov.shape} do not match"
            )
        _require_finite(mean, cov, "factor ")
        if np.max(np.abs(cov - cov.T), initial=0.0) > SYMMETRY_TOL:
            raise ModelError("factor covariance is not symmetric within 1e-12")
        chol = _spd_cholesky(cov, "factor covariance")
        for arr in (mean, cov, chol):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_log_det", 2.0 * float(np.sum(np.log(np.diag(chol)))))

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, x):
        """Log pdf at x; accepts a single point (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        pts = np.atleast_2d(x if x.ndim else x.reshape(1))
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, factor has dim {self.dim}")
        z = _substitute(self._chol, pts - self.mean)
        quad = np.einsum("ij,ij->i", z, z)
        out = -0.5 * (self.dim * _LOG_2PI + self._log_det + quad)
        return float(out[0]) if single else out

    def log_values_at(self, nodes) -> np.ndarray:
        return np.asarray(self.log_density(np.asarray(nodes, dtype=float).reshape(-1, 1)))

    def values_at(self, nodes) -> np.ndarray:
        return np.exp(self.log_values_at(nodes))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """One draw (d,), or ``size`` draws (size, d)."""
        if size is None:
            return self.mean + self._chol @ rng.standard_normal(self.dim)
        return self.mean + rng.standard_normal((size, self.dim)) @ self._chol.T

    def entropy(self) -> float:
        """Differential entropy -int f log f = 1/2 log det(2 pi e Sigma)."""
        return 0.5 * self.dim * (_LOG_2PI + 1.0) + 0.5 * self._log_det


def _gaussian_factors(factors) -> list:
    if not all(isinstance(f, GaussianFactor) for f in factors):
        raise ModelError("Gaussian model needs Gaussian factors")
    return list(factors)


def kl_divergence(a: GaussianFactor, b: GaussianFactor) -> float:
    """KL(a || b) in closed form; equals quadrature of int a log(a/b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    z = _substitute(b._chol, a._chol.T.copy())
    trace = float(np.sum(z * z))
    delta = _substitute(b._chol, (a.mean - b.mean)[None, :])[0]
    quad = float(delta @ delta)
    return 0.5 * (trace + quad - a.dim + b._log_det - a._log_det)


class GaussianTarget(TargetModel):
    """Posterior N(mean, covariance) over a block-decomposed parameter vector.

    Construction validates symmetry (1e-12), a minimum eigenvalue (1e-10), a
    condition-number cap (1e8, diagnostics need quadrature agreement at 1e-8),
    and that precision @ covariance recovers the identity within 1e-8. The
    precision matrix is computed once via Cholesky.
    """

    def __init__(self, mean, covariance, decomposition: BlockDecomposition):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(covariance, dtype=float)
        d = decomposition.total_dim
        if mean.shape != (d,):
            raise ValueError(f"mean has shape {mean.shape}, expected ({d},)")
        if cov.shape != (d, d):
            raise ValueError(f"covariance has shape {cov.shape}, expected ({d}, {d})")
        _require_finite(mean, cov)
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise ModelError("covariance is not symmetric within 1e-12")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() <= MIN_EIGENVALUE:
            raise ModelError(
                f"covariance eigenvalues must exceed {MIN_EIGENVALUE}, got {eigvals.min():.3e}"
            )
        if eigvals.max() / eigvals.min() > MAX_CONDITION:
            raise ModelError(
                f"covariance condition number {eigvals.max() / eigvals.min():.3e} exceeds 1e8"
            )
        for k in range(d):   # the block measures and the report's grids span these
            with np.errstate(over="ignore", invalid="ignore"):
                grid = gaussian_grid(mean[k], np.sqrt(cov[k, k]))
            if not (np.isfinite(grid).all() and np.all(np.diff(grid) > 0)):
                raise ModelError(f"coordinate {k + 1}: the +-8 sd grid around {float(mean[k])!r} "
                                 "is not finite and strictly increasing")
        self._joint = GaussianFactor(mean, cov)   # freezes mean and cov
        self._mean, self._cov = self._joint.mean, self._joint.covariance
        self._decomposition = decomposition
        self._precision = _cho_inverse(self._joint._chol)
        self._precision = 0.5 * (self._precision + self._precision.T)
        if np.max(np.abs(self._precision @ cov - np.eye(d))) > PRECISION_CHECK_TOL:
            raise ModelError("precision @ covariance deviates from identity beyond 1e-8")
        self._precision.setflags(write=False)
        self._blocks = tuple(self._block_cache(i) for i in range(decomposition.n_blocks))
        self._scan_map = self._compose_scan()

    def _block_cache(self, i: int) -> dict:
        dec = self._decomposition
        bi = dec.block_indices(i)
        ci = dec.complement_indices(i)
        lam = self._precision
        lam_ii = lam[np.ix_(bi, bi)]
        lam_ic = lam[np.ix_(bi, ci)]
        lam_cc = lam[np.ix_(ci, ci)]
        cov_i = np.linalg.inv(lam_ii)
        cov_i = 0.5 * (cov_i + cov_i.T)
        cov_c = np.linalg.inv(lam_cc)
        cov_c = 0.5 * (cov_c + cov_c.T)
        return {
            "bi": bi,
            "ci": ci,
            "gain_i": cov_i @ lam_ic,        # theta_i | theta_-i regression
            "gain_c": cov_c @ lam_ic.T,      # theta_-i | theta_i regression
            "cov_i": cov_i,
            "cov_c": cov_c,
            "chol_i": _spd_cholesky(cov_i, f"conditional covariance of block {i}"),
            "lam_ic": lam_ic,
        }

    def _compose_scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(B, b, M) of one cycle, theta' = B theta + b + M u: block i's draw
        mean_i - gain_i (theta_c - mean_c) + chol_i u_i sets its rows from the
        complement's rows so far. B is the block Gauss-Seidel matrix of the
        precision (Roberts & Sahu 1997)."""
        d = self._decomposition.total_dim
        cycle, offset, noise_map = np.eye(d), np.zeros(d), np.zeros((d, d))
        for blk in self._blocks:
            bi, ci, gain = blk["bi"], blk["ci"], blk["gain_i"]
            cycle[bi] = -np.einsum("ij,jk->ik", gain, cycle[ci])
            offset[bi] = self._mean[bi] - np.einsum("ij,j->i", gain, offset[ci] - self._mean[ci])
            noise_map[bi] = -np.einsum("ij,jk->ik", gain, noise_map[ci])
            noise_map[np.ix_(bi, bi)] = blk["chol_i"]
        return cycle, offset, noise_map

    # --- TargetModel contract ---------------------------------------------

    @property
    def decomposition(self) -> BlockDecomposition:
        return self._decomposition

    @property
    def is_discrete(self) -> bool:
        return False

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def covariance(self) -> np.ndarray:
        return self._cov

    @property
    def precision(self) -> np.ndarray:
        return self._precision

    def log_density(self, theta):
        """Normalized log posterior; accepts (D,) or (n, D)."""
        return self._joint.log_density(theta)

    def full_conditional(self, i: int, complement_values) -> GaussianFactor:
        """N(mu_i - Lambda_ii^{-1} Lambda_ic (x_c - mu_c), Lambda_ii^{-1})."""
        blk = self._blocks[self._decomposition.check_index(i)]
        x_c = np.asarray(complement_values, dtype=float).reshape(-1)
        if x_c.size != blk["ci"].size:
            raise ValueError(
                f"complement of block {i} has dim {blk['ci'].size}, got {x_c.size}"
            )
        cond_mean = self._mean[blk["bi"]] - blk["gain_i"] @ (x_c - self._mean[blk["ci"]])
        return GaussianFactor(cond_mean, blk["cov_i"])

    def scan(self, theta: np.ndarray, noise: np.ndarray, burn_in: int) -> np.ndarray:
        """The cycles as one recurrence y_t = B y_t-1 + b + M u_t, y_0 = theta,
        by doubling: after the pass with shift s each row sums its last 2s
        terms (a prefix scan over affine maps, Blelloch 1990). Its rounding
        differs from per-block draws', growing like eps / (1 - rho(B)). The
        products run in einsum's loops, not BLAS, so the bits do not depend on
        the BLAS thread count. Returns a view of the rows after ``burn_in``."""
        cycle, offset, noise_map = self._scan_map
        y = np.einsum("ij,tj->ti", noise_map, noise)
        y += offset
        y[0] += np.einsum("ij,j->i", cycle, theta)
        power, shift = cycle, 1
        while shift < len(y):
            y[shift:] += np.einsum("ij,tj->ti", power, y[:-shift])
            power = np.einsum("ij,jk->ik", power, power)
            shift *= 2
        return y[burn_in:]

    def block_measure(self, i: int, points: int = GRID_POINTS_1D) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid rule on +-8 marginal standard deviations around the mean."""
        dims = self._decomposition.block_dims
        if dims[self._decomposition.check_index(i)] != 1:
            raise ModelError(
                f"block measures are only defined for 1-D blocks; block {i} has dim {dims[i]}")
        k = self._decomposition.block_offsets[i]
        nodes = gaussian_grid(self._mean[k], np.sqrt(self._cov[k, k]), points)
        return nodes, trapezoid_weights(nodes)

    # --- analytic marginals and conditionals -------------------------------

    def marginal(self, i: int) -> GaussianFactor:
        blk = self._blocks[self._decomposition.check_index(i)]
        return GaussianFactor(self._mean[blk["bi"]], self._cov[np.ix_(blk["bi"], blk["bi"])])

    def complement_marginal(self, i: int) -> GaussianFactor:
        blk = self._blocks[self._decomposition.check_index(i)]
        return GaussianFactor(self._mean[blk["ci"]], self._cov[np.ix_(blk["ci"], blk["ci"])])

    def log_marginals(self, i: int, samples) -> tuple[np.ndarray, np.ndarray]:
        blk = self._blocks[self._decomposition.check_index(i)]
        samples = np.asarray(samples, dtype=float)
        return (np.asarray(self.marginal(i).log_density(samples[:, self._decomposition.block_slice(i)])),
                np.asarray(self.complement_marginal(i).log_density(samples[:, blk["ci"]])))

    def conditional_complement(self, i: int, block_values) -> GaussianFactor:
        """Density of theta_-i given theta_i = block_values."""
        blk = self._blocks[self._decomposition.check_index(i)]
        x_i = np.asarray(block_values, dtype=float).reshape(-1)
        cond_mean = self._mean[blk["ci"]] - blk["gain_c"] @ (x_i - self._mean[blk["bi"]])
        return GaussianFactor(cond_mean, blk["cov_c"])

    def information_equality(self, i: int, method: str = "auto") -> InfoEquality:
        """Tensor quadrature when the target is bivariate ("auto" picks it
        there), otherwise the closed forms."""
        self._decomposition.check_index(i)
        can_quadrature = self._decomposition.total_dim == 2
        if method == "auto":
            method = "quadrature" if can_quadrature else "closed_form"
        if method == "quadrature":
            if not can_quadrature:
                raise ModelError("quadrature route needs two 1-D blocks")
            return self._info_quadrature(i)
        if method == "closed_form":
            dec = self._decomposition
            # conditional entropies from the Schur-complement covariances
            return InfoEquality(
                mutual_information(self, i),
                self.complement_marginal(i).entropy(),
                self.conditional_complement(i, self._mean[dec.block_slice(i)]).entropy(),
                self.marginal(i).entropy(),
                self.full_conditional(i, self._mean[dec.complement_indices(i)]).entropy(),
                method="closed_form",
            )
        raise ValueError(f"unknown method {method!r}")

    def _info_quadrature(self, i: int) -> InfoEquality:
        g1 = gaussian_grid(self._mean[0], np.sqrt(self._cov[0, 0]), GRID_POINTS_2D)
        g2 = gaussian_grid(self._mean[1], np.sqrt(self._cov[1, 1]), GRID_POINTS_2D)
        grids = (g1, g2) if i == 0 else (g2, g1)
        w2 = tensor_weights(*grids)
        pts = np.stack([m.reshape(-1) for m in np.meshgrid(*grids, indexing="ij")], axis=1)
        if i == 1:
            pts = pts[:, ::-1]
        log_joint = np.asarray(self.log_density(pts)).reshape(w2.shape)
        x_i, x_c = grids
        log_m_i = np.asarray(self.marginal(i).log_density(x_i.reshape(-1, 1)))
        log_m_c = np.asarray(self.complement_marginal(i).log_density(x_c.reshape(-1, 1)))
        joint = np.exp(log_joint)
        mi = float(np.sum(w2 * joint * (log_joint - log_m_i[:, None] - log_m_c[None, :])))
        w_c = trapezoid_weights(x_c)
        h_c = -float(np.sum(w_c * np.exp(log_m_c) * log_m_c))
        h_cond = -float(np.sum(w2 * joint * (log_joint - log_m_i[:, None])))
        w_i = trapezoid_weights(x_i)
        h_i = -float(np.sum(w_i * np.exp(log_m_i) * log_m_i))
        h_cond_i = -float(np.sum(w2 * joint * (log_joint - log_m_c[None, :])))
        return InfoEquality(mi, h_c, h_cond, h_i, h_cond_i, method="quadrature")

    # --- coordinate-ascent machinery ---------------------------------------

    def cavi_update(self, factors, i: int) -> GaussianFactor:
        """Lemma-style analytic update: the exponentiated expected log full
        conditional under Gaussian complement factors.

        The log full conditional is quadratic in theta_-i, so, up to a
        constant in theta_i, its expectation depends on the complement factors
        through their means alone: the update is the full conditional at those
        means. With delta = m - mu the fixed point solves (Lambda delta)_i = 0
        for every block, so it is the full conditional at the posterior mean.
        """
        return self.full_conditional(i, np.concatenate(
            [f.mean for j, f in enumerate(_gaussian_factors(factors)) if j != i]))

    def initial_factors(self, strategy: str) -> list[GaussianFactor]:
        if strategy in ("default", "marginals"):
            return [self.marginal(i) for i in range(self._decomposition.n_blocks)]
        if strategy == "standard_normal":
            return [GaussianFactor(np.zeros(d), np.eye(d)) for d in self._decomposition.block_dims]
        raise ModelError(f"{strategy} initializer is only defined for discrete models")

    # --- expectations and KLs under Gaussian factor products ---------------

    def expected_log_conditional(self, factors, i: int) -> np.ndarray:
        """Exact: log N(x; mu_i - G (m_c - mu_c), Lambda_ii^{-1}) - tr penalty / 2,
        with m_c and the block-diagonal covariance of the complement factors."""
        tilted = self.cavi_update(factors, i)
        blk = self._blocks[i]
        cov_c = _block_diag([f.covariance for j, f in enumerate(factors) if j != i])
        b_mat = blk["lam_ic"].T @ blk["cov_i"] @ blk["lam_ic"]   # Lambda_ci cov_i Lambda_ic
        penalty = 0.5 * float(np.sum(b_mat * cov_c))
        nodes = self.block_measure(i)[0]
        return np.asarray(tilted.log_density(nodes.reshape(-1, 1))) - penalty

    def product_kl(self, factors, i: int | None = None) -> float:
        """Closed-form KL from the block-diagonal product Gaussian."""
        factors = _gaussian_factors(factors)
        keep = [j for j in range(self._decomposition.n_blocks) if j != i]
        idx = np.concatenate([self._decomposition.block_indices(j) for j in keep])
        product = GaussianFactor(np.concatenate([factors[j].mean for j in keep]),
                                 _block_diag([factors[j].covariance for j in keep]))
        return kl_divergence(product, GaussianFactor(self._mean[idx], self._cov[np.ix_(idx, idx)]))

    def block_kl_terms(self, factor, i: int) -> tuple[float, float]:
        """exp E_{q_i}[log pi(c | theta_i)] is an unnormalized Gaussian in c with
        total mass exp(-penalty), so the raw bound is -penalty for every
        complement."""
        (factor,) = _gaussian_factors([factor])
        blk = self._blocks[self._decomposition.check_index(i)]
        b_mat = blk["lam_ic"] @ blk["cov_c"] @ blk["lam_ic"].T   # Lambda_ic cov_c Lambda_ci
        penalty = 0.5 * float(np.sum(b_mat * factor.covariance))
        return -penalty, kl_divergence(factor, self.marginal(i))

    # --- candidates and report echo ----------------------------------------

    def random_factor(self, i: int, rng: np.random.Generator) -> GaussianFactor:
        """Mean uniform in [-2, 2], variance uniform in [0.25, 4] (1-D blocks)."""
        return GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])

    def reference_point(self) -> np.ndarray:
        return np.asarray(self._mean, dtype=float)

    def echo(self) -> dict:
        return {
            "family": "gaussian",
            "block_dims": list(self._decomposition.block_dims),
            "mean": self._mean.tolist(),
            "covariance": self._cov.tolist(),
        }


def mutual_information(target: GaussianTarget, i: int) -> float:
    """Posterior mutual information between block i and its complement.

    1/2 (log det Sigma_ii + log det Sigma_cc - log det Sigma) >= 0.
    """
    dec = target.decomposition
    bi = dec.block_indices(i)
    ci = dec.complement_indices(i)
    cov = target.covariance
    sign_i, ld_i = np.linalg.slogdet(cov[np.ix_(bi, bi)])
    sign_c, ld_c = np.linalg.slogdet(cov[np.ix_(ci, ci)])
    sign, ld = np.linalg.slogdet(cov)
    if min(sign_i, sign_c, sign) <= 0:
        raise ModelError("covariance sub-blocks must be positive definite")
    return 0.5 * (ld_i + ld_c - ld)
