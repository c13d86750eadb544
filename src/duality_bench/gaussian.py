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

from duality_bench.core import BlockDecomposition, InfoEquality, TargetModel, table_row_chunks
from duality_bench.errors import ModelError
from duality_bench.quadrature import (
    GRID_POINTS_1D,
    GRID_POINTS_2D,
    Factor,
    gaussian_grid,
    normalized_on,
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
        out = self._log_pdf([pts[:, k] - m for k, m in enumerate(self.mean)])
        return float(out[0]) if single else out

    def log_density_table(self, grids) -> np.ndarray:
        """Log pdf on the tensor grid of 1-D node arrays, axis k on ``grids[k]``:
        bit for bit ``log_density`` at each grid point, filled one chunk of rows
        of axis 0 at a time (``table_row_chunks``)."""
        if len(grids) != self.dim:
            raise ValueError(f"{len(grids)} grids, factor has dim {self.dim}")
        deltas = [(np.asarray(g, dtype=float) - m).reshape((-1,) + (1,) * (self.dim - 1 - k))
                  for k, (g, m) in enumerate(zip(grids, self.mean))]
        table = np.empty(tuple(d.size for d in deltas))
        for rows in table_row_chunks(table.shape):
            # _log_pdf scales the rows' offsets in place; each row is used once
            table[rows] = self._log_pdf([deltas[0][rows], *deltas[1:]])
        return table

    def _log_pdf(self, deltas: list) -> np.ndarray:
        """Log pdf from offsets x_k - mean_k that broadcast together (columns of
        points, or grids on their own axes): z_k = (delta_k - sum_j<k z_j L_kj)
        / L_kk, each sum in index order, so a point's bits do not depend on the
        shapes. Overwrites the list; the last z becomes the result in place."""
        lower = self._chol
        for k in range(self.dim):
            if k:
                deltas[k] = deltas[k] - sum(deltas[j] * lower[k, j] for j in range(k))
            deltas[k] *= 1.0 / lower[k, k]
        quad = deltas.pop()
        quad *= quad
        quad += sum(z * z for z in deltas)
        quad += self.dim * _LOG_2PI + self._log_det
        quad *= -0.5
        return quad

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

    def log_density_terms(self, grids) -> list[tuple[np.ndarray, ...]]:
        """The quadratic form's 1 + D + D(D-1)/2 terms, with delta_k the grid
        offset from the mean on axis k: the normalizer -(D log 2 pi + log det
        Sigma) / 2, -Lambda_kk delta_k^2 / 2 for each k, and the pair
        (-Lambda_kl delta_k, delta_l) for each k < l. No array spans more than
        one axis."""
        d = self._decomposition.total_dim
        if len(grids) != d:
            raise ValueError(f"{len(grids)} grids, target has dim {d}")
        lam = self._precision
        deltas = [(np.asarray(g, dtype=float) - m).reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))
                  for k, (g, m) in enumerate(zip(grids, self._mean))]
        terms = [(np.full((1,) * d, -0.5 * (d * _LOG_2PI + self._joint._log_det)),)]
        terms += [(-0.5 * lam[k, k] * delta * delta,) for k, delta in enumerate(deltas)]
        terms += [(-lam[k, l] * deltas[k], deltas[l])
                  for k in range(d) for l in range(k + 1, d)]
        return terms

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

    def log_densities(self, i: int, samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        blk = self._blocks[self._decomposition.check_index(i)]
        samples = np.asarray(samples, dtype=float)
        return (np.asarray(self.log_density(samples)),
                np.asarray(self.marginal(i).log_density(samples[:, blk["bi"]])),
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
        """The three double sums by trapezoid rule on the 513^2 tensor grid
        (rows on theta_i), one chunk of rows at a time (``table_row_chunks``):
        per chunk the log joint, its exp and the weighted joint once, and
        a = log joint - log m_i for both the MI and H(theta_-i | theta_i).
        A cell's terms do not depend on the chunks, whose partial sums are
        added in order. The 1-D entropies are sums over one axis."""
        g1 = gaussian_grid(self._mean[0], np.sqrt(self._cov[0, 0]), GRID_POINTS_2D)
        g2 = gaussian_grid(self._mean[1], np.sqrt(self._cov[1, 1]), GRID_POINTS_2D)
        x_i, x_c = (g1, g2) if i == 0 else (g2, g1)
        w_i, w_c = trapezoid_weights(x_i), trapezoid_weights(x_c)
        log_m_i = np.asarray(self.marginal(i).log_density(x_i.reshape(-1, 1)))
        log_m_c = np.asarray(self.complement_marginal(i).log_density(x_c.reshape(-1, 1)))
        mi = h_cond = h_cond_i = 0.0
        for rows in table_row_chunks((x_i.size, x_c.size)):
            if i == 0:
                log_joint = self._joint.log_density_table((g1[rows], g2))
            else:   # C order, so the sums below keep their order
                log_joint = self._joint.log_density_table((g1, g2[rows])).T.copy()
            w_joint = np.multiply.outer(w_i[rows], w_c)   # tensor trapezoid weights
            w_joint *= np.exp(log_joint)
            a = log_joint - log_m_i[rows, None]
            h_cond -= float(np.sum(w_joint * a))
            a -= log_m_c
            mi += float(np.sum(w_joint * a))
            log_joint -= log_m_c
            h_cond_i -= float(np.sum(w_joint * log_joint))
        h_c = -float(np.sum(w_c * np.exp(log_m_c) * log_m_c))
        h_i = -float(np.sum(w_i * np.exp(log_m_i) * log_m_i))
        return InfoEquality(mi, h_c, h_cond, h_i, h_cond_i, method="quadrature")

    # --- coordinate-ascent machinery ---------------------------------------

    def initial_factors(self, strategy: str) -> list[GaussianFactor]:
        if strategy in ("default", "marginals"):
            return [self.marginal(i) for i in range(self._decomposition.n_blocks)]
        if strategy == "standard_normal":
            return [GaussianFactor(np.zeros(d), np.eye(d)) for d in self._decomposition.block_dims]
        raise ModelError(f"{strategy} initializer is only defined for discrete models")

    # --- expectations and KLs under Gaussian factor products ---------------

    def _block_factors(self, factors) -> list[GaussianFactor]:
        """The factors, if they are Gaussian, one per block, each of its block's dimension."""
        factors = _gaussian_factors(factors)
        if len(factors) != self._decomposition.n_blocks:
            raise ValueError("need one factor per block")
        for j, (factor, dim) in enumerate(zip(factors, self._decomposition.block_dims)):
            if factor.dim != dim:
                raise ValueError(f"block {j} has dimension {dim}, its factor {factor.dim}")
        return factors

    def tilt(self, factors, i: int) -> tuple[GaussianFactor, float]:
        """Analytic: the log full conditional is quadratic in theta_-i, so its
        expectation under Gaussian complement factors is the full conditional
        at their means, log N(x; mu_i - G (m_c - mu_c), Lambda_ii^{-1}), less
        penalty = tr(Lambda_ci Lambda_ii^{-1} Lambda_ic C) / 2, with C their
        block-diagonal covariance. So the update is that full conditional and
        log Z_i = -penalty. With delta = m - mu the fixed point solves
        (Lambda delta)_i = 0 for every block, so it is the full conditional at
        the posterior mean."""
        others = [f for j, f in enumerate(self._block_factors(factors)) if j != i]
        blk = self._blocks[self._decomposition.check_index(i)]
        b_mat = blk["lam_ic"].T @ blk["cov_i"] @ blk["lam_ic"]   # Lambda_ci cov_i Lambda_ic
        penalty = 0.5 * float(np.sum(b_mat * _block_diag([f.covariance for f in others])))
        return self.full_conditional(i, np.concatenate([f.mean for f in others])), -penalty

    def product_kl(self, factors, i: int | None = None) -> float:
        """Closed-form KL from the block-diagonal product Gaussian."""
        factors = self._block_factors(factors)
        if i is not None:
            self._decomposition.check_index(i)
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

    def random_values(self, i: int, rng: np.random.Generator, n: int) -> np.ndarray:
        """n Gaussians with mean uniform in [-2, 2] and variance uniform in
        [0.25, 4] (1-D blocks), each drawn as a (mean, variance) pair; the log
        pdf at the nodes is ``GaussianFactor._log_pdf``'s arithmetic."""
        nodes, weights = self.block_measure(i)
        mean, var = rng.uniform([-2, 0.25], [2, 4], size=(n, 2)).T
        std = np.sqrt(var)[:, None]
        z = nodes - mean[:, None]
        z *= 1.0 / std
        z *= z
        z += _LOG_2PI + 2.0 * np.log(std)
        z *= -0.5
        return normalized_on(weights, np.exp(z, out=z))

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
