"""Reference values for the benchmark's output checks, computed apart from
the program: numpy and the standard library only, no import of
``duality_bench``.

- Gaussian closed forms: the mean-field (CAVI) fixed point, the mean-field KL,
  the mutual information and the squashing constant of a bivariate target.
- Dense discrete tables by enumeration: marginals, entropies, mutual
  information, and CAVI run to its fixed point q_i ∝ exp E_{-i}[log p].
- Chain statistics: batch-means standard errors and the effective sample
  size (Geyer's initial monotone sequence).
"""

from __future__ import annotations

import numpy as np

BATCH_COUNT = 32


# --------------------------------------------------------------------------
# Gaussian closed forms
# --------------------------------------------------------------------------


def _block_slices(block_dims):
    at = 0
    for d in block_dims:
        yield slice(at, at + d)
        at += d


def gaussian_cavi_fixed_point(mean, cov, block_dims):
    """Mean-field factors at the CAVI fixed point: (mu_i, inverse of Lambda_ii)."""
    mean = np.asarray(mean, dtype=float)
    lam = np.linalg.inv(np.asarray(cov, dtype=float))
    return [(mean[s], np.linalg.inv(lam[s, s])) for s in _block_slices(block_dims)]


def gaussian_mean_field_kl(cov, block_dims) -> float:
    """KL(product of fixed-point factors || target) = ½·log(det Σ · ∏ det Λ_ii)."""
    cov = np.asarray(cov, dtype=float)
    lam = np.linalg.inv(cov)
    total = np.linalg.slogdet(cov)[1]
    for s in _block_slices(block_dims):
        total += np.linalg.slogdet(lam[s, s])[1]
    return 0.5 * float(total)


def bivariate_correlation(cov) -> float:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError("a bivariate covariance is 2x2")
    return float(cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))


def bivariate_mutual_information(cov) -> float:
    """I(theta_1; theta_2) = -½·log(1 - rho²)."""
    rho = bivariate_correlation(cov)
    return -0.5 * float(np.log1p(-rho * rho))


def bivariate_squashing_constant(cov) -> float:
    """R = sqrt(1 - rho²), for either block at the CAVI fixed point."""
    rho = bivariate_correlation(cov)
    return float(np.sqrt(1.0 - rho * rho))


def bivariate_factor_kl_to_marginal(cov) -> float:
    """KL(N(mu_i, 1/Lambda_ii) || N(mu_i, Sigma_ii)) = ½·(-rho² - log(1 - rho²))."""
    rho2 = bivariate_correlation(cov) ** 2
    return 0.5 * float(-rho2 - np.log1p(-rho2))


def trapezoid_moments(grid, values) -> tuple[float, float]:
    """Mean and variance of a density tabulated on a grid (trapezoid rule)."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    h = np.diff(grid)
    w = np.zeros_like(grid)
    w[:-1] += h / 2
    w[1:] += h / 2
    mass = w * values
    mass = mass / mass.sum()
    mean = float(np.sum(mass * grid))
    return mean, float(np.sum(mass * (grid - mean) ** 2))


# --------------------------------------------------------------------------
# Dense discrete tables by enumeration
# --------------------------------------------------------------------------


def _entropy(p) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


def discrete_marginal(table, i: int) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    axes = tuple(a for a in range(table.ndim) if a != i)
    return table.sum(axis=axes)


def discrete_block_information(table, i: int) -> dict[str, float]:
    """H(theta_-i), H(theta_-i | theta_i) and I(theta_i; theta_-i) for block i."""
    table = np.asarray(table, dtype=float)
    h_joint = _entropy(table)
    h_block = _entropy(discrete_marginal(table, i))
    h_comp = _entropy(table.sum(axis=i))
    return {
        "mutual_information": h_block + h_comp - h_joint,
        "complement_entropy": h_comp,
        "conditional_entropy": h_joint - h_block,
    }


def _expected_log_joint(table, factors, i: int) -> np.ndarray:
    """E over the other factors of log p(theta), as a function of theta_i."""
    log_p = np.log(np.asarray(table, dtype=float))
    for j in reversed(range(log_p.ndim)):
        if j != i:
            log_p = np.tensordot(log_p, factors[j], axes=([j], [0]))
    return log_p


def discrete_cavi_update(table, factors, i: int) -> np.ndarray:
    """q_i ∝ exp E_{-i}[log p] (the conditional and the joint differ by a
    constant in theta_i, so both give the same normalised factor)."""
    e = _expected_log_joint(table, factors, i)
    q = np.exp(e - e.max())
    return q / q.sum()


def discrete_cavi(table, tolerance=1e-14, max_cycles=10_000) -> list[np.ndarray]:
    """CAVI from uniform factors, sweeping blocks in index order, to its fixed point."""
    table = np.asarray(table, dtype=float)
    factors = [np.full(n, 1.0 / n) for n in table.shape]
    for _ in range(max_cycles):
        change = 0.0
        for i in range(table.ndim):
            new = discrete_cavi_update(table, factors, i)
            change = max(change, float(np.max(np.abs(new - factors[i]))))
            factors[i] = new
        if change < tolerance:
            return factors
    raise ArithmeticError("discrete CAVI did not reach its fixed point")


def discrete_fixed_point_residual(table, factors) -> float:
    """max_i |q_i - normalised exp E_{-i}[log p]|; 0 at a CAVI fixed point."""
    return max(float(np.max(np.abs(discrete_cavi_update(table, factors, i) - factors[i])))
               for i in range(len(factors)))


def discrete_factor_kl_to_marginal(table, factors, i: int) -> float:
    q = factors[i]
    return float(np.sum(q * (np.log(q) - np.log(discrete_marginal(table, i)))))


def discrete_squashing_constant(table, factors, i: int) -> float:
    """R_i = sum_x exp E_{q_-i}[log p(x | theta_-i)] / exp KL(q_-i || p(theta_-i))."""
    table = np.asarray(table, dtype=float)
    comp_marginal = table.sum(axis=i)
    log_cond = np.log(table) - np.expand_dims(np.log(comp_marginal), i)
    q_c = np.ones(())
    for j in range(table.ndim):
        if j != i:
            q_c = np.multiply.outer(q_c, factors[j])
    e = np.moveaxis(log_cond, i, -1).reshape(q_c.size, -1).T @ q_c.reshape(-1)
    kl_c = float(np.sum(q_c * (np.log(q_c) - np.log(comp_marginal))))
    return float(np.sum(np.exp(e)) / np.exp(kl_c))


# --------------------------------------------------------------------------
# Chain statistics
# --------------------------------------------------------------------------


def batch_means_se(values, batches: int = BATCH_COUNT) -> float:
    values = np.asarray(values, dtype=float).reshape(-1)
    size = values.size // batches
    means = values[: size * batches].reshape(batches, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(batches))


def means_within_se(samples, mu, k: float = 5.0) -> list[str]:
    """Problems where a column's mean lies more than k batch-means SE from mu."""
    samples = np.asarray(samples, dtype=float)
    problems = []
    for d, target in enumerate(np.asarray(mu, dtype=float)):
        col = samples[:, d]
        se = batch_means_se(col)
        if not abs(col.mean() - target) <= k * se:
            problems.append(f"dim{d + 1} mean {col.mean():.6g} is more than {k} SE "
                            f"({se:.3g}) from {target:.6g}")
    return problems


def effective_sample_size(x) -> float:
    """ESS of one chain's scalar trace, by Geyer's initial monotone sequence."""
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    if acov[0] <= 0:
        return float(n)
    rho = acov / acov[0]
    pairs = rho[: (n // 2) * 2].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0)
    pairs = pairs[: nonpositive[0] if nonpositive.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return float(n / max(tau, 1e-12))
