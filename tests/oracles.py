"""Independent oracles used across the test suite.

Everything here is implemented from scratch on purpose (plain trapezoid sums,
dense enumeration, simplex pattern search) so the oracles share no code with
the library paths they check.
"""

from itertools import combinations

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)


def trap_weights(grid):
    grid = np.asarray(grid, dtype=float)
    w = np.empty_like(grid)
    h = np.diff(grid)
    w[0] = h[0] / 2
    w[-1] = h[-1] / 2
    w[1:-1] = (h[:-1] + h[1:]) / 2
    return w


def quad(values, grid):
    return float(np.sum(trap_weights(grid) * np.asarray(values, dtype=float)))


def normal_logpdf(x, mean, var):
    x = np.asarray(x, dtype=float)
    return -0.5 * (LOG_2PI + np.log(var)) - (x - mean) ** 2 / (2.0 * var)


def mvn_logpdf(points, mean, cov):
    """Dense multivariate normal log pdf via explicit inverse (oracle grade)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    inv = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    diff = points - mean
    quad_form = np.einsum("ni,ij,nj->n", diff, inv, diff)
    return -0.5 * (mean.size * LOG_2PI + logdet + quad_form)


def grid_normalized_conditional(log_joint_values, grid):
    """Renormalize exp(log joint) over a block grid: the conditional oracle."""
    log_joint_values = np.asarray(log_joint_values, dtype=float)
    shifted = np.exp(log_joint_values - log_joint_values.max())
    return shifted / quad(shifted, grid)


def kl_quadrature(log_q, log_p, grid):
    """KL(q||p) by quadrature of q log(q/p), densities given in log form."""
    q = np.exp(np.asarray(log_q, dtype=float))
    return float(np.sum(trap_weights(grid) * q * (np.asarray(log_q) - np.asarray(log_p))))


def random_spd(rng, dim, min_eig=0.3):
    a = rng.standard_normal((dim, dim))
    m = a @ a.T + min_eig * np.eye(dim)
    scale = np.sqrt(np.diag(m))
    return m / np.outer(scale, scale) * rng.uniform(0.5, 2.0)


def random_table(rng, sizes):
    """Strictly positive random joint pmf (Dirichlet-like)."""
    t = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    t = t + 1e-4
    return t / t.sum()


# --------------------------------------------------------------------------
# Brute-force coordinate KL minimizer on the probability simplex
# --------------------------------------------------------------------------


def product_kl_vs_table(q_block, i, factors, table):
    """KL of the factor product (factor i replaced by q_block) against the
    joint table, by literal full-table summation."""
    q = np.ones(())
    for j in range(table.ndim):
        v = np.asarray(q_block if j == i else factors[j], dtype=float)
        q = np.multiply.outer(q, v)
    mask = q > 0
    return float(np.sum(q[mask] * (np.log(q[mask]) - np.log(table[mask]))))


def _compositions(total, parts):
    """All nonnegative integer vectors of length `parts` summing to `total`."""
    for cut in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield out


def minimize_block_kl(table, i, factors, resolution=8, final_step=1e-9):
    """Global minimizer of KL(q(theta_i) x complement || table) over the
    simplex, by dense coarse grid search plus pattern search with mesh
    refinement (the objective is convex, so the polling directions
    {e_a - e_b} certify the global minimum).
    """
    n = table.shape[i]

    def objective(q):
        return product_kl_vs_table(q, i, factors, table)

    best = None
    best_val = np.inf
    for comp in _compositions(resolution, n):
        q = np.asarray(comp, dtype=float) / resolution
        val = objective(q)
        if val < best_val:
            best, best_val = q, val
    step = 1.0 / resolution
    while step > final_step:
        improved = True
        while improved:
            improved = False
            for a in range(n):
                for b in range(n):
                    if a == b or best[b] < step:
                        continue
                    cand = best.copy()
                    cand[a] += step
                    cand[b] -= step
                    val = objective(cand)
                    if val < best_val:
                        best, best_val = cand, val
                        improved = True
        step /= 2.0
    return best, best_val


# --------------------------------------------------------------------------
# Reference systematic scan
# --------------------------------------------------------------------------


def cavi_fixed_point(model):
    """The Gaussian CAVI fixed point, one factor per block. With m the factor
    means, the fixed-point equations read (Lambda (m - mu))_i = 0 for every
    block, so m = mu: factor i is block i's full conditional at the posterior
    mean of its complement."""
    dec = model.decomposition
    return [model.full_conditional(i, model.mean[dec.complement_indices(i)])
            for i in range(dec.n_blocks)]


def reference_scan(model, theta, rng, n_cycles):
    """Rows of n_cycles systematic scans from theta, each block drawn by
    ``model.full_conditional(i, theta_-i).sample(rng)``: the per-block
    reference a discrete model's scan must match bit for bit, and a Gaussian
    one's within ``scan_bound``."""
    dec = model.decomposition
    theta = np.array(theta, dtype=float)
    rows = np.empty((n_cycles, dec.total_dim))
    for cycle in range(n_cycles):
        for i in range(dec.n_blocks):
            draw = model.full_conditional(i, theta[dec.complement_indices(i)]).sample(rng)
            theta[dec.block_slice(i)] = np.asarray(draw, dtype=float).reshape(-1)
        rows[cycle] = theta
    return rows


def gauss_seidel_radius(model):
    """Spectral radius of the block Gauss-Seidel matrix of the precision
    Lambda = L + D + U (block lower, diagonal, upper): B = -(L + D)^{-1} U,
    the linear part of one Gaussian scan cycle about the mean."""
    dec = model.decomposition
    lam = np.linalg.inv(model.covariance)
    lower = np.zeros_like(lam)
    for i in range(dec.n_blocks):
        rows = dec.block_slice(i)
        lower[rows, :rows.stop] = lam[rows, :rows.stop]
    return float(np.max(np.abs(np.linalg.eigvals(-np.linalg.solve(lower, lam - lower)))))


def scan_bound(model):
    """Per-coordinate bound on a Gaussian scan's distance from the reference
    scan, 64 eps (|mu_k| + 8 sigma_k) / (1 - rho(B)): rounding of the order of
    eps times a coordinate's size enters every cycle and is carried on by B,
    so it accumulates like the geometric series in rho(B)."""
    scale = np.abs(model.mean) + 8.0 * np.sqrt(np.diag(model.covariance))
    return 64.0 * np.finfo(float).eps * scale / (1.0 - gauss_seidel_radius(model))


# --------------------------------------------------------------------------
# Reference grid CAVI: the log joint evaluated afresh for every update
# --------------------------------------------------------------------------


def _per_update_expectation(model, grids, values, i):
    """E over the tables j != i of log_density(x, theta_-i) at block i's nodes:
    the whole tensor grid is evaluated for this update alone, then contracted
    against each other table's normalized trapezoid weights one axis at a time
    from the last (1-D blocks in order)."""
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    expected = np.asarray(model.log_density(points), dtype=float).reshape(mesh[0].shape)
    for j in reversed(range(len(grids))):
        if j != i:
            w = trap_weights(grids[j]) * values[j]
            kept = [k for k in range(expected.ndim) if k != j]
            expected = np.einsum(expected, list(range(expected.ndim)), w / w.sum(), [j], kept)
    return expected


def _table_kl(grids, values, i, expected):
    masses = [trap_weights(g) * v for g, v in zip(grids, values)]
    with np.errstate(divide="ignore"):
        entropy = sum(float(np.sum(m[m > 0] * np.log(v)[m > 0]))
                      for m, v in zip(masses, values))
    return entropy - float(np.sum(masses[i] * expected))


def reference_grid_run(model, grids, values, max_cycles, tolerance):
    """Grid CAVI over 1-D blocks from normalized tables ``values`` on ``grids``,
    evaluating the log joint once for the starting objective and once for each
    update. Returns the final tables and the objective history."""
    grids = [np.asarray(g, dtype=float) for g in grids]
    values = [np.asarray(v, dtype=float) for v in values]
    history = [_table_kl(grids, values, 0,
                         _per_update_expectation(model, grids, values, 0))]
    eps = np.finfo(float).eps
    for _ in range(max_cycles):
        change = 0.0
        for i in range(len(grids)):
            expected = _per_update_expectation(model, grids, values, i)
            new = np.exp(expected - np.max(expected))
            mass = float(np.sum(trap_weights(grids[i]) * new))
            if abs(mass - 1.0) > (grids[i].size + 1) * eps:
                new = new / mass
            change = max(change, float(np.max(np.abs(new - values[i]))))
            values[i] = new
            history.append(_table_kl(grids, values, i, expected))
        if change < tolerance:
            break
    return values, history
