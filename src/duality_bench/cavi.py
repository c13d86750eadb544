"""Coordinate-ascent mean-field engine over block factor products.

Each sweep replaces factor i with the normalized exponentiated expectation of
the log full conditional under the other factors, in fixed order 0..K-1
(results can depend on the order; fixing it makes runs reproducible). Two
update paths share that contract:

- the target's closed-form update (``TargetModel.cavi_update``): analytic
  for Gaussian targets with Gaussian factors, exact summation for discrete
  targets;
- grid tabulation, for any continuous target with 1-D blocks (expectations
  by tensor trapezoid quadrature on the nodes of the factors' grids).

The engine takes the path it is given: "auto" takes the target's
closed-form update and factors (ModelError on a target without them), and
"grid" tabulates, asking the target only ``is_discrete``. The grids are
fixed for a run and only the factors' weights change between updates, so a
grid run evaluates ``TargetModel.log_density`` once, on the tensor grid of all
blocks' nodes, and each update contracts that table against the other
factors' weights, one axis at a time and without BLAS. The CAVI objective is a KL because
``TargetModel.log_density`` is normalized. The engine is deterministic: there
is no randomness beyond the initializer, and the default initializers are
deterministic (exact marginals for Gaussian models, uniform for discrete,
standard normal tables for the grid path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duality_bench.core import TargetModel
from duality_bench.errors import ModelError
from duality_bench.quadrature import Factor, GridFactor, trapezoid_weights

__all__ = [
    "CaviConfig",
    "MeanFieldState",
    "cavi_update",
    "check_grid_path",
    "initial_factors",
    "run_cavi",
    "kl_objective",
    "state_to_jsonable",
    "state_from_jsonable",
]

# Bound on the grid path's log-joint table (the product of all blocks' grid
# sizes), which a run holds in memory: two 4097-node blocks fit (4097^2 cells,
# 134 MB), as do three blocks of up to 322 nodes.
MAX_TABLE_CELLS = 2**25
# Points per log_density call while the table fills. The call's temporaries,
# a few arrays of that many rows, come on top of the table; the values of a
# row do not depend on the chunk.
TABLE_CHUNK_POINTS = 2**20


@dataclass(frozen=True)
class CaviConfig:
    """Iteration budget, stopping tolerance, and initialization strategy.

    Convergence is declared when the largest per-cycle factor change (sup
    norm over parameters or table values) drops below ``tolerance``.
    ``path`` picks the update mechanism: "auto" uses the target's closed-form
    update; "grid" the tabulated route.
    """

    max_cycles: int = 200
    tolerance: float = 1e-10
    init: str = "default"
    path: str = "auto"

    def __post_init__(self):
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.path not in ("auto", "grid"):
            raise ValueError(f"unknown path {self.path!r}")
        if self.init not in ("default", "marginals", "uniform", "standard_normal"):
            raise ValueError(f"unknown init strategy {self.init!r}")


@dataclass(frozen=True)
class MeanFieldState:
    """Product of per-block variational factors plus run bookkeeping.

    ``objective_history`` holds the KL objective before the first update and
    after every single-block update; coordinate descent makes it
    non-increasing (within numerical slack).
    """

    factors: tuple
    cycles: int
    objective_history: tuple[float, ...]
    converged: bool
    max_change: float


def check_grid_path(model: TargetModel, factors=None) -> list[np.ndarray]:
    """The grid path's grids, one per block: the factors' grids, by default
    the block measures' nodes. ModelError unless the model has continuous 1-D
    blocks and the log-joint table over the grids has at most MAX_TABLE_CELLS
    cells; no density is evaluated."""
    if model.is_discrete:
        raise ModelError("the grid path needs continuous blocks; discrete models use \"auto\"")
    if any(d != 1 for d in model.decomposition.block_dims):
        raise ModelError("the grid path needs 1-D blocks")
    grids = ([model.block_measure(i)[0] for i in range(model.decomposition.n_blocks)]
             if factors is None else [f.grid for f in factors])
    sizes = [np.size(g) for g in grids]
    if int(np.prod(sizes)) > MAX_TABLE_CELLS:
        raise ModelError(f"grid path table of {' x '.join(map(str, sizes))} nodes is over "
                         f"{MAX_TABLE_CELLS} cells; use coarser grids or fewer blocks")
    return grids


def _log_joint_table(model: TargetModel, factors) -> np.ndarray:
    """log_density on the tensor grid of the factors' nodes, axis j on block
    j's grid, evaluated once in calls of at most TABLE_CHUNK_POINTS points (or
    one row of block 0, if that is more)."""
    grids = check_grid_path(model, factors)
    dec = model.decomposition
    shape = tuple(g.size for g in grids)
    rest_points = np.stack(
        [g.reshape(-1) for g in np.meshgrid(*grids[1:], indexing="ij")], axis=1)
    n_rest = rest_points.shape[0]
    table = np.empty(shape)
    chunk = max(1, TABLE_CHUNK_POINTS // n_rest)
    for start in range(0, shape[0], chunk):
        xs = grids[0][start:start + chunk]
        pts = np.empty((xs.size, n_rest, dec.total_dim))
        pts[:, :, dec.block_offsets[0]] = xs[:, None]
        pts[:, :, list(dec.block_offsets[1:])] = rest_points
        lj = np.asarray(model.log_density(pts.reshape(-1, dec.total_dim)), dtype=float)
        table[start:start + xs.size] = lj.reshape(xs.size, *shape[1:])
    return table


def _expected_log_joint(table: np.ndarray, factors, i: int) -> np.ndarray:
    """E over the grid factors j != i of log joint(x, theta_-i), at the nodes x
    of factor i's grid: the table contracted against each other factor's
    normalized trapezoid weights, one axis at a time from the last. The sums
    run in numpy's own einsum loops, not BLAS, so their bits do not depend on
    the number of BLAS threads.

    Block i's update is its exp, renormalized (E[log pi(x | theta_-i)] differs
    by a constant in x); the objective's cross term is its q_i-mean.
    """
    expected = table
    for j in reversed(range(len(factors))):
        if j != i:
            w = trapezoid_weights(factors[j].grid) * factors[j].values
            axes = list(range(expected.ndim))
            expected = np.einsum(expected, axes, w / w.sum(), [j], axes[:j] + axes[j + 1:])
    if not np.all(np.isfinite(expected)):
        if np.isnan(expected).any():   # -inf times a zero weight
            raise ModelError(f"block {i} update: the log density is -inf on cells where "
                             "the other factors have zero mass")
        raise ModelError(f"block {i} update: log of zero density on a positive-mass region")
    return expected


def _step(model: TargetModel, factors, i: int, table):
    """Factor i's coordinate update, with the expectation E_i the grid path
    built it from: the target's closed form when ``table`` is None (E_i is
    None), else a contraction of the grid path's log-joint table."""
    if table is None:
        return model.cavi_update(factors, i), None
    expected = _expected_log_joint(table, factors, i)
    return GridFactor.from_log_values(factors[i].grid, expected), expected


def cavi_update(model: TargetModel, factors, i: int, path: str = "auto"):
    """One coordinate update of factor i, other factors held fixed.

    Returns a normalized factor of the same representation family. Never
    increases the KL objective (coordinate descent on the divergence to the
    posterior). On the grid path each call tabulates the log joint afresh.
    """
    model.decomposition.check_index(i)
    if path == "auto":
        table = None
    elif path == "grid":
        table = _log_joint_table(model, factors)
    else:
        raise ValueError(f"unknown path {path!r}")
    return _step(model, factors, i, table)[0]


def initial_factors(model: TargetModel, config: CaviConfig) -> list:
    """``run_cavi``'s starting factors for ``config.init``: the target's own on
    the "auto" path, standard-normal tables on the block measures' nodes on the
    grid path. ModelError when there is no such initializer.
    """
    if config.path == "auto":
        return model.initial_factors(config.init)
    if config.init not in ("default", "standard_normal"):
        raise ModelError(f"grid path has no {config.init!r} initializer")
    return [GridFactor(g, np.exp(-0.5 * g**2)) for g in check_grid_path(model)]


def run_cavi(model: TargetModel, config: CaviConfig,
             init_factors=None) -> MeanFieldState:
    """Iterate coordinate updates until convergence or ``max_cycles``.

    Non-convergence is a result, not an error: the returned state carries
    ``converged=False``.
    """
    factors = list(initial_factors(model, config) if init_factors is None else init_factors)
    if config.path == "grid":
        # the grids are fixed for the run: tabulate once, contract per update
        table = _log_joint_table(model, factors)
        history = [_grid_kl(factors, 0, _expected_log_joint(table, factors, 0))]
    else:
        table = None
        history = [kl_objective(model, factors)]
    cycles = 0
    converged = False
    change = np.inf
    for _ in range(config.max_cycles):
        change = 0.0
        for i in range(model.decomposition.n_blocks):
            new, expected = _step(model, factors, i, table)
            change = max(change, factors[i].change(new))
            factors[i] = new
            # E_i depends only on the factors j != i, so it still holds
            history.append(kl_objective(model, factors) if expected is None
                           else _grid_kl(factors, i, expected))
        cycles += 1
        if change < config.tolerance:
            converged = True
            break
    return MeanFieldState(
        factors=tuple(factors),
        cycles=cycles,
        objective_history=tuple(history),
        converged=converged,
        max_change=float(change),
    )


def kl_objective(model: TargetModel, factors) -> float:
    """KL(product of factors || posterior), >= 0.

    For grid factors, the tensor-quadrature form of :func:`_grid_kl` on block
    0's expectation, from a log-joint table this call builds (any K within
    MAX_TABLE_CELLS); the target's closed form (``TargetModel.product_kl``)
    otherwise. ``run_cavi`` does not call it on the grid path: it builds one
    table per run and takes each objective from the expectation its update
    has just contracted.
    """
    factors = list(factors)
    if all(isinstance(f, GridFactor) for f in factors):
        table = _log_joint_table(model, factors)
        return _grid_kl(factors, 0, _expected_log_joint(table, factors, 0))
    return model.product_kl(factors)


def _grid_kl(factors, i: int, expected: np.ndarray) -> float:
    """KL of grid factors from E_i = ``_expected_log_joint(table, factors, i)``:
    sum_j E_qj[log q_j] - E_qi[E_i] (no log Z: the target is normalized)."""
    masses = [f.weights * f.values for f in factors]
    entropy_terms = sum(float(np.sum(m[m > 0] * f.log_values[m > 0]))
                        for m, f in zip(masses, factors))
    cross = float(np.sum(masses[i] * expected))
    return entropy_terms - cross


# --- JSON forms (converged-state export / import) ---------------------------


def state_to_jsonable(state: MeanFieldState) -> dict:
    return {
        "converged": state.converged,
        "cycles": state.cycles,
        "max_change": state.max_change,
        "objective_history": list(state.objective_history),
        "factors": [f.to_jsonable() for f in state.factors],
    }


def state_from_jsonable(data: dict) -> MeanFieldState:
    return MeanFieldState(
        factors=tuple(Factor.from_jsonable(fd) for fd in data["factors"]),
        cycles=int(data.get("cycles", 0)),
        objective_history=tuple(float(v) for v in data.get("objective_history", ())),
        converged=bool(data.get("converged", False)),
        max_change=float(data.get("max_change", 0.0)),
    )
