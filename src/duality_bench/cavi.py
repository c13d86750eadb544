"""Coordinate-ascent mean-field engine over block factor products.

Each sweep replaces factor i with the normalized exponentiated expectation of
the log full conditional under the other factors, in fixed order 0..K-1
(results can depend on the order; fixing it makes runs reproducible). Two
update paths share that contract:

- the target's closed-form update, the factor of its coordinate tilt
  (``TargetModel.tilt``): analytic for Gaussian targets with Gaussian
  factors, exact summation for discrete targets;
- grid tabulation, for any continuous target with 1-D blocks (expectations
  by tensor trapezoid quadrature on the nodes of the factors' grids).

The engine takes the path it is given: "auto" takes the target's
closed-form update and factors (ModelError on a target without them), and
"grid" tabulates, asking the target its block layout and measures,
``is_discrete`` and ``log_density_terms``. The grids are fixed for a run and
only the factors' weights change between updates, so a grid run asks for the
log density once, on the tensor grid of all blocks' nodes, as a sum of
products of arrays that each span only the axes they depend on, and each
update contracts every array against the other factors' weights on its own
axes, one axis at a time and without BLAS: K contractions per cycle, the
first of them the starting objective's. E_{q_-i}[log pi] thus depends on the
other factors only through the expected statistics of the terms that couple
block i to them (variational message passing): a target whose log density
is a quadratic form, like the Gaussian's, never builds its dense table. The
CAVI objective is a KL because
``TargetModel.log_density`` is normalized. The engine is deterministic: there
is no randomness beyond the initializer, and the default initializers are
deterministic (exact marginals for Gaussian models, uniform for discrete,
standard normal tables for the grid path).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

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

# Bound on the product of all blocks' grid sizes on the grid path, for every
# target: it guards the memory of a dense log-joint table (the default
# log_density_terms), which a run holds whole. Two 4097-node blocks fit (4097^2
# cells, 134 MB), as do three blocks of up to 322 nodes; the fill adds only a
# cache-sized chunk of rows (core.TABLE_CHUNK_POINTS) of temporaries.
MAX_TABLE_CELLS = 2**25


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
    blocks and the tensor grid has at most MAX_TABLE_CELLS cells; no density
    is evaluated."""
    if model.is_discrete:
        raise ModelError("the grid path needs continuous blocks; discrete models use \"auto\"")
    if any(d != 1 for d in model.decomposition.block_dims):
        raise ModelError("the grid path needs 1-D blocks")
    grids = ([model.block_measure(i)[0] for i in range(model.decomposition.n_blocks)]
             if factors is None else [f.grid for f in factors])
    sizes = [np.size(g) for g in grids]
    if math.prod(sizes) > MAX_TABLE_CELLS:
        raise ModelError(f"grid path table of {' x '.join(map(str, sizes))} nodes is over "
                         f"{MAX_TABLE_CELLS} cells; use coarser grids or fewer blocks")
    return grids


def _log_joint_terms(model: TargetModel, factors) -> list[tuple[np.ndarray, ...]]:
    """log_density on the tensor grid of the factors' nodes, axis j on block j's,
    as the target's separable terms (``TargetModel.log_density_terms``)."""
    return model.log_density_terms(check_grid_path(model, factors))


def _expected_log_joint(terms, factors, i: int) -> np.ndarray:
    """E over the grid factors j != i of log joint(x, theta_-i), at the nodes x
    of factor i's grid: each array of each term contracted, along every axis
    j != i where it has more than one node, against factor j's normalized
    trapezoid weights, one axis at a time from the last; then each term's
    arrays multiplied and the terms summed. One dense table is thus contracted
    exactly as a table. The sums run in numpy's own einsum loops, not BLAS, so
    their bits do not depend on the number of BLAS threads.

    Block i's update is its exp, renormalized (E[log pi(x | theta_-i)] differs
    by a constant in x); the objective's cross term is its q_i-mean.
    """
    masses = {}
    for j, f in enumerate(factors):
        if j != i:
            w = trapezoid_weights(f.grid) * f.values
            masses[j] = w / w.sum()

    def contract(array):
        for j in reversed(range(array.ndim)):
            if j != i:
                axes = list(range(array.ndim))
                array = (np.einsum(array, axes, masses[j], [j], axes[:j] + axes[j + 1:])
                         if array.shape[j] > 1 else np.squeeze(array, axis=j))
        return array

    expected = reduce(operator.add, (reduce(operator.mul, map(contract, term))
                                     for term in terms))
    if not np.all(np.isfinite(expected)):
        if np.isnan(expected).any():   # -inf times a zero weight
            raise ModelError(f"block {i} update: the log density is -inf on cells where "
                             "the other factors have zero mass")
        raise ModelError(f"block {i} update: log of zero density on a positive-mass region")
    return expected


def cavi_update(model: TargetModel, factors, i: int, path: str = "auto"):
    """One coordinate update of factor i, other factors held fixed.

    Returns a normalized factor of the same representation family: the
    factor of the target's tilt (``TargetModel.tilt``) on the "auto" path,
    exp(E_i) renormalized on the grid path (E_i from ``_expected_log_joint``),
    where each call asks the target for its log-joint terms afresh. Never
    increases the KL objective (coordinate descent on the divergence to the
    posterior).
    """
    model.decomposition.check_index(i)
    if path == "auto":
        return model.tilt(factors, i)[0]
    if path == "grid":
        expected = _expected_log_joint(_log_joint_terms(model, factors), factors, i)
        return GridFactor.from_log_values(factors[i].grid, expected)
    raise ValueError(f"unknown path {path!r}")


def initial_factors(model: TargetModel, config: CaviConfig) -> list:
    """``run_cavi``'s starting factors for ``config.init``: the target's own on
    the "auto" path, standard-normal tables on the block measures' nodes on the
    grid path, whose rules ``run_cavi`` checks on them (``check_grid_path``).
    ModelError when there is no such initializer.
    """
    if config.path == "auto":
        return model.initial_factors(config.init)
    if config.init not in ("default", "standard_normal"):
        raise ModelError(f"grid path has no {config.init!r} initializer")
    grids = (model.block_measure(i)[0] for i in range(model.decomposition.n_blocks))
    return [GridFactor(g, np.exp(-0.5 * g**2)) for g in grids]


def run_cavi(model: TargetModel, config: CaviConfig,
             init_factors=None) -> MeanFieldState:
    """Iterate coordinate updates until convergence or ``max_cycles``.

    Non-convergence is a result, not an error: the returned state carries
    ``converged=False``.
    """
    factors = list(initial_factors(model, config) if init_factors is None else init_factors)
    if config.path == "grid":
        # the grids are fixed for the run: take the terms once, contract per
        # update; the starting objective's E_0 is block 0's first update's
        terms = _log_joint_terms(model, factors)
        expected = _expected_log_joint(terms, factors, 0)
        history = [_grid_kl(factors, 0, expected)]
    else:
        terms = expected = None
        history = [kl_objective(model, factors)]
    cycles = 0
    converged = False
    change = np.inf
    for _ in range(config.max_cycles):
        change = 0.0
        for i in range(model.decomposition.n_blocks):
            if terms is not None and (cycles or i):
                expected = _expected_log_joint(terms, factors, i)
            new = (cavi_update(model, factors, i) if terms is None
                   else GridFactor.from_log_values(factors[i].grid, expected))
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
    0's expectation, from log-joint terms this call asks for (any K within
    MAX_TABLE_CELLS); the target's closed form (``TargetModel.product_kl``)
    otherwise. ``run_cavi`` does not call it on the grid path: it asks for the
    terms once per run and takes each objective from the expectation its
    update has just contracted.
    """
    factors = list(factors)
    if all(isinstance(f, GridFactor) for f in factors):
        terms = _log_joint_terms(model, factors)
        return _grid_kl(factors, 0, _expected_log_joint(terms, factors, 0))
    return model.product_kl(factors)


def _grid_kl(factors, i: int, expected: np.ndarray) -> float:
    """KL of grid factors from E_i = ``_expected_log_joint(terms, factors, i)``:
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
