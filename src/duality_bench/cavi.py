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

The engine never asks which family it runs: "auto" takes the target's
closed-form update and factors where it has them and the grid path
otherwise. It is deterministic: there is no randomness beyond the
initializer, and the default initializers are deterministic (exact marginals
for Gaussian models, uniform for discrete, standard normal tables for the
grid path).
"""

from __future__ import annotations

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
    "initial_factors",
    "run_cavi",
    "kl_objective",
    "state_to_jsonable",
    "state_from_jsonable",
]

# Bound on one block's complement tensor (the product of the other blocks'
# grid sizes), which would otherwise silently eat memory; it also sets the row
# chunk of each log_density call. Any K passes when the grids are small enough:
# the reference 4097-node grids fit K=2, and K=3 takes up to 2896 nodes a block.
MAX_GRID_CELLS = 2**23


@dataclass(frozen=True)
class CaviConfig:
    """Iteration budget, stopping tolerance, and initialization strategy.

    Convergence is declared when the largest per-cycle factor change (sup
    norm over parameters or table values) drops below ``tolerance``.
    ``path`` picks the update mechanism: "auto" uses the target's closed-form
    update where it has one; "grid" forces the tabulated route.
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

    @property
    def n_blocks(self) -> int:
        return len(self.factors)


def _expected_log_joint(model: TargetModel, factors, i: int) -> np.ndarray:
    """E over the grid factors j != i of log joint(x, theta_-i), at the nodes x
    of factor i's grid, by tensor trapezoid quadrature in row chunks.

    Block i's update is its exp, renormalized (E[log pi(x | theta_-i)] differs
    by a constant in x); the objective's cross term is its q_i-mean.
    """
    dec = model.decomposition
    if model.is_discrete:
        raise ModelError("grid path requires continuous blocks")
    if any(d != 1 for d in dec.block_dims):
        raise ModelError("grid path requires 1-D blocks")
    grids = [f.grid for f in factors]
    comp_blocks = [j for j in range(dec.n_blocks) if j != i]
    if int(np.prod([grids[j].size for j in comp_blocks])) > MAX_GRID_CELLS:
        raise ModelError("grid path tensor too large; use coarser grids or fewer blocks")
    # normalized complement weights w_j = trapezoid * factor values
    weights = []
    for j in comp_blocks:
        w = trapezoid_weights(grids[j]) * factors[j].values
        weights.append(w / w.sum())
    comp_w = reduce(np.multiply.outer, weights).reshape(-1)
    comp_points = np.stack(
        [g.reshape(-1) for g in np.meshgrid(*[grids[j] for j in comp_blocks], indexing="ij")],
        axis=1,
    )
    n_comp = comp_points.shape[0]
    comp_offsets = [dec.block_offsets[j] for j in comp_blocks]
    x = grids[i]
    expected = np.empty(x.size)
    chunk = max(1, MAX_GRID_CELLS // max(1, n_comp))
    for start in range(0, x.size, chunk):
        xs = x[start:start + chunk]
        pts = np.empty((xs.size, n_comp, dec.total_dim))
        pts[:, :, dec.block_offsets[i]] = xs[:, None]
        pts[:, :, comp_offsets] = comp_points
        lj = np.asarray(model.log_density(pts.reshape(-1, dec.total_dim)), dtype=float)
        lj = lj.reshape(xs.size, n_comp)
        if np.any(np.isneginf(lj) & (comp_w > 0)[None, :]):
            raise ModelError(
                f"block {i} update: log of zero density on a positive-mass region"
            )
        expected[start:start + xs.size] = lj @ comp_w
    return expected


def _step(model: TargetModel, factors, i: int, path: str):
    """Factor i's coordinate update, with the expectation E_i the grid path
    built it from (None on the closed-form path)."""
    model.decomposition.check_index(i)
    if path == "auto":
        update = model.cavi_update(factors, i)
        if update is not None:
            return update, None
        path = "grid"
    if path == "grid":
        expected = _expected_log_joint(model, factors, i)
        return GridFactor.from_log_values(factors[i].grid, expected), expected
    raise ValueError(f"unknown path {path!r}")


def cavi_update(model: TargetModel, factors, i: int, path: str = "auto"):
    """One coordinate update of factor i, other factors held fixed.

    Returns a normalized factor of the same representation family. Never
    increases the KL objective (coordinate descent on the divergence to the
    posterior).
    """
    return _step(model, factors, i, path)[0]


def initial_factors(model: TargetModel, config: CaviConfig) -> list:
    """``run_cavi``'s starting factors for ``config.init``: the target's own,
    or, on the grid path or for a target without them, standard-normal tables
    on the block measures' nodes. ModelError when there is no such initializer.
    """
    factors = None if config.path == "grid" else model.initial_factors(config.init)
    if factors is not None:
        return factors
    if config.init not in ("default", "standard_normal"):
        raise ModelError(f"grid path has no {config.init!r} initializer")
    grids = [model.block_measure(i)[0] for i in range(model.decomposition.n_blocks)]
    return [GridFactor(g, np.exp(-0.5 * g**2)) for g in grids]


def run_cavi(model: TargetModel, config: CaviConfig,
             init_factors=None) -> MeanFieldState:
    """Iterate coordinate updates until convergence or ``max_cycles``.

    Non-convergence is a result, not an error: the returned state carries
    ``converged=False``. The objective history is tracked whenever the model
    is normalized (both built-in families are).
    """
    factors = list(initial_factors(model, config) if init_factors is None else init_factors)
    history: list[float] = []
    track_objective = model.log_evidence is not None
    if track_objective:
        try:
            history.append(kl_objective(model, factors))
        except ModelError:
            # objective not computable for these factors (e.g. closed-form
            # factors of a target without product_kl); run without tracking
            track_objective = False
    cycles = 0
    converged = False
    change = np.inf
    for _ in range(config.max_cycles):
        change = 0.0
        for i in range(model.decomposition.n_blocks):
            new, expected = _step(model, factors, i, config.path)
            change = max(change, factors[i].change(new))
            factors[i] = new
            if track_objective:
                # E_i depends only on the factors j != i, so it still holds
                history.append(kl_objective(model, factors) if expected is None
                               else _grid_kl(model, factors, i, expected))
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
    0's expectation (any K the grid update accepts); the target's closed form
    (``TargetModel.product_kl``) otherwise. Needs a normalized target (known
    evidence). ``run_cavi`` calls it on grid factors only for the starting
    point: after a grid update it reuses that update's expectation.
    """
    factors = list(factors)
    if model.log_evidence is None:
        raise ModelError("objective requires normalized target (unknown evidence)")
    if all(isinstance(f, GridFactor) for f in factors):
        return _grid_kl(model, factors, 0, _expected_log_joint(model, factors, 0))
    return model.product_kl(factors)


def _grid_kl(model: TargetModel, factors, i: int, expected: np.ndarray) -> float:
    """KL of grid factors from E_i = ``_expected_log_joint(model, factors, i)``:
    sum_j E_qj[log q_j] - E_qi[E_i] + log Z."""
    masses = [f.weights * f.values for f in factors]
    entropy_terms = sum(float(np.sum(m[m > 0] * f.log_values[m > 0]))
                        for m, f in zip(masses, factors))
    cross = float(np.sum(masses[i] * expected))
    return entropy_terms - cross + model.log_evidence


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
