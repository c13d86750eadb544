"""Block-decomposed parameter spaces and the target-model contract.

A parameter vector theta is a flat float64 array of length ``total_dim``,
partitioned into K >= 2 contiguous blocks. Matrix-valued blocks are expected
to be row-major flattened by the caller; only flat vectors appear in this API.

Everything downstream (Gibbs, CAVI, diagnostics) is written against
:class:`TargetModel`; beyond ``is_discrete`` it never asks which family it
runs. A family supplies the densities the duality checks are stated over,
each as one primitive:

- ``log_density``: the normalized log posterior, at a point or at each row
  of a sample array, and ``log_density_terms``: the same on a tensor grid
  as a sum of products of arrays that each span only the axes they depend
  on (the grid CAVI path's input); by default one dense table, filled from
  ``log_density`` in cache-sized chunks of rows;
- ``scan``: a whole systematic-scan Gibbs chain, run from a start on noise
  drawn up front;
- ``block_measure``: nodes and weights for one block (trapezoid weights on a
  continuous block, the counting measure on a discrete one);
- ``marginal`` and ``log_densities``: the block marginal as a factor, and
  log pi, log pi_i and log pi_-i at the rows of a sample array;
- ``tilt``: CAVI's coordinate update of one block, q_i* proportional to
  exp E_{q_-i}[log pi(theta_i | theta_-i)], as a factor, with its log
  normalizer log Z_i: the update of the engine's ``"auto"`` path, and the
  numerator of the squashing constant;
- ``product_kl``: KL from a product of block factors to the target's
  marginal on those blocks;
- ``block_kl_terms`` and ``information_equality``: the per-block KL bound
  and the information quantities, each by the family's own route;
- ``initial_factors``: starting factors of the CAVI engine's ``"auto"`` path;
- ``random_values``, ``reference_point`` and ``echo``: random candidate
  densities as rows of values on the block measure, the default complement
  point and the report's model description.

The factors these primitives take and return implement the block-density
contract :class:`duality_bench.quadrature.Factor`.

All types are immutable values after construction and safe to share across
threads; model evaluations must be pure.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from duality_bench.errors import ModelError
from duality_bench.quadrature import GRID_POINTS_1D

__all__ = [
    "BlockDecomposition",
    "InfoEquality",
    "TargetModel",
    "make_decomposition",
]

# Cells per chunk of rows in which a dense table is filled (the default
# log_density_terms, GaussianFactor.log_density_table) or summed (the Gaussian
# quadrature information), so that a chunk's temporaries stay in cache; a
# cell's value does not depend on it.
TABLE_CHUNK_POINTS = 2**16


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a ``total_dim``-vector into K >= 2 contiguous blocks."""

    block_dims: tuple[int, ...]
    block_offsets: tuple[int, ...] = field(init=False)
    total_dim: int = field(init=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if len(dims) < 2:
            raise ValueError("K must exceed 1: need at least 2 blocks")
        if any(d < 1 for d in dims):
            raise ValueError(f"block dims must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)
        offsets = (0, *np.cumsum(dims[:-1]).tolist())
        object.__setattr__(self, "block_offsets", tuple(int(o) for o in offsets))
        object.__setattr__(self, "total_dim", int(sum(dims)))

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def check_index(self, i: int) -> int:
        if not 0 <= i < self.n_blocks:
            raise IndexError(f"block index {i} out of range [0, {self.n_blocks})")
        return i

    def check_vector(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.total_dim,):
            raise ValueError(
                f"parameter vector has shape {theta.shape}, expected ({self.total_dim},)"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameter vector entries must be finite")
        return theta

    def block_slice(self, i: int) -> slice:
        self.check_index(i)
        start = self.block_offsets[i]
        return slice(start, start + self.block_dims[i])

    def block_indices(self, i: int) -> np.ndarray:
        s = self.block_slice(i)
        return np.arange(s.start, s.stop)

    def complement_indices(self, i: int) -> np.ndarray:
        """Indices of all other blocks, in block order."""
        s = self.block_slice(i)
        return np.concatenate([np.arange(0, s.start), np.arange(s.stop, self.total_dim)])


def table_row_chunks(shape) -> list[slice]:
    """Slices of axis 0 that split a table of this shape into chunks of rows of
    at most TABLE_CHUNK_POINTS cells (or one row, if that is more)."""
    rows = max(1, TABLE_CHUNK_POINTS // math.prod(shape[1:]))
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


def make_decomposition(block_dims) -> BlockDecomposition:
    """Build a :class:`BlockDecomposition` from a list of positive block dims."""
    return BlockDecomposition(block_dims=tuple(block_dims))


@dataclass(frozen=True)
class InfoEquality:
    """Mutual information and the entropies entering the two equalities.

    Each quantity is computed by its own route (quadrature tensor grid,
    1-D quadrature, exact summation, or its own closed form) - never derived
    from the others - so the residuals are genuine consistency checks.
    """

    mutual_information: float
    complement_entropy: float
    conditional_entropy: float
    block_entropy: float
    conditional_block_entropy: float
    method: str

    @property
    def residual(self) -> float:
        return abs(self.mutual_information
                   - (self.complement_entropy - self.conditional_entropy))

    @property
    def symmetric_residual(self) -> float:
        return abs(self.mutual_information
                   - (self.block_entropy - self.conditional_block_entropy))


class TargetModel(ABC):
    """Evaluatable joint/posterior density with per-block full conditionals.

    Implementations must be immutable and their evaluations pure, so shared
    read-only use from multiple threads is safe. Only the abstract members
    are needed for Gibbs sampling and grid-tabulated CAVI (through the
    default ``log_density_terms``); closed-form CAVI
    and the diagnostics need the closed-form primitives below, which raise
    :class:`ModelError` on a family that has none.
    """

    @property
    @abstractmethod
    def decomposition(self) -> BlockDecomposition: ...

    @property
    @abstractmethod
    def is_discrete(self) -> bool: ...

    @abstractmethod
    def log_density(self, theta):
        """Normalized log posterior: a float at a point (D,), an array at the
        rows of (n, D); -inf where the posterior has no mass, ValueError at a
        point outside the declared support."""

    def log_density_terms(self, grids) -> list[tuple[np.ndarray, ...]]:
        """``log_density`` on the tensor grid of 1-D node arrays, one per
        coordinate, axis k on ``grids[k]``, as a list of terms whose sum it is.
        A term is a tuple of arrays whose product it is: each broadcasts to the
        grid's shape with size 1 on every axis it does not depend on, and the
        arrays of one term depend on disjoint axes. By default one term of one
        array, the dense table, from one ``log_density`` call per chunk of rows
        of axis 0 (``table_row_chunks``). A subclass overriding ``log_density``
        overrides this too."""
        shape = tuple(g.size for g in grids)
        rest_points = np.stack(
            [g.reshape(-1) for g in np.meshgrid(*grids[1:], indexing="ij")], axis=1)
        table = np.empty(shape)
        for rows in table_row_chunks(shape):
            xs = grids[0][rows]
            pts = np.empty((xs.size, rest_points.shape[0], len(grids)))
            pts[:, :, 0] = xs[:, None]
            pts[:, :, 1:] = rest_points
            lj = np.asarray(self.log_density(pts.reshape(-1, len(grids))), dtype=float)
            table[rows] = lj.reshape(xs.size, *shape[1:])
        return [(table,)]

    @abstractmethod
    def full_conditional(self, i: int, complement_values):
        """Normalized density of block i given the other blocks: a factor with
        ``log_density`` and ``sample(rng)``."""

    @abstractmethod
    def scan(self, theta: np.ndarray, noise: np.ndarray, burn_in: int) -> np.ndarray:
        """Gibbs cycles from the float vector ``theta``, one per row of
        ``noise`` (n, D); the rows after the first ``burn_in``.

        Cycle t draws block i = 0..K-1 from ``full_conditional(i, theta_-i)``
        with block i's slice of row t (uniforms on a discrete model, standard
        normals otherwise): the draws of ``full_conditional(...).sample(rng)``
        on the same stream, up to rounding on a continuous model, with the same
        errors. ``theta`` may be overwritten.
        """

    @abstractmethod
    def block_measure(self, i: int, points: int = GRID_POINTS_1D) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the measure on block i (1-D blocks only).

        Continuous models return ``points`` quadrature nodes covering the
        block's mass with trapezoid weights; discrete models return the
        integer support with unit weights. Raises :class:`ModelError` for a
        block on which no measure is defined.
        """

    # --- closed-form primitives ---------------------------------------------

    def _no_closed_form(self, what: str) -> ModelError:
        return ModelError(f"{type(self).__name__} has no closed form for {what}")

    def marginal(self, i: int):
        """Marginal density of block i, as a factor of the family."""
        raise self._no_closed_form("block marginals")

    def log_densities(self, i: int, samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log pi(theta), log pi(theta_i) and log pi(theta_-i) at each row of an
        (n, D) array, the first bit for bit ``log_density``'s; a row's values do
        not depend on the rows beside it. A subclass overriding ``log_density``
        overrides this too."""
        raise self._no_closed_form("block marginals")

    def tilt(self, factors, i: int) -> tuple:
        """(q_i*, log Z_i): the coordinate update of factor i as a factor of the
        family, q_i* = exp E_{q_-i}[log pi(theta_i | theta_-i)] / Z_i with the
        expectation over the factors of the other blocks, and its log normalizer
        log Z_i = log int exp E_{q_-i}[log pi(theta_i | theta_-i)] d theta_i.
        ValueError unless there is one factor per block, each on its block."""
        raise self._no_closed_form("coordinate tilts")

    def product_kl(self, factors, i: int | None = None) -> float:
        """KL(prod_j q_j || pi) over all blocks, or over the blocks j != i
        against the complement marginal pi(theta_-i). +inf where the product
        puts mass outside the marginal's support."""
        raise self._no_closed_form("the KL from a factor product")

    def block_kl_terms(self, factor, i: int) -> tuple[float, float]:
        """(raw, kl) for a factor q_i of block i: raw is log int exp
        E_{q_i}[log pi(theta_-i | theta_i)] d theta_-i and kl is KL(q_i || pi_i)."""
        raise self._no_closed_form("the block KL bound")

    def information_equality(self, i: int, method: str = "auto") -> InfoEquality:
        """I(theta_i; theta_-i) and the four entropies, each computed independently."""
        raise self._no_closed_form("the information equalities")

    def initial_factors(self, strategy: str) -> list:
        """Starting factors of the family for the named CAVI strategy."""
        raise self._no_closed_form("starting factors")

    def random_values(self, i: int, rng: np.random.Generator, n: int) -> np.ndarray:
        """n random candidate densities for block i, as an (n, nodes) array of
        their values at the nodes of ``block_measure(i)``, each row renormalized
        on that measure; n then m rows draw what n + m rows draw at once."""
        raise self._no_closed_form("candidate densities")

    def reference_point(self) -> np.ndarray:
        """Default parameter vector whose complements the functional is probed at."""
        raise self._no_closed_form("a reference point")

    def echo(self) -> dict:
        """JSON-ready description of the model for reports."""
        raise self._no_closed_form("a model echo")
