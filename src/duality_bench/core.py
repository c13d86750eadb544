"""Block-decomposed parameter spaces and the target-model contract.

A parameter vector theta is a flat float64 array of length ``total_dim``,
partitioned into K >= 2 contiguous blocks. Matrix-valued blocks are expected
to be row-major flattened by the caller; only flat vectors appear in this API.

Everything downstream (Gibbs, CAVI, diagnostics) is written against
:class:`TargetModel`; beyond ``is_discrete`` it never asks which family it
runs. A family supplies the densities the duality checks are stated over,
each as one primitive:

- ``log_density``: the normalized log posterior, at a point or at each row
  of a sample array;
- ``scan``: a whole systematic-scan Gibbs chain, run from a start on noise
  drawn up front;
- ``block_measure``: nodes and weights for one block (trapezoid weights on a
  continuous block, the counting measure on a discrete one);
- ``marginal`` and ``log_marginals``: the block marginal as a factor, and
  log pi_i and log pi_-i at the rows of a sample array;
- ``expected_log_conditional``: E over the complement factors of the log
  full conditional, on the block measure;
- ``product_kl``: KL from a product of block factors to the target's
  marginal on those blocks;
- ``block_kl_terms`` and ``information_equality``: the per-block KL bound
  and the information quantities, each by the family's own route;
- ``cavi_update`` and ``initial_factors``: closed-form coordinate updates
  and starting factors, the CAVI engine's ``"auto"`` path;
- ``random_factor``, ``reference_point`` and ``echo``: candidate factors,
  the default complement point and the report's model description.

The factors these primitives take and return implement the block-density
contract :class:`duality_bench.quadrature.Factor`.

All types are immutable values after construction and safe to share across
threads; model evaluations must be pure.
"""

from __future__ import annotations

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
    are needed for Gibbs sampling and grid-tabulated CAVI; closed-form CAVI
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

    def log_marginals(self, i: int, samples) -> tuple[np.ndarray, np.ndarray]:
        """log pi(theta_i) and log pi(theta_-i) at each row of an (n, D) array."""
        raise self._no_closed_form("block marginals")

    def expected_log_conditional(self, factors, i: int) -> np.ndarray:
        """E over the factors of the other blocks of log pi(theta_i = x | theta_-i),
        for x at the nodes of ``block_measure(i)``."""
        raise self._no_closed_form("expected log full conditionals")

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

    def cavi_update(self, factors, i: int):
        """Closed-form coordinate update of factor i, a factor of the family."""
        raise self._no_closed_form("coordinate updates")

    def initial_factors(self, strategy: str) -> list:
        """Starting factors of the family for the named CAVI strategy."""
        raise self._no_closed_form("starting factors")

    def random_factor(self, i: int, rng: np.random.Generator):
        """A random candidate density for block i."""
        raise self._no_closed_form("candidate factors")

    def reference_point(self) -> np.ndarray:
        """Default parameter vector whose complements the functional is probed at."""
        raise self._no_closed_form("a reference point")

    def echo(self) -> dict:
        """JSON-ready description of the model for reports."""
        raise self._no_closed_form("a model echo")
