"""Trapezoid quadrature, log-space integrals, the block-factor contract, and
grid-tabulated densities.

A :class:`Factor` is one block density q_i of a CAVI product. The engines use
only its contract: ``values_at``/``log_values_at`` on a block measure's nodes,
the sup-norm ``change`` to a factor of the same kind, and the JSON form
``{"type": kind, **init fields}`` (``to_jsonable``/``Factor.from_jsonable``).

Reference rules used throughout: 4097-point trapezoid on [mu - 8 sigma,
mu + 8 sigma] per 1-D block, 513-per-axis tensor grids for 2-D integrals.
Gaussian tails beyond 8 sigma contribute below 1e-15, so these rules agree
with closed forms to well under the 1e-8 tolerances the checks use.

Exp-then-integrate steps go through log-sum-exp to avoid underflow.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "trapezoid_weights",
    "gaussian_grid",
    "tensor_weights",
    "log_integral",
    "Factor",
    "GridFactor",
]

GRID_POINTS_1D = 4097
GRID_POINTS_2D = 513
HALF_WIDTH_SIGMAS = 8.0


def trapezoid_weights(grid) -> np.ndarray:
    """Trapezoid-rule weights for an increasing 1-D grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array with at least 2 nodes")
    h = np.diff(grid)
    if np.any(h <= 0):
        raise ValueError("grid must be strictly increasing")
    w = np.empty_like(grid)
    w[0] = h[0] / 2
    w[-1] = h[-1] / 2
    w[1:-1] = (h[:-1] + h[1:]) / 2
    return w


def gaussian_grid(mean: float, std: float, n: int = GRID_POINTS_1D,
                  half_width: float = HALF_WIDTH_SIGMAS) -> np.ndarray:
    """Uniform grid covering [mean - half_width*std, mean + half_width*std]."""
    if std <= 0:
        raise ValueError("std must be positive")
    return np.linspace(mean - half_width * std, mean + half_width * std, n)


def tensor_weights(*grids) -> np.ndarray:
    """Outer product of per-axis trapezoid weights."""
    w = trapezoid_weights(grids[0])
    for g in grids[1:]:
        w = np.multiply.outer(w, trapezoid_weights(g))
    return w


def logsumexp(a) -> float:
    """log(sum(exp(a))) over all elements, by scipy 1.17's algorithm (same
    bits): the maxima are summed apart, as their count m, so the rest enters
    as log1p(s / m); the direct form stands in when that is not finite."""
    a = np.asarray(a, dtype=float).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a)))
        a_max = np.max(a)
        is_max = a == a_max
        m = float(np.count_nonzero(is_max))
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
    return float(out if np.isfinite(out) else direct)


def log_integral(log_values, grid) -> float:
    """log of the trapezoid integral of exp(log_values) over grid."""
    logw = np.log(trapezoid_weights(grid))
    return logsumexp(np.asarray(log_values, dtype=float) + logw)


class Factor(ABC):
    """A block density, implemented by frozen dataclasses whose init fields
    are arrays; ``kind`` names the subclass in the JSON form."""

    kind: str

    @abstractmethod
    def values_at(self, nodes) -> np.ndarray:
        """Density at the nodes of a 1-D block measure."""

    def log_values_at(self, nodes) -> np.ndarray:
        """Log density at the nodes of a 1-D block measure; -inf where it is 0."""
        with np.errstate(divide="ignore"):
            return np.log(self.values_at(nodes))

    @classmethod
    def _init_fields(cls) -> list[str]:
        return [f.name for f in fields(cls) if f.init]

    def change(self, other: "Factor") -> float:
        """Sup-norm change over the init fields; both factors of one kind."""
        if type(other) is not type(self):
            raise TypeError(f"cannot compare factors of types {type(self)} and {type(other)}")
        return max(float(np.max(np.abs(getattr(self, name) - getattr(other, name))))
                   for name in self._init_fields())

    def to_jsonable(self) -> dict:
        return {"type": self.kind,
                **{name: getattr(self, name).tolist() for name in self._init_fields()}}

    @staticmethod
    def from_jsonable(data: dict) -> "Factor":
        """The factor of ``data["type"]``; KeyError or TypeError on a malformed
        ``data``, ValueError on an unknown type."""
        kinds = {cls.kind: cls for cls in Factor.__subclasses__()}
        kind = data["type"]
        if kind not in kinds:
            raise ValueError(f"unknown factor type {kind!r}")
        cls = kinds[kind]
        return cls(**{name: np.asarray(data[name]) for name in cls._init_fields()})


@dataclass(frozen=True)
class GridFactor(Factor):
    """Density tabulated on a fixed 1-D grid, trapezoid-normalized.

    The generic (non-analytic) CAVI path and the diagnostics mixture probes
    represent block densities this way. Densities are only ever evaluated at
    their own grid nodes; no interpolation happens.
    """

    grid: np.ndarray
    values: np.ndarray
    log_values: np.ndarray = field(init=False, repr=False)
    kind = "grid"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.array(self.values, dtype=float)   # a copy: it is frozen below
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")
        mass = float(np.sum(trapezoid_weights(grid) * values))
        if mass <= 0:
            raise ValueError("density has zero mass on its grid")
        # Normalising and re-summing n products moves the mass off 1 by at most
        # about (n + 1) eps; values inside that bound are kept as they are, so
        # a stored factor reloads bit for bit.
        if abs(mass - 1.0) > (grid.size + 1) * np.finfo(float).eps:
            values = values / mass
        grid.setflags(write=False)
        values.setflags(write=False)
        with np.errstate(divide="ignore"):
            logv = np.log(values)
        logv.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "log_values", logv)

    @classmethod
    def from_log_values(cls, grid, log_values) -> "GridFactor":
        log_values = np.asarray(log_values, dtype=float)
        return cls(grid=grid, values=np.exp(log_values - np.max(log_values)))

    def values_at(self, nodes) -> np.ndarray:
        if not np.array_equal(self.grid, nodes):
            raise ValueError("grid factor lives on a different grid")
        return self.values

    def change(self, other: Factor) -> float:
        if type(other) is GridFactor and not np.array_equal(self.grid, other.grid):
            raise ValueError("grid factors live on different grids")
        return super().change(other)

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)
