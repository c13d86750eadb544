"""Finite joint probability table over K categorical blocks.

The counting-measure oracle: every quantity (conditionals, marginals,
entropies, mutual information, coordinate updates, transition kernels) is
computed by exact summation, so this model serves as the brute-force
reference of last resort. Blocks are 1-D categorical variables taking values
in {0, ..., n_i - 1}; K <= 4 and n_i <= 16 keep exhaustive enumeration in the
millisecond range.

Zero entries are allowed in the joint table, but conditioning on a zero-mass
event raises, and the coordinate update rejects supports where a zero
conditional meets positive complement-factor mass (absolute continuity).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from duality_bench.core import BlockDecomposition, InfoEquality, TargetModel
from duality_bench.errors import ModelError, SupportError, ZeroMassError
from duality_bench.quadrature import GRID_POINTS_1D, Factor, logsumexp, normalized_on

__all__ = ["DiscreteFactor", "DiscreteTarget"]

MAX_BLOCKS = 4
MAX_SUPPORT = 16
INPUT_MASS_TOL = 1e-9
SCAN_CHUNK_ROWS = 256  # noise rows a table scan holds as Python floats at once, to bound its memory


def _xlogy(p: np.ndarray, log_num, log_den=0.0) -> np.ndarray:
    """p * (log_num - log_den), both logs broadcast to p's shape, with the
    0 * log 0 = 0 convention: the difference is taken only where p > 0, so a
    state without mass never forms -inf - -inf."""
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * (np.broadcast_to(log_num, p.shape)[mask]
                           - np.broadcast_to(log_den, p.shape)[mask])
    return out


def _safe_log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums of each row of ``probs`` along its last axis, exactly
    1.0 from the row's last positive-probability state onward, so that no
    uniform in [0, 1) draws past it (a sum can end below 1 by rounding).
    Rows without mass are kept as summed."""
    cums = np.cumsum(probs, axis=-1)
    positive = probs > 0
    last = probs.shape[-1] - 1 - np.argmax(positive[..., ::-1], axis=-1)
    cums[(np.arange(probs.shape[-1]) >= last[..., None]) & positive.any(-1, keepdims=True)] = 1.0
    return cums


def _state_indices(values, shape) -> np.ndarray:
    """Integer states of the rows of ``values`` in a table of ``shape``.

    Raises ValueError unless each entry lies within 1e-9 of an integer inside
    the support; both are tested on the floats, so only in-range states are
    cast, and a bad row is named as given.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(shape):
        raise ValueError(f"states must have {len(shape)} entries")
    ints = np.round(values)
    fractional = ~np.all(np.abs(values - ints) <= 1e-9, axis=1)
    if np.any(fractional):
        raise ValueError(f"state {values[fractional][0].tolist()} is not integer-valued")
    outside = np.any((ints < 0) | (ints >= np.asarray(shape)), axis=1)
    if np.any(outside):
        raise ValueError(f"state {values[outside][0].tolist()} outside support {shape}")
    return ints.astype(int)


@dataclass(frozen=True)
class DiscreteFactor(Factor):
    """Pmf over one block's support {0..n-1}; nonnegative, sums to 1."""

    pmf: np.ndarray
    kind = "discrete"

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float).reshape(-1)
        if pmf.size < 1:
            raise ValueError("pmf must be non-empty")
        if np.any(pmf < 0) or not np.all(np.isfinite(pmf)):
            raise ValueError("pmf entries must be finite and nonnegative")
        total = float(pmf.sum())
        if abs(total - 1.0) > INPUT_MASS_TOL:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within {INPUT_MASS_TOL}")
        pmf = pmf / total
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)

    @classmethod
    def _trusted(cls, pmf: np.ndarray) -> "DiscreteFactor":
        # A cached conditional row, kept as it is: the validated constructor
        # divides by the sum, which moves rows not summing to 1.0.
        obj = object.__new__(cls)
        object.__setattr__(obj, "pmf", pmf)
        return obj

    def values_at(self, nodes) -> np.ndarray:
        """The pmf as stored, at the nodes {0..n-1} of the counting measure."""
        if not np.array_equal(nodes, np.arange(self.pmf.size)):
            raise ValueError("discrete factor values are taken on its support {0..n-1}")
        return self.pmf

    def log_density(self, x):
        """Log pmf at integer value(s); -inf on zero entries."""
        k = _state_indices(np.reshape(x, (-1, 1)), self.pmf.shape)[:, 0]
        out = _safe_log(self.pmf[k])
        return float(out[0]) if out.size == 1 and np.ndim(x) <= 1 else out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """An inverse-CDF draw by one uniform, equal to the ``bisect_right``
        that ``DiscreteTarget.scan`` runs on the CDF list of the cached row
        (the CDF is formed here: most factors are never drawn from)."""
        u = rng.random()
        return np.array([float(np.searchsorted(_cdf(self.pmf), u, side="right"))])

    def entropy(self) -> float:
        return -float(np.sum(_xlogy(self.pmf, _safe_log(self.pmf))))


class DiscreteTarget(TargetModel):
    """Dense joint pmf over the product support, one 1-D block per axis."""

    def __init__(self, joint_pmf, support_sizes=None):
        table = np.asarray(joint_pmf, dtype=float)
        if support_sizes is not None:
            table = table.reshape(tuple(int(n) for n in support_sizes))
        if table.ndim < 2:
            raise ValueError("need at least 2 blocks (K > 1)")
        if table.ndim > MAX_BLOCKS:
            raise ValueError(f"at most {MAX_BLOCKS} blocks supported")
        if not 2 <= min(table.shape) <= max(table.shape) <= MAX_SUPPORT:
            raise ValueError(f"support sizes must lie in [2, {MAX_SUPPORT}]")
        if np.any(table < 0) or not np.all(np.isfinite(table)):
            raise ModelError("joint pmf entries must be finite and nonnegative")
        total = float(table.sum())
        if abs(total - 1.0) > INPUT_MASS_TOL:
            raise ModelError(f"joint pmf sums to {total!r}, expected 1")
        table = table / total
        table.setflags(write=False)
        self._table = table
        self._decomposition = BlockDecomposition(tuple(1 for _ in table.shape))
        # Per-block conditional tables: axis i moved last, rows indexed by the
        # flat complement state (C order over the remaining axes).
        self._cond = []
        for i in range(table.ndim):
            rows = np.moveaxis(table, i, -1).reshape(-1, table.shape[i])
            mass = rows.sum(axis=1)
            with np.errstate(invalid="ignore"):
                probs = np.where(mass[:, None] > 0, rows / np.where(mass[:, None] > 0, mass[:, None], 1.0), 0.0)
            cums = _cdf(probs)
            for arr in (rows, mass, probs, cums):
                arr.setflags(write=False)
            self._cond.append({"rows": rows, "mass": mass, "probs": probs, "cumsum": cums})

    # --- TargetModel contract ---------------------------------------------

    @property
    def decomposition(self) -> BlockDecomposition:
        return self._decomposition

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def support_sizes(self) -> tuple[int, ...]:
        return self._table.shape

    @property
    def joint_pmf(self) -> np.ndarray:
        return self._table

    def log_density(self, theta):
        theta = np.asarray(theta, dtype=float)
        states = _state_indices(np.atleast_2d(theta), self._table.shape)
        out = _safe_log(self._table[tuple(states.T)])
        return float(out[0]) if theta.ndim < 2 else out

    def full_conditional(self, i: int, complement_values) -> DiscreteFactor:
        """Slice of the joint pmf renormalized over block i."""
        self._decomposition.check_index(i)
        c = self._cond[i]
        shape = self._complement_shape(i)
        comp = _state_indices(np.asarray(complement_values, dtype=float).reshape(1, -1), shape)
        flat = int(np.ravel_multi_index(comp.T, shape)[0])
        if c["mass"][flat] <= 0:
            raise ZeroMassError(
                f"conditioning event for block {i} (complement state {comp[0].tolist()}) "
                "has zero probability mass"
            )
        return DiscreteFactor._trusted(c["probs"][flat])

    def scan(self, theta: np.ndarray, noise: np.ndarray, burn_in: int) -> np.ndarray:
        """Each cycle redraws the blocks in order by inverse-CDF draws from the
        cached conditional rows, each with its one uniform ``u[i]``, as
        ``DiscreteFactor.sample``; a start off the cells of the support raises
        ValueError before any draw. The state is one running flat C-order index
        into a list per block, whose entry is the CDF list of the state's
        complement row (one list object per complement), or None without mass."""
        shape = self._table.shape
        state = _state_indices(theta.reshape(1, -1), shape)[0].tolist()
        cells = np.indices(shape).reshape(len(shape), -1)
        blocks = []
        for i, c in enumerate(self._cond):
            rows = np.fromiter((cum if mass > 0 else None
                                for cum, mass in zip(c["cumsum"].tolist(), c["mass"].tolist())),
                               dtype=object, count=c["mass"].size)
            comp = np.ravel_multi_index(np.delete(cells, i, axis=0), self._complement_shape(i))
            blocks.append((i, rows[comp].tolist(), int(np.prod(shape[i + 1:]))))
        flat, n = int(np.ravel_multi_index(state, shape)), noise.shape[0]
        samples = np.empty((n - burn_in, len(shape)))
        for a in range(0, n, SCAN_CHUNK_ROWS):
            drawn = []
            for u in noise[a:a + SCAN_CHUNK_ROWS].tolist():
                for i, table, stride in blocks:
                    cdf = table[flat]
                    if cdf is None:  # zero mass: full_conditional raises, naming the state
                        self.full_conditional(i, state[:i] + state[i + 1:])
                    x = bisect_right(cdf, u[i])
                    flat += (x - state[i]) * stride
                    state[i] = x
                drawn += state
            lo, b = max(a, burn_in), min(a + SCAN_CHUNK_ROWS, n)
            if lo < b:
                samples[lo - burn_in:b - burn_in] = np.reshape(drawn, (-1, len(shape)))[lo - a:]
        return samples

    def _complement_shape(self, i: int) -> tuple[int, ...]:
        return tuple(n for j, n in enumerate(self._table.shape) if j != i)

    def block_measure(self, i: int, points: int = GRID_POINTS_1D) -> tuple[np.ndarray, np.ndarray]:
        """The counting measure on {0..n_i-1}; ``points`` does not apply."""
        n = self._table.shape[self._decomposition.check_index(i)]
        return np.arange(n, dtype=float), np.ones(n)

    # --- marginals, conditionals, information quantities --------------------

    def marginal(self, i: int) -> DiscreteFactor:
        self._decomposition.check_index(i)
        axes = tuple(j for j in range(self._table.ndim) if j != i)
        return DiscreteFactor(self._table.sum(axis=axes))

    def complement_marginal(self, i: int) -> DiscreteFactor:
        """Pmf of the complement, flattened in C order over the remaining axes."""
        self._decomposition.check_index(i)
        return DiscreteFactor(self._cond[i]["mass"])

    def log_densities(self, i: int, samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three from one check of the rows' states."""
        self._decomposition.check_index(i)
        idx = _state_indices(samples, self._table.shape)
        flat = np.ravel_multi_index(np.delete(idx, i, axis=1).T, self._complement_shape(i))
        return (_safe_log(self._table[tuple(idx.T)]),
                _safe_log(self.marginal(i).pmf)[idx[:, i]],
                _safe_log(self.complement_marginal(i).pmf)[flat])

    def conditional_entropy_complement(self, i: int) -> float:
        """H(theta_-i | theta_i) = -sum_theta pi(theta) log pi(theta_-i | theta_i)."""
        self._decomposition.check_index(i)
        p_i = self._table.sum(axis=tuple(j for j in range(self._table.ndim) if j != i))
        shape = [1] * self._table.ndim
        shape[i] = self._table.shape[i]
        return -float(np.sum(_xlogy(self._table, _safe_log(self._table),
                                    _safe_log(p_i.reshape(shape)))))

    def conditional_entropy_block(self, i: int) -> float:
        """H(theta_i | theta_-i)."""
        self._decomposition.check_index(i)
        rows, mass = self._cond[i]["rows"], self._cond[i]["mass"]
        return -float(np.sum(_xlogy(rows, _safe_log(rows), _safe_log(mass)[:, None])))

    def mutual_information(self, i: int) -> float:
        """I(theta_i; theta_-i) = KL(joint || product of the two marginals)."""
        p_i = self.marginal(i).pmf
        p_c = self.complement_marginal(i).pmf
        joint = self._cond[i]["rows"]
        return float(np.sum(_xlogy(joint, _safe_log(joint),
                                   _safe_log(p_c)[:, None] + _safe_log(p_i)[None, :])))

    def information_equality(self, i: int, method: str = "auto") -> InfoEquality:
        """Exact summation, the one route of a table: ModelError for any
        method but "auto"."""
        if method != "auto":
            raise ModelError(f"a discrete model sums exactly; {method!r} does not apply")
        return InfoEquality(
            mutual_information=self.mutual_information(i),
            complement_entropy=self.complement_marginal(i).entropy(),
            conditional_entropy=self.conditional_entropy_complement(i),
            block_entropy=self.marginal(i).entropy(),
            conditional_block_entropy=self.conditional_entropy_block(i),
            method="enumeration",
        )

    # --- coordinate update and factor-product quantities ---------------------

    def _factor_product(self, factors, i: int | None = None) -> np.ndarray:
        """Product pmf of the factors of blocks j != i (all blocks when i is
        None), flat in C order."""
        if len(factors) != self._table.ndim:
            raise ValueError("need one factor per block")
        if not all(isinstance(f, DiscreteFactor) for f in factors):
            raise ModelError("discrete model needs discrete factors")
        w = np.ones(1)
        for j, f in enumerate(factors):
            if j == i:
                continue
            if f.pmf.size != self._table.shape[j]:
                raise ValueError(f"factor {j} has support {f.pmf.size}, table needs {self._table.shape[j]}")
            w = np.multiply.outer(w, f.pmf)
        return w.reshape(-1)

    def tilt(self, factors, i: int) -> tuple[DiscreteFactor, float]:
        """Exact summation over the complement states of g = E[log pi(x | theta_-i)];
        the update is exp(g - max g) over its sum, and log Z_i is max g plus the
        log of that sum. Rejects supports where a zero conditional meets
        positive complement mass."""
        self._decomposition.check_index(i)
        w = self._factor_product(factors, i)
        rows, mass = self._cond[i]["rows"], self._cond[i]["mass"]
        active = w > 0
        if np.any(active & (mass <= 0)):
            raise ModelError(
                f"block {i}: complement factor puts mass on a zero-mass conditioning event"
            )
        if np.any(rows[active] <= 0):
            raise ModelError(
                f"block {i}: log of a zero conditional where the complement "
                "factor has positive mass (absolute continuity violated)"
            )
        log_cond = _safe_log(rows[active]) - _safe_log(mass[active])[:, None]
        g = w[active] @ log_cond
        top = g.max()
        nu = np.exp(g - top)
        total = nu.sum()
        return DiscreteFactor(nu / total), float(top + np.log(total))

    def initial_factors(self, strategy: str) -> list[DiscreteFactor]:
        if strategy in ("default", "uniform"):
            return [DiscreteFactor(np.full(n, 1.0 / n)) for n in self._table.shape]
        if strategy == "marginals":
            return [self.marginal(i) for i in range(self._table.ndim)]
        raise ModelError(f"{strategy} initializer needs a Gaussian model")

    def product_kl(self, factors, i: int | None = None) -> float:
        q = self._factor_product(factors, i)
        pi = self._table.reshape(-1) if i is None else self.complement_marginal(i).pmf
        return float(np.sum(_xlogy(q, _safe_log(q), _safe_log(pi))))

    def block_kl_terms(self, factor, i: int) -> tuple[float, float]:
        if not isinstance(factor, DiscreteFactor):
            raise ModelError("discrete model needs discrete factors")
        self._decomposition.check_index(i)
        rows = self._cond[i]["rows"]   # (c, x)
        marg_i = self.marginal(i).pmf
        mask = factor.pmf > 0
        if np.any(mask & (marg_i <= 0)):
            raise SupportError("factor mass outside the block marginal support")
        # log pi(c|x) on the factor's states, where the marginal has mass
        log_cond_c = _safe_log(rows[:, mask]) - _safe_log(marg_i[mask])[None, :]
        expected = log_cond_c @ factor.pmf[mask]
        finite = np.isfinite(expected)
        raw = logsumexp(expected[finite]) if np.any(finite) else -np.inf
        return raw, float(np.sum(_xlogy(factor.pmf, _safe_log(factor.pmf), _safe_log(marg_i))))

    # --- candidates and report echo ------------------------------------------

    def random_values(self, i: int, rng: np.random.Generator, n: int) -> np.ndarray:
        """n flat-Dirichlet draws on block i's support, each divided by its sum
        as ``DiscreteFactor`` stores a pmf."""
        nodes, weights = self.block_measure(i)
        pmfs = rng.dirichlet(np.ones(nodes.size), size=n)
        return normalized_on(weights, pmfs / pmfs.sum(axis=1, keepdims=True))

    def reference_point(self) -> np.ndarray:
        """The joint mode."""
        flat = int(np.argmax(self._table))
        return np.asarray(np.unravel_index(flat, self._table.shape), dtype=float)

    def echo(self) -> dict:
        return {"family": "discrete", "support_sizes": list(self._table.shape)}
