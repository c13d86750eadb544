"""Systematic-scan Gibbs sampler: cycles, chains, kernel, and estimators.

One cycle resamples blocks in fixed index order 0..K-1, each from its full
conditional given the most recently drawn values (blocks before i already
updated this cycle, blocks after i still at the previous cycle). Random-scan
variants are out of scope; the cycle kernel below assumes ordered sweeps.

RNG: Philox (4x64, 10 rounds) keyed directly with the config seed, wrapped in
``numpy.random.Generator``. The generator is counter-based with a published
specification, so traces are reproducible from (seed, config, model) alone;
seed 0 is legal. Parallel chains derive seeds as seed, seed+1, ... (mod 2^64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost in
# the package import instead of the first command that draws
from numpy.random import Generator, Philox

from duality_bench.core import TargetModel
from duality_bench.errors import ModelError

__all__ = [
    "GibbsConfig",
    "ChainTrace",
    "Estimate",
    "make_rng",
    "gibbs_cycle",
    "run_chain",
    "run_chains",
    "kernel_log_density",
    "estimate",
    "pooled_trace",
]

MAX_SEED = 2**64
BATCH_COUNT = 32
MIN_SAMPLES_FOR_SE = 64


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed with a 64-bit unsigned seed."""
    if not 0 <= int(seed) < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return Generator(Philox(key=int(seed)))


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length, burn-in, seed, and initializer.

    ``init`` is an explicit starting vector, or one of "standard_normal"
    (continuous models), "uniform" (discrete models), "default" (picks the
    appropriate one of the two). ``burn_in=None`` applies the conventional
    10%-of-cycles default.
    """

    n_cycles: int
    burn_in: int | None = None
    seed: int = 0
    init: np.ndarray | str = "default"

    def __post_init__(self):
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be positive")
        burn = int(0.1 * self.n_cycles) if self.burn_in is None else self.burn_in
        if not 0 <= burn < self.n_cycles:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < n_cycles, got {burn} of {self.n_cycles}"
            )
        object.__setattr__(self, "burn_in", burn)
        if not 0 <= int(self.seed) < MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ChainTrace:
    """Post-burn-in samples, one row per retained cycle, plus run metadata."""

    samples: np.ndarray
    n_cycles: int
    burn_in: int
    seed: int
    init_strategy: str

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D array (cycles x dims)")
        if samples.shape[0] != self.n_cycles - self.burn_in:
            raise ValueError("trace length must equal n_cycles - burn_in")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


def _resolve_init(model: TargetModel, config: GibbsConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, str]:
    dec = model.decomposition
    init = config.init
    if isinstance(init, str):
        strategy = init
        if strategy == "default":
            strategy = "uniform" if model.is_discrete else "standard_normal"
        if strategy == "standard_normal":
            if model.is_discrete:
                raise ModelError("standard_normal initializer needs a continuous model")
            return rng.standard_normal(dec.total_dim), strategy
        if strategy == "uniform":
            if not model.is_discrete:
                raise ModelError("uniform initializer is only defined for discrete models")
            sizes = [model.block_measure(i)[0].size for i in range(dec.n_blocks)]
            return np.array([float(rng.integers(n)) for n in sizes]), strategy
        raise ModelError(f"unknown initializer {init!r}")
    theta = dec.check_vector(np.asarray(init, dtype=float))
    model.log_density(theta)  # a start off the support raises here
    return theta, "explicit"


def _scan(model: TargetModel, theta, rng: np.random.Generator,
          n_cycles: int, burn_in: int) -> np.ndarray:
    """The systematic scan: ``n_cycles`` sweeps of the block samplers from
    ``theta``, one row of noise per sweep, drawn up front in a single call.
    Returns the rows after ``burn_in``."""
    dec = model.decomposition
    theta = dec.check_vector(theta).copy()
    samplers = [model.block_sampler(i) for i in range(dec.n_blocks)]
    shape = (n_cycles, dec.total_dim)
    noise = rng.random(shape) if model.is_discrete else rng.standard_normal(shape)
    samples = np.empty((n_cycles - burn_in, dec.total_dim))
    for cycle, u in enumerate(noise):
        for draw in samplers:
            draw(theta, u)
        if cycle >= burn_in:
            samples[cycle - burn_in] = theta
    return samples


def gibbs_cycle(model: TargetModel, theta, rng: np.random.Generator) -> np.ndarray:
    """One systematic scan: resample every block in index order."""
    return _scan(model, theta, rng, n_cycles=1, burn_in=0)[0]


def run_chain(model: TargetModel, config: GibbsConfig) -> ChainTrace:
    """Run a seeded chain; the trace excludes burn-in cycles.

    Output is a pure function of (seed, config, model): same inputs give
    bitwise-identical traces, equal to repeated ``gibbs_cycle`` calls on the
    generator after initialization.
    """
    rng = make_rng(config.seed)
    theta, strategy = _resolve_init(model, config, rng)
    return ChainTrace(samples=_scan(model, theta, rng, config.n_cycles, config.burn_in),
                      n_cycles=config.n_cycles, burn_in=config.burn_in,
                      seed=int(config.seed), init_strategy=strategy)


def run_chains(model: TargetModel, config: GibbsConfig, n_chains: int) -> list[ChainTrace]:
    """Run n_chains chains with derived seeds seed, seed+1, ... one after another.

    Each chain owns its generator, so every trace equals that of ``run_chain``
    with the derived seed. The scan is Python code that holds the interpreter
    lock, so running chains in threads would add cost and no speed.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    return [
        run_chain(model, GibbsConfig(n_cycles=config.n_cycles, burn_in=config.burn_in,
                                     seed=(int(config.seed) + k) % MAX_SEED,
                                     init=config.init))
        for k in range(n_chains)
    ]


def kernel_log_density(model: TargetModel, theta_from, theta_to) -> float:
    """Log density of the cycle transition kernel from theta_from to theta_to.

    Product over blocks of the sequential full conditionals: block i of the
    destination is scored given destination blocks j < i and source blocks
    j > i. For discrete targets the resulting kernel matrix is stochastic and
    leaves the joint pmf invariant.
    """
    dec = model.decomposition
    theta_from = dec.check_vector(theta_from)
    theta_to = dec.check_vector(theta_to)
    mixed = theta_from.copy()
    total = 0.0
    for i in range(dec.n_blocks):
        complement = mixed[dec.complement_indices(i)]
        block_value = theta_to[dec.block_slice(i)]
        total += float(np.sum(model.full_conditional(i, complement).log_density(
            np.asarray(block_value).reshape(1, -1))))
        mixed[dec.block_slice(i)] = block_value
    return total


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a batch-means Monte Carlo standard error.

    ``standard_error`` is None when the trace is shorter than 64 samples
    (too few for 32 batches to mean anything).
    """

    mean: float
    standard_error: float | None
    n_samples: int


def estimate(trace: ChainTrace, estimand) -> Estimate:
    """Sample mean and batch-means standard error (32 equal batches).

    ``estimand`` maps the (n, D) sample array to n scalar values.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    values = np.asarray(estimand(trace.samples), dtype=float).reshape(-1)
    if values.size != len(trace):
        raise ValueError("estimand must return one value per sample")
    mean = float(values.mean())
    if values.size < MIN_SAMPLES_FOR_SE:
        return Estimate(mean=mean, standard_error=None, n_samples=values.size)
    batch = values.size // BATCH_COUNT
    batch_means = values[: batch * BATCH_COUNT].reshape(BATCH_COUNT, batch).mean(axis=1)
    se = float(batch_means.std(ddof=1) / np.sqrt(BATCH_COUNT))
    return Estimate(mean=mean, standard_error=se, n_samples=values.size)


def pooled_trace(traces: list[ChainTrace]) -> ChainTrace:
    """Concatenate retained samples across chains, in chain order.

    The pooled trace reports burn_in 0 (each chain already dropped its own),
    the base chain's seed, and init strategy "pooled" when chains differ.
    """
    if not traces:
        raise ValueError("no traces to pool")
    if len(traces) == 1:
        return traces[0]
    samples = np.concatenate([t.samples for t in traces], axis=0)
    return ChainTrace(samples=samples, n_cycles=samples.shape[0], burn_in=0,
                      seed=traces[0].seed, init_strategy="pooled")
