"""Gibbs engine: cycle semantics, kernel stationarity, reproducibility,
and Monte Carlo estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from duality_bench import (
    ChainTrace,
    DiscreteTarget,
    GaussianFactor,
    GaussianTarget,
    GibbsConfig,
    estimate,
    gibbs_cycle,
    kernel_log_density,
    make_decomposition,
    make_rng,
    pooled_trace,
    run_chain,
    run_chains,
)
from duality_bench.discrete import SCAN_CHUNK_ROWS

from oracles import random_spd, random_table, reference_scan, scan_bound

TABLE = np.array([[0.4, 0.1], [0.2, 0.3]])


def bivariate(rho):
    return GaussianTarget([0, 0], [[1, rho], [rho, 1]], make_decomposition([1, 1]))


def enumerate_kernel(model: DiscreteTarget) -> tuple[list[np.ndarray], np.ndarray]:
    states = [np.array(idx, dtype=float)
              for idx in np.ndindex(model.support_sizes)]
    kernel = np.array([
        [np.exp(kernel_log_density(model, src, dst)) for dst in states]
        for src in states
    ])
    return states, kernel


class TestGibbsConfig:
    def test_burn_in_default_is_ten_percent(self):
        assert GibbsConfig(n_cycles=1000).burn_in == 100

    def test_empty_trace_forbidden(self):
        with pytest.raises(ValueError, match="burn_in"):
            GibbsConfig(n_cycles=100, burn_in=100)

    def test_seed_range(self):
        GibbsConfig(n_cycles=10, burn_in=0, seed=0)
        GibbsConfig(n_cycles=10, burn_in=0, seed=2**64 - 1)
        with pytest.raises(ValueError):
            GibbsConfig(n_cycles=10, burn_in=0, seed=2**64)


class TestGibbsCycle:
    def test_independent_gaussian_draws_are_distributionally_correct(self):
        # rho=0: every block draw is a fresh N(0,1); 1e5 cycles
        trace = run_chain(bivariate(0.0),
                          GibbsConfig(n_cycles=100_000, burn_in=0, seed=2024))
        assert np.all(np.abs(trace.samples.mean(axis=0)) < 0.02)
        assert np.all(np.abs(trace.samples.var(axis=0) - 1.0) < 0.02)

    def test_discrete_cycle_frequencies_match_enumerated_kernel(self):
        model = DiscreteTarget(TABLE)
        states, kernel = enumerate_kernel(model)
        trace = run_chain(model, GibbsConfig(n_cycles=1_000_001, burn_in=0, seed=1))
        flat = (trace.samples[:, 0] * 2 + trace.samples[:, 1]).astype(int)
        counts = np.zeros((4, 4))
        np.add.at(counts, (flat[:-1], flat[1:]), 1)
        empirical = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(empirical - kernel)) < 0.003

    def test_point_mass_conditionals_give_identity_cycle(self):
        pmf = np.zeros((2, 2))
        pmf[0, 1] = 1.0
        model = DiscreteTarget(pmf)
        rng = make_rng(0)
        theta = np.array([0.0, 1.0])
        for _ in range(5):
            theta = gibbs_cycle(model, theta, rng)
            assert theta.tolist() == [0.0, 1.0]

    def test_cycle_changes_only_by_resampling(self):
        # with an explicit init, the first retained sample is one cycle away
        model = bivariate(0.3)
        cfg = GibbsConfig(n_cycles=1, burn_in=0, seed=5, init=np.array([1.0, 2.0]))
        trace = run_chain(model, cfg)
        rng = make_rng(5)
        manual = gibbs_cycle(model, np.array([1.0, 2.0]), rng)
        np.testing.assert_array_equal(trace.samples[0], manual)


class TestRunChain:
    def test_same_seed_bitwise_identical(self):
        cfg = GibbsConfig(n_cycles=500, burn_in=50, seed=99)
        a = run_chain(bivariate(0.5), cfg)
        b = run_chain(bivariate(0.5), cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_trace_excludes_burn_in(self):
        trace = run_chain(bivariate(0.2), GibbsConfig(n_cycles=120, burn_in=20, seed=3))
        assert len(trace) == 100
        assert trace.burn_in == 20

    def test_correlated_chain_matches_exact_sampler_control(self):
        # rho=0.8, 5e4 cycles: correlation and means vs an exact-draw control
        model = bivariate(0.8)
        trace = run_chain(model, GibbsConfig(n_cycles=50_000, burn_in=1000, seed=7))
        corr = np.corrcoef(trace.samples, rowvar=False)[0, 1]
        control = GaussianFactor(model.mean, model.covariance).sample(make_rng(70), len(trace))
        corr_control = np.corrcoef(control, rowvar=False)[0, 1]
        assert abs(corr - 0.8) < 0.02
        assert abs(corr_control - 0.8) < 0.02
        assert np.all(np.abs(trace.samples.mean(axis=0)) < 0.02)

    def test_init_strategies(self):
        gauss = bivariate(0.1)
        disc = DiscreteTarget(TABLE)
        assert run_chain(gauss, GibbsConfig(2, 0, 0)).init_strategy == "standard_normal"
        assert run_chain(disc, GibbsConfig(2, 0, 0)).init_strategy == "uniform"
        explicit = run_chain(gauss, GibbsConfig(2, 0, 0, init=np.array([0.0, 0.0])))
        assert explicit.init_strategy == "explicit"
        from duality_bench import ModelError
        with pytest.raises(ModelError):
            run_chain(gauss, GibbsConfig(2, 0, 0, init="uniform"))
        with pytest.raises(ModelError):
            run_chain(disc, GibbsConfig(2, 0, 0, init="standard_normal"))

    def test_one_cycle_from_exact_draw_preserves_moments(self):
        model = bivariate(0.5)
        rng = make_rng(8)
        n = 20_000
        starts = GaussianFactor(model.mean, model.covariance).sample(rng, size=n)
        after = np.empty_like(starts)
        for k in range(n):
            after[k] = gibbs_cycle(model, starts[k], rng)
        # independent one-cycle transitions: plain standard errors
        for i in range(2):
            assert abs(after[:, i].mean()) < 3 / np.sqrt(n)
            se_var = np.sqrt(2.0 / (n - 1))
            assert abs(after[:, i].var(ddof=1) - 1.0) < 3 * se_var
        se_cross = np.std(after[:, 0] * after[:, 1], ddof=1) / np.sqrt(n)
        assert abs((after[:, 0] * after[:, 1]).mean() - 0.5) < 3 * se_cross


class TestKernel:
    def test_discrete_kernel_rows_are_stochastic(self):
        model = DiscreteTarget(TABLE)
        _, kernel = enumerate_kernel(model)
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)

    def test_discrete_stationarity(self):
        model = DiscreteTarget(TABLE)
        states, kernel = enumerate_kernel(model)
        pi = np.array([model.joint_pmf[tuple(s.astype(int))] for s in states])
        assert np.max(np.abs(pi @ kernel - pi)) <= 1e-12

    def test_independent_gaussian_kernel_ignores_source(self):
        model = bivariate(0.0)
        dst = np.array([0.3, -1.2])
        vals = [kernel_log_density(model, src, dst)
                for src in (np.zeros(2), np.array([5.0, -7.0]), np.array([-2.0, 2.0]))]
        assert max(vals) - min(vals) < 1e-12
        # factorizes into the product of marginals
        marg = (model.marginal(0).log_density(dst[:1].reshape(1, -1))[0]
                + model.marginal(1).log_density(dst[1:].reshape(1, -1))[0])
        assert vals[0] == pytest.approx(marg, abs=1e-12)

    def test_zero_mass_transition_rejected(self):
        from duality_bench import ZeroMassError
        model = DiscreteTarget([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ZeroMassError):
            kernel_log_density(model, np.array([0.0, 1.0]), np.array([0.0, 0.0]))


class TestEstimate:
    def test_constant_estimand(self):
        trace = run_chain(bivariate(0.0), GibbsConfig(n_cycles=256, burn_in=0, seed=1))
        est = estimate(trace, lambda s: np.ones(s.shape[0]))
        assert est.mean == 1.0
        assert est.standard_error == 0.0

    def test_first_coordinate_consistent(self):
        trace = run_chain(bivariate(0.5), GibbsConfig(n_cycles=50_000, burn_in=1000, seed=21))
        est = estimate(trace, lambda s: s[:, 0])
        assert est.standard_error is not None
        assert abs(est.mean) < 3 * est.standard_error

    def test_cross_moment_consistent(self):
        trace = run_chain(bivariate(0.5), GibbsConfig(n_cycles=50_000, burn_in=1000, seed=22))
        est = estimate(trace, lambda s: s[:, 0] * s[:, 1])
        assert abs(est.mean - 0.5) < 3 * est.standard_error

    def test_short_trace_has_no_standard_error(self):
        trace = run_chain(bivariate(0.0), GibbsConfig(n_cycles=50, burn_in=0, seed=1))
        est = estimate(trace, lambda s: s[:, 0])
        assert est.standard_error is None
        assert est.n_samples == 50


class TestParallelChains:
    def test_derived_seeds_and_pooling(self):
        model = bivariate(0.4)
        cfg = GibbsConfig(n_cycles=300, burn_in=50, seed=10)
        traces = run_chains(model, cfg, 3)
        assert [t.seed for t in traces] == [10, 11, 12]
        for k, t in enumerate(traces):
            solo = run_chain(model, GibbsConfig(n_cycles=300, burn_in=50, seed=10 + k))
            assert np.array_equal(t.samples, solo.samples)
        pooled = pooled_trace(traces)
        assert len(pooled) == 3 * 250
        np.testing.assert_array_equal(pooled.samples[:250], traces[0].samples)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            ChainTrace(samples=np.zeros((5, 2)), n_cycles=10, burn_in=0,
                       seed=0, init_strategy="explicit")


def gaussian(dims):
    rng = np.random.default_rng(len(dims) + sum(dims))
    d = sum(dims)
    return GaussianTarget(rng.normal(size=d), random_spd(rng, d), make_decomposition(dims))


SCAN_MODELS = {
    "gauss[1,1]": lambda: gaussian([1, 1]),
    "gauss[1,1]-rho0.998": lambda: bivariate(0.998),
    "gauss[1,2]": lambda: gaussian([1, 2]),
    "gauss[1,1,1]": lambda: gaussian([1, 1, 1]),
    "table3x4x2": lambda: DiscreteTarget(random_table(np.random.default_rng(5), (3, 4, 2))),
    # seed 11 starts on the empty cell (1, 0), from which block 0 can draw
    "table2x2-empty-cell": lambda: DiscreteTarget([0.5, 0.25, 0.0, 0.25], [2, 2]),
}


def default_start(model, rng):
    """The draw run_chain makes for init="default", on the same generator."""
    if model.is_discrete:
        return np.array([float(rng.integers(n)) for n in model.support_sizes])
    return rng.standard_normal(model.decomposition.total_dim)


def assert_matches_reference(model, rows, reference):
    """A discrete scan's rows equal the reference scan's byte for byte. A
    Gaussian scan runs the cycles as one affine recurrence, which sums the
    per-block arithmetic in another order, so its rows are held to the
    per-coordinate ``scan_bound``."""
    if model.is_discrete:
        assert rows.tobytes() == reference.tobytes()
    else:
        worst = float(np.max(np.abs(rows - reference) / scan_bound(model)))
        assert worst <= 1.0, f"deviation is {worst:.3g} of the bound"


class TestBlockSamplers:
    """The chain's scan against the full-conditional reference scan: byte for
    byte on tables, within the stated bound on Gaussians, including
    vector-valued blocks."""

    @pytest.mark.parametrize("init", ["default", "explicit"])
    @pytest.mark.parametrize("name", sorted(SCAN_MODELS))
    def test_chain_and_cycles_equal_the_reference_scan(self, name, init):
        model = SCAN_MODELS[name]()
        n_cycles, burn_in, seed = 2000, 200, 11
        explicit = np.arange(model.decomposition.total_dim, dtype=float) % 2
        rng = make_rng(seed)
        start = default_start(model, rng) if init == "default" else explicit
        reference = reference_scan(model, start, rng, n_cycles)

        trace = run_chain(model, GibbsConfig(n_cycles=n_cycles, burn_in=burn_in, seed=seed,
                                             init=init if init == "default" else explicit))
        assert_matches_reference(model, trace.samples, reference[burn_in:])

        rng = make_rng(seed)
        theta = default_start(model, rng) if init == "default" else explicit
        cycles = []
        for _ in range(n_cycles):
            theta = gibbs_cycle(model, theta, rng)
            cycles.append(theta)
        assert_matches_reference(model, np.array(cycles), reference)

    def test_near_integer_start_is_rounded_as_full_conditional_does(self):
        model = SCAN_MODELS["table3x4x2"]()
        cfg = GibbsConfig(n_cycles=50, burn_in=0, seed=3, init=np.array([1e-12, 1 - 1e-12, 1.0]))
        rng = make_rng(3)
        reference = reference_scan(model, cfg.init, rng, 50)
        assert run_chain(model, cfg).samples.tobytes() == reference.tobytes()

    def test_zero_mass_inside_a_chain_names_block_and_state(self):
        from duality_bench import ZeroMassError
        model = DiscreteTarget([[0.5, 0.0], [0.5, 0.0]])
        start = np.array([0.0, 1.0])
        match = r"block 0 \(complement state \[1\]\)"
        with pytest.raises(ZeroMassError, match=match):
            run_chain(model, GibbsConfig(n_cycles=10, burn_in=0, seed=0, init=start))
        with pytest.raises(ZeroMassError, match=match):
            gibbs_cycle(model, start, make_rng(0))

    @pytest.mark.parametrize("start", [[0.7, 1.0], [2.0, 0.0], [0.0, -1.0]])
    def test_start_off_the_support_is_rejected(self, start):
        with pytest.raises(ValueError):
            run_chain(DiscreteTarget(TABLE),
                      GibbsConfig(n_cycles=10, burn_in=0, seed=0, init=np.array(start)))

    @pytest.mark.parametrize("start, match", [
        ([99.0, 1.0], r"state \[99.0, 1.0\] outside support"),
        ([1.0, -1.0], r"state \[1.0, -1.0\] outside support"),
        ([0.5, 1.0], r"state \[0.5, 1.0\] is not integer-valued"),
    ])
    def test_direct_scan_rejects_a_start_off_the_cells_before_any_draw(self, start, match):
        # Block 0's own start value is never drawn from, but it places the
        # scan's running joint-state index, so it must be a cell too.
        class Unread(np.ndarray):
            def __getitem__(self, key):
                raise AssertionError("noise read before the start was checked")

        with pytest.raises(ValueError, match=match):
            DiscreteTarget(TABLE).scan(np.array(start), np.zeros((10, 2)).view(Unread), 0)


@st.composite
def sparse_tables(draw):
    """(table, start): K from 2 to 4 blocks of 2 to 5 states, a random table
    with some cells zeroed, and a start on a cell of positive mass."""
    sizes = tuple(draw(st.lists(st.integers(2, 5), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = random_table(rng, sizes)
    table[rng.random(sizes) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0.0
    if not table.any():
        table.flat[0] = 1.0
    cells = np.argwhere(table > 0)
    return table / table.sum(), cells[rng.integers(len(cells))].astype(float)


# Cycle counts and burn-ins below, on and across the scan's chunk boundaries.
CHUNK_EDGES = [1, SCAN_CHUNK_ROWS - 1, SCAN_CHUNK_ROWS, SCAN_CHUNK_ROWS + 1, 2 * SCAN_CHUNK_ROWS + 1]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(spec=sparse_tables(),
       n_cycles=st.one_of(st.sampled_from(CHUNK_EDGES), st.integers(1, 2 * SCAN_CHUNK_ROWS + 1)),
       burn_in=st.one_of(st.sampled_from([0] + CHUNK_EDGES), st.integers(0, 2 * SCAN_CHUNK_ROWS)),
       seed=st.integers(0, 2**32 - 1))
def test_random_sparse_table_scan_equals_the_reference_scan(spec, n_cycles, burn_in, seed):
    table, start = spec
    model = DiscreteTarget(table)
    burn_in = min(burn_in, n_cycles - 1)
    rows = model.scan(start.copy(), make_rng(seed).random((n_cycles, table.ndim)), burn_in)
    reference = reference_scan(model, start, make_rng(seed), n_cycles)
    assert rows.tobytes() == reference[burn_in:].tobytes()


def scalar_draw_model(k):
    """The k-th of 30 seeded 2x1-D Gaussians: correlations of both signs, a
    diagonal covariance (gain 0) every tenth model, a zero mean every third,
    standard deviations from 1e-4 to 1e4 (within a factor 10 of each
    other)."""
    rng = np.random.default_rng(k)
    scales = 10.0 ** rng.uniform(-3, 3) * np.array([1.0, 10.0 ** rng.uniform(-1, 1)])
    rho = 0.0 if k % 10 == 0 else (-1) ** k * rng.uniform(0.05, 0.95)
    mean = np.zeros(2) if k % 3 == 0 else scales * rng.normal(size=2)
    cov = np.outer(scales, scales) * np.array([[1.0, rho], [rho, 1.0]])
    return GaussianTarget(mean, cov, make_decomposition([1, 1]))


class TestScalarBlockDraw:
    """The scan of 2x1-D Gaussians over eight decades of scale, within the
    stated bound of the full-conditional reference scan."""

    @pytest.mark.parametrize("init", ["default", "explicit"])
    @pytest.mark.parametrize("k", range(30))
    def test_chain_equals_the_reference_scan(self, k, init):
        model = scalar_draw_model(k)
        if k % 10 == 0:   # diagonal covariance: the gain is exactly zero
            assert model.full_conditional(0, [1.0]).mean[0] == model.mean[0]
        n_cycles, burn_in, seed = 300, 30, 100 + k
        explicit = np.sqrt(np.diag(model.covariance)) * np.array([1.5, -0.5])
        rng = make_rng(seed)
        start = default_start(model, rng) if init == "default" else explicit
        reference = reference_scan(model, start, rng, n_cycles)
        trace = run_chain(model, GibbsConfig(n_cycles=n_cycles, burn_in=burn_in, seed=seed,
                                             init=init if init == "default" else explicit))
        assert_matches_reference(model, trace.samples, reference[burn_in:])


@st.composite
def gaussian_models(draw):
    """(mean, covariance, block dims): K from 2 to 4 blocks of dims 1 to 3,
    covariance A A^T + 0.3 I."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    d = sum(dims)
    a = draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    mean = draw(arrays(float, d, elements=st.floats(-10.0, 10.0)))
    return mean, a @ a.T + 0.3 * np.eye(d), dims


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(spec=gaussian_models(), seed=st.integers(0, 2**32 - 1))
def test_random_gaussian_scan_stays_within_the_bound_of_the_reference_scan(spec, seed):
    mean, cov, dims = spec
    model = GaussianTarget(mean, cov, make_decomposition(dims))
    rng = make_rng(seed)
    reference = reference_scan(model, default_start(model, rng), rng, 200)
    trace = run_chain(model, GibbsConfig(n_cycles=200, burn_in=0, seed=seed))
    assert_matches_reference(model, trace.samples, reference)
