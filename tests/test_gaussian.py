"""Gaussian target: conditionals, marginals, KL, entropies, fixed point.

Every derived expectation is checked against a quadrature or sampling oracle
implemented independently in oracles.py.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from duality_bench import GaussianFactor, GaussianTarget, ModelError, make_decomposition, make_rng
from duality_bench.gaussian import kl_divergence, mutual_information
from duality_bench.quadrature import GRID_POINTS_2D, gaussian_grid, trapezoid_weights

from oracles import (
    cavi_fixed_point,
    grid_normalized_conditional,
    kl_quadrature,
    mvn_logpdf,
    normal_logpdf,
    quad,
    random_spd,
    trap_weights,
)


def bivariate(rho, mean=(0.0, 0.0)):
    return GaussianTarget(list(mean), [[1.0, rho], [rho, 1.0]], make_decomposition([1, 1]))


class TestConstruction:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ModelError, match="symmetric"):
            GaussianTarget([0, 0], [[1.0, 0.5], [0.5 + 1e-9, 1.0]], make_decomposition([1, 1]))

    def test_singular_covariance_rejected(self):
        with pytest.raises(ModelError):
            GaussianTarget([0, 0], [[1.0, 1.0], [1.0, 1.0]], make_decomposition([1, 1]))

    def test_ill_conditioned_rejected(self):
        cov = np.diag([1.0, 1e-9])
        with pytest.raises(ModelError):
            GaussianTarget([0, 0], cov, make_decomposition([1, 1]))

    def test_precision_identity(self):
        rng = np.random.default_rng(3)
        cov = random_spd(rng, 4)
        t = GaussianTarget(np.zeros(4), cov, make_decomposition([2, 2]))
        np.testing.assert_allclose(t.precision @ cov, np.eye(4), atol=1e-8)


class TestFullConditional:
    def test_independent_case_equals_marginal(self):
        t = bivariate(0.0)
        for theta2 in (-3.0, 0.0, 5.0):
            c = t.full_conditional(0, [theta2])
            assert c.mean[0] == pytest.approx(0.0, abs=1e-15)
            assert c.covariance[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_correlated_case_against_grid_oracle(self):
        # rho=0.5, theta2=1: renormalize exp(log joint) over a theta1 grid
        t = bivariate(0.5)
        cond = t.full_conditional(0, [1.0])
        grid = np.linspace(-8, 8, 4097)
        pts = np.column_stack([grid, np.full_like(grid, 1.0)])
        oracle = grid_normalized_conditional(
            mvn_logpdf(pts, [0, 0], [[1, 0.5], [0.5, 1]]), grid)
        mean = quad(oracle * grid, grid)
        var = quad(oracle * (grid - mean) ** 2, grid)
        assert cond.mean[0] == pytest.approx(0.5, abs=1e-10)
        assert cond.covariance[0, 0] == pytest.approx(0.75, abs=1e-10)
        assert mean == pytest.approx(cond.mean[0], abs=1e-8)
        assert var == pytest.approx(cond.covariance[0, 0], abs=1e-8)
        cond_pdf = np.exp(cond.log_density(grid.reshape(-1, 1)))
        np.testing.assert_allclose(cond_pdf, oracle, atol=1e-8)

    def test_three_dim_block_conditional_matches_quadrature(self):
        rng = np.random.default_rng(7)
        cov = random_spd(rng, 3)
        t = GaussianTarget([0.2, -0.1, 0.4], cov, make_decomposition([1, 2]))
        comp = np.array([0.3, -0.7])
        cond = t.full_conditional(0, comp)
        sd = np.sqrt(cov[0, 0])
        grid = np.linspace(0.2 - 8 * sd, 0.2 + 8 * sd, 4097)
        pts = np.column_stack([grid, np.tile(comp, (grid.size, 1))])
        oracle = grid_normalized_conditional(
            mvn_logpdf(pts, [0.2, -0.1, 0.4], cov), grid)
        cond_pdf = np.exp(cond.log_density(grid.reshape(-1, 1)))
        np.testing.assert_allclose(cond_pdf, oracle, atol=1e-8)

    def test_conditional_normalizes_on_reference_grid(self):
        t = bivariate(0.5)
        nodes, weights = t.block_measure(0)
        mass = np.sum(weights * t.full_conditional(0, [1.3]).values_at(nodes))
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestMarginal:
    def test_standard_bivariate(self):
        t = bivariate(0.0)
        m = t.marginal(0)
        assert m.mean[0] == 0.0 and m.covariance[0, 0] == 1.0

    def test_marginal_ignores_correlation(self):
        m = bivariate(0.9).marginal(1)
        assert m.mean[0] == 0.0 and m.covariance[0, 0] == 1.0

    def test_monte_carlo_oracle(self):
        # moments of 1e5 exact joint draws match within 3 standard errors
        t = bivariate(0.6)
        rng = make_rng(123)
        draws = GaussianFactor(t.mean, t.covariance).sample(rng, size=100_000)
        n = draws.shape[0]
        for i in range(2):
            m = t.marginal(i)
            se_mean = np.sqrt(m.covariance[0, 0] / n)
            assert abs(draws[:, i].mean() - m.mean[0]) < 3 * se_mean
            se_var = m.covariance[0, 0] * np.sqrt(2.0 / (n - 1))
            assert abs(draws[:, i].var(ddof=1) - m.covariance[0, 0]) < 3 * se_var


class TestKlDivergence:
    def test_identical_factors(self):
        f = GaussianFactor([0.3], [[2.0]])
        assert kl_divergence(f, f) == pytest.approx(0.0, abs=1e-15)

    def test_variance_shrink_against_quadrature(self):
        grid = np.linspace(-8, 8, 4097)
        oracle = kl_quadrature(normal_logpdf(grid, 0, 0.75),
                               normal_logpdf(grid, 0, 1.0), grid)
        value = kl_divergence(GaussianFactor([0], [[0.75]]), GaussianFactor([0], [[1.0]]))
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(0.018841036225890450, abs=1e-12)

    def test_mean_shift_against_quadrature(self):
        grid = np.linspace(-8, 9, 4097)
        oracle = kl_quadrature(normal_logpdf(grid, 1, 1.0),
                               normal_logpdf(grid, 0, 1.0), grid)
        value = kl_divergence(GaussianFactor([1], [[1.0]]), GaussianFactor([0], [[1.0]]))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert oracle == pytest.approx(0.5, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(GaussianFactor([0], [[1]]), GaussianFactor([0, 0], np.eye(2)))

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            b = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            kl = kl_divergence(a, b)
            assert kl >= 0.0
            same = (abs(a.mean[0] - b.mean[0]) < 1e-12
                    and abs(a.covariance[0, 0] - b.covariance[0, 0]) < 1e-12)
            if not same:
                assert kl > 1e-12


class TestEntropyAndMutualInformation:
    def test_standard_normal_entropy_against_quadrature(self):
        grid = np.linspace(-8, 8, 4097)
        logpdf = normal_logpdf(grid, 0, 1.0)
        oracle = -quad(np.exp(logpdf) * logpdf, grid)
        value = GaussianFactor([0], [[1.0]]).entropy()
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_independence_gives_zero_mi(self):
        assert mutual_information(bivariate(0.0), 0) == pytest.approx(0.0, abs=1e-14)

    def test_mi_against_2d_quadrature(self):
        t = bivariate(0.5)
        g = np.linspace(-8, 8, 513)
        w2 = np.outer(trap_weights(g), trap_weights(g))
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.column_stack([xx.reshape(-1), yy.reshape(-1)])
        lj = mvn_logpdf(pts, [0, 0], [[1, 0.5], [0.5, 1]]).reshape(513, 513)
        lm = normal_logpdf(g, 0, 1.0)
        oracle = float(np.sum(w2 * np.exp(lj) * (lj - lm[:, None] - lm[None, :])))
        value = mutual_information(t, 0)
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(-0.5 * np.log(0.75), abs=1e-12)

    def test_mi_invariant_under_diagonal_rescaling(self):
        rng = np.random.default_rng(19)
        cov = random_spd(rng, 3)
        dec = make_decomposition([1, 2])
        t = GaussianTarget(np.zeros(3), cov, dec)
        scale = np.diag([2.5, 0.3, 7.0])
        t2 = GaussianTarget(np.zeros(3), scale @ cov @ scale, dec)
        for i in range(2):
            assert mutual_information(t, i) == pytest.approx(
                mutual_information(t2, i), abs=1e-10)


class TestCaviFixedPoint:
    def test_independent_case_is_exact_marginal(self):
        q = cavi_fixed_point(bivariate(0.0))[0]
        assert q.mean[0] == 0.0 and q.covariance[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_fixed_point_against_tabulated_iteration(self):
        # iterate the generic exp-E-log update on a grid, from scratch
        rho = 0.5
        t = bivariate(rho)
        grid = np.linspace(-8, 8, 2049)
        w = trap_weights(grid)
        q2 = np.exp(normal_logpdf(grid, 0.0, 1.0))
        q2 /= quad(q2, grid)
        var_cond = 1 - rho**2
        # log pi(a | b) on the tensor grid; one matrix serves both update steps
        log_cond = normal_logpdf(grid[:, None], rho * grid[None, :], var_cond)
        for _ in range(60):
            e1 = log_cond @ (w * q2)  # E_{q2}[log pi(x | theta2)] per grid x
            q1 = np.exp(e1 - e1.max())
            q1 /= quad(q1, grid)
            e2 = log_cond @ (w * q1)
            q2 = np.exp(e2 - e2.max())
            q2 /= quad(q2, grid)
        mean_oracle = quad(q1 * grid, grid)
        var_oracle = quad(q1 * (grid - mean_oracle) ** 2, grid)
        fp = cavi_fixed_point(t)[0]
        assert fp.mean[0] == pytest.approx(mean_oracle, abs=1e-8)
        assert fp.covariance[0, 0] == pytest.approx(var_oracle, abs=1e-8)
        assert fp.covariance[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_high_correlation_variance_underestimation(self):
        t = bivariate(0.9)
        fp = cavi_fixed_point(t)[0]
        assert fp.covariance[0, 0] == pytest.approx(0.19, abs=1e-12)
        assert fp.covariance[0, 0] < t.marginal(0).covariance[0, 0]

    def test_is_fixed_point_of_analytic_update(self):
        rng = np.random.default_rng(23)
        cov = random_spd(rng, 3)
        t = GaussianTarget(rng.standard_normal(3), cov, make_decomposition([1, 1, 1]))
        fps = cavi_fixed_point(t)
        for i in range(3):
            upd = t.tilt(fps, i)[0]
            np.testing.assert_allclose(upd.mean, fps[i].mean, atol=1e-10)
            np.testing.assert_allclose(upd.covariance, fps[i].covariance, atol=1e-10)

    def test_the_tilt_tends_to_the_full_conditional_as_the_complement_shrinks(self):
        # Gibbs's draw is the tilt at a point-mass complement: the update is the
        # full conditional at the complement means, and log Z_i is linear in
        # the complement covariances, so it falls to 0 with them
        rng = np.random.default_rng(16)
        scales = np.array([1.0, 1e-2, 1e-4, 1e-6])
        for dims in ([1, 1], [1, 1, 1], [1, 2]):
            d = sum(dims)
            t = GaussianTarget(rng.standard_normal(d), random_spd(rng, d), make_decomposition(dims))
            means = [rng.standard_normal(n) for n in dims]
            covs = [random_spd(rng, n) for n in dims]
            for i in range(len(dims)):
                conditional = t.full_conditional(
                    i, np.concatenate([m for j, m in enumerate(means) if j != i]))
                log_z = []
                for scale in scales:
                    factors = [GaussianFactor(m, c if j == i else scale * c)
                               for j, (m, c) in enumerate(zip(means, covs))]
                    q, lz = t.tilt(factors, i)
                    assert q.mean.tobytes() == conditional.mean.tobytes()
                    assert q.covariance.tobytes() == conditional.covariance.tobytes()
                    log_z.append(lz)
                assert log_z[0] < 0.0
                np.testing.assert_allclose(np.array(log_z) / scales, log_z[0], rtol=1e-12)

    def test_fixed_point_variance_below_marginal(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            t = GaussianTarget(rng.standard_normal(d), random_spd(rng, d),
                               make_decomposition([1] * d))
            for i, fp in enumerate(cavi_fixed_point(t)):
                assert fp.covariance[0, 0] <= t.marginal(i).covariance[0, 0] + 1e-12


class TestConsistencyInvariants:
    def test_joint_equals_conditional_times_complement_marginal(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            dims = [1] * d if d < 4 else [1, 2, 1]
            t = GaussianTarget(rng.standard_normal(d), random_spd(rng, d),
                               make_decomposition(dims))
            dec = t.decomposition
            for _ in range(5):
                theta = rng.standard_normal(d)
                for i in range(dec.n_blocks):
                    block = theta[dec.block_slice(i)]
                    complement = theta[dec.complement_indices(i)]
                    lhs = t.log_density(theta)
                    rhs = (t.full_conditional(i, complement)
                           .log_density(block.reshape(1, -1))[0]
                           + t.complement_marginal(i)
                           .log_density(complement.reshape(1, -1))[0])
                    assert lhs == pytest.approx(rhs, abs=1e-10)


@st.composite
def tabulated_models(draw):
    """(mean, covariance, grids): D from 2 to 4 coordinates, covariance
    A A^T + 0.3 I, and 1 to 9 nodes per axis."""
    d = draw(st.integers(2, 4))
    a = draw(arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    mean = draw(arrays(float, d, elements=st.floats(-10.0, 10.0)))
    grids = [draw(arrays(float, draw(st.integers(1, 9)), elements=st.floats(-20.0, 20.0)))
             for _ in range(d)]
    return mean, a @ a.T + 0.3 * np.eye(d), grids


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(spec=tabulated_models())
def test_log_density_table_is_log_density_at_the_grid_rows_bit_for_bit(spec):
    mean, cov, grids = spec
    model = GaussianFactor(mean, cov)
    rows = np.stack([m.reshape(-1) for m in np.meshgrid(*grids, indexing="ij")], axis=1)
    table = model.log_density_table(grids)
    assert table.shape == tuple(g.size for g in grids)
    assert table.tobytes() == model.log_density(rows).tobytes()


@pytest.mark.parametrize("chunk_points", ["one", "uneven", 2**62])
@pytest.mark.parametrize("sizes", [(7, 5), (7, 4, 3)], ids=["D2", "D3"])
def test_both_table_routes_are_log_density_across_chunk_boundaries(sizes, chunk_points,
                                                                  monkeypatch):
    import duality_bench.core as core
    from duality_bench import TargetModel

    n_rest = int(np.prod(sizes[1:]))
    # one row per chunk; chunks of 3, 3 and 1 rows; one chunk for the table
    points = {"one": 1, "uneven": 3 * n_rest}.get(chunk_points, chunk_points)
    monkeypatch.setattr(core, "TABLE_CHUNK_POINTS", points)
    d = len(sizes)
    a = np.random.default_rng(d).standard_normal((d, d))
    model = GaussianTarget(np.arange(d) - 0.5, a @ a.T + 0.3 * np.eye(d),
                           make_decomposition([1] * d))
    grids = [np.linspace(-4.0 - k, 3.0 + k, n) for k, n in enumerate(sizes)]
    rows = np.stack([m.reshape(-1) for m in np.meshgrid(*grids, indexing="ij")], axis=1)
    expected = model.log_density(rows).tobytes()
    [(default,)] = TargetModel.log_density_terms(model, grids)
    for table in (GaussianFactor(model.mean, model.covariance).log_density_table(grids), default):
        assert table.shape == sizes
        assert table.tobytes() == expected


INFO_FIELDS = ("mutual_information", "complement_entropy", "conditional_entropy",
               "block_entropy", "conditional_block_entropy")


def info_values(info) -> np.ndarray:
    return np.array([getattr(info, name) for name in INFO_FIELDS])


def dense_info_quadrature(model, i) -> np.ndarray:
    """The quadrature information on the whole 513^2 log-joint table at once,
    each sum one np.sum over the table: the sums that the row chunks regroup."""
    g1 = gaussian_grid(model.mean[0], np.sqrt(model.covariance[0, 0]), GRID_POINTS_2D)
    g2 = gaussian_grid(model.mean[1], np.sqrt(model.covariance[1, 1]), GRID_POINTS_2D)
    x_i, x_c = (g1, g2) if i == 0 else (g2, g1)
    w2 = np.multiply.outer(trapezoid_weights(x_i), trapezoid_weights(x_c))
    log_joint = GaussianFactor(model.mean, model.covariance).log_density_table((g1, g2))
    if i == 1:
        log_joint = log_joint.T.copy()
    log_m_i = np.asarray(model.marginal(i).log_density(x_i.reshape(-1, 1)))
    log_m_c = np.asarray(model.complement_marginal(i).log_density(x_c.reshape(-1, 1)))
    joint = np.exp(log_joint)
    mi = float(np.sum(w2 * joint * (log_joint - log_m_i[:, None] - log_m_c[None, :])))
    w_c = trapezoid_weights(x_c)
    h_c = -float(np.sum(w_c * np.exp(log_m_c) * log_m_c))
    h_cond = -float(np.sum(w2 * joint * (log_joint - log_m_i[:, None])))
    w_i = trapezoid_weights(x_i)
    h_i = -float(np.sum(w_i * np.exp(log_m_i) * log_m_i))
    h_cond_i = -float(np.sum(w2 * joint * (log_joint - log_m_c[None, :])))
    return np.array([mi, h_c, h_cond, h_i, h_cond_i])


def correlated_bivariate(mean, var, rho) -> GaussianTarget:
    cross = rho * np.sqrt(var[0] * var[1])
    return GaussianTarget(list(mean), [[var[0], cross], [cross, var[1]]],
                          make_decomposition([1, 1]))


def random_bivariate(rng) -> GaussianTarget:
    """Mean in [-5, 5]^2, variances in [0.1, 10], |rho| <= 0.95."""
    return correlated_bivariate(rng.uniform(-5.0, 5.0, 2), rng.uniform(0.1, 10.0, 2),
                                rng.uniform(-0.95, 0.95))


BENCH_GAUSSIAN = ([0.0, 0.0], [[1.0, 1.0], [1.0, 4.0]])


class TestInformationQuadrature:
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(mean=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           var=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           rho=st.floats(-0.95, 0.95))
    def test_row_chunks_agree_with_the_dense_table_and_the_closed_forms(self, mean, var, rho):
        model = correlated_bivariate(mean, var, rho)
        for i in range(2):
            info = model.information_equality(i)
            assert info.method == "quadrature"
            np.testing.assert_allclose(info_values(info), dense_info_quadrature(model, i),
                                       rtol=0, atol=1e-14)
            closed = model.information_equality(i, method="closed_form")
            np.testing.assert_allclose(info_values(info), info_values(closed),
                                       rtol=0, atol=1e-8)

    def test_one_chunk_is_the_dense_table_bit_for_bit(self, monkeypatch):
        import duality_bench.core as core

        monkeypatch.setattr(core, "TABLE_CHUNK_POINTS", 2**62)
        rng = np.random.default_rng(27)
        for model in (GaussianTarget(*BENCH_GAUSSIAN, make_decomposition([1, 1])),
                      random_bivariate(rng), random_bivariate(rng)):
            for i in range(2):
                info = info_values(model.information_equality(i))
                assert info.tobytes() == dense_info_quadrature(model, i).tobytes()

    def test_one_row_per_chunk_stays_near_the_dense_table(self, monkeypatch):
        import duality_bench.core as core

        # one 513-node row per chunk; the tables of block 1's chunks, 513 x 1,
        # are then one chunk each
        monkeypatch.setattr(core, "TABLE_CHUNK_POINTS", GRID_POINTS_2D)
        rng = np.random.default_rng(28)
        for _ in range(8):
            model = random_bivariate(rng)
            for i in range(2):
                np.testing.assert_allclose(info_values(model.information_equality(i)),
                                           dense_info_quadrature(model, i), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("i", [0, 1])
    def test_the_route_holds_no_dense_table(self, i):
        # a 513^2 table of doubles is 2.0 MiB; the dense reference holds six
        model = GaussianTarget(*BENCH_GAUSSIAN, make_decomposition([1, 1]))
        tracemalloc.start()
        try:
            model.information_equality(i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
