"""Gaussian target: conditionals, marginals, KL, entropies, fixed point.

Every derived expectation is checked against a quadrature or sampling oracle
implemented independently in oracles.py.
"""

import numpy as np
import pytest

from duality_bench import GaussianFactor, GaussianTarget, ModelError, make_decomposition, make_rng
from duality_bench.gaussian import kl_divergence, mutual_information

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
            upd = t.cavi_update(fps, i)
            np.testing.assert_allclose(upd.mean, fps[i].mean, atol=1e-10)
            np.testing.assert_allclose(upd.covariance, fps[i].covariance, atol=1e-10)

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
