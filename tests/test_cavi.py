"""Coordinate-ascent engine: updates, convergence, objective monotonicity,
and equivalence of the analytic / summation / grid paths."""

import numpy as np
import pytest

from duality_bench import (
    CaviConfig,
    DiscreteFactor,
    DiscreteTarget,
    GaussianFactor,
    GaussianTarget,
    GridFactor,
    ModelError,
    cavi_update,
    kl_objective,
    make_decomposition,
    run_cavi,
)
from duality_bench.cavi import state_from_jsonable, state_to_jsonable

from oracles import (
    cavi_fixed_point,
    minimize_block_kl,
    normal_logpdf,
    quad,
    random_table,
    reference_grid_run,
    trap_weights,
)

TABLE = np.array([[0.4, 0.1], [0.2, 0.3]])


def bivariate(rho):
    return GaussianTarget([0, 0], [[1, rho], [rho, 1]], make_decomposition([1, 1]))


def grid_moments(factor):
    """Mean and variance of a grid factor by the trapezoid rule on its grid."""
    g = factor.grid
    mean = quad(factor.values * g, g)
    return mean, quad(factor.values * (g - mean) ** 2, g)


class TestCaviUpdate:
    def test_independent_target_recovers_marginal_in_one_step(self):
        model = bivariate(0.0)
        start = [GaussianFactor([3.0], [[0.1]]), GaussianFactor([-2.0], [[5.0]])]
        upd = cavi_update(model, start, 0)
        assert upd.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert upd.covariance[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_correlated_update_against_quadrature(self):
        # complement factor N(0.3, 0.75): update must be N(0.15, 0.75)
        model = bivariate(0.5)
        factors = [GaussianFactor([0.0], [[1.0]]), GaussianFactor([0.3], [[0.75]])]
        upd = cavi_update(model, factors, 0)
        assert upd.mean[0] == pytest.approx(0.15, abs=1e-12)
        assert upd.covariance[0, 0] == pytest.approx(0.75, abs=1e-12)
        # quadrature oracle for the exp-E-log update
        grid = np.linspace(-8, 8, 2049)
        w = trap_weights(grid)
        q2 = np.exp(normal_logpdf(grid, 0.3, 0.75))
        q2 /= quad(q2, grid)
        expected = normal_logpdf(grid[:, None], 0.5 * grid[None, :], 0.75) @ (w * q2)
        nu = np.exp(expected - expected.max())
        nu /= quad(nu, grid)
        mean_oracle = quad(nu * grid, grid)
        var_oracle = quad(nu * (grid - mean_oracle) ** 2, grid)
        assert upd.mean[0] == pytest.approx(mean_oracle, abs=1e-9)
        assert upd.covariance[0, 0] == pytest.approx(var_oracle, abs=1e-9)

    def test_discrete_update_delegates_to_enumeration(self):
        model = DiscreteTarget(TABLE)
        u = DiscreteFactor([0.5, 0.5])
        via_engine = cavi_update(model, [u, u], 0)
        via_model = model.cavi_update([u, u], 0)
        np.testing.assert_array_equal(via_engine.pmf, via_model.pmf)

    def test_grid_path_matches_analytic_to_1e10(self):
        model = bivariate(0.5)
        grids = [model.block_measure(i)[0] for i in range(2)]
        factors = [
            GridFactor(grids[0], np.exp(normal_logpdf(grids[0], 0.0, 1.0))),
            GridFactor(grids[1], np.exp(normal_logpdf(grids[1], 0.3, 0.75))),
        ]
        upd = cavi_update(model, factors, 0, path="grid")
        analytic = np.exp(normal_logpdf(grids[0], 0.15, 0.75))
        analytic /= quad(analytic, grids[0])
        assert np.max(np.abs(upd.values - analytic)) <= 1e-10

    def test_grid_path_rejects_discrete_model(self):
        model = DiscreteTarget(TABLE)
        with pytest.raises(ModelError, match="continuous"):
            run_cavi(model, CaviConfig(path="grid"))
        u = DiscreteFactor([0.5, 0.5])
        with pytest.raises(ModelError, match="continuous"):
            cavi_update(model, [u, u], 0, path="grid")
        grids = [GridFactor(np.arange(2.0), np.ones(2)) for _ in range(2)]
        with pytest.raises(ModelError, match="continuous"):
            cavi_update(model, grids, 0, path="grid")


class TestRunCavi:
    def test_bivariate_converges_to_analytic_fixed_point(self):
        state = run_cavi(bivariate(0.5), CaviConfig(max_cycles=50, tolerance=1e-10))
        assert state.converged
        assert state.cycles <= 50
        for f in state.factors:
            assert f.mean[0] == pytest.approx(0.0, abs=1e-12)
            assert f.covariance[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_factorized_discrete_converges_in_one_sweep(self):
        p1 = np.array([0.3, 0.7])
        p2 = np.array([0.6, 0.4])
        model = DiscreteTarget(np.outer(p1, p2))
        state = run_cavi(model, CaviConfig(max_cycles=10, tolerance=1e-12))
        assert state.converged
        np.testing.assert_allclose(state.factors[0].pmf, p1, atol=1e-15)
        np.testing.assert_allclose(state.factors[1].pmf, p2, atol=1e-15)
        assert state.cycles <= 2  # one working sweep plus the no-change sweep

    def test_deterministic(self):
        a = run_cavi(bivariate(0.9), CaviConfig())
        b = run_cavi(bivariate(0.9), CaviConfig())
        assert a.objective_history == b.objective_history
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa.mean, fb.mean)
            assert np.array_equal(fa.covariance, fb.covariance)

    def test_non_convergence_is_flagged_not_raised(self):
        # force a start far from the fixed point with a one-cycle budget
        model = bivariate(0.9)
        init = [GaussianFactor([50.0], [[1.0]]), GaussianFactor([-50.0], [[1.0]])]
        state = run_cavi(model, CaviConfig(max_cycles=1, tolerance=1e-12),
                         init_factors=init)
        assert not state.converged
        assert state.cycles == 1

    def test_objective_history_non_increasing(self):
        for model in (bivariate(0.9), DiscreteTarget(random_table(np.random.default_rng(4), (3, 4, 2)))):
            state = run_cavi(model, CaviConfig(max_cycles=100, tolerance=1e-11))
            diffs = np.diff(state.objective_history)
            assert np.all(diffs <= 1e-10)

    def test_fixed_point_characterization(self):
        table = random_table(np.random.default_rng(9), (4, 3))
        tol = 1e-11
        # the default start, and each family's non-default initializer
        for model, init in ((DiscreteTarget(table), "default"),
                            (DiscreteTarget(table), "marginals"),
                            (bivariate(0.5), "standard_normal")):
            state = run_cavi(model, CaviConfig(max_cycles=500, tolerance=tol, init=init))
            assert state.converged
            assert np.all(np.diff(state.objective_history) <= 1e-10)
            for i in range(2):
                refreshed = cavi_update(model, list(state.factors), i)
                assert state.factors[i].change(refreshed) <= tol

    def test_converged_factors_match_brute_force_coordinate_minimizer(self):
        rng = np.random.default_rng(14)
        table = random_table(rng, (3, 3))
        model = DiscreteTarget(table)
        state = run_cavi(model, CaviConfig(max_cycles=500, tolerance=1e-13))
        assert state.converged
        pmfs = [f.pmf for f in state.factors]
        for i in range(2):
            q_star, _ = minimize_block_kl(table, i, pmfs)
            assert 0.5 * np.abs(pmfs[i] - q_star).sum() <= 1e-6

    def test_grid_path_run_recovers_fixed_point(self):
        # factors carry their own grids; 513 nodes keep the run fast while
        # trapezoid accuracy stays far below the 1e-8 check
        model = bivariate(0.5)
        init = []
        for i in range(2):
            g = np.linspace(-8, 8, 513)
            init.append(GridFactor(g, np.exp(normal_logpdf(g, 0.5 - i, 1.0))))
        state = run_cavi(model, CaviConfig(max_cycles=60, tolerance=1e-10, path="grid"),
                         init_factors=init)
        assert state.converged
        for f in state.factors:
            mean, variance = grid_moments(f)
            assert mean == pytest.approx(0.0, abs=1e-8)
            assert variance == pytest.approx(0.75, abs=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CaviConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            CaviConfig(max_cycles=0)


class TestKlObjective:
    def test_zero_at_exact_factorization(self):
        model = bivariate(0.0)
        factors = [model.marginal(0), model.marginal(1)]
        assert kl_objective(model, factors) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_matches_tensor_quadrature(self):
        model = bivariate(0.5)
        fp = cavi_fixed_point(model)
        closed = kl_objective(model, fp)
        g = np.linspace(-8, 8, 513)
        grid_factors = [
            GridFactor(g, np.exp(normal_logpdf(g, 0.0, 0.75))) for _ in range(2)
        ]
        quadrature = kl_objective(model, grid_factors)
        assert closed == pytest.approx(quadrature, abs=1e-8)
        assert closed == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_fixed_point_is_local_minimum(self):
        model = bivariate(0.5)
        fp = cavi_fixed_point(model)
        base = kl_objective(model, fp)
        rng = np.random.default_rng(33)
        for _ in range(100):
            perturbed = [
                GaussianFactor([f.mean[0] + rng.uniform(-0.5, 0.5)],
                               [[f.covariance[0, 0] * rng.uniform(0.5, 2.0)]])
                for f in fp
            ]
            assert kl_objective(model, perturbed) >= base - 1e-12

    def test_nonzero_for_correlated_target(self):
        # mean-field never recovers a correlated posterior
        for rho in (0.2, 0.5, 0.9):
            state = run_cavi(bivariate(rho), CaviConfig())
            assert state.objective_history[-1] > 1e-3


def three_blocks():
    return GaussianTarget([0.2, -0.5, 1.0],
                          [[1.0, 0.4, 0.2], [0.4, 2.0, -0.3], [0.2, -0.3, 0.5]],
                          make_decomposition([1, 1, 1]))


def gaussian_table(mean, var, n=257):
    """N(mean, var) tabulated on n nodes over mean +- 8 sd."""
    sd = np.sqrt(var)
    g = np.linspace(mean - 8 * sd, mean + 8 * sd, n)
    return GridFactor(g, np.exp(normal_logpdf(g, mean, var)))


class TestThreeBlockGrid:
    def test_objective_matches_closed_form(self):
        model = three_blocks()
        fp = cavi_fixed_point(model)
        tables = [gaussian_table(f.mean[0], f.covariance[0, 0]) for f in fp]
        assert kl_objective(model, tables) == pytest.approx(kl_objective(model, fp),
                                                            abs=1e-12)

    def test_middle_block_update_matches_analytic(self):
        # block 1's complement offsets [0, 2] are not one contiguous range
        model = three_blocks()
        start = [GaussianFactor([0.5], [[0.8]]), GaussianFactor([0.0], [[1.0]]),
                 GaussianFactor([0.7], [[0.3]])]
        analytic = cavi_update(model, start, 1)
        tables = [gaussian_table(f.mean[0], f.covariance[0, 0]) for f in start]
        # block 1's own values do not enter its update; its grid only has to
        # cover the result
        tables[1] = gaussian_table(analytic.mean[0], analytic.covariance[0, 0])
        upd = cavi_update(model, tables, 1, path="grid")
        mean, variance = grid_moments(upd)
        assert mean == pytest.approx(analytic.mean[0], abs=1e-8)
        assert variance == pytest.approx(analytic.covariance[0, 0], abs=1e-8)

    def test_grid_run_descends_to_closed_form_objective(self):
        # a whole run is ~100 tensor evaluations: 65 nodes (h = sd / 4) keep it
        # fast, and the trapezoid rule on Gaussians stays exact far below 1e-8
        model = three_blocks()
        fp = cavi_fixed_point(model)
        init = []
        for f in fp:
            g = gaussian_table(f.mean[0], f.covariance[0, 0], n=65).grid
            init.append(GridFactor(g, np.exp(-0.5 * g**2)))
        state = run_cavi(model, CaviConfig(max_cycles=60, tolerance=1e-10, path="grid"),
                         init_factors=init)
        assert state.converged
        assert len(state.objective_history) == 1 + 3 * state.cycles
        assert np.all(np.diff(state.objective_history) <= 1e-12)
        assert state.objective_history[-1] == pytest.approx(kl_objective(model, fp),
                                                            abs=1e-8)


def grid_start(model, n=65):
    """Standard-normal tables on n nodes over each block's fixed-point +- 8 sd."""
    init = []
    for fp in cavi_fixed_point(model):
        g = gaussian_table(fp.mean[0], fp.covariance[0, 0], n=n).grid
        init.append(GridFactor(g, np.exp(-0.5 * g**2)))
    return init


def grid_run(model, n=65):
    """A grid run from ``grid_start(model, n)``."""
    return run_cavi(model, CaviConfig(max_cycles=60, tolerance=1e-10, path="grid"),
                    init_factors=grid_start(model, n))


def truncated(block):
    """bivariate(0.5) with log density -inf where block ``block`` is over 1."""
    class Truncated(GaussianTarget):
        def log_density(self, theta):
            theta = np.asarray(theta, dtype=float)
            return np.where(theta[:, block] > 1.0, -np.inf, super().log_density(theta))

    return Truncated([0, 0], [[1, 0.5], [0.5, 1]], make_decomposition([1, 1]))


class TestGridTable:
    @pytest.mark.parametrize("model, n, chunked", [
        (bivariate(0.5), 257, False),
        (bivariate(0.5), 65, False),
        (three_blocks(), 65, False),
        (bivariate(0.5), 257, True),
        (three_blocks(), 65, True),
    ], ids=["K2-257", "K2-65", "K3-65", "K2-257-chunked", "K3-65-chunked"])
    def test_run_matches_per_update_evaluation_bit_for_bit(self, model, n, chunked,
                                                           monkeypatch):
        import duality_bench.cavi as cavi

        if chunked:
            # the table is filled two rows at a time
            complement = n ** (model.decomposition.n_blocks - 1)
            monkeypatch.setattr(cavi, "TABLE_CHUNK_POINTS", 2 * complement)
        init = grid_start(model, n)
        state = grid_run(model, n)
        values, history = reference_grid_run(
            model, [f.grid for f in init], [f.values for f in init], 60, 1e-10)
        assert state.cycles >= 2
        assert state.objective_history == tuple(history)
        assert [f.values.tobytes() for f in state.factors] == [v.tobytes() for v in values]

    @pytest.mark.parametrize("model", [bivariate(0.5), three_blocks()], ids=["K2", "K3"])
    def test_one_run_evaluates_each_table_cell_once(self, model, monkeypatch):
        rows = []
        evaluate = model.log_density

        def counting(theta):
            rows.append(len(theta))
            return evaluate(theta)

        monkeypatch.setattr(model, "log_density", counting)
        state = grid_run(model)
        assert state.cycles >= 2
        assert sum(rows) == 65 ** model.decomposition.n_blocks

    def test_a_table_over_the_bound_raises_before_any_row(self, monkeypatch):
        from duality_bench.cavi import MAX_TABLE_CELLS

        model = bivariate(0.5)
        rows = []
        monkeypatch.setattr(model, "log_density", rows.append)
        # the reference 4097-node grids fit; two 8193-node grids do not
        assert 4097**2 <= MAX_TABLE_CELLS < 8193**2
        g = np.linspace(-8.0, 8.0, 8193)
        tables = [GridFactor(g, np.exp(-0.5 * g**2))] * 2
        for call in (lambda: run_cavi(model, CaviConfig(path="grid"), tables),
                     lambda: kl_objective(model, tables),
                     lambda: cavi_update(model, tables, 0, path="grid")):
            with pytest.raises(ModelError, match="8193 x 8193 nodes is over"):
                call()
        assert rows == []

    def test_zero_density_on_positive_mass_raises(self):
        model = truncated(0)
        with pytest.raises(ModelError, match="block 0 update: log of zero density"):
            run_cavi(model, CaviConfig(path="grid"), grid_start(model))

    def test_zero_density_on_massless_cells_raises(self):
        # -inf times block 1's zero mass beyond the cut is NaN in block 0's
        # expectation: a ModelError naming the massless cells, not a ValueError
        # from the factor
        model = truncated(1)
        start = grid_start(model)
        g = start[1].grid
        start[1] = GridFactor(g, np.where(g > 1.0, 0.0, np.exp(-0.5 * g**2)))
        match = "block 0 update: the log density is -inf on cells where the other factors have zero mass"
        with pytest.raises(ModelError, match=match):
            run_cavi(model, CaviConfig(path="grid"), start)


class TestGridObjectiveReuse:
    @pytest.mark.parametrize("model", [bivariate(0.5), three_blocks()], ids=["K2", "K3"])
    def test_last_objective_matches_a_fresh_evaluation(self, model):
        # the last entry comes from block K-1's expectation, a fresh
        # kl_objective from block 0's: the same tensor sum in another order
        state = grid_run(model)
        fresh = kl_objective(model, state.factors)
        assert state.objective_history[-1] == pytest.approx(fresh, abs=1e-14)


class TestStateSerialization:
    def test_round_trip_gaussian(self):
        state = run_cavi(bivariate(0.5), CaviConfig())
        back = state_from_jsonable(state_to_jsonable(state))
        assert back.converged == state.converged
        assert back.objective_history == state.objective_history
        for fa, fb in zip(state.factors, back.factors):
            np.testing.assert_array_equal(fa.mean, fb.mean)
            np.testing.assert_array_equal(fa.covariance, fb.covariance)

    def test_round_trip_discrete(self):
        state = run_cavi(DiscreteTarget(TABLE), CaviConfig(max_cycles=300, tolerance=1e-12))
        back = state_from_jsonable(state_to_jsonable(state))
        for fa, fb in zip(state.factors, back.factors):
            np.testing.assert_array_equal(fa.pmf, fb.pmf)

    def test_round_trip_grid(self):
        model = three_blocks()
        init = [gaussian_table(0.0, 1.0, n=33), gaussian_table(0.5, 2.0, n=17),
                gaussian_table(-0.2, 0.5, n=9)]
        state = run_cavi(model, CaviConfig(max_cycles=2, path="grid"), init_factors=init)
        data = state_to_jsonable(state)
        assert [list(f) for f in data["factors"]] == [["type", "grid", "values"]] * 3
        back = state_from_jsonable(data)
        assert state_to_jsonable(back) == data
        for fa, fb in zip(state.factors, back.factors):
            assert isinstance(fb, GridFactor)
            np.testing.assert_array_equal(fa.grid, fb.grid)
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_unknown_factor_type_rejected(self):
        data = state_to_jsonable(run_cavi(bivariate(0.5), CaviConfig()))
        data["factors"][1]["type"] = "student_t"
        with pytest.raises(ValueError, match="unknown factor type 'student_t'"):
            state_from_jsonable(data)


class TestFactorChange:
    def test_sup_norm_over_every_parameter(self):
        a = GaussianFactor([0.0, 1.0], [[1.0, 0.2], [0.2, 1.0]])
        b = GaussianFactor([0.1, 1.0], [[1.0, -0.3], [-0.3, 1.0]])
        assert a.change(b) == pytest.approx(0.5, abs=1e-15)
        assert DiscreteFactor([0.2, 0.8]).change(DiscreteFactor([0.5, 0.5])) == \
            pytest.approx(0.3, abs=1e-15)

    def test_mixed_kinds_raise_type_error(self):
        g = gaussian_table(0.0, 1.0, n=9)
        with pytest.raises(TypeError):
            GaussianFactor([0.0], [[1.0]]).change(g)
        with pytest.raises(TypeError):
            g.change(GaussianFactor([0.0], [[1.0]]))
        with pytest.raises(TypeError):
            DiscreteFactor([0.5, 0.5]).change(GaussianFactor([0.0], [[1.0]]))

    def test_grid_factors_on_different_grids_raise_value_error(self):
        with pytest.raises(ValueError, match="different grids"):
            gaussian_table(0.0, 1.0, n=9).change(gaussian_table(0.0, 2.0, n=9))
