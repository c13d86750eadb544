"""Duality gap, induced functional, information equalities, squashing
constant, and the aggregated report."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duality_bench import (
    CaviConfig,
    DiscreteFactor,
    DiscreteTarget,
    GaussianFactor,
    GaussianTarget,
    GibbsConfig,
    ModelError,
    ReportOptions,
    SupportError,
    build_report,
    cavi_update,
    concavity_probe,
    duality_gap,
    duality_suite,
    information_equality_check,
    kl_lower_bound,
    make_decomposition,
    run_cavi,
    run_chain,
    squash_pointwise_check,
    squashing_constant,
)
from duality_bench.cavi import MeanFieldState
from duality_bench.diagnostics import (
    ATTAINMENT_TOL,
    GAP_TOL,
    SQUASH_TOL,
    DualityTrial,
    _FunctionalWorkspace,
    _gaussian_cover,
    info_monte_carlo,
)
from duality_bench.serialize import dumps_json

from oracles import kl_quadrature, normal_logpdf, quad, random_spd, random_table, trap_weights

TABLE = np.array([[0.4, 0.1], [0.2, 0.3]])


def bivariate(rho):
    return GaussianTarget([0, 0], [[1, rho], [rho, 1]], make_decomposition([1, 1]))


def functional(model, i, complement_value, q):
    """F{q} at a fixed complement point, by the report's own workspace."""
    ws = _FunctionalWorkspace(model, i, complement_value)
    return ws.value(ws.density_values(q))


def converged_state(model, tolerance=1e-12):
    state = run_cavi(model, CaviConfig(max_cycles=500, tolerance=tolerance))
    assert state.converged
    return state


def gaussian_inputs(p, h_fn, q):
    """The nodes of the +-8 sd cover of 1-D Gaussians p and q, and duality_gap's
    inputs there: weights, log p, h, and q's values, p and q renormalized."""
    nodes = _gaussian_cover(p, q)
    w = trap_weights(nodes)
    log_p = p.log_values_at(nodes) - np.log(np.sum(w * p.values_at(nodes)))
    return nodes, (w, log_p, h_fn(nodes), q.values_at(nodes) / np.sum(w * q.values_at(nodes)))


class TestDualityGap:
    def test_constant_test_function_gives_kl(self):
        # h == c: log E_p[e^c] = c = E_q[c], so the gap is exactly KL(q||p)
        p = GaussianFactor([0.0], [[1.0]])
        q = GaussianFactor([0.7], [[0.5]])
        grid, inputs = gaussian_inputs(p, lambda x: np.full_like(x, 2.5), q)
        kl_oracle = kl_quadrature(normal_logpdf(grid, 0.7, 0.5),
                                  normal_logpdf(grid, 0.0, 1.0), grid)
        assert duality_gap(*inputs) == pytest.approx(kl_oracle, abs=1e-10)

    def test_gaussian_tilt_attains_supremum(self):
        # p = N(0,1), h = -x^2/2: the tilt is exactly N(0, 1/2)
        p = GaussianFactor([0.0], [[1.0]])
        tilt = GaussianFactor([0.0], [[0.5]])
        assert abs(duality_gap(*gaussian_inputs(p, lambda x: -0.5 * x**2, tilt)[1])) <= 1e-8

    def test_gaussian_identity_candidate_frozen_value(self):
        # quadrature oracle gives 1/2 - 1/2 ln 2 for q = p = N(0,1)
        p = GaussianFactor([0.0], [[1.0]])
        gap = duality_gap(*gaussian_inputs(p, lambda x: -0.5 * x**2, p)[1])
        assert gap == pytest.approx(0.5 - 0.5 * np.log(2.0), abs=1e-9)
        assert gap == pytest.approx(0.15342640972002736, abs=1e-9)

    def test_discrete_tilt_attains_supremum(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(5))
        h = rng.uniform(-2, 2, size=5)
        tilt = p * np.exp(h)
        tilt /= tilt.sum()
        assert abs(duality_gap(np.ones(5), np.log(p), h, tilt)) <= 1e-12

    def test_support_violation_rejected(self):
        with pytest.raises(SupportError):
            duality_gap(np.ones(3), [np.log(0.5), np.log(0.5), -np.inf], np.zeros(3),
                        [0.4, 0.4, 0.2])

    def test_arrays_on_different_supports_rejected(self):
        with pytest.raises(ValueError, match="one support"):
            duality_gap(np.ones(3), np.log([0.5, 0.5]), np.zeros(3), [0.4, 0.4, 0.2])

    @pytest.mark.parametrize("family", ["gaussian", "discrete"])
    def test_randomized_suite(self, family):
        rows = duality_suite(family, trials=100, seed=17)
        assert len(rows) == 200
        assert all(r.gap >= -1e-10 for r in rows)
        assert all(r.gap <= 1e-8 for r in rows if r.at_optimum)

    def test_suite_deterministic(self):
        a = duality_suite("gaussian", trials=10, seed=5)
        b = duality_suite("gaussian", trials=10, seed=5)
        assert [r.gap for r in a] == [r.gap for r in b]

    def test_empty_suite_forbidden(self):
        with pytest.raises(ValueError, match="[Ee]mpty"):
            duality_suite("gaussian", trials=0, seed=0)


class TestDualityFunctional:
    def test_attained_at_full_conditional_frozen_value(self):
        # rho=0.5, theta2=1: maximum value is log of the N(0,1) pdf at 1
        model = bivariate(0.5)
        cond = model.full_conditional(0, [1.0])
        value = functional(model, 0, [1.0], cond)
        log_phi_1 = float(normal_logpdf(np.array([1.0]), 0.0, 1.0)[0])
        assert value == pytest.approx(log_phi_1, abs=1e-8)
        assert value == pytest.approx(-1.4189385332046727, abs=1e-8)

    def test_independent_case_maximized_by_marginal(self):
        model = bivariate(0.0)
        theta2 = 0.8
        bound = float(normal_logpdf(np.array([theta2]), 0.0, 1.0)[0])
        at_marginal = functional(model, 0, [theta2], model.marginal(0))
        assert at_marginal == pytest.approx(bound, abs=1e-10)
        worse = functional(model, 0, [theta2], GaussianFactor([1.0], [[0.5]]))
        assert worse < bound - 1e-3

    def test_bound_holds_for_random_candidates(self):
        model = bivariate(0.5)
        rng = np.random.default_rng(7)
        c = [0.4]
        bound = float(model.complement_marginal(0).log_density(np.array([c]))[0])
        cond = model.full_conditional(0, c)
        for _ in range(50):
            q = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            value = functional(model, 0, c, q)
            assert value <= bound + 1e-8
            distinct = (abs(q.mean[0] - cond.mean[0]) > 1e-3
                        or abs(q.covariance[0, 0] - cond.covariance[0, 0]) > 1e-3)
            if distinct:
                assert value < bound - 1e-8

    def test_discrete_attainment_exact(self):
        model = DiscreteTarget(TABLE)
        cond = model.full_conditional(0, [1])
        value = functional(model, 0, [1], cond)
        bound = float(np.log(model.complement_marginal(0).pmf[1]))
        assert value == pytest.approx(bound, abs=1e-12)

    @pytest.mark.parametrize("model, tol", [
        (bivariate(0.5), 1e-8),
        (DiscreteTarget(random_table(np.random.default_rng(3), (3, 4))), 1e-12),
    ], ids=["gaussian", "discrete"])
    def test_bound_is_the_duality_formulas_left_side(self, model, tol):
        # F is E_q[h] - KL(q||p) with p = pi(theta_i), h = log pi(c | theta_i): its
        # bound log pi(c) minus F{q} is the duality gap, whose left side is a sum
        # over the block measure against the closed-form bound
        rng = np.random.default_rng(5)
        reference = model.reference_point()
        for i in range(model.decomposition.n_blocks):
            ws = _FunctionalWorkspace(model, i,
                                      reference[model.decomposition.complement_indices(i)])
            candidates = [ws.conditional_values, ws.density_values(model.marginal(i)),
                          *model.random_values(i, rng, 3)]
            for qv in candidates:
                gap = duality_gap(ws.weights, ws.log_marginal, ws.log_cond_at_c, qv)
                assert abs((ws.log_bound - ws.value(qv)) - gap) <= tol

    def test_support_violation(self):
        model = DiscreteTarget([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(SupportError):
            functional(model, 0, [0], DiscreteFactor([0.5, 0.5]))


class TestConcavityProbe:
    def test_endpoint_identities(self):
        model = bivariate(0.5)
        p = GaussianFactor([0.0], [[1.0]])
        q = GaussianFactor([1.0], [[0.5]])
        for a in (0.0, 1.0):
            assert concavity_probe(model, 0, [0.3], p, q, a) == pytest.approx(0.0, abs=1e-10)

    def test_equal_densities(self):
        model = bivariate(0.5)
        p = GaussianFactor([0.4], [[2.0]])
        assert concavity_probe(model, 0, [0.3], p, p, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_spec_example_mixture(self):
        model = bivariate(0.5)
        slack = concavity_probe(model, 0, [1.0], GaussianFactor([0.0], [[1.0]]),
                                GaussianFactor([1.0], [[0.5]]), 0.5)
        assert slack >= 0.0

    def test_random_mixtures_both_families(self):
        rng = np.random.default_rng(11)
        gauss = bivariate(0.5)
        disc = DiscreteTarget(TABLE)
        for _ in range(100):
            a = float(rng.uniform(0, 1))
            pg = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            qg = GaussianFactor([rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])
            assert concavity_probe(gauss, 0, [0.5], pg, qg, a) >= -1e-8
            pd = DiscreteFactor(rng.dirichlet(np.ones(2)))
            qd = DiscreteFactor(rng.dirichlet(np.ones(2)))
            assert concavity_probe(disc, 1, [0], pd, qd, a) >= -1e-8

    def test_weight_domain(self):
        model = bivariate(0.5)
        p = GaussianFactor([0.0], [[1.0]])
        with pytest.raises(ValueError):
            concavity_probe(model, 0, [0.0], p, p, 1.5)


def zero_cell_table():
    """A 9x3 table with zero cells, every block state of positive mass."""
    table = random_table(np.random.default_rng(21), (9, 3))
    table[[1, 4, 4, 6, 8], [0, 0, 2, 1, 0]] = 0.0
    return DiscreteTarget(table / table.sum())


def workspaces(model):
    """The report's workspace of every block, at the reference point."""
    reference = model.reference_point()
    dec = model.decomposition
    return [_FunctionalWorkspace(model, i, reference[dec.complement_indices(i)])
            for i in range(dec.n_blocks)]


def compacted_value(ws, row):
    """F{q} summed over the compacted support of one row: the reference that
    the workspace's in-place masked sums follow."""
    mass = ws.weights * row
    s = mass > 0
    return (float(np.sum(mass[s] * ws.log_cond_at_c[s]))
            - float(np.sum(mass[s] * (np.log(row[s]) - ws.log_marginal[s]))))


def make_rng_pair(seed):
    """Two generators on one stream."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


BATCH_MODELS = {
    "gaussian": lambda: bivariate(0.5),
    "dense-4x4x4": lambda: DiscreteTarget(random_table(np.random.default_rng(2), (4, 4, 4))),
    "zero-cells-9x3": zero_cell_table,
}


class TestBatchedSuite:
    @pytest.mark.parametrize("name", sorted(BATCH_MODELS))
    def test_each_row_of_a_batch_is_its_single_row_call(self, name):
        model = BATCH_MODELS[name]()
        rng = np.random.default_rng(8)
        for i, ws in enumerate(workspaces(model)):
            rows = model.random_values(i, rng, 12)
            if model.is_discrete:
                # holes inside the support: zero where the conditional is, and elsewhere
                rows = rows * (ws.conditional_values > 0) * (rng.random(rows.shape) > 0.3)
                rows[:, np.argmax(ws.conditional_values)] += 0.1
                rows = rows / rows.sum(axis=1, keepdims=True)
            batch = np.stack([rows, rows[::-1]])   # two leading axes
            values, tvs = ws.value(batch), ws.tv_from_conditional(batch)
            a = np.linspace(0, 1, len(rows))
            slacks = ws.concavity_slack(rows, rows[::-1], a)
            assert values.shape == tvs.shape == (2, len(rows))
            for k, row in enumerate(rows):
                assert values[0, k] == values[1, -1 - k] == ws.value(row)
                # the same sums when the support is one run of nodes; else within rounding
                if np.all(np.diff(np.flatnonzero(row > 0)) == 1):
                    assert values[0, k] == compacted_value(ws, row)
                else:
                    assert values[0, k] == pytest.approx(compacted_value(ws, row),
                                                         rel=1e-14, abs=1e-14)
                assert tvs[0, k] == tvs[1, -1 - k] == ws.tv_from_conditional(row)
                assert slacks[k] == ws.concavity_slack(row, rows[-1 - k], a[k])
            assert isinstance(ws.value(rows[0]), float)

    @pytest.mark.parametrize("name", ["gaussian", "dense-4x4x4"])
    def test_n_then_m_rows_are_n_plus_m_rows(self, name):
        model = BATCH_MODELS[name]()
        for i in range(model.decomposition.n_blocks):
            one, two = make_rng_pair(5)
            split = np.concatenate([model.random_values(i, one, 3), model.random_values(i, one, 4)])
            np.testing.assert_array_equal(split, model.random_values(i, two, 7))
            assert one.random() == two.random()   # the streams stay in step

    def test_rows_are_the_factors_drawn_one_at_a_time(self):
        # each row is density_values of the factor drawn from the same stream
        for model, draw in ((bivariate(0.5), lambda rng: GaussianFactor(
                                [rng.uniform(-2, 2)], [[rng.uniform(0.25, 4)]])),
                            (BATCH_MODELS["dense-4x4x4"](),
                             lambda rng: DiscreteFactor(rng.dirichlet(np.ones(4))))):
            ws = workspaces(model)[1]
            one, two = make_rng_pair(3)
            expected = np.stack([ws.density_values(draw(one)) for _ in range(6)])
            np.testing.assert_array_equal(model.random_values(1, two, 6), expected)

    @pytest.mark.parametrize("name", ["gaussian", "dense-4x4x4"])
    def test_report_does_not_depend_on_the_chunk(self, name, monkeypatch):
        import duality_bench.diagnostics as diagnostics

        model = BATCH_MODELS[name]()
        trace = run_chain(model, GibbsConfig(n_cycles=2_000, burn_in=100, seed=2))
        state = converged_state(model, tolerance=1e-13)
        options = ReportOptions(suite_seed=4, f_candidates=23, concavity_mixtures=17)
        texts = set()
        for chunk in (diagnostics.SUITE_CHUNK_VALUES, 1, 2**62):
            monkeypatch.setattr(diagnostics, "SUITE_CHUNK_VALUES", chunk)
            texts.add(dumps_json(build_report(model, trace, state, options).to_jsonable()))
        assert len(texts) == 1

    def test_a_nan_slack_in_a_later_chunk_fails_concavity(self, monkeypatch):
        # Python's min keeps a running inf against a NaN that comes second
        model = bivariate(0.5)
        trace = run_chain(model, GibbsConfig(n_cycles=2_000, burn_in=100, seed=2))
        slack = _FunctionalWorkspace.concavity_slack
        chunks = []

        def nan_in_the_second_chunk(self, pv, qv, a):
            out = slack(self, pv, qv, a)
            chunks.append(self.i)
            if chunks.count(self.i) == 2:
                out[0] = np.nan
            return out

        monkeypatch.setattr(_FunctionalWorkspace, "concavity_slack", nan_in_the_second_chunk)
        report = build_report(model, trace, converged_state(model),
                              ReportOptions(concavity_mixtures=17))
        assert chunks.count(0) > 2
        for block in report.blocks:
            assert np.isnan(block.values["concavity_min_slack"])
            assert [c.ok for c in block.checks if c.name == "concavity"] == [False]

    def test_mixture_mass_off_one_raises_on_a_row_and_in_a_batch(self):
        ws = workspaces(bivariate(0.5))[0]
        rows = bivariate(0.5).random_values(0, np.random.default_rng(1), 3)
        heavy = rows.copy()
        heavy[1] *= 1.0 + 1e-6
        with pytest.raises(ModelError, match="mixture mass"):
            ws.concavity_slack(heavy[1], rows[0], 0.5)
        with pytest.raises(ModelError, match="mixture mass"):
            ws.concavity_slack(heavy, rows, np.full(3, 0.5))
        # with weight 0 the mixture is q alone, whose mass is 1
        assert np.all(np.isfinite(ws.concavity_slack(heavy, rows, np.zeros(3))))

    @pytest.mark.parametrize("a", [1.5, -0.1, np.nan, [0.5, 1.0 + 1e-12], [np.nan, 0.5]])
    def test_weight_outside_the_unit_interval_raises(self, a):
        ws = workspaces(DiscreteTarget(TABLE))[0]
        rows = np.array([[0.3, 0.7], [0.6, 0.4]])
        pv, qv = (rows, rows[::-1]) if np.ndim(a) else (rows[0], rows[1])
        with pytest.raises(ValueError, match="mixture weight"):
            ws.concavity_slack(pv, qv, a)

    def test_one_row_with_mass_off_the_base_support_fails_the_batch(self):
        model = DiscreteTarget([[0.5, 0.5], [0.0, 0.0]])
        ws = _FunctionalWorkspace(model, 0, [0])
        batch = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        assert np.all(np.isfinite(ws.value(batch[:2])))
        with pytest.raises(SupportError):
            ws.value(batch)
        with pytest.raises(SupportError):
            ws.concavity_slack(batch, batch[::-1], np.full(3, 0.5))


class TestInformationEquality:
    def test_factorized_gaussian(self):
        info = information_equality_check(bivariate(0.0), 0)
        assert info.mutual_information == pytest.approx(0.0, abs=1e-10)
        assert info.residual <= 1e-10

    def test_bivariate_frozen_values(self):
        info = information_equality_check(bivariate(0.5), 1)
        assert info.method == "quadrature"
        assert info.mutual_information == pytest.approx(0.14384103622589045, abs=1e-8)
        assert info.complement_entropy == pytest.approx(1.4189385332046727, abs=1e-8)
        assert info.conditional_entropy == pytest.approx(1.2750974969787823, abs=1e-8)
        assert info.residual <= 1e-8
        assert info.symmetric_residual <= 1e-8

    def test_discrete_enumeration_exact(self):
        info = information_equality_check(DiscreteTarget(TABLE), 0)
        assert info.method == "enumeration"
        assert info.residual <= 1e-14
        assert info.symmetric_residual <= 1e-14

    def test_closed_form_route_for_larger_models(self):
        rng = np.random.default_rng(3)
        from oracles import random_spd
        t = GaussianTarget(rng.standard_normal(3), random_spd(rng, 3),
                           make_decomposition([1, 2]))
        info = information_equality_check(t, 0)
        assert info.method == "closed_form"
        assert info.residual <= 1e-10
        assert info.symmetric_residual <= 1e-10

    def test_monte_carlo_agrees_with_analytic(self):
        model = bivariate(0.5)
        trace = run_chain(model, GibbsConfig(n_cycles=50_000, burn_in=1000, seed=0))
        for i in range(2):
            info = information_equality_check(model, i)
            mc = info_monte_carlo(model, trace, i)
            for key, truth in (
                ("mutual_information", info.mutual_information),
                ("complement_entropy", info.complement_entropy),
                ("conditional_entropy", info.conditional_entropy),
            ):
                est = mc[key]
                assert abs(est.mean - truth) <= 3 * est.standard_error


class TestSquashingConstant:
    def test_independent_case_is_one(self):
        model = bivariate(0.0)
        state = converged_state(model)
        assert squashing_constant(model, state, 0) == pytest.approx(1.0, abs=1e-12)

    def test_bivariate_dual_path_oracle(self):
        # independent 2-D quadrature of the numerator and quadrature KL
        rho = 0.5
        model = bivariate(rho)
        state = converged_state(model)
        value = squashing_constant(model, state, 0)
        grid = np.linspace(-8, 8, 2049)
        w = trap_weights(grid)
        q2 = np.exp(normal_logpdf(grid, 0.0, 1 - rho**2))
        q2 /= quad(q2, grid)
        inner = normal_logpdf(grid[:, None], rho * grid[None, :], 1 - rho**2) @ (w * q2)
        numerator = quad(np.exp(inner), grid)
        kl_den = kl_quadrature(np.log(q2), normal_logpdf(grid, 0, 1.0), grid)
        oracle = numerator / np.exp(kl_den)
        assert value == pytest.approx(oracle, abs=1e-6)
        assert numerator == pytest.approx(np.exp(-rho**2 / 2), abs=1e-9)
        assert value == pytest.approx(np.sqrt(1 - rho**2), abs=1e-9)
        assert value == pytest.approx(0.8660254037844386, abs=1e-6)

    def test_discrete_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            model = DiscreteTarget(random_table(rng, (3, 3)))
            state = converged_state(model, tolerance=1e-13)
            for i in range(2):
                r = squashing_constant(model, state, i)
                assert 0.0 < r <= 1.0 + 1e-10

    def test_any_valid_complement_stays_below_one(self):
        # the bound holds for arbitrary complement factors, not just q*
        rng = np.random.default_rng(29)
        model = DiscreteTarget(TABLE)
        for _ in range(20):
            factors = (DiscreteFactor(rng.dirichlet(np.ones(2))),
                       DiscreteFactor(rng.dirichlet(np.ones(2))))
            state = MeanFieldState(factors=factors, cycles=0,
                                   objective_history=(), converged=True,
                                   max_change=0.0)
            for i in range(2):
                assert 0.0 < squashing_constant(model, state, i) <= 1.0 + 1e-10


def tilt_identity_residual(model, factors, i):
    """log R + KL of the product with factor i replaced by its update, which
    KL(q_i* x q_-i || pi) = KL(q_-i || pi_-i) - log Z_i makes zero."""
    state = MeanFieldState(factors=tuple(factors), cycles=0, objective_history=(),
                           converged=False, max_change=0.0)
    updated = list(factors)
    updated[i] = cavi_update(model, factors, i)
    return np.log(squashing_constant(model, state, i)) + model.product_kl(updated)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_log_r_is_minus_the_kl_after_the_update_on_random_gaussians(seed):
    """K from 2 to 4 blocks of dims 1 to 3, one CAVI cycle from a
    standard-normal start, so not at the fixed point."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 4, size=rng.integers(2, 5))
    model = GaussianTarget(rng.standard_normal(dims.sum()), random_spd(rng, dims.sum()),
                           make_decomposition(dims))
    state = run_cavi(model, CaviConfig(max_cycles=1, init="standard_normal"))
    for i in range(dims.size):
        assert abs(tilt_identity_residual(model, state.factors, i)) <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_log_r_is_minus_the_kl_after_the_update_on_tables_with_zero_cells(seed):
    """K from 2 to 4 blocks of 2 to 4 states. Each block has one dead state on
    which its Dirichlet factor puts no mass; the table is zero on the cell of
    all dead states and on some cells with at least two, so every complement
    state with factor mass has a positive conditional row."""
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(2, 5, size=rng.integers(2, 5)))
    dead = [int(rng.integers(n)) for n in sizes]
    dead_coords = sum(np.indices(sizes)[j] == d for j, d in enumerate(dead))
    table = random_table(rng, sizes)
    table[(dead_coords == len(sizes)) | ((dead_coords >= 2) & (rng.random(sizes) < 0.5))] = 0.0
    model = DiscreteTarget(table / table.sum())
    factors = []
    for n, d in zip(sizes, dead):
        pmf = rng.dirichlet(np.ones(n))
        pmf[d] = 0.0
        factors.append(DiscreteFactor(pmf / pmf.sum()))
    for i in range(len(sizes)):
        assert abs(tilt_identity_residual(model, factors, i)) <= 1e-12


class TestSquashPointwise:
    def test_independent_case_equality_everywhere(self):
        model = bivariate(0.0)
        state = converged_state(model)
        grid = np.linspace(-8, 8, 1001)
        r = squashing_constant(model, state, 0)
        marg = np.exp(normal_logpdf(grid, 0, 1.0))
        qv = np.exp(np.asarray(state.factors[0].log_density(grid.reshape(-1, 1))))
        assert np.max(np.abs(marg - r * qv)) <= 1e-12
        assert squash_pointwise_check(model, state, 0, grid) >= -1e-12

    def test_bivariate_grid_and_equality_at_zero(self):
        model = bivariate(0.5)
        state = converged_state(model)
        grid = np.linspace(-8, 8, 1001)
        min_slack = squash_pointwise_check(model, state, 0, grid)
        assert min_slack >= -1e-12
        r = squashing_constant(model, state, 0)
        slack_at_zero = (np.exp(normal_logpdf(0.0, 0, 1.0))
                         - r * np.exp(state.factors[0].log_density(np.array([[0.0]]))[0]))
        assert abs(slack_at_zero) <= 1e-10

    def test_discrete_entrywise(self):
        model = DiscreteTarget(TABLE)
        state = converged_state(model, tolerance=1e-13)
        for i in range(2):
            assert squash_pointwise_check(model, state, i) >= -1e-12


class TestKlLowerBound:
    def test_independent_case(self):
        model = bivariate(0.0)
        state = converged_state(model)
        res = kl_lower_bound(model, state, 0)
        assert res.bound == 0.0
        assert res.kl == pytest.approx(0.0, abs=1e-12)
        assert res.raw_log_value <= 1e-12

    def test_bivariate_frozen_values(self):
        model = bivariate(0.5)
        state = converged_state(model)
        res = kl_lower_bound(model, state, 0)
        assert res.raw_log_value == pytest.approx(-0.125, abs=1e-9)
        assert res.bound == 0.0
        assert res.kl == pytest.approx(0.018841036225890450, abs=1e-9)
        assert res.kl >= res.bound - 1e-10

    def test_discrete_raw_value_nonpositive(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = DiscreteTarget(random_table(rng, (4, 2)))
            state = converged_state(model, tolerance=1e-13)
            for i in range(2):
                res = kl_lower_bound(model, state, i)
                assert res.raw_log_value <= 1e-12
                assert res.bound == 0.0
                assert res.kl >= 0.0


class TestBuildReport:
    def make_inputs(self, rho=0.5, seed=0):
        model = bivariate(rho)
        trace = run_chain(model, GibbsConfig(n_cycles=30_000, burn_in=1000, seed=seed))
        state = converged_state(model)
        return model, trace, state

    def test_full_pipeline_passes(self):
        model, trace, state = self.make_inputs()
        report = build_report(model, trace, state)
        assert report.passed
        assert report.failures == ()
        for b in report.blocks:
            assert b.values["duality_gap"] >= -1e-10
            assert b.values["attainment_abs_error"] <= 1e-8
            assert 0 < b.values["squashing_constant"] <= 1 + 1e-10
            assert b.values["min_squash_slack"] >= -1e-10
            assert b.values["kl_lower_bound_raw"] <= 1e-10

    def test_factorized_model_is_clean(self):
        model, trace, state = self.make_inputs(rho=0.0, seed=4)
        report = build_report(model, trace, state)
        assert report.passed
        for b in report.blocks:
            assert abs(b.values["duality_gap"]) <= 1e-8
            assert b.values["information_residual"] <= 1e-8
            assert b.values["mutual_information"] <= 1e-8
            assert b.values["squashing_constant"] == pytest.approx(1.0, abs=1e-10)

    def test_discrete_pipeline_passes(self):
        model = DiscreteTarget(TABLE)
        trace = run_chain(model, GibbsConfig(n_cycles=30_000, burn_in=1000, seed=1))
        state = converged_state(model, tolerance=1e-13)
        report = build_report(model, trace, state)
        assert report.passed
        for b in report.blocks:
            assert b.values["information_residual"] <= 1e-12

    def test_corrupted_state_fails_squash_check(self):
        model, trace, state = self.make_inputs()
        tampered = MeanFieldState(
            factors=(GaussianFactor(state.factors[0].mean, [[2.0]]), state.factors[1]),
            cycles=state.cycles,
            objective_history=state.objective_history,
            converged=state.converged,
            max_change=state.max_change,
        )
        report = build_report(model, trace, tampered)
        assert not report.passed
        assert any("squash_pointwise" in f for f in report.failures)

    def test_json_round_trip_is_lossless(self):
        model, trace, state = self.make_inputs()
        report = build_report(model, trace, state)
        text = dumps_json(report.to_jsonable())
        parsed = json.loads(text)
        assert dumps_json(parsed) == text
        assert parsed["blocks"][0]["squashing_constant"] == pytest.approx(
            report.blocks[0].values["squashing_constant"], abs=1e-12)

    def test_model_mismatch_rejected(self):
        model, trace, state = self.make_inputs()
        other = GaussianTarget(np.zeros(3), np.eye(3), make_decomposition([1, 1, 1]))
        with pytest.raises(ModelError):
            build_report(other, trace, state)

    def test_report_deterministic(self):
        model, trace, state = self.make_inputs()
        a = build_report(model, trace, state, ReportOptions(suite_seed=9))
        b = build_report(model, trace, state, ReportOptions(suite_seed=9))
        assert dumps_json(a.to_jsonable()) == dumps_json(b.to_jsonable())

    def test_three_block_gaussian_pipeline(self):
        cov = np.array([
            [1.0, 0.3, 0.1],
            [0.3, 1.0, -0.2],
            [0.1, -0.2, 1.0],
        ])
        model = GaussianTarget([0.5, -0.5, 0.0], cov, make_decomposition([1, 1, 1]))
        trace = run_chain(model, GibbsConfig(n_cycles=30_000, burn_in=1000, seed=6))
        state = converged_state(model)
        report = build_report(model, trace, state)
        assert report.passed, report.failures
        assert len(report.blocks) == 3
        assert all(b.values["info_method"] == "closed_form" for b in report.blocks)


class TestCheckRecords:
    """Each check is one record, value within [lo, hi]; the report's verdicts
    derive from the records."""

    KEEP = "value as built"

    @pytest.fixture(scope="class")
    def short_report(self):
        # 60 retained samples: too few for batch-means SEs, so the Monte Carlo
        # checks have no value; factor 0's variance is inflated past the marginal's
        model = bivariate(0.5)
        trace = run_chain(model, GibbsConfig(n_cycles=100, burn_in=40, seed=0))
        state = converged_state(model)
        tampered = replace(state, factors=(GaussianFactor(state.factors[0].mean, [[2.0]]),
                                           state.factors[1]))
        return build_report(model, trace, tampered,
                            ReportOptions(f_candidates=5, concavity_mixtures=5))

    @pytest.mark.parametrize("name, value, ok", [
        ("functional_equality_only_at_conditional", ATTAINMENT_TOL, False),
        ("functional_equality_only_at_conditional", np.nextafter(ATTAINMENT_TOL, 1.0), True),
        ("squashing_constant_in_unit_interval", 0.0, False),
        ("squashing_constant_in_unit_interval", 5e-324, True),
        ("squashing_constant_in_unit_interval", 1 + SQUASH_TOL, True),
        ("squashing_constant_in_unit_interval", np.nextafter(1 + SQUASH_TOL, 2.0), False),
        ("duality_gap_nonnegative", -GAP_TOL, True),
        ("duality_gap_nonnegative", np.nextafter(-GAP_TOL, -1.0), False),
        ("mi_mc_within_3se", KEEP, False),
        ("complement_entropy_mc_within_3se", KEEP, False),
        ("conditional_entropy_mc_within_3se", KEEP, False),
        ("*", np.nan, False),
    ])
    def test_record_verdict_at_its_bounds(self, short_report, name, value, ok):
        checks = [c for b in short_report.blocks for c in b.checks if name in ("*", c.name)]
        assert len(checks) == (30 if name == "*" else 2)
        for check in checks:
            if value is self.KEEP:
                assert check.value is None   # no SE, no verdict
            else:
                check = replace(check, value=value)
            assert check.ok is ok

    def test_failures_list_the_failed_records_block_by_block(self, short_report):
        mc = ["mi_mc_within_3se", "complement_entropy_mc_within_3se",
              "conditional_entropy_mc_within_3se"]
        assert short_report.failures == (
            *(f"block1.{n}" for n in mc), "block1.squash_pointwise", *(f"block2.{n}" for n in mc))
        assert not short_report.passed
        jsonable = short_report.to_jsonable()
        assert jsonable["failures"] == list(short_report.failures)
        assert [[k for k, ok in b["checks"].items() if not ok] for b in jsonable["blocks"]] == [
            [*mc, "squash_pointwise"], mc]
        header, rows = short_report.csv_table()
        assert header[0] == "block" and header[-1] == "passed"
        assert [row[-1] for row in rows] == [False, False]

    @pytest.mark.parametrize("at_optimum, gap, ok", [
        (False, -GAP_TOL, True),
        (False, np.nextafter(-GAP_TOL, -1.0), False),
        (False, 1.0, True),
        (True, ATTAINMENT_TOL, True),
        (True, np.nextafter(ATTAINMENT_TOL, 1.0), False),
        (True, np.nan, False),
    ])
    def test_duality_trial_record(self, at_optimum, gap, ok):
        assert DualityTrial(trial=0, at_optimum=at_optimum, gap=gap).check.ok is ok
