"""Discrete table model: enumeration exactness of every quantity."""

import re

import numpy as np
import pytest

from duality_bench import (ChainTrace, DiscreteFactor, DiscreteTarget, InfoEquality, ModelError,
                           ZeroMassError)
from duality_bench.diagnostics import info_monte_carlo

from oracles import minimize_block_kl, product_kl_vs_table, random_table

# running example: p(0,0)=0.4, p(0,1)=0.1, p(1,0)=0.2, p(1,1)=0.3
TABLE = np.array([[0.4, 0.1], [0.2, 0.3]])


class TestConstruction:
    def test_mass_must_be_one(self):
        with pytest.raises(ModelError):
            DiscreteTarget([[0.4, 0.4], [0.4, 0.4]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ModelError):
            DiscreteTarget([[1.2, -0.2], [0.0, 0.0]])

    def test_support_cap(self):
        with pytest.raises(ValueError):
            DiscreteTarget(np.full((17, 2), 1.0 / 34))

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            DiscreteFactor([0.7, 0.7])
        with pytest.raises(ValueError):
            DiscreteFactor([1.1, -0.1])


class TestFullConditional:
    def test_uniform_table(self):
        t = DiscreteTarget(np.full((2, 2), 0.25))
        np.testing.assert_allclose(t.full_conditional(0, [0]).pmf, [0.5, 0.5])

    def test_running_example(self):
        t = DiscreteTarget(TABLE)
        np.testing.assert_allclose(t.full_conditional(0, [0]).pmf, [2 / 3, 1 / 3],
                                   atol=1e-15)
        # enumeration oracle: renormalize the raw column
        col = TABLE[:, 0]
        np.testing.assert_allclose(t.full_conditional(0, [0]).pmf, col / col.sum(),
                                   atol=1e-15)

    def test_zero_mass_event_rejected(self):
        t = DiscreteTarget([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ZeroMassError):
            t.full_conditional(0, [1])

    def test_conditional_sums_to_one(self):
        t = DiscreteTarget(TABLE)
        nodes, weights = t.block_measure(0)
        mass = np.sum(weights * t.full_conditional(0, [1]).values_at(nodes))
        assert mass == pytest.approx(1.0, abs=1e-15)


class TestCdfTail:
    """A cumulative sum that ends below 1 by rounding still draws, at the
    largest uniform below 1, the last state with positive probability."""

    TOP = np.nextafter(1.0, 0.0)

    class _TopUniform:
        def random(self):
            return TestCdfTail.TOP

    # the summed pmfs end at 0.9999999999999999
    @pytest.mark.parametrize("pmf, last", [([0.34, 0.56, 0.1], 2),
                                           ([0.34, 0.56, 0.1, 0.0], 2),
                                           ([0.34, 0.0, 0.56, 0.1, 0.0, 0.0], 3)])
    def test_factor_sample_stays_on_the_support(self, pmf, last):
        assert DiscreteFactor(pmf).sample(self._TopUniform()).tolist() == [last]

    def test_scan_stays_on_the_support(self):
        # block 1's conditional row given block 0 = 0 is [0.1, 0.1, 0.8, 0], summed
        # to 0.9999999999999999; from (0, 2) block 0 draws 0 again at any uniform
        table = np.array([[1, 1, 8, 0], [1, 1, 0, 2]]) / 14
        samples = DiscreteTarget(table).scan(np.array([0.0, 2.0]), np.full((3, 2), self.TOP), 0)
        assert samples.tolist() == [[0.0, 2.0]] * 3


class TestStateValidation:
    # a negative index, a fractional value, and an index past the support
    BAD_ROWS = [[-1, 0], [0.7, 1], [2, 0]]

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_batch_rejects_what_single_point_rejects(self, row):
        t = DiscreteTarget(TABLE)
        with pytest.raises(ValueError):
            t.log_density(np.array(row, dtype=float))
        with pytest.raises(ValueError):
            t.log_density(np.array([[0, 0], row, [1, 1]], dtype=float))

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_info_monte_carlo_rejects_trace_with_bad_row(self, row):
        samples = np.tile([[0.0, 1.0], [1.0, 1.0]], (50, 1))
        samples[37] = row
        trace = ChainTrace(samples=samples, n_cycles=100, burn_in=0, seed=0,
                           init_strategy="explicit")
        for i in range(2):
            with pytest.raises(ValueError):
                info_monte_carlo(DiscreteTarget(TABLE), trace, i)

    @pytest.mark.parametrize("value", [1e300, -1.0, 0.5, 2.0])
    def test_factor_log_density_names_a_bad_value(self, value):
        # 1e300 is an integer past the support: it must not reach an int cast
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            DiscreteFactor([0.5, 0.5]).log_density([[value]])


class TestInformationQuantities:
    def test_factorized_table_has_zero_mi(self):
        p1 = np.array([0.3, 0.7])
        p2 = np.array([0.2, 0.5, 0.3])
        t = DiscreteTarget(np.outer(p1, p2))
        assert t.mutual_information(0) == pytest.approx(0.0, abs=1e-15)

    def test_running_example_information_equality(self):
        t = DiscreteTarget(TABLE)
        i_val = t.mutual_information(0)
        h = t.complement_marginal(0).entropy()
        h_cond = t.conditional_entropy_complement(0)
        assert abs(i_val - (h - h_cond)) <= 1e-14
        # symmetric form with independently enumerated entropies
        assert abs(i_val - (t.marginal(0).entropy() - t.conditional_entropy_block(0))) <= 1e-14

    @pytest.mark.parametrize("i", [-1, 2])
    def test_conditional_entropies_check_the_block_index(self, i):
        t = DiscreteTarget(TABLE)
        with pytest.raises(IndexError):
            t.conditional_entropy_block(i)
        with pytest.raises(IndexError):
            t.conditional_entropy_complement(i)

    @pytest.mark.parametrize("table", [
        [[0.5, 0.5], [0.0, 0.0]],
        [[[0.1, 0.2], [0.3, 0.1]], [[0.2, 0.1], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.5, 0.1]], [[0.0, 0.0], [0.2, 0.2]]],
    ], ids=["2x2-zero-row", "2x2x2-zero-row", "2x2x2-zero-rows"])
    def test_zero_mass_states_raise_no_warning(self, table):
        # warnings are errors here: no -inf - -inf is formed where a state has no mass
        t = DiscreteTarget(table)
        for i in range(t.decomposition.n_blocks):
            info = t.information_equality(i)
            assert info.residual <= 1e-15 and info.symmetric_residual <= 1e-15
            raw, kl = t.block_kl_terms(t.marginal(i), i)
            assert raw <= 1e-15 and kl == 0.0
        if len(table) == 2 and np.ndim(table) == 2:
            assert t.information_equality(0) == InfoEquality(
                0.0, np.log(2.0), np.log(2.0), 0.0, 0.0, method="enumeration")

    def test_uniform_entropy_is_log_n(self):
        t = DiscreteTarget(np.full((4, 3), 1.0 / 12))
        assert t.marginal(0).entropy() == pytest.approx(np.log(4), abs=1e-15)
        assert t.marginal(1).entropy() == pytest.approx(np.log(3), abs=1e-15)

    def test_information_equality_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            sizes = tuple(rng.integers(2, 6, size=rng.integers(2, 5)))
            t = DiscreteTarget(random_table(rng, sizes))
            for i in range(len(sizes)):
                res = abs(t.mutual_information(i)
                          - (t.complement_marginal(i).entropy()
                             - t.conditional_entropy_complement(i)))
                assert res <= 1e-12


class TestCaviUpdate:
    def test_factorized_target_returns_marginal(self):
        p1 = np.array([0.3, 0.7])
        p2 = np.array([0.6, 0.4])
        t = DiscreteTarget(np.outer(p1, p2))
        upd = t.tilt([DiscreteFactor([0.5, 0.5]), DiscreteFactor([0.9, 0.1])], 0)[0]
        np.testing.assert_allclose(upd.pmf, p1, atol=1e-15)

    def test_uniform_complement_frozen_value(self):
        # factor proportional to exp(sum_c 0.5 log pi(x|c)): sqrt(2/3*1/4), sqrt(1/3*3/4)
        t = DiscreteTarget(TABLE)
        u = DiscreteFactor([0.5, 0.5])
        upd = t.tilt([u, u], 0)[0]
        raw = np.sqrt([(2 / 3) * 0.25, (1 / 3) * 0.75])
        np.testing.assert_allclose(upd.pmf, raw / raw.sum(), atol=1e-15)
        np.testing.assert_allclose(
            upd.pmf, [0.449489742783178, 0.550510257216822], atol=1e-12)

    def test_uniform_complement_matches_simplex_grid_minimizer(self):
        t = DiscreteTarget(TABLE)
        u = DiscreteFactor([0.5, 0.5])
        upd = t.tilt([u, u], 0)[0]
        q_star, _ = minimize_block_kl(TABLE, 0, [u.pmf, u.pmf])
        assert 0.5 * np.abs(upd.pmf - q_star).sum() <= 1e-6

    def test_idempotent_at_fixed_point(self):
        rng = np.random.default_rng(13)
        t = DiscreteTarget(random_table(rng, (3, 4)))
        factors = [DiscreteFactor(np.full(3, 1 / 3)), DiscreteFactor(np.full(4, 1 / 4))]
        for _ in range(200):
            factors = [t.tilt(factors, 0)[0], factors[1]]
            factors = [factors[0], t.tilt(factors, 1)[0]]
        once = [t.tilt(factors, i)[0].pmf for i in range(2)]
        factors2 = [DiscreteFactor(once[0]), DiscreteFactor(once[1])]
        twice = [t.tilt(factors2, i)[0].pmf for i in range(2)]
        for a, b in zip(once, twice):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_zero_conditional_with_positive_mass_rejected(self):
        t = DiscreteTarget([[0.5, 0.0], [0.25, 0.25]])
        u = DiscreteFactor([0.5, 0.5])
        with pytest.raises(ModelError, match="zero conditional"):
            t.tilt([u, u], 0)[0]

    def test_the_tilt_at_a_point_mass_complement_is_the_full_conditional(self):
        # Gibbs draws from the coordinate tilt of a complement known exactly
        rng = np.random.default_rng(16)
        for _ in range(200):
            sizes = tuple(rng.integers(2, 5, size=rng.integers(2, 4)))
            t = DiscreteTarget(random_table(rng, sizes))
            state = [int(rng.integers(n)) for n in sizes]
            factors = [DiscreteFactor(np.eye(n)[s]) for n, s in zip(sizes, state)]
            for i in range(len(sizes)):
                q, log_z = t.tilt(factors, i)
                conditional = t.full_conditional(i, np.delete(state, i))
                assert np.max(np.abs(q.pmf - conditional.pmf)) <= 1e-15
                assert abs(log_z) <= 1e-15

    def test_random_tables_match_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            sizes = tuple(rng.integers(2, 7, size=2))
            table = random_table(rng, sizes)
            t = DiscreteTarget(table)
            factors = [DiscreteFactor(rng.dirichlet(np.ones(n))) for n in sizes]
            for i in range(2):
                upd = t.tilt(factors, i)[0]
                q_star, best = minimize_block_kl(table, i, [f.pmf for f in factors])
                assert 0.5 * np.abs(upd.pmf - q_star).sum() <= 1e-6
                # the update can only do at least as well as the grid search
                assert product_kl_vs_table(upd.pmf, i, [f.pmf for f in factors],
                                           table) <= best + 1e-12


class TestSquashingInequalityAtFixedPoint:
    def test_entrywise_on_random_tables(self):
        from duality_bench import CaviConfig, run_cavi, squash_pointwise_check

        rng = np.random.default_rng(19)
        for _ in range(5):
            sizes = tuple(rng.integers(2, 5, size=2))
            t = DiscreteTarget(random_table(rng, sizes))
            state = run_cavi(t, CaviConfig(max_cycles=500, tolerance=1e-13))
            assert state.converged
            for i in range(2):
                assert squash_pointwise_check(t, state, i) >= -1e-12
