"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest bench/test_oracles.py -q

The oracles are checked against brute-force sums and quadrature written
here, and the output checks must pass outputs built from the exact values
and reject tampered ones (the negative controls).
"""

import csv
import itertools
import json

import numpy as np
import pytest

import oracles
import workloads

COV = workloads.GAUSSIAN_MODEL["covariance"]
RHO = 0.5


def _grid(sd, n=4001):
    return np.linspace(-10 * sd, 10 * sd, n)


def _trapezoid(values, grid):
    return float(np.sum((values[1:] + values[:-1]) * np.diff(grid)) / 2)


def _normal_pdf(x, var):
    return np.exp(-x * x / (2 * var)) / np.sqrt(2 * np.pi * var)


# --- Gaussian closed forms ---------------------------------------------------


def test_fixed_point_is_where_the_cavi_recursion_stops():
    mean = np.array([0.3, -1.2])
    cov = np.array(COV)
    lam = np.linalg.inv(cov)
    m = np.zeros(2)
    for _ in range(200):  # CAVI mean updates: m_i = mu_i - (Lam_ic / Lam_ii)(m_c - mu_c)
        for i, c in ((0, 1), (1, 0)):
            m[i] = mean[i] - lam[i, c] / lam[i, i] * (m[c] - mean[c])
    exact = oracles.gaussian_cavi_fixed_point(mean, cov, [1, 1])
    for i in range(2):
        assert exact[i][0][0] == pytest.approx(m[i], abs=1e-14)
        assert exact[i][1][0, 0] == pytest.approx(1 / lam[i, i], rel=1e-14)


def test_mean_field_kl_matches_the_gaussian_kl_formula():
    cov = np.array(COV)
    q = np.diag([v[1][0, 0] for v in oracles.gaussian_cavi_fixed_point([0, 0], cov, [1, 1])])
    inv = np.linalg.inv(cov)
    kl = 0.5 * (np.trace(inv @ q) - 2 + np.log(np.linalg.det(cov) / np.linalg.det(q)))
    assert oracles.gaussian_mean_field_kl(cov, [1, 1]) == pytest.approx(kl, abs=1e-14)


def test_mutual_information_and_squashing_constant_by_quadrature():
    cov = np.array(COV)
    assert oracles.bivariate_correlation(cov) == pytest.approx(RHO)
    g1, g2 = _grid(1.0, 1201), _grid(2.0, 1201)
    x, y = np.meshgrid(g1, g2, indexing="ij")
    pts = np.stack([x, y], axis=-1)
    inv = np.linalg.inv(cov)
    joint = np.exp(-0.5 * np.einsum("...i,ij,...j->...", pts, inv, pts)) / (
        2 * np.pi * np.sqrt(np.linalg.det(cov)))
    log_ratio = np.log(joint) - np.log(np.outer(_normal_pdf(g1, 1.0), _normal_pdf(g2, 4.0)))
    inner = [_trapezoid(row, g2) for row in joint * log_ratio]
    assert _trapezoid(np.array(inner), g1) == pytest.approx(
        oracles.bivariate_mutual_information(cov), abs=1e-8)
    # R for block 1: integrate exp E_q2[log p(x | theta_2)] over x, q2 = N(0, 1/Lam_22),
    # and divide by exp KL(q2 || p(theta_2)).
    v2 = 1 / inv[1, 1]
    cond_var = 1 / inv[0, 0]
    b = cov[0, 1] / cov[1, 1]
    expected = -0.5 * np.log(2 * np.pi * cond_var) - (g1**2 + b * b * v2) / (2 * cond_var)
    kl2 = 0.5 * (v2 / cov[1, 1] - 1 - np.log(v2 / cov[1, 1]))
    assert _trapezoid(np.exp(expected), g1) / np.exp(kl2) == pytest.approx(
        oracles.bivariate_squashing_constant(cov), abs=1e-10)
    assert oracles.bivariate_squashing_constant(cov) == pytest.approx(np.sqrt(1 - RHO**2))


def test_trapezoid_moments_of_a_tabulated_normal():
    g = _grid(1.5)
    mean, var = oracles.trapezoid_moments(g, _normal_pdf(g - 0.25, 2.25))
    assert mean == pytest.approx(0.25, abs=1e-10)
    assert var == pytest.approx(2.25, rel=1e-8)


# --- discrete enumeration ----------------------------------------------------


def _table(seed=0, shape=(3, 4, 2)):
    cells = np.random.default_rng(seed).gamma(2.0, size=shape)
    return cells / cells.sum()


def test_information_by_cell_loops():
    table = _table()
    for i in range(3):
        marg_i = {}
        marg_c = {}
        for idx in itertools.product(*map(range, table.shape)):
            comp = idx[:i] + idx[i + 1:]
            marg_i[idx[i]] = marg_i.get(idx[i], 0.0) + table[idx]
            marg_c[comp] = marg_c.get(comp, 0.0) + table[idx]
        mi = sum(table[idx] * np.log(table[idx] / (marg_i[idx[i]] * marg_c[idx[:i] + idx[i + 1:]]))
                 for idx in itertools.product(*map(range, table.shape)))
        h_c = -sum(p * np.log(p) for p in marg_c.values())
        info = oracles.discrete_block_information(table, i)
        assert info["mutual_information"] == pytest.approx(mi, abs=1e-13)
        assert info["complement_entropy"] == pytest.approx(h_c, abs=1e-13)
        assert info["conditional_entropy"] == pytest.approx(h_c - mi, abs=1e-13)
        assert oracles.discrete_marginal(table, i) == pytest.approx(
            [marg_i[k] for k in range(table.shape[i])])


def test_cavi_reaches_a_fixed_point_and_is_exact_on_independent_tables():
    table = _table(1)
    factors = oracles.discrete_cavi(table)
    assert oracles.discrete_fixed_point_residual(table, factors) < 1e-13
    # the update by brute force: q_0(x) ∝ exp sum_c q_1(c1) q_2(c2) log p(x, c1, c2)
    e = [sum(factors[1][a] * factors[2][b] * np.log(table[x, a, b])
             for a in range(4) for b in range(2)) for x in range(3)]
    q = np.exp(np.array(e) - max(e))
    assert factors[0] == pytest.approx(q / q.sum(), abs=1e-12)

    marginals = [np.array([0.2, 0.8]), np.array([0.5, 0.3, 0.2])]
    independent = np.multiply.outer(*marginals)
    factors = oracles.discrete_cavi(independent)
    for i in range(2):
        assert factors[i] == pytest.approx(marginals[i], abs=1e-14)
        assert oracles.discrete_squashing_constant(independent, factors, i) == pytest.approx(1.0)
        assert oracles.discrete_factor_kl_to_marginal(independent, factors, i) == pytest.approx(
            0.0, abs=1e-14)
        assert oracles.discrete_block_information(independent, i)["mutual_information"] == (
            pytest.approx(0.0, abs=1e-14))


def test_squashing_constant_is_in_the_unit_interval():
    table = _table(2)
    factors = oracles.discrete_cavi(table)
    for i in range(3):
        assert 0.0 < oracles.discrete_squashing_constant(table, factors, i) <= 1.0


# --- chain statistics ----------------------------------------------------------


def test_ess_of_white_noise_and_of_an_ar1_chain():
    rng = np.random.default_rng(0)
    n = 200_000
    assert oracles.effective_sample_size(rng.standard_normal(n)) == pytest.approx(n, rel=0.05)
    x = np.empty(n)
    x[0] = 0.0
    noise = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = 0.5 * x[t - 1] + noise[t]
    assert oracles.effective_sample_size(x) == pytest.approx(n / 3, rel=0.05)


def test_batch_means_se_of_white_noise():
    values = np.random.default_rng(1).standard_normal(64_000)
    assert oracles.batch_means_se(values) == pytest.approx(1 / np.sqrt(64_000), rel=0.3)


# --- output checks and negative controls ---------------------------------------


def _exact_state(inflate=1.0):
    factors = [{"type": "gaussian", "mean": m.tolist(), "covariance": (c * inflate).tolist()}
               for m, c in oracles.gaussian_cavi_fixed_point([0, 0], COV, [1, 1])]
    kl = oracles.gaussian_mean_field_kl(COV, [1, 1])
    return {"converged": True, "objective_history": [0.3, kl + 1e-3, kl], "factors": factors}


def test_state_check_accepts_the_fixed_point_and_rejects_an_inflated_variance():
    assert workloads.check_gaussian_state(_exact_state(), workloads.GAUSSIAN_MODEL, False) == []
    problems = workloads.check_gaussian_state(_exact_state(1.5), workloads.GAUSSIAN_MODEL, False)
    assert any("variance" in p for p in problems)


def test_grid_state_check_rejects_a_shifted_factor():
    exact = oracles.gaussian_cavi_fixed_point([0, 0], COV, [1, 1])
    grids = [_grid(np.sqrt(c[0, 0])) for _, c in exact]
    state = _exact_state()
    state["factors"] = [{"type": "grid", "grid": g.tolist(),
                         "values": _normal_pdf(g, c[0, 0]).tolist()}
                        for g, (_, c) in zip(grids, exact)]
    assert workloads.check_gaussian_state(state, workloads.GAUSSIAN_MODEL, True) == []
    state["factors"][1]["values"] = _normal_pdf(grids[1] - 0.01, exact[1][1][0, 0]).tolist()
    assert workloads.check_gaussian_state(state, workloads.GAUSSIAN_MODEL, True) != []


def _exact_report(truths, se=0.01):
    blocks = []
    for truth in truths:
        block = {key: value for key, (value, _) in truth.items()}
        for mc_key, (exact_key, check) in workloads.MC_CHECKS.items():
            block[mc_key], block[mc_key + "_se"] = truth[exact_key][0], se
        block["checks"] = {check: True for _, check in workloads.MC_CHECKS.values()}
        block["checks"]["squash_pointwise"] = True
        blocks.append(block)
    gibbs = {"n_cycles": 100, "burn_in": 10, "seed": 7}
    report = {"gibbs": {"retained": 90, "seed": 7}, "cavi": {"converged": True},
              "blocks": blocks, "passed": True, "failures": []}
    return report, gibbs


def test_report_check_and_its_negative_controls():
    truths = workloads._gaussian_report_truths(workloads.GAUSSIAN_MODEL)
    report, gibbs = _exact_report(truths)
    assert workloads.check_report(report, truths, gibbs) == ([], 0)

    tampered = json.loads(json.dumps(report))
    tampered["blocks"][0]["squashing_constant"] *= 1.01
    assert workloads.check_report(tampered, truths, gibbs)[0] != []

    # an estimate 4 SE off that the program still calls within 3 SE
    tampered = json.loads(json.dumps(report))
    tampered["blocks"][1]["mi_mc"] += 0.04
    assert any("disagrees" in p for p in workloads.check_report(tampered, truths, gibbs)[0])

    # a real 3-SE miss, flagged and listed, is a correct report with exit code 1
    tampered["blocks"][1]["checks"]["mi_mc_within_3se"] = False
    tampered["failures"], tampered["passed"] = ["block2.mi_mc_within_3se"], False
    assert workloads.check_report(tampered, truths, gibbs) == ([], 1)

    # a failed check that is not a Monte Carlo test is never accepted
    tampered = json.loads(json.dumps(report))
    tampered["blocks"][0]["checks"]["squash_pointwise"] = False
    tampered["failures"], tampered["passed"] = ["block1.squash_pointwise"], False
    assert workloads.check_report(tampered, truths, gibbs)[0] != []


def test_discrete_report_check_rejects_a_perturbed_entropy(tmp_path):
    table = _table(3, (4, 4, 4))
    factors = oracles.discrete_cavi(table)
    truths = []
    for i in range(3):
        truth = {k: (v, workloads.VALUE_TOL)
                 for k, v in oracles.discrete_block_information(table, i).items()}
        truth["squashing_constant"] = (
            oracles.discrete_squashing_constant(table, factors, i), workloads.FIXED_POINT_TOL)
        truths.append(truth)
    report, gibbs = _exact_report(truths)
    assert workloads.check_report(report, truths, gibbs) == ([], 0)
    report["blocks"][2]["complement_entropy"] += 1e-6
    assert workloads.check_report(report, truths, gibbs)[0] != []


def _write_gaps(path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "gap", "at_optimum_flag"])
        writer.writerows(rows)


def test_duality_gap_check_rejects_negative_gaps_and_loose_tilts(tmp_path):
    path = tmp_path / "duality_gaps.csv"
    good = [row for t in range(3) for row in ([t, 0.5, 0], [t, 1e-12, 1])]
    _write_gaps(path, good)
    assert workloads.check_duality_gaps(path, 3) == []
    _write_gaps(path, [[0, -1e-9, 0], [0, 0.0, 1]] + good[2:])
    assert workloads.check_duality_gaps(path, 3) != []
    _write_gaps(path, [[0, 0.5, 0], [0, 1e-6, 1]] + good[2:])
    assert workloads.check_duality_gaps(path, 3) != []


def test_trace_check_rejects_short_and_shifted_traces(tmp_path):
    gibbs = {"n_cycles": 6_400, "burn_in": 0, "seed": 0}
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((6_400, 2))
    path = tmp_path / "trace.csv"

    def write(rows):
        cycles = np.arange(1, rows.shape[0] + 1)[:, None]
        np.savetxt(path, np.hstack([cycles, rows]), delimiter=",",
                   header="cycle,block1_dim1,block2_dim1", comments="")

    write(samples)
    assert workloads.check_trace(path, gibbs, [0.0, 0.0])[0] == []
    write(samples[:-1])
    assert workloads.check_trace(path, gibbs, [0.0, 0.0])[0] != []
    write(samples + [0.0, 0.2])
    assert workloads.check_trace(path, gibbs, [0.0, 0.0])[0] != []
