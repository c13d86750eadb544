"""The numpy-only runtime: the package imports without scipy, sets OpenBLAS's
worker wait before numpy loads, and its log-sum-exp and Gaussian solves agree
with scipy's wherever scipy is installed."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duality_bench.gaussian import GaussianFactor
from duality_bench.quadrature import logsumexp

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_scipy():
    probe = ("import sys; import duality_bench.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("user_value, expected", [(None, "4"), ("20", "20")])
def test_blas_worker_timeout_defaults_before_numpy_loads(user_value, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    probe = ("import os; import duality_bench; "
             "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**env, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == expected


def _vectors(rng, count):
    """Seeded vectors with repeated maxima, -inf, +inf and all -inf entries."""
    for k in range(count):
        n = int(rng.integers(1, 50))
        a = rng.normal(0.0, [1.0, 30.0, 800.0][k % 3], n)
        if k % 4 == 0:
            a[rng.integers(n, size=3)] = a.max()
        if k % 5 == 0:
            a[rng.integers(n)] = -np.inf
        if k % 37 == 0:
            a[rng.integers(n)] = np.inf
        if k % 53 == 0:
            a[:] = -np.inf
        yield a


def test_logsumexp_equals_scipy_bitwise():
    special = pytest.importorskip("scipy.special")
    for a in _vectors(np.random.default_rng(8), 3000):
        ours, ref = logsumexp(a), float(special.logsumexp(a))
        assert ours == ref or (np.isnan(ours) and np.isnan(ref)), a


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gaussian_log_density_matches_scipy_solve_triangular(d):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(d)
    for _ in range(20):
        a = rng.normal(size=(d, d))
        cov = a @ a.T / d + 0.5 * np.eye(d)
        factor = GaussianFactor(rng.normal(size=d), cov)
        pts = factor.sample(rng, 500)
        chol = linalg.cholesky(cov, lower=True)
        z = linalg.solve_triangular(chol, (pts - factor.mean).T, lower=True)
        ref = -0.5 * (d * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(chol)))
                      + np.sum(z * z, axis=0))
        err = np.abs(factor.log_density(pts) - ref)
        assert np.all(err <= 4e-15 * np.maximum(1.0, np.abs(ref)))
