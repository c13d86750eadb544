"""Block Gibbs sampling, coordinate-ascent mean-field inference, and
duality-formula diagnostics over decomposed parameter spaces."""

import os

# numpy's OpenBLAS workers busy-wait (about 0.1 s on a 2-core x86_64 machine)
# after the library loads and after each threaded call before they sleep. The package's BLAS calls are small or few, so the wait only burns
# CPU: let the workers sleep at once. It has to be set before numpy loads; a
# value the user has set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from duality_bench.cavi import (
    CaviConfig,
    MeanFieldState,
    cavi_update,
    kl_objective,
    run_cavi,
)
from duality_bench.core import (
    BlockDecomposition,
    TargetModel,
    make_decomposition,
)
from duality_bench.diagnostics import (
    BlockDiagnostics,
    DiagnosticsReport,
    DualityProblem,
    InfoEquality,
    KlBound,
    ReportOptions,
    build_report,
    concavity_probe,
    duality_gap,
    duality_suite,
    information_equality_check,
    kl_lower_bound,
    make_continuous_duality_problem,
    make_discrete_duality_problem,
    squash_pointwise_check,
    squashing_constant,
)
from duality_bench.discrete import DiscreteFactor, DiscreteTarget
from duality_bench.errors import (
    ConfigError,
    DualityBenchError,
    ModelError,
    SupportError,
    ZeroMassError,
)
from duality_bench.gaussian import GaussianFactor, GaussianTarget
from duality_bench.gibbs import (
    ChainTrace,
    Estimate,
    GibbsConfig,
    estimate,
    gibbs_cycle,
    kernel_log_density,
    make_rng,
    pooled_trace,
    run_chain,
    run_chains,
)
from duality_bench.quadrature import Factor, GridFactor

__version__ = "0.1.5"
