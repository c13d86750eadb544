"""The engines reach a target only through the TargetModel contract: a
wrapper that forwards the contract, and nothing else, gives the same CAVI
state and the same report as the target it wraps."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from duality_bench import (
    CaviConfig,
    DiscreteTarget,
    GaussianTarget,
    GibbsConfig,
    TargetModel,
    build_report,
    make_decomposition,
    run_cavi,
    run_chain,
)
from duality_bench.cavi import state_to_jsonable

from oracles import random_table

CONTRACT = [name for name in vars(TargetModel) if not name.startswith("_")]


def _forward(name):
    if isinstance(inspect.getattr_static(TargetModel, name), property):
        return property(lambda self: getattr(self.inner, name))
    return lambda self, *args, **kwargs: getattr(self.inner, name)(*args, **kwargs)


# Not a subclass of either family, so any dispatch on the model's class misses it.
Forwarding = type("Forwarding", (TargetModel,), {
    "__init__": lambda self, inner: setattr(self, "inner", inner),
    **{name: _forward(name) for name in CONTRACT},
})


def discrete():
    return DiscreteTarget(random_table(np.random.default_rng(5), (3, 4, 2)))


def gaussian_2():
    return GaussianTarget([0.3, -0.2], [[1.0, 0.5], [0.5, 2.0]], make_decomposition([1, 1]))


def gaussian_3():
    cov = [[1.0, 0.4, 0.1], [0.4, 1.5, -0.3], [0.1, -0.3, 0.8]]
    return GaussianTarget([0.1, 0.0, -0.4], cov, make_decomposition([1, 1, 1]))


@pytest.mark.parametrize("make_model", [discrete, gaussian_2, gaussian_3])
def test_engines_give_identical_results_through_the_contract(make_model):
    model = make_model()
    wrapped = Forwarding(model)
    assert not isinstance(wrapped, (DiscreteTarget, GaussianTarget))
    config = CaviConfig(max_cycles=200, tolerance=1e-10)
    state = run_cavi(model, config)
    trace = run_chain(model, GibbsConfig(n_cycles=2000, burn_in=200, seed=0))
    assert (build_report(wrapped, trace, state).to_jsonable()
            == build_report(model, trace, state).to_jsonable())
    assert state_to_jsonable(run_cavi(wrapped, config)) == state_to_jsonable(state)
    assert run_chain(wrapped, GibbsConfig(n_cycles=2000, burn_in=200, seed=0)).samples.tobytes() \
        == trace.samples.tobytes()


ENGINES = ["gibbs.py", "cavi.py", "diagnostics.py"]
SOURCE = Path(__file__).resolve().parents[1] / "src" / "duality_bench"


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_never_name_a_family(engine):
    """No engine names a target class or reads a private attribute of the model;
    gibbs.py imports neither family module."""
    tree = ast.parse((SOURCE / engine).read_text())
    families = {"GaussianTarget", "DiscreteTarget"}
    for node in ast.walk(tree):
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None))
        assert families.isdisjoint(named), f"{engine}:{node.lineno} names a target family"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "model" and node.attr.startswith("_")), \
                f"{engine}:{node.lineno} reads model.{node.attr}"
        if engine == "gibbs.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert not any(m.split(".")[-1] in ("gaussian", "discrete") for m in modules), \
                f"gibbs.py:{node.lineno} imports a family module"
