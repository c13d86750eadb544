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
FACTORS = {"GaussianFactor", "DiscreteFactor", "GridFactor"}
# the grid objective is the CAVI engine's own quadrature over its own GridFactor
ALLOWED_FACTOR_TESTS = {("cavi.py", "kl_objective", "GridFactor")}


def _factor_isinstance_sites(tree) -> list[tuple[str | None, str]]:
    """(enclosing function, factor class) of each isinstance test on a factor class."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {getattr(n, "id", None) for n in ast.walk(node.args[1])}
            sites.extend((scope, name) for name in sorted(named & FACTORS))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return sites


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_never_name_a_family(engine):
    """No engine names a target class or reads a private attribute of the model;
    gibbs.py and cavi.py import neither family module, diagnostics.py imports no
    private name from one, and cavi.py and diagnostics.py reach factors through
    the Factor contract, not by isinstance on a factor class."""
    tree = ast.parse((SOURCE / engine).read_text())
    families = {"GaussianTarget", "DiscreteTarget"}
    for node in ast.walk(tree):
        named = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None))
        assert families.isdisjoint(named), f"{engine}:{node.lineno} names a target family"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "model" and node.attr.startswith("_")), \
                f"{engine}:{node.lineno} reads model.{node.attr}"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if not any(m.split(".")[-1] in ("gaussian", "discrete") for m in modules):
                continue
            assert engine == "diagnostics.py", f"{engine}:{node.lineno} imports a family module"
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"{engine}:{node.lineno} imports {private} from a family module"
    sites = [(engine, scope, name) for scope, name in _factor_isinstance_sites(tree)]
    assert set(sites) <= ALLOWED_FACTOR_TESTS and len(sites) == len(set(sites)), \
        f"isinstance on a factor class: {sites}"
