"""The engines reach a target only through the TargetModel contract: a
wrapper that forwards the contract, and nothing else, gives the same CAVI
state and the same report as the target it wraps, and one that forwards only
the abstract members still gets its chain and its grid-path state. The
report and the CAVI run reach each stage through its public function, and
both families' contract members agree on their values and their errors."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from duality_bench import (
    CaviConfig,
    DiscreteTarget,
    GaussianFactor,
    GaussianTarget,
    GibbsConfig,
    GridFactor,
    ModelError,
    TargetModel,
    build_report,
    cavi_update,
    make_decomposition,
    run_cavi,
    run_chain,
)
from duality_bench import cavi, diagnostics
from duality_bench.cavi import initial_factors, state_to_jsonable

from oracles import random_table

CONTRACT = [name for name in vars(TargetModel) if not name.startswith("_")]


def _forward(name):
    if isinstance(inspect.getattr_static(TargetModel, name), property):
        return property(lambda self: getattr(self.inner, name))
    return lambda self, *args, **kwargs: getattr(self.inner, name)(*args, **kwargs)


def _wrapper(name, members):
    # Not a subclass of either family, so any dispatch on the model's class misses it.
    return type(name, (TargetModel,), {
        "__init__": lambda self, inner: setattr(self, "inner", inner),
        **{member: _forward(member) for member in members},
    })


Forwarding = _wrapper("Forwarding", CONTRACT)
# No closed form: the contract's defaults raise ModelError for the rest.
AbstractOnly = _wrapper("AbstractOnly", TargetModel.__abstractmethods__)


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


def test_abstract_members_alone_serve_gibbs_and_the_grid_path():
    model = gaussian_2()
    bare = AbstractOnly(model)
    gibbs = GibbsConfig(n_cycles=2000, burn_in=200, seed=0)
    assert run_chain(bare, gibbs).samples.tobytes() == run_chain(model, gibbs).samples.tobytes()
    grid = CaviConfig(max_cycles=20, tolerance=1e-10, path="grid")
    assert ([f.to_jsonable() for f in initial_factors(bare, grid)]
            == [f.to_jsonable() for f in initial_factors(model, grid)])
    g = np.linspace(-8.0, 8.0, 257)
    tables = [GridFactor(g, np.exp(-0.5 * g**2)) for _ in range(2)]
    # the dense table and the Gaussian's quadratic-form terms round apart
    state, own = run_cavi(bare, grid, tables), run_cavi(model, grid, tables)
    assert state.cycles == own.cycles
    assert len(state.objective_history) == len(own.objective_history) == 1 + 2 * state.cycles
    np.testing.assert_allclose(state.objective_history, own.objective_history, rtol=0, atol=1e-12)
    for got, want in zip(state.factors, own.factors):
        assert got.grid.tobytes() == want.grid.tobytes()
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
    with pytest.raises(ModelError, match="no closed form"):
        run_cavi(bare, CaviConfig())


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
    the Factor contract, not by isinstance on a factor class. cavi.py names no
    family at all, and reads no member of the model outside the contract: a
    family's structure reaches the grid path only through its terms."""
    tree = ast.parse((SOURCE / engine).read_text())
    families = {"GaussianTarget", "DiscreteTarget"}
    if engine == "cavi.py":
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
        assert not {n for n in names if n and re.search("gaussian|discrete", n, re.I)} - {
            "is_discrete"}, "cavi.py names a family"
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "model"}
        assert read <= set(CONTRACT), f"cavi.py reads {read - set(CONTRACT)} of the model"
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


# The names bench/tracer.py wraps to time the report's stages and count updates.
REPORT_STAGES = ["info_monte_carlo", "information_equality_check", "squashing_constant",
                 "squash_pointwise_check", "kl_lower_bound"]


def test_report_and_cavi_run_call_the_public_stage_functions(monkeypatch):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in REPORT_STAGES:
        count(diagnostics, name)
    count(cavi, "cavi_update")
    model = discrete()
    k = model.decomposition.n_blocks
    state = run_cavi(model, CaviConfig(max_cycles=200, tolerance=1e-10))
    assert calls == {"cavi_update": k * state.cycles}
    trace = run_chain(model, GibbsConfig(n_cycles=2000, burn_in=200, seed=0))
    calls.clear()
    build_report(model, trace, state)
    # squash_pointwise_check takes its own R through squashing_constant
    assert calls == {"info_monte_carlo": k, "information_equality_check": k,
                     "squashing_constant": 2 * k, "squash_pointwise_check": k,
                     "kl_lower_bound": k}


def gaussian_vector_block():
    cov = [[1.0, 0.3, -0.2], [0.3, 1.2, 0.4], [-0.2, 0.4, 0.9]]
    return GaussianTarget([0.5, -1.0, 0.2], cov, make_decomposition([1, 2]))


def zero_cells_2():
    return DiscreteTarget([[0.5, 0.0], [0.2, 0.3]])


def zero_cells_3():
    # no mass where block 0 is 2, nor where blocks 1 and 2 are both 1
    table = np.zeros((3, 2, 2))
    table[:2] = random_table(np.random.default_rng(7), (2, 2, 2))
    table[:, 1, 1] = 0.0
    return DiscreteTarget(table / table.sum())


def _rows(model):
    """Every cell of a table; 40 standard normal points for a Gaussian."""
    if model.is_discrete:
        shape = model.support_sizes
        return np.indices(shape).reshape(len(shape), -1).T.astype(float)
    return np.random.default_rng(3).standard_normal((40, model.decomposition.total_dim))


@pytest.mark.parametrize("make_model", [gaussian_2, gaussian_vector_block, gaussian_3,
                                        zero_cells_2, zero_cells_3])
def test_log_densities_are_the_joint_and_both_marginals_bit_for_bit(make_model):
    model = make_model()
    dec = model.decomposition
    samples = _rows(model)
    for i in range(dec.n_blocks):
        joint, block, complement = model.log_densities(i, samples)
        comp = samples[:, dec.complement_indices(i)]
        if model.is_discrete:   # the complement marginal is flat in C order
            comp = np.ravel_multi_index(comp.astype(int).T, np.delete(model.support_sizes, i))
        expected = (model.log_density(samples),
                    model.marginal(i).log_density(samples[:, dec.block_slice(i)]),
                    model.complement_marginal(i).log_density(comp.reshape(len(samples), -1)))
        for got, want in zip((joint, block, complement), expected):
            assert got.shape == (len(samples),)
            assert got.tobytes() == np.asarray(want).tobytes()
        for got, one in zip((joint, block, complement), model.log_densities(i, samples[:1])):
            assert got[:1].tobytes() == one.tobytes()
    if model.is_discrete:
        assert np.isneginf(model.log_densities(0, samples)[0]).any()


@pytest.mark.parametrize("row", [[0.0, 2.0], [-1.0, 0.0], [0.5, 1.0]])
def test_log_densities_name_a_bad_table_row(row):
    samples = np.array([[0.0, 0.0], row, [1.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape(str(row))):
        zero_cells_2().log_densities(0, samples)


@pytest.mark.parametrize("make_model", [gaussian_2, zero_cells_2])
def test_product_kl_checks_the_block_index_and_the_factor_count(make_model):
    model = make_model()
    factors = model.initial_factors("default")
    assert np.isfinite(model.product_kl(factors, 1))
    for i in (2, 5, -1):
        with pytest.raises(IndexError):
            model.product_kl(factors, i)
    for wrong in (factors[:1], [*factors, factors[0]]):
        with pytest.raises(ValueError, match="need one factor per block"):
            model.product_kl(wrong)


def gaussian_1_1_2():
    return GaussianTarget([0.1, -0.3, 0.2, 0.0], np.eye(4) + 0.2, make_decomposition([1, 1, 2]))


@pytest.mark.parametrize("make_model", [gaussian_1_1_2, zero_cells_3])
def test_the_closed_form_update_checks_its_factors_as_product_kl_does(make_model):
    """A wrong factor count, or the factors rotated by one block (dims [1, 2, 1]
    on blocks [1, 1, 2], whose other blocks' means still add up to each
    complement's length), raises product_kl's ValueError for every block."""
    model = make_model()
    factors = model.initial_factors("default")
    for wrong in (factors[:-1], [*factors, factors[0]], [*factors[1:], factors[0]]):
        for i in range(len(factors)):
            with pytest.raises(ValueError) as expected:
                model.product_kl(wrong, i)
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                cavi_update(model, wrong, i)


def test_gaussian_product_kl_checks_each_factor_against_its_block():
    cov = [[2.0, 0.5, 0.3], [0.5, 1.5, 0.2], [0.3, 0.2, 1.0]]
    model = GaussianTarget([0.0, 0.0, 0.0], cov, make_decomposition([1, 2]))
    aligned = [GaussianFactor([0.1], [[1.5]]), GaussianFactor([0.2, -0.1], np.eye(2))]
    assert np.isfinite(model.product_kl(aligned))
    swapped = [GaussianFactor([0.2, -0.1], np.eye(2)), GaussianFactor([0.1], [[1.5]])]
    for i in (None, 0, 1):
        with pytest.raises(ValueError, match="block 0 has dimension 1, its factor 2"):
            model.product_kl(swapped, i)
