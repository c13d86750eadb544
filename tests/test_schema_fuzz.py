"""The config schema fuzzed one field at a time: every command either reaches
its work or exits 2 naming a field, before any chain, CAVI run or output file;
and tiny real runs end in a documented exit code, never in a traceback."""

import contextlib
import copy
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import duality_bench.cli as cli

COMMANDS = ["run-gibbs", "run-cavi", "diagnose", "verify-duality"]
BASE = {
    "config_version": 1,
    "gibbs": {"n_cycles": 200, "burn_in": 20, "seed": 3, "init": "default"},
    "cavi": {"max_cycles": 20, "tolerance": 1e-10, "init": "default", "path": "auto"},
    "diagnostics": {"grid_points": 101, "f_candidates": 2, "concavity_mixtures": 2,
                    "duality_trials": 2, "suite_seed": 1, "info_method": "auto"},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}
MODELS = {
    "gaussian": {"family": "gaussian", "mean": [0.0, 0.0],
                 "covariance": [[1.0, 0.5], [0.5, 1.0]], "block_dims": [1, 1]},
    "discrete": {"family": "discrete", "support_sizes": [2, 2],
                 "joint_pmf": [0.4, 0.1, 0.2, 0.3]},
}
# values of the wrong JSON type, and numbers at and past the edges
SMALL = [None, True, "x", [], {}, 0, -1, 1, 0.5]
HUGE = [2**63, 2**64, 1e300]
# values of the right type that a run may still reject, by field; a grid run
# tabulates 4097^2 cells, so only the runs that stop before the work take it
LARGE = {"cavi.path": ["grid"]}
NAMED = {
    "model.family": ["discrete", "gaussian"],
    "model.support_sizes": [[1, 4], [4, 1]],
    "model.joint_pmf": [[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]],
    "gibbs.init": ["uniform", "standard_normal", [0.0, 2.0], [0.0, 0.0, 0.0]],
    "cavi.init": ["uniform", "standard_normal", "marginals"],
    "diagnostics.info_method": ["quadrature", "closed_form"],
    "diagnostics.state_file": ["cfg.json", "missing.json"],
    "output.directory": ["cfg.json"],   # an existing file
    "output.formats": [["csv"], ["xml"]],
}
FIELD = re.compile(r"config error: ([a-z_]+)[a-z_.\[\]0-9]*: ")


def _paths(value, prefix=""):
    """Every section, field and list entry of a config, as dotted paths."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        yield path
        yield from _paths(child, path)


def _get(config, path):
    for key in path.split("."):
        config = config[int(key)] if isinstance(config, list) else config.get(key)
    return config


def _set(config, path, value):
    *parents, last = path.split(".")
    for key in parents:
        config = config[int(key)] if isinstance(config, list) else config[key]
    config[int(last) if isinstance(config, list) else last] = value


@st.composite
def mutations(draw, large: bool):
    """(config, mutated path): one field of a valid base config replaced; with
    ``large``, also by values whose run would be large."""
    config = {**copy.deepcopy(BASE), "model": copy.deepcopy(MODELS[draw(st.sampled_from(
        sorted(MODELS)))])}
    path = draw(st.sampled_from(sorted({*_paths(config), "diagnostics.state_file"})))
    current = _get(config, path)
    values = [*SMALL, *NAMED.get(path, [])]
    if large:
        values += [*HUGE, *LARGE.get(path, [])]
    if isinstance(current, list) and current:
        values += [current[:-1], current + current[-1:]]   # one entry short, one over
    _set(config, path, draw(st.sampled_from(values)))
    return config, path


@contextlib.contextmanager
def _run_dir(config):
    """A fresh working directory holding ``cfg.json``; stderr is captured and
    warnings are errors."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        mp.chdir(tmp)
        Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
        yield mp, err


class Reached(Exception):
    """A command got past its preflight to its work."""


def _reached(*args):
    raise Reached


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(case=mutations(large=True))
def test_each_command_reaches_its_work_or_exits_2_naming_a_field(case):
    config, path = case
    with _run_dir(config) as (mp, err):
        for name in ("run_chains", "run_cavi", "duality_suite"):
            mp.setattr(cli, name, _reached)
        for command in COMMANDS:
            err.seek(0)
            err.truncate()
            try:
                code = cli.main([command, "--config", "cfg.json"])
            except Reached:
                continue
            named = FIELD.match(err.getvalue())
            assert code == 2 and named, (command, path, err.getvalue())
            assert named.group(1) == path.split(".")[0], (command, path, err.getvalue())
            assert [f for f in Path().rglob("*") if f.is_file()] == [Path("cfg.json")]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=mutations(large=False))
def test_tiny_runs_end_in_a_documented_exit_code(case):
    config, path = case
    with _run_dir(config) as (_, err):
        for command in COMMANDS:
            err.seek(0)
            err.truncate()
            code = cli.main([command, "--config", "cfg.json"])
            prefix = {2: "config error: ", 3: "runtime error: "}.get(code, "")
            assert code in (0, 1, 2, 3), (command, path, err.getvalue())
            assert err.getvalue().startswith(prefix), (command, path, err.getvalue())
