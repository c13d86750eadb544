"""JSON run configuration: schema checks and typed section builders.

The file format is versioned (``config_version: 1``) and documented in the
README. Validation errors carry the dotted field path so the CLI can report
exactly which field is missing or malformed (exit code 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from duality_bench.cavi import CaviConfig
from duality_bench.core import make_decomposition
from duality_bench.diagnostics import ReportOptions
from duality_bench.discrete import DiscreteTarget
from duality_bench.errors import ConfigError, ModelError
from duality_bench.gaussian import GaussianTarget
from duality_bench.gibbs import MAX_SEED, GibbsConfig

__all__ = ["RunConfig", "DiagnosticsSettings", "load_config"]

CONFIG_VERSION = 1


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_number_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_as_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _as_section(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


@dataclass(frozen=True)
class DiagnosticsSettings:
    """The ``diagnostics`` section: the report's options (``grid_points`` in
    the file is ``report.squash_grid_points``), the size of verify-duality's
    suite, and a stored CAVI state that diagnose uses instead of running CAVI."""

    report: ReportOptions = ReportOptions()
    duality_trials: int = 100
    state_file: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration file; sections are None when absent."""

    model_section: dict
    gibbs_section: dict | None
    cavi_section: dict | None
    diagnostics: DiagnosticsSettings
    output_directory: str | None
    output_formats: tuple[str, ...]

    def build_model(self):
        section = self.model_section
        family = _require(section, "family", "model")
        if family == "gaussian":
            mean = _as_number_list(_require(section, "mean", "model"), "model.mean")
            cov_raw = _require(section, "covariance", "model")
            if not isinstance(cov_raw, list):
                raise ConfigError("model.covariance: expected a list of rows")
            cov = [_as_number_list(row, f"model.covariance[{k}]")
                   for k, row in enumerate(cov_raw)]
            dims = _require(section, "block_dims", "model")
            dims = [_as_int(d, f"model.block_dims[{k}]") for k, d in enumerate(dims)]
            try:
                return GaussianTarget(np.asarray(mean), np.asarray(cov),
                                      make_decomposition(dims))
            except (ValueError, ModelError) as exc:
                raise ConfigError(f"model: {exc}") from exc
        if family == "discrete":
            sizes = _require(section, "support_sizes", "model")
            sizes = [_as_int(n, f"model.support_sizes[{k}]") for k, n in enumerate(sizes)]
            flat = _as_number_list(_require(section, "joint_pmf", "model"),
                                   "model.joint_pmf")
            expected = int(np.prod(sizes))
            if len(flat) != expected:
                raise ConfigError(
                    f"model.joint_pmf: expected {expected} entries for "
                    f"support sizes {sizes}, got {len(flat)}"
                )
            try:
                return DiscreteTarget(np.asarray(flat), support_sizes=sizes)
            except (ValueError, ModelError) as exc:
                raise ConfigError(f"model: {exc}") from exc
        raise ConfigError(f"model.family: unknown family {family!r}")

    def gibbs_config(self, seed_override: int | None = None) -> GibbsConfig:
        section = self.gibbs_section
        if section is None:
            raise ConfigError("gibbs: missing required section")
        n_cycles = _as_int(_require(section, "n_cycles", "gibbs"), "gibbs.n_cycles")
        burn_in = section.get("burn_in")
        if burn_in is not None:
            burn_in = _as_int(burn_in, "gibbs.burn_in")
        seed = _as_int(section.get("seed", 0), "gibbs.seed")
        if seed_override is not None:
            seed = seed_override
        if not 0 <= seed < MAX_SEED:
            raise ConfigError("gibbs.seed: must be a 64-bit unsigned integer")
        init = section.get("init", "default")
        if isinstance(init, list):
            init = np.asarray(_as_number_list(init, "gibbs.init"))
        elif not isinstance(init, str):
            raise ConfigError("gibbs.init: expected a vector or a strategy name")
        try:
            return GibbsConfig(n_cycles=n_cycles, burn_in=burn_in, seed=seed, init=init)
        except ValueError as exc:
            raise ConfigError(f"gibbs: {exc}") from exc

    def cavi_config(self) -> CaviConfig:
        section = self.cavi_section
        if section is None:
            raise ConfigError("cavi: missing required section")
        max_cycles = _as_int(section.get("max_cycles", 200), "cavi.max_cycles")
        tolerance = _as_number(section.get("tolerance", 1e-10), "cavi.tolerance")
        init = section.get("init", "default")
        path = section.get("path", "auto")
        try:
            return CaviConfig(max_cycles=max_cycles, tolerance=tolerance,
                              init=init, path=path)
        except ValueError as exc:
            raise ConfigError(f"cavi: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises ConfigError naming the field."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = _as_int(_require(raw, "config_version", "config"), "config_version")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config_version: expected {CONFIG_VERSION}, got {version}"
        )
    model_section = _as_section(_require(raw, "model", "config"), "model")
    gibbs_section = _as_section(raw["gibbs"], "gibbs") if "gibbs" in raw else None
    cavi_section = _as_section(raw["cavi"], "cavi") if "cavi" in raw else None

    diag_raw = _as_section(raw.get("diagnostics", {}), "diagnostics")
    defaults = DiagnosticsSettings()

    def count(key: str, default: int, minimum: int) -> int:
        value = _as_int(diag_raw.get(key, default), f"diagnostics.{key}")
        if value < minimum:
            raise ConfigError(f"diagnostics.{key}: must be at least {minimum}")
        return value

    grid_points = count("grid_points", defaults.report.squash_grid_points, 2)
    trials = count("duality_trials", defaults.duality_trials, 1)
    # the report takes a max or min over each suite: an empty one is +-inf
    f_candidates = count("f_candidates", defaults.report.f_candidates, 1)
    mixtures = count("concavity_mixtures", defaults.report.concavity_mixtures, 1)
    suite_seed = _as_int(diag_raw.get("suite_seed", defaults.report.suite_seed),
                         "diagnostics.suite_seed")
    if not 0 <= suite_seed < MAX_SEED:
        raise ConfigError("diagnostics.suite_seed: must be a 64-bit unsigned integer")
    info_method = diag_raw.get("info_method", defaults.report.info_method)
    if info_method not in ("auto", "quadrature", "closed_form"):
        raise ConfigError(f"diagnostics.info_method: unknown method {info_method!r}")
    state_file = diag_raw.get("state_file")
    if state_file is not None and not isinstance(state_file, str):
        raise ConfigError("diagnostics.state_file: expected a path string")
    diagnostics = DiagnosticsSettings(
        report=ReportOptions(suite_seed=suite_seed, f_candidates=f_candidates,
                             concavity_mixtures=mixtures, squash_grid_points=grid_points,
                             info_method=info_method),
        duality_trials=trials,
        state_file=state_file,
    )

    out_raw = _as_section(raw.get("output", {}), "output")
    directory = out_raw.get("directory")
    if directory is not None and not isinstance(directory, str):
        raise ConfigError("output.directory: expected a path string")
    formats = out_raw.get("formats", ["json", "csv"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("json", "csv") for f in formats)):
        raise ConfigError('output.formats: expected a non-empty subset of ["json", "csv"]')

    return RunConfig(
        model_section=model_section,
        gibbs_section=gibbs_section,
        cavi_section=cavi_section,
        diagnostics=diagnostics,
        output_directory=directory,
        output_formats=tuple(formats),
    )
