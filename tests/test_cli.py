"""CLI contract: subcommands, exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from duality_bench.cli import main
from duality_bench.serialize import dumps_json

SRC = Path(__file__).resolve().parents[1] / "src"

DEFAULT_MODEL = {
    "family": "gaussian",
    "mean": [0.0, 0.0],
    "covariance": [[1.0, 0.5], [0.5, 1.0]],
    "block_dims": [1, 1],
}


def write_config(path, **overrides):
    cfg = {
        "config_version": 1,
        "model": DEFAULT_MODEL,
        "gibbs": {"n_cycles": 2000, "burn_in": 200, "seed": 3},
        "cavi": {"max_cycles": 100, "tolerance": 1e-10},
        "diagnostics": {"suite_seed": 1, "duality_trials": 25},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path.write_text(dumps_json(cfg) + "\n", encoding="utf-8")
    return path


DIAGNOSE_GIBBS = {"n_cycles": 30_000, "burn_in": 1000, "seed": 0}
GRID_TABLE = {"family": "discrete", "support_sizes": [3, 2],
              "joint_pmf": [0.1, 0.2, 0.15, 0.05, 0.3, 0.2]}
GRID_FACTOR = {"type": "grid", "grid": [-1.0, 0.0, 1.0], "values": [0.5, 1.0, 0.5]}
GAUSSIAN_FACTOR = {"type": "gaussian", "mean": [0.0], "covariance": [[1.0]]}
VECTOR_BLOCK_MODEL = {"family": "gaussian", "mean": [0.0, 0.0, 0.0],
                      "covariance": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]],
                      "block_dims": [1, 2]}
TABLE_2X2 = {"family": "discrete", "support_sizes": [2, 2], "joint_pmf": [0.4, 0.1, 0.2, 0.3]}
THREE_BLOCK_MODEL = {"family": "gaussian", "mean": [0.0, 0.0, 0.0],
                     "covariance": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]],
                     "block_dims": [1, 1, 1]}
# the report's schema: its CSV columns, and the key order of its JSON options and blocks
REPORT_CSV_HEADER = (
    "block,duality_gap,functional_at_conditional,log_complement_marginal,"
    "attainment_abs_error,f_suite_max_excess,f_suite_min_distant_gap,concavity_min_slack,"
    "mutual_information,complement_entropy,conditional_entropy,information_residual,"
    "symmetric_information_residual,mi_mc,mi_mc_se,complement_entropy_mc,"
    "complement_entropy_mc_se,conditional_entropy_mc,conditional_entropy_mc_se,"
    "squashing_constant,min_squash_slack,kl_factor_to_marginal,kl_lower_bound_raw,"
    "kl_lower_bound,passed")
REPORT_OPTION_KEYS = ["suite_seed", "f_candidates", "concavity_mixtures",
                      "squash_grid_points", "info_method"]
REPORT_BLOCK_KEYS = [
    "block", "duality_gap", "functional_at_conditional", "log_complement_marginal",
    "attainment_abs_error", "f_suite_max_excess", "f_suite_min_distant_gap",
    "concavity_min_slack", "mutual_information", "complement_entropy",
    "conditional_entropy", "information_residual", "symmetric_information_residual",
    "info_method", "mi_mc", "mi_mc_se", "complement_entropy_mc", "complement_entropy_mc_se",
    "conditional_entropy_mc", "conditional_entropy_mc_se", "squashing_constant",
    "min_squash_slack", "kl_factor_to_marginal", "kl_lower_bound_raw", "kl_lower_bound",
    "checks"]


def test_artifact_version_matches_project_version():
    tomllib = pytest.importorskip("tomllib")
    from duality_bench import __version__

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


class TestRunGibbs:
    def test_trace_row_count_and_header(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "cycle,block1_dim1,block2_dim1"
        assert len(lines) == 1 + 2000 - 200
        assert lines[1].startswith("201,")
        estimates = json.loads((out / "estimates.json").read_text())
        names = [e["name"] for e in estimates["estimands"]]
        assert "mean_dim1" in names and "cross_moment_dim1_dim2" in names

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "estimates.json").read_bytes() == (out2 / "estimates.json").read_bytes()

    def test_vector_block_trace_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the Gaussian scan's products must not follow BLAS's split of the rows
        cfg = write_config(tmp_path / "cfg.json", model=VECTOR_BLOCK_MODEL,
                           gibbs={"n_cycles": 50_000, "burn_in": 1000, "seed": 3})
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "duality_bench.cli", "run-gibbs",
                            "--config", str(cfg), "--out", str(out)], check=True, env=env)
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_missing_covariance_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           model={"family": "gaussian", "mean": [0.0, 0.0],
                                  "block_dims": [1, 1]})
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "covariance" in capsys.readouterr().err

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run-gibbs", "--config", str(cfg), "--out", str(out1)])
        main(["run-gibbs", "--config", str(cfg), "--out", str(out2), "--seed", "4"])
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_parallel_chains_write_per_chain_traces(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(out),
                     "--parallel-chains", "2"]) == 0
        assert (out / "trace_chain1.csv").exists()
        assert (out / "trace_chain2.csv").exists()
        estimates = json.loads((out / "estimates.json").read_text())
        assert estimates["n_chains"] == 2
        assert estimates["seeds"] == [3, 4]
        assert estimates["n_samples"] == 2 * 1800
        # chain 1 equals a plain run with the base seed
        solo = tmp_path / "solo"
        main(["run-gibbs", "--config", str(cfg), "--out", str(solo)])
        assert ((out / "trace_chain1.csv").read_bytes()
                == (solo / "trace.csv").read_bytes())

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setenv("DUALITY_BENCH_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run-gibbs", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_zero_mass_runtime_error_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "discrete", "support_sizes": [2, 2],
                   "joint_pmf": [0.5, 0.0, 0.5, 0.0]},
            gibbs={"n_cycles": 10, "burn_in": 0, "seed": 0, "init": [0.0, 1.0]},
        )
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "zero probability mass" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_start_on_a_table_with_zero_cells_exits_0(self, tmp_path, seed):
        # at seeds 3 and 5 the first start leaves block 0 nothing to condition
        # on, so it is redrawn
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "discrete", "support_sizes": [2, 2],
                   "joint_pmf": [1.0, 0.0, 0.0, 0.0]},
            gibbs={"n_cycles": 10, "burn_in": 0, "seed": seed, "init": "uniform"},
        )
        out = tmp_path / "out"
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert rows == [f"{c},0,0" for c in range(1, 11)]

    def test_short_chain_on_a_constant_coordinate_writes_nulls(self, tmp_path):
        # dim 1 never leaves 0, so its correlation is undefined, and 20 kept
        # samples are too few for a batch-means standard error
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "discrete", "support_sizes": [2, 2],
                   "joint_pmf": [0.5, 0.5, 0.0, 0.0]},
            gibbs={"n_cycles": 20, "burn_in": 0, "seed": 0, "init": [0, 0]},
        )
        out = tmp_path / "out"
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(out)]) == 0
        estimates = json.loads((out / "estimates.json").read_text())
        assert estimates["sample_correlations"] == [
            {"name": "sample_correlation_dim1_dim2", "value": None}]
        assert [e["standard_error"] for e in estimates["estimands"]] == [None] * 5
        assert '"standard_error": null' in (out / "estimates.json").read_text()


class TestRunCavi:
    def test_converged_state_file(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run-cavi", "--config", str(cfg), "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["converged"] is True
        assert state["factors"][0]["covariance"][0][0] == pytest.approx(0.75, abs=1e-9)
        assert all(np.diff(state["objective_history"]) <= 1e-10)

    def test_non_convergence_is_a_result_not_a_failure(self, tmp_path):
        # one cycle from the marginal init cannot settle at rho=0.9
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "gaussian", "mean": [0.0, 0.0],
                   "covariance": [[1.0, 0.9], [0.9, 1.0]], "block_dims": [1, 1]},
            cavi={"max_cycles": 1, "tolerance": 1e-14},
        )
        out = tmp_path / "out"
        assert main(["run-cavi", "--config", str(cfg), "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["converged"] is False

    def test_nonpositive_tolerance_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           cavi={"max_cycles": 10, "tolerance": 0.0})
        assert main(["run-cavi", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_grid_path_on_discrete_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", model=GRID_TABLE,
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "path": "grid"})
        out = tmp_path / "out"
        assert main(["run-cavi", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cavi.path" in capsys.readouterr().err
        assert not (out / "state.json").exists()

    def test_grid_path_on_vector_block_exits_2(self, tmp_path, capsys, monkeypatch):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_cavi", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", model=VECTOR_BLOCK_MODEL,
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "path": "grid"})
        out = tmp_path / "out"
        assert main(["run-cavi", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cavi.path" in capsys.readouterr().err
        assert calls == []
        assert not (out / "state.json").exists()

    @pytest.mark.parametrize("init", ["marginals", "uniform"])
    def test_grid_path_without_the_initializer_exits_2(self, tmp_path, capsys, monkeypatch,
                                                       init):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_cavi", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json",
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "path": "grid",
                                 "init": init})
        out = tmp_path / "out"
        assert main(["run-cavi", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cavi.init" in capsys.readouterr().err
        assert calls == []
        assert not (out / "state.json").exists()

    def test_grid_state_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # two 4097-node blocks; the contraction's sums must not follow BLAS's split
        cfg = write_config(tmp_path / "cfg.json",
                           model={**DEFAULT_MODEL, "covariance": [[1.0, 1.0], [1.0, 4.0]]},
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "path": "grid"})
        states = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "duality_bench.cli", "run-cavi",
                            "--config", str(cfg), "--out", str(out)], check=True, env=env)
            states.append((out / "state.json").read_bytes())
        assert states[0] == states[1]


class TestDiagnose:
    def test_gaussian_pipeline_exits_0(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["failures"] == []
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + one row per block
        assert csv_lines[0] == REPORT_CSV_HEADER
        assert list(report["options"]) == REPORT_OPTION_KEYS
        assert [list(block) for block in report["blocks"]] == [REPORT_BLOCK_KEYS] * 2

    def test_discrete_pipeline_exits_0(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "discrete", "support_sizes": [2, 2],
                   "joint_pmf": [0.4, 0.1, 0.2, 0.3]},
            gibbs=DIAGNOSE_GIBBS,
        )
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for block in report["blocks"]:
            assert block["information_residual"] <= 1e-12

    def test_short_chain_reports_null_standard_errors(self, tmp_path, capsys):
        # 40 kept samples are too few for a batch-means standard error, so
        # every Monte Carlo check fails
        cfg = write_config(tmp_path / "cfg.json", model=TABLE_2X2,
                           gibbs={"n_cycles": 40, "burn_in": 0, "seed": 0})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 1
        assert "mc_within_3se" in capsys.readouterr().err
        se_keys = [k for k in REPORT_BLOCK_KEYS if k.endswith("_mc_se")]
        report = json.loads((out / "report.json").read_text())
        assert [[block[k] for k in se_keys] for block in report["blocks"]] == [[None] * 3] * 2
        header, *rows = (out / "report.csv").read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            cells = row.split(",")
            assert [cells[columns.index(k)] for k in se_keys] == [""] * 3

    def test_vector_block_exits_2_before_the_chain(self, tmp_path, capsys, monkeypatch):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS,
                           model=VECTOR_BLOCK_MODEL)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert "model.block_dims" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    def test_grid_path_on_discrete_model_exits_2_before_the_chain(self, tmp_path, capsys,
                                                                   monkeypatch):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS, model=GRID_TABLE,
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "path": "grid"})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cavi.path" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("stored", [
        None,                                   # missing file
        {"factors": [GRID_FACTOR, GRID_FACTOR]},  # grid factors on a Gaussian model
        {"factors": [GRID_FACTOR]},             # one factor for two blocks
        {"factors": [1.0, [0.5, 0.5]]},         # entries that are not factor objects
        {"model": {"family": "discrete", "support_sizes": [2, 2],   # mass on zero cells
                   "joint_pmf": [0.5, 0.0, 0.0, 0.5]},
         "factors": [{"type": "discrete", "pmf": [0.0, 1.0]},
                     {"type": "discrete", "pmf": [1.0, 0.0]}]},
        {"factors": [GAUSSIAN_FACTOR, {**GAUSSIAN_FACTOR, "covariance": [[float("nan")]]}]},
        {"factors": [GAUSSIAN_FACTOR, {**GAUSSIAN_FACTOR, "covariance": [[float("inf")]]}]},
    ])
    def test_unusable_state_file_exits_2_before_the_chain(self, tmp_path, capsys,
                                                          monkeypatch, stored):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        state_file = tmp_path / "state.json"
        if stored is not None:
            state_file.write_text(json.dumps(stored))
        # a state.json echoes its model; without the echo, the default Gaussian
        model = {"model": stored["model"]} if stored and "model" in stored else {}
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS, **model,
                           diagnostics={"suite_seed": 1, "state_file": str(state_file)})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert "diagnostics.state_file" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    def test_grid_path_on_gaussian_model_exits_2_before_the_chain(self, tmp_path, capsys,
                                                                   monkeypatch):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "run_cavi", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS,
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "path": "grid"})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cavi.path" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("model, init", [
        (None, "uniform"),                      # the default Gaussian
        ({"family": "discrete", "support_sizes": [2, 2],
          "joint_pmf": [0.4, 0.1, 0.2, 0.3]}, "standard_normal"),
    ])
    def test_unusable_initializer_exits_2_before_the_chain(self, tmp_path, capsys,
                                                           monkeypatch, model, init):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "run_cavi", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS,
                           **({"model": model} if model else {}),
                           cavi={"max_cycles": 10, "tolerance": 1e-10, "init": init})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cavi.init" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    def test_info_method_the_model_lacks_exits_2_before_the_chain(self, tmp_path, capsys,
                                                                   monkeypatch):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS,
                           model={**VECTOR_BLOCK_MODEL, "block_dims": [1, 1, 1]},
                           diagnostics={"suite_seed": 1, "info_method": "quadrature"})
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert "diagnostics.info_method" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    def test_corrupted_state_file_exits_1_with_squash_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS)
        out = tmp_path / "cavi"
        assert main(["run-cavi", "--config", str(cfg), "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        state["factors"][0]["covariance"] = [[2.0]]
        corrupted = tmp_path / "corrupted_state.json"
        corrupted.write_text(json.dumps(state))
        cfg2 = write_config(
            tmp_path / "cfg2.json", gibbs=DIAGNOSE_GIBBS,
            diagnostics={"suite_seed": 1, "state_file": str(corrupted)},
        )
        out2 = tmp_path / "out2"
        assert main(["diagnose", "--config", str(cfg2), "--out", str(out2)]) == 1
        report = json.loads((out2 / "report.json").read_text())
        assert report["passed"] is False
        assert any("squash_pointwise" in f for f in report["failures"])
        assert "squash" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", gibbs=DIAGNOSE_GIBBS)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["diagnose", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


class TestVerifyDuality:
    def test_default_suite_exits_0(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["verify-duality", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "duality_gaps.csv").read_text().splitlines()
        assert lines[0] == "trial,gap,at_optimum_flag"
        assert len(lines) == 1 + 2 * 25

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           diagnostics={"duality_trials": 0})
        assert main(["verify-duality", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "duality_trials" in capsys.readouterr().err

    def test_fixed_seed_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify-duality", "--config", str(cfg), "--out", str(out1)])
        main(["verify-duality", "--config", str(cfg), "--out", str(out2)])
        assert ((out1 / "duality_gaps.csv").read_bytes()
                == (out2 / "duality_gaps.csv").read_bytes())

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "gaussian", "mean": [0.0, 0.0],
                   "covariance": [[1.0, 2.0], [2.0, 1.0]], "block_dims": [1, 1]},
        )
        out = tmp_path / "out"
        assert main(["verify-duality", "--config", str(cfg), "--out", str(out)]) == 2
        assert "covariance eigenvalues" in capsys.readouterr().err
        assert not (out / "duality_gaps.csv").exists()

    def test_discrete_family(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "discrete", "support_sizes": [2, 2],
                   "joint_pmf": [0.4, 0.1, 0.2, 0.3]},
        )
        assert main(["verify-duality", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0


class TestConfigValidation:
    def test_bad_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run-gibbs", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_wrong_version_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", config_version=2)
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config_version" in capsys.readouterr().err

    def test_pmf_shape_mismatch_names_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "discrete", "support_sizes": [2, 2],
                   "joint_pmf": [0.5, 0.5]},
        )
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "joint_pmf" in capsys.readouterr().err

    def test_non_spd_covariance_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"family": "gaussian", "mean": [0.0, 0.0],
                   "covariance": [[1.0, 2.0], [2.0, 1.0]], "block_dims": [1, 1]},
        )
        assert main(["run-gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-gibbs", "diagnose"])
    @pytest.mark.parametrize("model, init", [
        (None, "unifrom"),                  # no such strategy
        (None, "uniform"),                  # a discrete strategy on the default Gaussian
        (TABLE_2X2, "standard_normal"),     # a continuous strategy on a table
        (None, [0.0, 0.0, 0.0]),            # three entries for two coordinates
        (TABLE_2X2, [0.0, 2.0]),            # off the 2x2 support
    ])
    def test_unusable_gibbs_init_exits_2_before_the_chain(self, tmp_path, capsys, monkeypatch,
                                                          command, model, init):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", **({"model": model} if model else {}),
                           gibbs={**DIAGNOSE_GIBBS, "init": init})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "gibbs.init" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command, overrides, code, named", [
        # each count is a min or max over a suite: an empty one is +-inf
        ("diagnose", {"diagnostics": {"f_candidates": 0}}, 2, "diagnostics.f_candidates"),
        ("diagnose", {"diagnostics": {"concavity_mixtures": -1}}, 2,
         "diagnostics.concavity_mixtures"),
        # no candidate on a one-point support is distant from the conditional
        ("diagnose", {"model": {**TABLE_2X2, "support_sizes": [1, 4]}}, 2,
         "model: support sizes"),
        # the +-8 sd grid of coordinate 1 is one repeated float
        ("run-gibbs", {"model": {**DEFAULT_MODEL, "mean": [1e308, 0.0]}}, 2,
         "model: coordinate 1"),
        ("diagnose", {"model": {**DEFAULT_MODEL, "mean": [1e308, 0.0]}}, 2,
         "model: coordinate 1"),
        # far outside the support, named as given
        ("run-gibbs", {"model": TABLE_2X2, "gibbs": {**DIAGNOSE_GIBBS, "init": [1e300, 0.0]}},
         2, "gibbs.init: state [1e+300, 0.0]"),
        ("diagnose", {"model": TABLE_2X2, "gibbs": {**DIAGNOSE_GIBBS, "init": [1e300, 0.0]}},
         2, "gibbs.init: state [1e+300, 0.0]"),
        # a table has one route, exact summation
        ("diagnose", {"model": TABLE_2X2, "diagnostics": {"info_method": "quadrature"}}, 2,
         "diagnostics.info_method"),
        # CAVI cannot serve these tables, and runs before the chain
        ("diagnose", {"model": {**TABLE_2X2, "joint_pmf": [1.0, 0.0, 0.0, 0.0]}}, 3,
         "runtime error: block 0"),
        ("diagnose", {"model": {**TABLE_2X2, "joint_pmf": [0.5, 0.0, 0.0, 0.5]}}, 3,
         "runtime error: block 0"),
        # three 4097-node grids make a log-joint table over the grid path's bound
        ("run-cavi", {"model": THREE_BLOCK_MODEL, "cavi": {"path": "grid"}}, 2,
         "cavi.path: grid path table of 4097 x 4097 x 4097 nodes"),
    ], ids=["f_candidates-0", "concavity_mixtures-neg", "support-size-1", "mean-1e308-gibbs",
            "mean-1e308-diagnose", "init-1e300-gibbs", "init-1e300-diagnose",
            "table-quadrature", "zero-cells-1000", "zero-cells-diagonal", "grid-three-blocks"])
    def test_schema_accepted_input_fails_before_the_chain(self, tmp_path, capsys, monkeypatch,
                                                          command, overrides, code, named):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"   # pytest turns any warning into an error
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        assert named in capsys.readouterr().err
        assert calls == []
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["run-gibbs", "diagnose"])
    @pytest.mark.parametrize("field, value", [
        ("mean", [float("nan"), 0.0]),
        ("covariance", [[float("inf"), 0.5], [0.5, 1.0]]),
    ])
    def test_non_finite_model_exits_2_before_the_chain(self, tmp_path, capsys, monkeypatch,
                                                        command, field, value):
        import duality_bench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_chains", lambda *args: calls.append(args))
        cfg = tmp_path / "cfg.json"
        config = json.loads(write_config(cfg).read_text())
        config["model"][field] = value
        cfg.write_text(json.dumps(config))   # json writes NaN and Infinity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"model: {field} must not contain infs or NaNs" in capsys.readouterr().err
        assert calls == []
