import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pastaopt
from pastaopt import FitOptions, InstanceConfig, ParamSpace, PastaOptions, SweepConfig
from pastaopt.cli import _build_parser, main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = run_cli(
        "generate",
        "--n-items", "6", "--card", "2", "--dim", "2",
        "--n", "40", "--p", "0.7", "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_both_files(self, generated):
        assert (generated / "instance.json").exists()
        assert (generated / "dataset.csv").exists()
        obj = json.loads((generated / "instance.json").read_text())
        assert obj["n_items"] == 6
        lines = (generated / "dataset.csv").read_text().splitlines()
        assert len(lines) == 41

    def test_missing_seed_is_validation_error(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--n-items", "6", "--card", "2", "--dim", "2",
            "--n", "10", "--p", "0.5", "--out", str(tmp_path),
        )
        assert code == 1

    def test_bad_value_is_validation_error(self, tmp_path):
        code = run_cli(
            "generate", "--n-items", "6", "--card", "9", "--dim", "2",
            "--n", "10", "--p", "0.5", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 1

    def test_single_assortment_design_is_validation_error(self, tmp_path):
        # a separate process with a timeout, so a design that re-draws its
        # only assortment forever fails the test instead of hanging it
        env = {**os.environ, "PYTHONPATH": str(Path(pastaopt.__file__).parents[1])}
        done = subprocess.run(
            [
                sys.executable, "-m", "pastaopt.cli", "generate",
                "--n-items", "1", "--card", "1", "--dim", "2",
                "--n", "5", "--p", "0.5", "--seed", "1", "--out", str(tmp_path / "out"),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        assert done.returncode == 1
        assert "at least 2 nonempty assortments" in done.stderr
        assert not (tmp_path / "out").exists()


class TestFitAndSolve:
    def test_fit_reports_convergence(self, generated, tmp_path, capsys):
        out = tmp_path / "theta.json"
        code = run_cli(
            "fit",
            "--instance", str(generated / "instance.json"),
            "--data", str(generated / "dataset.csv"),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["theta"]) == 2
        assert payload["nll"] > 0

    def test_solve_both_methods(self, generated, tmp_path):
        for method in ("pasta", "baseline"):
            out = tmp_path / f"{method}.json"
            code = run_cli(
                "solve", "--method", method,
                "--instance", str(generated / "instance.json"),
                "--data", str(generated / "dataset.csv"),
                "--T", "3",
                "--out", str(out),
            )
            assert code == 0
            payload = json.loads(out.read_text())
            assert payload["method"] == method
            assert payload["regret"] >= 0.0
            assert 0.0 <= payload["accuracy"] <= 1.0

    def test_pasta_trace_emitted(self, generated, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "solve", "--method", "pasta",
            "--instance", str(generated / "instance.json"),
            "--data", str(generated / "dataset.csv"),
            "--T", "2",
            "--trace", str(trace),
        )
        assert code == 0
        assert trace.read_text().splitlines()[0] == "iter,assortment,theta,worst_value"

    def test_missing_file_is_validation_error(self, tmp_path):
        code = run_cli(
            "solve", "--method", "pasta",
            "--instance", str(tmp_path / "nope.json"),
            "--data", str(tmp_path / "nope.csv"),
        )
        assert code == 1

    def test_dataset_row_with_wrong_field_count_is_validation_error(
        self, generated, tmp_path, capsys
    ):
        lines = (generated / "dataset.csv").read_text().splitlines()
        for bad_row in ("1,1;2,1", "1,1;2,1,0.5,extra"):
            bad = tmp_path / "bad.csv"
            bad.write_text("\n".join(lines[:3] + [bad_row] + lines[4:]) + "\n")
            code = run_cli(
                "fit", "--instance", str(generated / "instance.json"), "--data", str(bad),
                "--out", str(tmp_path / "theta.json"),
            )
            assert code == 1
            assert "line 4 has" in capsys.readouterr().err

    def test_malformed_instance_json_is_validation_error(self, generated, tmp_path, capsys):
        obj = json.loads((generated / "instance.json").read_text())
        no_features = {k: v for k, v in obj.items() if k != "features"}
        unknown_config = dict(obj, config=dict(obj["config"], colour="blue"))
        for broken, key in ((no_features, "features"), (unknown_config, "colour")):
            bad = tmp_path / "instance.json"
            bad.write_text(json.dumps(broken))
            code = run_cli(
                "fit", "--instance", str(bad), "--data", str(generated / "dataset.csv"),
                "--out", str(tmp_path / "theta.json"),
            )
            assert code == 1
            assert key in capsys.readouterr().err


class TestSweepAndPlot:
    def test_sweep_then_plot(self, tmp_path):
        results = tmp_path / "results.csv"
        code = run_cli(
            "sweep", "--sweep", "n", "--values", "20,30",
            "--n-items", "6", "--card", "2", "--dim", "2", "--p", "0.7",
            "--reps", "1", "--seed", "3", "--T", "2",
            "--out", str(results),
        )
        assert code == 0
        lines = results.read_text().splitlines()
        assert lines[0] == "sweep_var,sweep_value,rep,method,regret,accuracy,wall_time_ms"
        assert len(lines) == 5

        svg = tmp_path / "plot.svg"
        assert run_cli("plot", "--metric", "regret", "--input", str(results), "--out", str(svg)) == 0
        assert svg.read_text().startswith('<?xml version="1.0"')

    def test_plot_rejects_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,results,file\n1,2,3,4\n")
        assert run_cli("plot", "--metric", "regret", "--input", str(bad), "--out", str(tmp_path / "x.svg")) == 1

    def test_plot_rejects_row_with_wrong_field_count(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text(
            "sweep_var,sweep_value,rep,method,regret,accuracy,wall_time_ms\n"
            "n,20,0,pasta,0.1,0.5,1.0\n"
            "n,20,0,baseline,0.1\n"
        )
        code = run_cli("plot", "--metric", "regret", "--input", str(bad), "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert "line 3 has 5 fields" in capsys.readouterr().err


class TestDiag:
    def test_diag_passes(self, capsys):
        assert run_cli("diag", "--trials", "25", "--seed", "11") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out


class TestUsage:
    def test_unknown_command_is_validation_error(self):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag_is_validation_error(self):
        assert run_cli("diag", "--bogus") == 1

    def test_defaults_come_from_the_library(self):
        parse = _build_parser().parse_args
        instance = InstanceConfig(n_items=1, k=1, dim=1, seed=0)
        fit, space, pasta = FitOptions(), ParamSpace(dim=1), PastaOptions()
        sweep = SweepConfig(sweep_variable="n", values=(1,), master_seed=0)

        gen = parse(
            ["generate", "--n-items", "6", "--card", "2", "--dim", "2",
             "--n", "10", "--p", "0.5", "--seed", "1"]
        )
        assert (gen.tau, gen.theta_mode) == (instance.tau, instance.theta_star_mode)

        fit_args = parse(["fit", "--instance", "i.json", "--data", "d.csv"])
        assert (fit_args.theta_max, fit_args.grad_tol, fit_args.max_iters) == (
            space.theta_max, fit.grad_tol, fit.max_iters
        )

        solve = parse(["solve", "--method", "pasta", "--instance", "i.json", "--data", "d.csv"])
        assert (solve.alpha_mode, solve.T, solve.theta_max) == (
            pasta.alpha_mode, pasta.max_outer_iters, space.theta_max
        )

        sw = parse(["sweep", "--sweep", "n", "--values", "10", "--seed", "1", "--out", "r.csv"])
        assert (sw.n_items, sw.card, sw.dim, sw.n, sw.p, sw.reps) == (
            sweep.n_items, sweep.k, sweep.dim, sweep.n, sweep.p, sweep.replications
        )
        assert (sw.alpha_mode, sw.T) == (sweep.pasta.alpha_mode, sweep.pasta.max_outer_iters)

    def test_help_exits_cleanly(self, capsys):
        assert run_cli("--help") == 0
        assert "generate" in capsys.readouterr().out
