import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isalib.cli
from isalib.cli import (
    EXIT_COLLAPSED,
    EXIT_ERROR,
    EXIT_MAX_ITERATIONS,
    EXIT_OK,
    RunConfig,
    build_isa_config,
    build_target,
    main,
)
from isalib.diagnostics import iact_ensemble
from isalib.ensemble import WeightedEnsemble, read_ensemble_csv, write_ensemble_csv
from isalib.errors import ConfigError
from isalib.init import McmcChain, stretch_move_run
from isalib.optimize import OptSettings
from isalib.targets import GaussianTarget, Toy2DTarget

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def toy_run_config(tmp_path, **overrides):
    data = {
        "target": "toy2d",
        "init": {"mcmc": {"walkers": 4, "steps": 5, "keep": 20}},
        "isa": {"family": "gaussian", "samples": 5000, "max_iterations": 5},
        "seed": 2001,
        "workers": 1,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return data


def write_bad_weight_csv(tmp_path, weight):
    """An ensemble CSV whose third row (line 4) has the given weight."""
    rows = [("0.25", 1.0, 2.0), ("0.25", 3.0, 1.0), (weight, 2.0, 2.0),
            ("0.25", 4.0, 5.0), ("0.25", 2.5, 3.5)]
    path = tmp_path / "bad_weight.csv"
    path.write_text(
        "weight,theta_0,theta_1\n" + "".join(f"{w},{a},{b}\n" for w, a, b in rows)
    )
    return path


def assert_one_line_error(err, where):
    assert err.startswith("error:") and where in err
    assert err.count("\n") == 1 and "Traceback" not in err


REGRESSION = {
    "n_theta": 3,
    "n_z": 8,
    "noise_sd": 0.1,
    "prior_mean": [0.0, 0.0, 0.0],
    "prior_sd": [3.0, 3.0, 3.0],
    "theta_ref": [1.0, -0.5, 0.8],
    "data_seed": 11,
}
MCMC_A_X = {"init": {"mcmc": {"walkers": 4, "steps": 5, "keep": 20, "a": "x"}}}
GMM_CONFIDENCE_X = {"init": {"gmm": {"n_starts": 2, "confidence": "x"}}}


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"target": "toy2d", "init": {}, "isa": {}, "bogus": 1})

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"target": "banana", "init": {"file": "x"}, "isa": {}})

    def test_exactly_one_init_strategy(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(
                {
                    "target": "toy2d",
                    "init": {"mcmc": {"walkers": 4, "steps": 1, "keep": 1}, "file": "x"},
                    "isa": {},
                }
            )
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"target": "toy2d", "init": {}, "isa": {}})

    def test_walker_floor(self, tmp_path, capsys):
        # stretch_move_run, not the config reader, checks the walker count
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 3, "steps": 1, "keep": 1}})
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "at least 4 walkers")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", CONFIGS, ids=[path.stem for path in CONFIGS])
    def test_shipped_config_loads(self, path):
        # every key of a shipped config reaches the call that takes it; no
        # algorithm runs
        raw = json.loads(path.read_text())
        config = RunConfig.load(path)
        assert build_target(config).dimension >= 2
        isa = build_isa_config(config)
        assert isa.seed == raw["seed"]
        for key, value in raw["isa"].items():
            assert getattr(isa, "samples_per_iteration" if key == "samples" else key) == value
        opt = OptSettings(**config.opt)
        assert all(getattr(opt, key) == value for key, value in raw.get("opt", {}).items())
        assert config.init == raw["init"]

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.load(str(path))

    @pytest.mark.parametrize(
        "command, overrides, where",
        [
            ("run", MCMC_A_X, "init.mcmc"),
            ("mcmc-baseline", MCMC_A_X, "init.mcmc"),
            ("run", GMM_CONFIDENCE_X, "init.gmm"),
            ("init-gmm", GMM_CONFIDENCE_X, "init.gmm"),
            ("run", {"init": {"gmm": {"n_starts": 2}}, "opt": {"rel_step": "x"}}, "opt"),
            ("run", {"isa": {"samples": "x"}}, "isa"),
            ("run", {"target": "regression", "regression": {**REGRESSION, "n_theta": "x"}},
             "regression"),
            ("run", {"target": "regression", "regression": {**REGRESSION, "noise_sd": "x"}},
             "regression"),
            ("run", {"target": "regression", "regression": {**REGRESSION, "data_seed": "x"}},
             "regression"),
            ("run", {"target": "gaussian", "gaussian": {"mean": "ab"}}, "gaussian"),
            ("run", {"target": "gaussian",
                     "gaussian": {"mean": [0.0, 0.0], "covariance": [1.0, 0.0, 1.0]}},
             "gaussian"),
            ("run", {"isa": {"max_iteration": 2, "samples": 50}},
             "isa keys: ['max_iteration']"),
            ("run", {"init": {"gmm": {"n_starts": 2}}, "opt": {"hessian_rel_step": 1e-3}},
             "opt keys: ['hessian_rel_step']"),
            ("run", {"init": {"file": "x.csv", "bogus": 1}}, "init keys: ['bogus']"),
            ("run", {"init": {"mcmc": {"walkers": 4, "steps": 5, "keep": 20, "step": 5}}},
             "init.mcmc keys: ['step']"),
            ("run", {"init": {"gmm": {"n_starts": 2, "confidance": 0.9}}},
             "init.gmm keys: ['confidance']"),
            ("run", {"target": "gaussian", "gaussian": {"mean": [0.0], "cov": [1.0]}},
             "gaussian keys: ['cov']"),
            ("run", {"target": "regression", "regression": {**REGRESSION, "seed": 3}},
             "regression keys: ['seed']"),
            ("run", {"isa": [["samples", 50]]}, "isa must be a JSON object"),
            ("run", {"init": {"mcmc": 5}}, "init.mcmc must be a JSON object"),
            ("run", {"target": "regression"}, "regression section"),
            ("run", {"init": {"mcmc": {"walkers": 4, "steps": 5}}}, "init.mcmc missing key"),
            ("init-mcmc", {"init": {"mcmc": {"walkers": 4, "steps": 5}}},
             "init.mcmc missing key"),
        ],
        ids=["mcmc-a", "baseline-a", "gmm-confidence", "init-gmm-confidence", "opt-rel-step",
             "isa-samples", "regression-n-theta", "regression-noise-sd",
             "regression-data-seed", "gaussian-mean", "gaussian-covariance-size",
             "isa-unknown", "opt-unknown", "init-unknown", "mcmc-unknown", "gmm-unknown",
             "gaussian-unknown", "regression-unknown", "isa-not-object", "mcmc-not-object",
             "regression-section-missing", "run-keep-missing", "init-mcmc-keep-missing"],
    )
    def test_malformed_value_clean_error(self, tmp_path, capsys, command, overrides, where):
        path = write_config(tmp_path, toy_run_config(tmp_path, **overrides))
        assert main([command, "--config", path]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, where)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"isa": {"samples": 100.5}}, "malformed isa.samples"),
            ({"isa": {"samples": True}}, "malformed isa.samples"),
            ({"isa": {"samples": "100"}}, "malformed isa.samples"),
            ({"isa": {"samples": 50, "max_iterations": False}},
             "malformed isa.max_iterations"),
            ({"init": {"mcmc": {"walkers": 4, "steps": 5.5, "keep": 20}}},
             "malformed init.mcmc.steps"),
            ({"seed": "5"}, "malformed config.seed"),
            ({"workers": 1.5}, "malformed config.workers"),
            ({"target": "regression", "regression": {**REGRESSION, "n_z": 8.25}},
             "malformed regression.n_z"),
            ({"isa": {"samples": 50, "tol": float("nan")}}, "tol must be >= 0"),
            ({"isa": {"samples": 50, "inflation": float("nan")}}, "inflation must be >= 1"),
            ({"isa": {"samples": 50, "family": "student_t", "nu": float("nan")}},
             "nu > 2"),
            ({"isa": {"samples": 50, "tol": "0.05"}}, "malformed isa.tol"),
            ({"isa": {"samples": 50, "inflation": True}}, "malformed isa.inflation"),
            ({"isa": {"samples": 50, "family": "student_t", "nu": "3"}}, "malformed isa.nu"),
            ({"init": {"mcmc": {"walkers": 4, "steps": 5, "keep": 20, "a": True}}},
             "malformed init.mcmc.a"),
            ({"init": {"gmm": {"n_starts": 2, "confidence": "0.95"}}},
             "malformed init.gmm.confidence"),
            ({"opt": {"rel_step": True}}, "malformed opt.rel_step"),
            ({"opt": {"f_tol": "1e-10"}}, "malformed opt.f_tol"),
            ({"opt": {"grad_tol": False}}, "malformed opt.grad_tol"),
            ({"target": "regression", "regression": {**REGRESSION, "noise_sd": True}},
             "malformed regression.noise_sd"),
            ({"target": "regression",
              "regression": {**REGRESSION, "prior_sd": [3.0, True, 3.0]}},
             "malformed regression.prior_sd"),
            ({"target": "gaussian", "gaussian": {"mean": ["1.5", 0.0]}},
             "malformed gaussian.mean"),
        ],
        ids=["samples-fraction", "samples-bool", "samples-string", "max-iterations-bool",
             "steps-fraction", "seed-string", "workers-fraction", "n-z-fraction",
             "tol-nan", "inflation-nan", "nu-nan", "tol-string", "inflation-bool",
             "nu-string", "a-bool", "confidence-string", "rel-step-bool", "f-tol-string",
             "grad-tol-bool", "noise-sd-bool", "prior-sd-bool-entry",
             "mean-string-entry"],
    )
    def test_malformed_number_clean_error(self, tmp_path, capsys, overrides, where):
        # json writes and reads float("nan") as NaN
        path = write_config(tmp_path, toy_run_config(tmp_path, **overrides))
        assert main(["run", "--config", path]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, where)
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        data = toy_run_config(tmp_path, seed=2001.0)
        data["isa"]["samples"] = 5e3
        config = RunConfig.from_dict(json.loads(json.dumps(data)))
        assert build_isa_config(config).samples_per_iteration == 5000
        assert config.seed == 2001 and isinstance(config.seed, int)

    def test_baseline_steps_below_the_iact_minimum_clean_error(self, tmp_path, capsys):
        # checked before the chain runs, so no chain.csv is left behind
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 4, "steps": 50}})
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "init.mcmc.steps 50")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "regression, where",
        [({**REGRESSION, "noise_sd": [0.1, 0.2]}, "noise_sd"),
         ({**REGRESSION, "n_theta": 2, "theta_ref": [1.0, -0.5]}, "prior_mean")],
        ids=["noise-sd-not-n-z", "prior-not-n-theta"],
    )
    def test_regression_length_clean_error(self, tmp_path, capsys, regression, where):
        data = toy_run_config(tmp_path, target="regression", regression=regression)
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, where)
        assert not (tmp_path / "out").exists()

    def test_walkers_default_to_2_n_theta_plus_2(self, tmp_path):
        data = toy_run_config(
            tmp_path,
            target="regression",
            regression=REGRESSION,
            init={"mcmc": {"steps": 500, "keep": 20}},
        )
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_OK
        assert json.loads((tmp_path / "out" / "iact.json").read_text())["walkers"] == 8


class TestRunCommand:
    def test_toy_run_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        code = main(["run", "--config", path])
        out_dir = tmp_path / "out"
        assert code in (EXIT_OK, EXIT_MAX_ITERATIONS)
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["stopped_reason"] in ("converged", "max_iterations")
        assert len(trace["records"]) >= 1
        ens = read_ensemble_csv(out_dir / "ensemble.csv")
        assert ens.n == 5000
        assert (out_dir / "triangle.svg").exists()
        assert "stopped:" in capsys.readouterr().out

    def test_gaussian_converges_exit_zero(self, tmp_path):
        ens_dir = tmp_path / "seed_ens"
        ens_dir.mkdir()
        # self-start: a broad file-based initial ensemble around the target
        rng = np.random.Generator(np.random.Philox(0))
        samples = rng.standard_normal((500, 2)) * 2.0
        lines = ["weight,theta_0,theta_1"] + [
            f"{1.0 / 500}, {s[0]}, {s[1]}" for s in samples
        ]
        ens_path = ens_dir / "init.csv"
        ens_path.write_text("\n".join(lines) + "\n")
        data = {
            "target": "gaussian",
            "gaussian": {"mean": [0.0, 0.0], "covariance": [1.0, 0.0, 0.0, 1.0]},
            "init": {"file": str(ens_path)},
            "isa": {"samples": 4000, "max_iterations": 8},
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_OK

    def test_collapse_exit_code(self, tmp_path):
        # initial ensemble far outside the toy support: every importance
        # draw fails and the run collapses
        rng = np.random.Generator(np.random.Philox(0))
        samples = 100.0 + 0.01 * rng.standard_normal((30, 2))
        lines = ["weight,theta_0,theta_1"] + [
            f"{1.0 / 30},{s[0]},{s[1]}" for s in samples
        ]
        ens_path = tmp_path / "far.csv"
        ens_path.write_text("\n".join(lines) + "\n")
        data = {
            "target": "toy2d",
            "init": {"file": str(ens_path)},
            "isa": {"samples": 50, "max_iterations": 4},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_COLLAPSED
        trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        assert trace["stopped_reason"] == "collapsed"

    def test_refit_collapse_keeps_trace_and_ensemble(self, tmp_path):
        # a proposal far broader than a narrow target: one draw carries
        # nearly all the weight, so every refit collapses; after the three
        # widenings the fourth failed refit ends the run
        rng = np.random.Generator(np.random.Philox(0))
        samples = 10.0 * rng.standard_normal((200, 2))
        lines = ["weight,theta_0,theta_1"] + [
            f"{1.0 / 200},{s[0]},{s[1]}" for s in samples
        ]
        ens_path = tmp_path / "broad.csv"
        ens_path.write_text("\n".join(lines) + "\n")
        data = {
            "target": "gaussian",
            "gaussian": {"mean": [0.0, 0.0], "covariance": [1e-4, 0.0, 0.0, 1e-4]},
            "init": {"file": str(ens_path)},
            "isa": {"samples": 200, "max_iterations": 5},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_COLLAPSED
        out_dir = tmp_path / "out"
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["stopped_reason"] == "collapsed"
        assert len(trace["records"]) == 4
        assert read_ensemble_csv(out_dir / "ensemble.csv").n == 200
        assert not (out_dir / "triangle.svg").exists()

    def test_degenerate_last_ensemble_exits_max_iterations(self, tmp_path):
        # the run stops at max_iterations before any refit, with a last
        # ensemble too degenerate for the triangle export's covariance
        rng = np.random.Generator(np.random.Philox(0))
        samples = 10.0 * rng.standard_normal((200, 2))
        lines = ["weight,theta_0,theta_1"] + [
            f"{1.0 / 200},{s[0]},{s[1]}" for s in samples
        ]
        ens_path = tmp_path / "broad.csv"
        ens_path.write_text("\n".join(lines) + "\n")
        data = {
            "target": "gaussian",
            "gaussian": {"mean": [0.0, 0.0], "covariance": [1e-4, 0.0, 0.0, 1e-4]},
            "init": {"file": str(ens_path)},
            "isa": {"samples": 200, "max_iterations": 1},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        code = main(["run", "--config", write_config(tmp_path, data)])
        assert code == EXIT_MAX_ITERATIONS
        out_dir = tmp_path / "out"
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["stopped_reason"] == "max_iterations"
        assert trace["records"][0]["n_eff"] < 3
        assert read_ensemble_csv(out_dir / "ensemble.csv").n == 200
        assert not (out_dir / "triangle.svg").exists()

    def test_malformed_init_file_clean_error(self, tmp_path, capsys):
        ens_path = tmp_path / "bad.csv"
        ens_path.write_text("weight,theta_0,theta_1\n0.5,1.0,2.0\n0.5,1.0,abc\n")
        data = toy_run_config(tmp_path, init={"file": str(ens_path)})
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.csv, line 3" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-0.5"])
    def test_bad_weight_init_file_clean_error(self, tmp_path, capsys, weight):
        ens_path = write_bad_weight_csv(tmp_path, weight)
        data = toy_run_config(tmp_path, init={"file": str(ens_path)})
        assert main(["run", "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "bad_weight.csv, line 4")

    def test_missing_config_exit_one(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_output_override(self, tmp_path):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        other = tmp_path / "elsewhere"
        main(["run", "--config", path, "--output", str(other)])
        assert (other / "trace.json").exists()

    def test_seed_override_changes_draws(self, tmp_path):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        main(["run", "--config", path, "--output", str(tmp_path / "a"), "--seed", "2001"])
        main(["run", "--config", path, "--output", str(tmp_path / "b"), "--seed", "2001"])
        main(["run", "--config", path, "--output", str(tmp_path / "c"), "--seed", "2002"])
        a = (tmp_path / "a" / "ensemble.csv").read_bytes()
        assert a == (tmp_path / "b" / "ensemble.csv").read_bytes()
        assert a != (tmp_path / "c" / "ensemble.csv").read_bytes()

    def test_worker_override_bitwise_identical(self, tmp_path):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        main(["run", "--config", path, "--output", str(tmp_path / "w1"), "--workers", "1"])
        main(["run", "--config", path, "--output", str(tmp_path / "w4"), "--workers", "4"])
        assert (tmp_path / "w1" / "ensemble.csv").read_bytes() == (
            tmp_path / "w4" / "ensemble.csv"
        ).read_bytes()
        assert (tmp_path / "w1" / "trace.json").read_text() != ""

    def test_worker_override_bitwise_identical_student_t(self, tmp_path):
        # the t family from a multistart mixture: refits go through
        # fit_student_t and the first draw through the mixture proposal
        data = {
            "target": "regression",
            "regression": {
                "n_theta": 3,
                "n_z": 8,
                "noise_sd": 0.1,
                "prior_mean": [0.0, 0.0, 0.0],
                "prior_sd": [3.0, 3.0, 3.0],
                "theta_ref": [1.0, -0.5, 0.8],
                "data_seed": 11,
            },
            "init": {"gmm": {"n_starts": 6, "confidence": 0.95}},
            "isa": {"family": "student_t", "nu": 3.0, "samples": 1500,
                    "max_iterations": 3, "tol": 0.0, "inflation": 2.0},
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, data)
        runs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            main(["run", "--config", path, "--output", str(out), "--workers", workers])
            trace = json.loads((out / "trace.json").read_text())
            runs[workers] = (
                (out / "ensemble.csv").read_bytes(),
                (out / "hist2d_theta_0_theta_1.csv").read_bytes(),
                [(rec["r"], rec["proposal"]) for rec in trace["records"]],
            )
        assert len(runs["1"][2]) == 3
        assert runs["1"] == runs["2"]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestGoldenRSequences:
    """R sequences recorded before the batch evaluation path existed; a
    change to how targets are evaluated may move them only by rounding."""

    def run(self, tmp_path, path, *args):
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--output", str(out), *args])
        trace = json.loads((out / "trace.json").read_text())
        return code, trace["stopped_reason"], [rec["r"] for rec in trace["records"]]

    def test_student_t_regression(self, tmp_path):
        # the reduced config of the student-t worker-count test; tol 0 runs
        # every iteration, so a change to the stopping rule cannot move it.
        # Re-recorded when the multistart's Levenberg-Marquardt began to move
        # its starts in lockstep: its rounding moves the modes by ~1e-8, and
        # R[0] by 3.1e-9 relative (it was 1.3282930014298189)
        data = {
            "target": "regression",
            "regression": {
                "n_theta": 3,
                "n_z": 8,
                "noise_sd": 0.1,
                "prior_mean": [0.0, 0.0, 0.0],
                "prior_sd": [3.0, 3.0, 3.0],
                "theta_ref": [1.0, -0.5, 0.8],
                "data_seed": 11,
            },
            "init": {"gmm": {"n_starts": 6, "confidence": 0.95}},
            "isa": {"family": "student_t", "nu": 3.0, "samples": 1500,
                    "max_iterations": 3, "tol": 0.0, "inflation": 2.0},
            "seed": 5,
        }
        code, stopped, r = self.run(tmp_path, write_config(tmp_path, data))
        assert (code, stopped) == (EXIT_MAX_ITERATIONS, "max_iterations")
        np.testing.assert_allclose(
            r, [1.3282930054947, 9.236454411117148, 8.923854820633426], rtol=1e-9
        )

    def test_toy2d_mcmc_config(self, tmp_path):
        """Re-recorded when the stretch move began to draw its uniforms in
        blocks of steps: that changed its random stream, and so this run's
        5-step MCMC init and every R after it."""
        code, stopped, r = self.run(
            tmp_path, CONFIG_DIR / "toy2d_mcmc.json", "--seed", "2001"
        )
        assert (code, stopped) == (EXIT_OK, "converged")
        np.testing.assert_allclose(
            r, [2.444758262476842, 1.104679941893992, 1.1066924129071745], rtol=1e-9
        )


class TestRefitWidening:
    def test_toy2d_mcmc_seed_138_recovers(self, tmp_path):
        # this seed's first draw has 2.8 effective samples, too few to
        # refit; the widened proposal's draw can be refit and the run converges
        out = tmp_path / "out"
        code = main(["run", "--config", str(CONFIG_DIR / "toy2d_mcmc.json"),
                     "--seed", "138", "--output", str(out)])
        trace = json.loads((out / "trace.json").read_text())
        assert (code, trace["stopped_reason"]) == (EXIT_OK, "converged")
        assert [rec["widened"] for rec in trace["records"]][:2] == [False, True]
        assert (out / "triangle.svg").exists()


class TestInitCommands:
    @pytest.mark.parametrize("command", ["run", "init-mcmc"])
    @pytest.mark.parametrize("keep", [0, 4 * 10**7 + 1])
    def test_keep_out_of_range_fails_before_the_chain(self, tmp_path, capsys, command, keep):
        # a chain of 4 x 10^7 samples would take minutes; the check comes first
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 4, "steps": 10**7,
                                                       "keep": keep}})
        started = time.perf_counter()
        assert main([command, "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        assert time.perf_counter() - started < 5.0
        assert_one_line_error(capsys.readouterr().err, "init.mcmc.keep")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "init-gmm"])
    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, float("nan")])
    def test_confidence_out_of_range_fails_before_multistart(
        self, tmp_path, capsys, monkeypatch, command, confidence
    ):
        def multistart(*args, **kwargs):
            raise AssertionError("multistart ran")

        monkeypatch.setattr(isalib.cli, "multistart", multistart)
        data = toy_run_config(tmp_path, init={"gmm": {"n_starts": 10,
                                                      "confidence": confidence}})
        assert main([command, "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err, f"init.gmm.confidence {confidence} is not in (0, 1)")
        assert not (tmp_path / "out").exists()

    def test_init_mcmc_writes_ensemble(self, tmp_path):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        assert main(["init-mcmc", "--config", path]) == EXIT_OK
        ens = read_ensemble_csv(tmp_path / "out" / "init_ensemble.csv")
        assert ens.n == 20
        np.testing.assert_allclose(ens.weights, 1.0 / 20.0)

    def test_init_gmm_finds_toy_modes(self, tmp_path, capsys):
        data = toy_run_config(tmp_path, init={"gmm": {"n_starts": 40, "confidence": 0.95}})
        assert main(["init-gmm", "--config", write_config(tmp_path, data)]) == EXIT_OK
        modes = json.loads((tmp_path / "out" / "modes.json").read_text())
        assert len(modes["modes"]) == 5
        assert modes["status_counts"]["converged"] >= 35
        proposal = json.loads((tmp_path / "out" / "init_proposal.json").read_text())
        assert proposal["family"] == "gaussian_mixture"
        assert "found 5 distinct modes" in capsys.readouterr().out

    def test_init_gmm_requires_gmm_section(self, tmp_path):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        assert main(["init-gmm", "--config", path]) == EXIT_ERROR


# Runs CLI commands in a fresh interpreter and reports, after each one, which
# of scipy's slow-to-import subpackages it has loaded.
SCIPY_PROBE = """
import json, sys
import isalib.cli

def heavy():
    return [m for m in ("scipy.special", "scipy.linalg") if m in sys.modules]

report = {"import": heavy()}
for name, argv in json.loads(sys.argv[1]):
    report[name] = [isalib.cli.main(argv), heavy()]
print(json.dumps(report))
"""

# Dedups two 5-d modes at squared distance argv[1] in a fresh interpreter and
# reports the mode count and whether scipy.special was loaded before and after.
DEDUP_PROBE = """
import json, sys
import numpy as np
from isalib.init import dedup_modes
from isalib.optimize import OptimizationResult, OptStatus

hess = np.eye(5)
hess[0, 0] = float(sys.argv[1])
modes = [OptimizationResult(mu, f, hess, OptStatus.CONVERGED, 5)
         for mu, f in ((np.zeros(5), 0.0), (np.eye(5)[0], 1.0))]
before = "scipy.special" in sys.modules
count = len(dedup_modes(modes, confidence=0.95))
print(json.dumps([before, count, "scipy.special" in sys.modules]))
"""


# Imports the CLI in a fresh interpreter and reports whether that loaded
# fractions or decimal, and how many CSV kernel tables it built.
IMPORT_PROBE = """
import json, sys
import isalib.cli
from isalib import csvformat

print(json.dumps({"modules": [m for m in ("fractions", "decimal") if m in sys.modules],
                  "csv_tables": csvformat._csv_tables.cache_info().currsize}))
"""


def run_probe(probe, *args):
    """The JSON report on the last line of `probe` run in a fresh interpreter."""
    src = str(Path(isalib.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportGraph:
    def shipped(self, tmp_path, name):
        data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        data["output_dir"] = str(tmp_path / name)
        return data

    def test_no_command_loads_scipy(self, tmp_path):
        # every subcommand on the shipped configs runs without scipy.special
        # and scipy.linalg, init.gmm's dedup included
        run = self.shipped(tmp_path, "toy2d_mcmc")
        run["isa"]["samples"] = 2000
        baseline = self.shipped(tmp_path, "toy2d_baseline")
        baseline["init"]["mcmc"]["steps"] = 500
        ensemble = tmp_path / "toy2d_mcmc" / "ensemble.csv"
        triangle = toy_run_config(tmp_path, init={"file": str(ensemble)},
                                  output_dir=str(tmp_path / "triangle"))
        toy_gmm = self.shipped(tmp_path, "toy2d_gmm")
        toy_gmm["init"]["gmm"]["n_starts"] = 10
        regression_gmm = self.shipped(tmp_path, "regression_student_t")
        regression_gmm["init"]["gmm"]["n_starts"] = 10
        regression_run = self.shipped(tmp_path, "regression_student_t")
        regression_run["isa"].update(samples=2000, max_iterations=2)
        runs = [("run", "run", run), ("mcmc-baseline", "mcmc-baseline", baseline),
                ("init-mcmc", "init-mcmc", toy_run_config(tmp_path)),
                ("export-triangle", "export-triangle", triangle),
                ("init-gmm toy2d", "init-gmm", toy_gmm),
                ("init-gmm regression", "init-gmm", regression_gmm),
                ("run regression", "run", regression_run)]
        commands = [
            (name, [command, "--config", write_config(tmp_path, data, f"{i}.json")])
            for i, (name, command, data) in enumerate(runs)
        ]
        report = run_probe(SCIPY_PROBE, json.dumps(commands))
        assert report.pop("import") == []
        # two iterations of 2,000 draws do not converge on this posterior
        assert report.pop("run regression") == [EXIT_MAX_ITERATIONS, []]
        for name, (code, loaded) in report.items():
            assert (code, loaded) == (EXIT_OK, []), name

    def test_import_builds_no_csv_tables(self):
        # the CSV kernel builds its tables on the first write, not at import
        assert run_probe(IMPORT_PROBE) == {"modules": [], "csv_tables": 0}

    def test_dedup_at_the_quantile_loads_scipy_special(self):
        # a pair exactly at scipy's quantile is inside the band, so scipy
        # decides it: the fallback is live, and the pair merges
        from scipy.stats import chi2

        quantile = float(chi2.ppf(0.95, df=5))
        assert run_probe(DEDUP_PROBE, repr(quantile)) == [False, 1, True]


class TestBaselineCommand:
    def test_runs_without_keep(self, tmp_path):
        # mcmc-baseline writes the whole chain and never reads `keep`
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 4, "steps": 200}})
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_OK
        assert json.loads((tmp_path / "out" / "iact.json").read_text())["steps"] == 200

    def test_chain_and_iact_written(self, tmp_path):
        data = toy_run_config(
            tmp_path, init={"mcmc": {"walkers": 4, "steps": 2000, "keep": 20}}
        )
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "iact.json").read_text())
        assert report["walkers"] == 4
        assert report["steps"] == 2000
        assert len(report["iact"]) == 2
        assert all(t >= 1.0 for t in report["iact"])
        raw = (tmp_path / "out" / "chain.csv").read_bytes()
        assert raw.startswith(b"theta_0,theta_1\r\n")
        assert raw.count(b"\r\n") == 8001 and raw.count(b"\n") == 8001
        chain = np.loadtxt(tmp_path / "out" / "chain.csv", delimiter=",", skiprows=1)
        rng = np.random.Generator(np.random.Philox(2001))
        expected = stretch_move_run(Toy2DTarget(), n_walkers=4, n_steps=2000, rng=rng)
        assert chain.tobytes() == expected.samples.tobytes()

    def test_short_chain_warns_and_records_the_window(self, tmp_path, capsys, monkeypatch):
        # AR(1) walkers with rho 0.999 over 257 steps: the IACT is ~1999, the
        # estimate far smaller, and its window a large share of the chain
        rng = np.random.default_rng(0)
        ar1 = np.empty((257, 4, 2))
        ar1[0] = rng.standard_normal((4, 2))
        for t in range(1, 257):
            ar1[t] = 0.999 * ar1[t - 1] + 0.0447 * rng.standard_normal((4, 2))
        chain = McmcChain(walkers=4, steps=257, samples=ar1.reshape(-1, 2),
                          acceptance_rate=0.5)
        monkeypatch.setattr(isalib.cli, "stretch_move_run", lambda *a, **k: chain)
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 4, "steps": 257}})
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "iact.json").read_text())
        taus = [iact_ensemble(ar1[:, :, c]) for c in range(2)]
        assert report["iact"] == taus
        assert report["window"] == [t.window for t in taus]
        assert all(257 < 50 * t and t.window > 25 for t in taus)
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[:2] for line in err] == [["warning", " theta_0"],
                                                          ["warning", " theta_1"]]

    def test_long_chain_does_not_warn(self, tmp_path, capsys):
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 4, "steps": 100_000}})
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "iact.json").read_text())
        assert all(0 < window <= 0.004 * 100_000 for window in report["window"])
        assert capsys.readouterr().err == ""

    def test_constant_chain_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # the IACTs are computed before the output directory is made
        constant = McmcChain(walkers=4, steps=200, samples=np.ones((800, 2)),
                             acceptance_rate=0.0)
        monkeypatch.setattr(isalib.cli, "stretch_move_run", lambda *a, **k: constant)
        data = toy_run_config(tmp_path, init={"mcmc": {"walkers": 4, "steps": 200}})
        assert main(["mcmc-baseline", "--config", write_config(tmp_path, data)]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "chain is constant")
        assert not (tmp_path / "out").exists()


class TestExportTriangle:
    def test_round_trip_through_csv(self, tmp_path):
        run_path = write_config(tmp_path, toy_run_config(tmp_path))
        main(["run", "--config", run_path])
        data = toy_run_config(
            tmp_path,
            init={"file": str(tmp_path / "out" / "ensemble.csv")},
            output_dir=str(tmp_path / "tri"),
        )
        assert main(["export-triangle", "--config", write_config(tmp_path, data, "t.json")]) == EXIT_OK
        assert (tmp_path / "tri" / "triangle.svg").exists()
        assert (tmp_path / "tri" / "hist2d_theta_0_theta_1.csv").exists()

    def test_files_equal_the_runs(self, tmp_path):
        # the run's ensemble.csv reads back bitwise, so the export rewrites
        # every triangle file of the run byte for byte
        main(["run", "--config", write_config(tmp_path, toy_run_config(tmp_path))])
        data = toy_run_config(
            tmp_path,
            init={"file": str(tmp_path / "out" / "ensemble.csv")},
            output_dir=str(tmp_path / "tri"),
        )
        assert main(["export-triangle", "--config", write_config(tmp_path, data, "t.json")]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "tri").iterdir())
        assert "triangle.svg" in names and "hist2d_theta_0_theta_1.csv" in names
        for name in names:
            assert (tmp_path / "tri" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_ragged_ensemble_clean_error(self, tmp_path, capsys):
        ens_path = tmp_path / "ragged.csv"
        ens_path.write_text("weight,theta_0,theta_1\n0.5,1.0,2.0\n0.5,1.0\n")
        data = toy_run_config(
            tmp_path, init={"file": str(ens_path)}, output_dir=str(tmp_path / "tri")
        )
        code = main(["export-triangle", "--config", write_config(tmp_path, data)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ragged.csv, line 3" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-0.5"])
    def test_bad_weight_clean_error(self, tmp_path, capsys, weight):
        ens_path = write_bad_weight_csv(tmp_path, weight)
        data = toy_run_config(
            tmp_path, init={"file": str(ens_path)}, output_dir=str(tmp_path / "tri")
        )
        code = main(["export-triangle", "--config", write_config(tmp_path, data)])
        assert code == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "bad_weight.csv, line 4")

    def test_degenerate_ensemble_leaves_no_output(self, tmp_path, capsys):
        # one nonzero weight: the ranges need n_theta + 1 effective samples
        ens_path = tmp_path / "degenerate.csv"
        ens_path.write_text("weight,theta_0,theta_1\n1.0,1.0,2.0\n0.0,3.0,1.0\n0.0,2.0,2.0\n")
        data = toy_run_config(
            tmp_path, init={"file": str(ens_path)}, output_dir=str(tmp_path / "tri")
        )
        code = main(["export-triangle", "--config", write_config(tmp_path, data)])
        assert code == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "effective sample size 1 below")
        assert not (tmp_path / "tri").exists()


class TestWorkersEnv:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISA_WORKERS", "3")
        path = write_config(tmp_path, toy_run_config(tmp_path))
        assert main(["init-mcmc", "--config", path]) == EXIT_OK

    def test_workers_have_no_effect(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        code = main(["run", "--config", path, "--output", str(tmp_path / "plain")])
        assert main(["run", "--config", path, "--output", str(tmp_path / "w3"),
                     "--workers", "3"]) == code
        monkeypatch.setenv("ISA_WORKERS", "abc")
        assert main(["run", "--config", path, "--output", str(tmp_path / "env")]) == code
        plain = (tmp_path / "plain" / "ensemble.csv").read_bytes()
        assert (tmp_path / "w3" / "ensemble.csv").read_bytes() == plain
        assert (tmp_path / "env" / "ensemble.csv").read_bytes() == plain

    def test_workers_validated(self, tmp_path, capsys):
        path = write_config(tmp_path, toy_run_config(tmp_path))
        assert main(["run", "--config", path, "--workers", "0"]) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err, "workers must be >= 1")


class FaultyGaussian(GaussianTarget):
    """A standard 2-d Gaussian whose batch path spoils the rows `inject`
    picks in each call: a failed row, or a NaN, +inf or -inf value."""

    def __init__(self, inject):
        super().__init__(np.zeros(2), np.eye(2))
        self.inject = inject
        self.injected = []  # rows spoiled per call

    def log_density_batch(self, thetas):
        values, failed = super().log_density_batch(thetas)
        rows = self.inject(len(thetas))
        for row, kind in rows.items():
            if kind == "failed":
                values[row], failed[row] = -np.inf, True
            else:
                values[row] = float(kind)
        self.injected.append(len(rows))
        return values, failed


def gaussian_file_config(tmp_path, **isa):
    """A run on the 2-d Gaussian target from an ensemble CSV, so that only
    the ISA draws evaluate the target."""
    init = tmp_path / "init.csv"
    rng = np.random.Generator(np.random.Philox(4))
    write_ensemble_csv(WeightedEnsemble.uniform(rng.standard_normal((40, 2))), init)
    data = {"target": "gaussian", "init": {"file": str(init)}, "isa": isa,
            "output_dir": str(tmp_path / "out")}
    return write_config(tmp_path, data)


class TestTargetFaults:
    SAMPLES = 40
    KINDS = ("failed", "nan", "inf", "-inf")

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_injected_failures_are_counted(self, data):
        n = self.SAMPLES
        every_row = st.just({row: "failed" for row in range(n)})
        some_rows = st.dictionaries(st.integers(0, n - 1), st.sampled_from(self.KINDS))
        target = FaultyGaussian(
            lambda rows: data.draw(st.one_of(some_rows, some_rows, some_rows, every_row))
        )
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            tmp_path = Path(tmp)
            path = gaussian_file_config(tmp_path, samples=n, max_iterations=3)
            patch.setattr(isalib.cli, "build_target", lambda config: target)
            code = main(["run", "--config", path])
            trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        failures = [record["failures"] for record in trace["records"]]
        if target.injected[-1] == n:  # an all-failed draw ends the run
            assert trace["stopped_reason"] == "collapsed" and code == EXIT_COLLAPSED
            assert failures == target.injected[:-1]
            draw = trace["all_failed_draw"]
            assert sorted(draw) == ["N_e", "failures", "k", "proposal"]
            assert (draw["k"], draw["N_e"], draw["failures"]) == (len(failures) + 1, n, n)
        else:
            assert failures == target.injected
            assert "all_failed_draw" not in trace
        assert n not in failures
        exits = {"converged": EXIT_OK, "max_iterations": EXIT_MAX_ITERATIONS,
                 "collapsed": EXIT_COLLAPSED}
        assert code == exits[trace["stopped_reason"]]

    def test_raising_target_aborts_run_without_trace(self, tmp_path, monkeypatch):
        class Raising(GaussianTarget):
            def log_density(self, theta):
                raise RuntimeError("model crashed")

        path = gaussian_file_config(tmp_path, samples=self.SAMPLES)
        monkeypatch.setattr(isalib.cli, "build_target",
                            lambda config: Raising(np.zeros(2), np.eye(2)))
        with pytest.raises(RuntimeError, match="model crashed"):
            main(["run", "--config", path])
        assert not (tmp_path / "out" / "trace.json").exists()
