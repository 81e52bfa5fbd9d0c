"""Config-driven command-line front end.

Subcommands `run`, `init-mcmc`, `init-gmm`, `mcmc-baseline`, and
`export-triangle` all read the same JSON config schema and use the parts
relevant to them.  Exit codes for `run`: 0 converged, 2 max iterations,
3 collapsed, 1 config/IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import iact_ensemble, triangle_export
from .ensemble import read_ensemble_csv, write_csv_table, write_ensemble_csv, write_json
from .errors import ConfigError, IsaError
from .init import (
    DEDUP_CONFIDENCE_DEFAULT,
    STRETCH_A_DEFAULT,
    build_gmm,
    dedup_modes,
    default_walker_count,
    mcmc_init_ensemble,
    multistart,
    stretch_move_run,
)
from .isa import IsaConfig, isa_run
from .optimize import OptSettings, OptStatus
from .proposals import save_proposal
from .targets import (
    Toy2DTarget,
    gaussian_target,
    make_synthetic_regression,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERATIONS = 2
EXIT_COLLAPSED = 3

_STOP_TO_EXIT = {
    "converged": EXIT_OK,
    "max_iterations": EXIT_MAX_ITERATIONS,
    "collapsed": EXIT_COLLAPSED,
}


@contextmanager
def _config_values(section: str):
    """Report a config value that is missing or not a number as one
    ConfigError.  Only conversions run inside, before any algorithm, so an
    algorithm's own errors are never relabelled as config errors."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{section} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {section}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    target: str
    init: dict
    isa: dict
    seed: int = 0
    workers: int = 1  # accepted and validated; has no effect
    output_dir: str = "out"
    gaussian: dict | None = None
    regression: dict | None = None
    opt: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.target not in ("toy2d", "gaussian", "regression"):
            raise ConfigError(f"unknown target {self.target!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        init_keys = [k for k in ("mcmc", "gmm", "file") if k in self.init]
        if len(init_keys) != 1:
            raise ConfigError("init must contain exactly one of mcmc / gmm / file")
        if "mcmc" in self.init:
            mcmc = self.init["mcmc"]
            if "walkers" in mcmc and int(mcmc["walkers"]) < 4:
                raise ConfigError("mcmc init needs at least 4 walkers")
            if int(mcmc.get("steps", 0)) < 1 or int(mcmc.get("keep", 0)) < 1:
                raise ConfigError("mcmc init needs steps >= 1 and keep >= 1")
        if "gmm" in self.init and int(self.init["gmm"].get("n_starts", 0)) < 1:
            raise ConfigError("gmm init needs n_starts >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        with _config_values("config"):
            return cls(
                target=data["target"],
                init=dict(data.get("init", {})),
                isa=dict(data.get("isa", {})),
                seed=int(data.get("seed", 0)),
                workers=int(data.get("workers", 1)),
                output_dir=str(data.get("output_dir", "out")),
                gaussian=data.get("gaussian"),
                regression=data.get("regression"),
                opt=dict(data.get("opt", {})),
            )

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def build_target(config: RunConfig):
    if config.target == "toy2d":
        return Toy2DTarget()
    if config.target == "gaussian":
        spec = config.gaussian or {}
        with _config_values("gaussian config"):
            mean = np.asarray(spec.get("mean", [0.0, 0.0]), dtype=float)
            dim = mean.size
            cov = np.asarray(
                spec.get("covariance", np.eye(dim).ravel().tolist()), dtype=float
            ).reshape(dim, dim)
        return gaussian_target(mean, cov)
    spec = config.regression or {}
    with _config_values("regression config"):
        values = {
            "n_theta": int(spec["n_theta"]),
            "n_z": int(spec["n_z"]),
            "data_seed": int(spec.get("data_seed", 0)),
        }
        for key in ("noise_sd", "prior_mean", "prior_sd", "theta_ref"):
            values[key] = np.asarray(spec[key], dtype=float)
    return make_synthetic_regression(**values)


def build_isa_config(config: RunConfig) -> IsaConfig:
    spec = config.isa
    with _config_values("isa config"):
        values = {
            "samples_per_iteration": int(spec.get("samples", 1000)),
            "max_iterations": int(spec.get("max_iterations", 10)),
            "tol": float(spec.get("tol", 0.05)),
            "inflation": float(spec.get("inflation", 1.0)),
            "family": str(spec.get("family", "gaussian")),
            "nu": float(spec.get("nu", 3.0)),
        }
    return IsaConfig(**values, seed=config.seed)


def build_opt_settings(config: RunConfig) -> OptSettings:
    spec = config.opt
    with _config_values("opt config"):
        return OptSettings(
            rel_step=float(spec.get("rel_step", 1e-6)),
            f_tol=float(spec.get("f_tol", 1e-10)),
            grad_tol=float(spec.get("grad_tol", 1e-6)),
            max_iter=int(spec.get("max_iter", 200)),
        )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _chain(config: RunConfig, target, rng):
    """The stretch-move chain of `init.mcmc`; without `walkers` it runs
    default_walker_count(n_theta) walkers."""
    spec = config.init["mcmc"]
    with _config_values("init.mcmc config"):
        walkers = int(spec.get("walkers", default_walker_count(target.dimension)))
        steps = int(spec["steps"])
        a = float(spec.get("a", STRETCH_A_DEFAULT))
    return stretch_move_run(target, n_walkers=walkers, n_steps=steps, a=a, rng=rng)


def _modes(config: RunConfig, target, rng):
    """The multistart results of `init.gmm` and their distinct modes."""
    spec = config.init["gmm"]
    settings = build_opt_settings(config)
    with _config_values("init.gmm config"):
        n_starts = int(spec["n_starts"])
        confidence = float(spec.get("confidence", DEDUP_CONFIDENCE_DEFAULT))
    results = multistart(target, n_starts, rng, settings=settings)
    return results, dedup_modes(results, confidence)


def build_init(config: RunConfig, target, rng):
    """Return the ISA starting point: a WeightedEnsemble or a proposal."""
    if "mcmc" in config.init:
        chain = _chain(config, target, rng)
        return mcmc_init_ensemble(chain, int(config.init["mcmc"]["keep"]))
    if "gmm" in config.init:
        return build_gmm(_modes(config, target, rng)[1])
    return read_ensemble_csv(config.init["file"])


def cmd_run(config: RunConfig) -> int:
    target = build_target(config)
    isa_config = build_isa_config(config)
    rng = _rng(config.seed)
    init = build_init(config, target, rng)
    trace = isa_run(target, init, isa_config, rng=rng)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace.save_json(out / "trace.json")
    final = trace.final_ensemble
    if final is not None:
        write_ensemble_csv(final, out / "ensemble.csv")
        # the triangle ranges need a covariance, which a collapsed ensemble
        # or one with fewer than n_theta + 1 effective samples does not have;
        # the last record describes the final ensemble
        if (
            trace.stopped_reason != "collapsed"
            and trace.records[-1].n_eff >= final.n_theta + 1
        ):
            triangle_export(final, out_dir=out)
    print(
        f"stopped: {trace.stopped_reason}; R sequence: "
        + ", ".join(f"{r:.4g}" for r in trace.r_values())
    )
    return _STOP_TO_EXIT[trace.stopped_reason]


def cmd_init_mcmc(config: RunConfig) -> int:
    target = build_target(config)
    ensemble = build_init(config, target, _rng(config.seed))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ensemble_csv(ensemble, out / "init_ensemble.csv")
    print(f"wrote {out / 'init_ensemble.csv'} ({ensemble.n} samples)")
    return EXIT_OK


def cmd_init_gmm(config: RunConfig) -> int:
    results, modes = _modes(config, build_target(config), _rng(config.seed))
    proposal = build_gmm(modes)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_proposal(proposal, out / "init_proposal.json")
    counts = {
        status.value: sum(1 for r in results if r.status is status)
        for status in OptStatus
    }
    report = {
        "modes": [
            {
                "minimizer": modes.minimizers[j].tolist(),
                "f_min": float(modes.f_mins[j]),
            }
            for j in range(len(modes))
        ],
        "status_counts": counts,
    }
    write_json(out / "modes.json", report)
    print(f"found {len(modes)} distinct modes from {len(results)} starts")
    return EXIT_OK


def cmd_mcmc_baseline(config: RunConfig) -> int:
    chain = _chain(config, build_target(config), _rng(config.seed))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_table(
        out / "chain.csv", [f"theta_{j}" for j in range(chain.n_theta)], chain.samples
    )
    by_walker = chain.by_walker()
    taus = [
        iact_ensemble(by_walker[:, :, coord]) for coord in range(chain.n_theta)
    ]
    report = {
        "walkers": chain.walkers,
        "steps": chain.steps,
        "acceptance_rate": chain.acceptance_rate,
        "iact": taus,
    }
    write_json(out / "iact.json", report)
    print("IACT per coordinate: " + ", ".join(f"{t:.2f}" for t in taus))
    return EXIT_OK


def cmd_export_triangle(config: RunConfig) -> int:
    ensemble = read_ensemble_csv(config.init["file"])
    files = triangle_export(ensemble, out_dir=config.output_dir)
    print(f"wrote {len(files)} files to {config.output_dir}")
    return EXIT_OK


# each command and the init section it requires (`run` takes any of them)
_COMMANDS = {
    "run": (cmd_run, None),
    "init-mcmc": (cmd_init_mcmc, "mcmc"),
    "init-gmm": (cmd_init_gmm, "gmm"),
    "mcmc-baseline": (cmd_mcmc_baseline, "mcmc"),
    "export-triangle": (cmd_export_triangle, "file"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isalib",
        description="Iterative importance sampling for Bayesian parameter estimation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to JSON run config")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument(
        "--workers", type=int, help="accepted for compatibility; has no effect"
    )
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        overrides = {}
        if args.output is not None:
            overrides["output_dir"] = args.output
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        # replace() runs RunConfig's validation on the overridden values
        config = dataclasses.replace(config, **overrides)
        command, section = _COMMANDS[args.command]
        if section is not None and section not in config.init:
            raise ConfigError(f"{args.command} requires an init.{section} section")
        return command(config)
    except (IsaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
