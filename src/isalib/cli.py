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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import MIN_CHAIN_LENGTH, STEPS_PER_TAU, iact_ensemble, triangle_export
from .ensemble import read_ensemble_csv, write_csv_table, write_ensemble_csv, write_json
from .errors import ConfigError, IsaError
from .init import (
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
from .targets import GaussianTarget, Toy2DTarget, make_synthetic_regression

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERATIONS = 2
EXIT_COLLAPSED = 3

_STOP_TO_EXIT = {
    "converged": EXIT_OK,
    "max_iterations": EXIT_MAX_ITERATIONS,
    "collapsed": EXIT_COLLAPSED,
}


def _section(name: str, types: dict, value, required=()) -> dict:
    """The keyword arguments in config section `name`: each key present in
    `value`, converted by its entry in `types`.  A section that is not an
    object, an unknown or missing key, or a value that does not convert is
    one ConfigError naming the section.  Absent keys are left out, so the
    call that takes the arguments supplies its own defaults."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = sorted(set(value) - set(types))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{name} missing key {missing[0]!r}")
    values = {}
    for key, item in value.items():
        try:
            values[key] = types[key](item)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed {name}.{key}: {exc}") from exc
    return values


def _real(value) -> float:
    """A JSON number as a float.  A bool or a string is rejected rather than
    read as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, found {value!r}")
    return float(value)


# vectorize hands `_real` each entry as read, so a bool or string in a list fails
_floats = np.vectorize(_real, otypes=[float])


def _integer(value) -> int:
    """A JSON integer, or a float with no fractional part.  A bool, a
    string, a fractional or non-finite float is rejected rather than cut to
    an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, found {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, found {value!r}")
    return int(value)


def _without(values: dict, *keys) -> dict:
    return {key: item for key, item in values.items() if key not in keys}


# each section's keys and their types; a nested section is read by its own
# table when the config is loaded
_CONFIG = {
    "target": str,
    "init": partial(_section, "init", {
        "mcmc": partial(_section, "init.mcmc",
                        {"walkers": _integer, "steps": _integer, "keep": _integer,
                         "a": _real},
                        required=("steps",)),
        "gmm": partial(_section, "init.gmm",
                       {"n_starts": _integer, "confidence": _real},
                       required=("n_starts",)),
        "file": str,
    }),
    "isa": partial(_section, "isa", {
        "samples": _integer, "max_iterations": _integer, "tol": _real,
        "inflation": _real, "family": str, "nu": _real,
    }),
    "opt": partial(_section, "opt", {
        "rel_step": _real, "f_tol": _real, "grad_tol": _real, "max_iter": _integer,
    }),
    "gaussian": partial(_section, "gaussian", {"mean": _floats, "covariance": _floats}),
    "regression": partial(_section, "regression", {
        "n_theta": _integer, "n_z": _integer, "noise_sd": _floats,
        "prior_mean": _floats, "prior_sd": _floats, "theta_ref": _floats,
        "data_seed": _integer,
    }, required=("n_theta", "n_z", "noise_sd", "prior_mean", "prior_sd", "theta_ref")),
    "seed": _integer,
    "workers": _integer,
    "output_dir": str,
}


@dataclass(frozen=True)
class RunConfig:
    """A run config, each section already converted by `_CONFIG`."""

    target: str
    init: dict = field(default_factory=dict)
    isa: dict = field(default_factory=dict)
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
        if len(self.init) != 1:
            raise ConfigError("init must contain exactly one of mcmc / gmm / file")

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        return cls(**_section("config", _CONFIG, data, required=("target",)))

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
        mean = spec.get("mean", np.zeros(2))
        cov = spec.get("covariance", np.eye(mean.size))
        if cov.size != mean.size**2:
            raise ConfigError(f"gaussian covariance needs {mean.size**2} entries")
        return GaussianTarget(mean, cov.reshape(mean.size, mean.size))
    if config.regression is None:
        raise ConfigError("target 'regression' needs a regression section")
    return make_synthetic_regression(**{"data_seed": 0, **config.regression})


def build_isa_config(config: RunConfig) -> IsaConfig:
    samples = config.isa.get("samples", 1000)
    return IsaConfig(samples, seed=config.seed, **_without(config.isa, "samples"))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _chain(config: RunConfig, target, rng, keep=None):
    """The stretch-move chain of `init.mcmc`; without `walkers` it runs
    default_walker_count(n_theta) walkers.  A `keep` outside [1, walkers *
    steps] is a ConfigError before the chain runs."""
    spec = config.init["mcmc"]
    walkers = spec.get("walkers", default_walker_count(target.dimension))
    length = walkers * spec["steps"]
    if keep is not None and not 1 <= keep <= length:
        raise ConfigError(f"init.mcmc.keep {keep} is not in [1, walkers * steps = {length}]")
    return stretch_move_run(
        target,
        n_walkers=walkers,
        n_steps=spec["steps"],
        rng=rng,
        **_without(spec, "walkers", "steps", "keep"),
    )


def _modes(config: RunConfig, target, rng):
    """The multistart results of `init.gmm` and their distinct modes.  A
    `confidence` outside (0, 1) is a ConfigError before multistart runs."""
    spec = config.init["gmm"]
    confidence = spec.get("confidence")
    if confidence is not None and not 0.0 < confidence < 1.0:
        raise ConfigError(f"init.gmm.confidence {confidence} is not in (0, 1)")
    results = multistart(target, spec["n_starts"], rng, settings=OptSettings(**config.opt))
    return results, dedup_modes(results, **_without(spec, "n_starts"))


def build_init(config: RunConfig, target, rng):
    """Return the ISA starting point: a WeightedEnsemble or a proposal."""
    if "mcmc" in config.init:
        keep = config.init["mcmc"].get("keep")
        if keep is None:
            raise ConfigError("init.mcmc missing key 'keep'")
        return mcmc_init_ensemble(_chain(config, target, rng, keep), keep)
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
    steps = config.init["mcmc"]["steps"]
    if steps < MIN_CHAIN_LENGTH:
        raise ConfigError(
            f"init.mcmc.steps {steps} is below the {MIN_CHAIN_LENGTH} the IACT needs"
        )
    chain = _chain(config, build_target(config), _rng(config.seed))
    by_walker = chain.by_walker()
    taus = [
        iact_ensemble(by_walker[:, :, coord]) for coord in range(chain.n_theta)
    ]
    for coord, tau in enumerate(taus):
        if chain.steps < STEPS_PER_TAU * tau:
            print(
                f"warning: theta_{coord}: {chain.steps} steps are fewer than "
                f"{STEPS_PER_TAU} IACTs ({tau:.2f}), so the IACT may be far too "
                f"small; its window is {tau.window} steps",
                file=sys.stderr,
            )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_table(
        out / "chain.csv", [f"theta_{j}" for j in range(chain.n_theta)], chain.samples
    )
    report = {
        "walkers": chain.walkers,
        "steps": chain.steps,
        "acceptance_rate": chain.acceptance_rate,
        "iact": taus,
        "window": [tau.window for tau in taus],
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
