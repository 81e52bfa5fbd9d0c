"""The three benchmark workloads and the inputs each run derives from its seed.

Every workload starts from a config shipped in `configs/`.  A run draws
`seeds` sub-seeds from the run seed and passes each to the CLI with
`--seed`, so one run averages over several inputs: the number of ISA
iterations, and with it the cost of an invocation, changes from seed to
seed.  Every sub-seed is counted and timed.  Why each workload is here is in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # isalib subcommand
    config: str  # shipped config, relative to the checkout root
    seeds: int  # sub-seeds per run
    smoke: dict = field(default_factory=dict)  # reduced size: --smoke and warm-up

    def argv(self, config_path, seed: int, out_dir) -> list[str]:
        return [self.command, "--config", str(config_path), "--seed", str(seed),
                "--output", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        # 3 to 5 ISA iterations per seed: 24 sub-seeds even out the mix
        Workload("toy2d_mcmc", "run", "configs/toy2d_mcmc.json", seeds=24,
                 smoke={"isa": {"samples": 2000}}),
        # 3 or 4 iterations per seed, so evals_per_ess needs 3 sub-seeds
        Workload("regression_t", "run", "configs/regression_student_t.json", seeds=3,
                 smoke={"isa": {"samples": 2000}, "init": {"gmm": {"n_starts": 10}}}),
        # the IACT estimate varies by ~6 % from seed to seed
        Workload("toy2d_baseline", "mcmc-baseline", "configs/toy2d_baseline.json",
                 seeds=2, smoke={"init": {"mcmc": {"steps": 2000}}}),
    )
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def write_config(workload: Workload, root: Path, tmp: Path, smoke: bool) -> Path:
    """Write the workload's config, or with `smoke` its reduced-size version,
    into `tmp`."""
    with open(root / workload.config) as fh:
        config = json.load(fh)
    if smoke:
        config = _merge(config, workload.smoke)
    config["output_dir"] = str(tmp / "out")
    path = tmp / ("smoke.json" if smoke else "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return path
