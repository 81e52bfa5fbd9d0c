#!/usr/bin/env python3
"""Print a sha256 digest of every file a fixed corpus of CLI runs writes.

Run it in two checkouts and diff the two listings to see whether a change
keeps the outputs byte-identical:

    PYTHONPATH=src python3 scripts/output_digest.py > digests.txt

Each line is `sha256  path`, with the path relative to the output directory.
`trace.json` is hashed with its `wall_time` values blanked, since they are
clock readings.  Each invocation also gets one line for its exit code and
stdout, under the path `<invocation>/exit+stdout`, with the output directory
written as `<out>` so that listings made in different places compare.
The invocations in FILE_INITS read an ensemble file that an earlier
invocation of the corpus wrote, through a copy of their config with an
`init.file` section, written next to the outputs as
`<command>/<config>/<seed>.json`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

from isalib.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WALL_TIME = re.compile(rb'"wall_time": [^,\n]*')
# (command, config name, seed) -> the file, relative to the output
# directory, that the invocation's `init.file` names
FILE_INITS = {
    ("run", "toy2d_mcmc", 3): "init-mcmc/toy2d_mcmc/3/init_ensemble.csv",
    ("export-triangle", "regression_student_t", 5): "run/regression_student_t/5/ensemble.csv",
}


def corpus():
    """(command, config name, seed) for every invocation, in run order."""
    runs = [("run", "toy2d_mcmc", s) for s in sorted({*range(100, 160), 138, 181, 211})]
    for seed in range(5, 17):
        runs += [("run", "regression_student_t", seed),
                 ("init-gmm", "regression_student_t", seed)]
    runs += [("run", "toy2d_gmm", seed) for seed in range(7, 10)]
    # every toy2d_gmm init is a BFGS multistart (toy2d has no residuals)
    runs += [("init-gmm", "toy2d_gmm", seed) for seed in range(20)]
    runs += [("init-mcmc", "toy2d_mcmc", 3), ("run", "toy2d_mcmc", 3),
             ("mcmc-baseline", "toy2d_baseline", 9)]
    runs += [("run", "gaussian_mcmc", seed) for seed in range(11, 15)]
    runs += [("init-mcmc", "gaussian_mcmc", 11)]
    runs += [("export-triangle", "regression_student_t", 5)]
    return runs


def file_init_config(root: Path, command: str, config: str, seed: int) -> Path:
    """The path of a copy of `config` whose init reads the FILE_INITS entry
    of the invocation, written under `root`."""
    data = json.loads((CONFIGS / f"{config}.json").read_text())
    data["init"] = {"file": str(root / FILE_INITS[command, config, seed])}
    path = root / command / config / f"{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))
    return path


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "trace.json":
        data = WALL_TIME.sub(b'"wall_time": null', data)
    return hashlib.sha256(data).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="output directory (default: a temporary one)")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        root = Path(args.out or stack.enter_context(tempfile.TemporaryDirectory()))
        for command, config, seed in corpus():
            name = f"{command}/{config}/{seed}"
            path = (file_init_config(root, command, config, seed)
                    if (command, config, seed) in FILE_INITS else CONFIGS / f"{config}.json")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main([command, "--config", str(path),
                                 "--seed", str(seed), "--output", str(root / name)])
            text = stdout.getvalue().replace(str(root), "<out>")
            record = f"exit {code}\n{text}".encode()
            print(f"{hashlib.sha256(record).hexdigest()}  {name}/exit+stdout", flush=True)
            for path in sorted((root / name).rglob("*")):
                if path.is_file():
                    print(f"{digest(path)}  {path.relative_to(root)}", flush=True)


if __name__ == "__main__":
    main()
