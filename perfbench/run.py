"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones (see perfbench/README.md).  The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; the line before it holds
the context of the run (thread settings, versions, host probe).  Without the
program's sources next to it, it exits 1 and prints no result.

Children run with BLAS and OpenMP pinned to one thread, ISA_WORKERS cleared,
and PYTHONPATH pointing at the checkout's `src`.  All files go to a private
directory under `.bench_tmp/` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 3
BUDGET_S = 170.0  # the whole run, set-up launches included
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("ISA_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def time_setup(root: Path, config: Path, env: dict, deadline: float) -> float:
    """Seconds from launching a fresh interpreter until it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(config)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def run_worker(root: Path, args, config: Path, tmp: Path, env: dict,
               deadline: float) -> dict:
    workload = WORKLOADS[args.workload]
    seeds = 1 if args.smoke else workload.seeds
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--seeds", str(seeds), "--config", str(config),
        "--warmup-config", str(write_config(workload, root, tmp, smoke=True)),
        "--tmp", str(tmp),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("workload did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(root: Path, args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    env = child_env(root)
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        config = write_config(workload, root, tmp, args.smoke)
        setup = []
        if not args.trace:
            launches = 1 if args.smoke else SETUP_LAUNCHES
            setup = [time_setup(root, config, env, deadline) for _ in range(launches)]
        result = run_worker(root, args, config, tmp, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "setup_launches_s": setup,
        **result["context"],
    }
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and one sub-seed, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    needed = ["src/isalib/cli.py", WORKLOADS[args.workload].config]
    missing = [path for path in needed if not (root / path).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the repository root",
              file=sys.stderr)
        return 1
    try:
        result, context = measure(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    metrics = {
        name: {"value": result["metrics"][name], "unit": UNITS[name]}
        for name in names if name in result["metrics"]
    }
    # a failed invocation is counted in "failed"; "correct" is lost only by
    # wrong outputs, or by a metric that could not be measured
    correct = result["wrong"] == 0 and len(metrics) == len(names)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
