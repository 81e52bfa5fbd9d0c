"""Runs one workload in a child process whose environment run.py controls.

Usage (run.py starts it from the checkout root, with PYTHONPATH=src):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --seeds K --config PATH --warmup-config PATH --tmp DIR

All in this process, calling `isalib.cli.main` in-process:
1. a warm-up invocation at reduced size;
2. for each sub-seed, a counting invocation (targets wrapped in a counting
   proxy, exports skipped, untimed, not an operation) followed by a timed
   invocation, untouched and untraced; sub-seeds are drawn until `--seeds`
   of them pass the gate, or twice that many have been tried;
3. more timed invocations as long as the timed total stays within `seconds`;
4. traced pass (--trace 1): each sub-seed once more, under the tracer.
Every operation goes through the correctness gate, and every invocation of
one sub-seed must give the same result bitwise.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import gate
from tracer import PointMeter, Patcher, Tracer, count_points
from workloads import WORKLOADS

import isalib.cli
import isalib.diagnostics
import isalib.isa
import isalib.proposals
import isalib.targets


def host_probe(repeats: int = 3) -> float:
    """Median seconds of a fixed CPU loop (pure Python, then numpy)."""
    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(1_500_000):
            acc += i * i
        np.sort(data)
        block = data[:40_000].reshape(200, 200)
        block @ block
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Calls the CLI in-process and keeps the operation counts."""

    # they write files and evaluate no target, so the counting pass skips them
    EXPORTS = ("write_ensemble_csv", "triangle_export")

    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.check = gate.CHECKS[workload.command]
        self.calls = 0
        self.attempted = 0
        self.failed = 0  # invocations that failed the gate
        self.wrong = 0  # of those, invocations whose outputs are wrong
        self.fingerprints: dict[tuple, list] = {}

    def _call(self, config: Path, seed: int, call, exports: bool):
        """One CLI invocation in a fresh output directory; returns its wall
        time and the gate's (errors, wrong, stats)."""
        self.calls += 1
        out = self.tmp / f"inv-{self.calls}"
        argv = self.workload.argv(config, seed, out)
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            if call is None:
                code = isalib.cli.main(argv)
            else:
                code = call(isalib.cli.main, argv)
            wall = perf_counter() - t0
        errors, wrong, stats = self.check(out, code, exports)
        shutil.rmtree(out, ignore_errors=True)
        fingerprint = stats.get("fingerprint")
        if fingerprint is not None:
            first = self.fingerprints.setdefault((config, seed), fingerprint)
            if fingerprint != first:
                wrong.append(
                    f"seed {seed}: {fingerprint} differs from the first "
                    f"invocation's {first}"
                )
        return wall, errors, wrong, stats

    def invoke(self, config: Path, seed: int, call=None) -> tuple[float, dict | None]:
        """One operation; returns its wall time and its gate stats (None if
        it failed the gate)."""
        wall, errors, wrong, stats = self._call(config, seed, call, exports=True)
        self.attempted += 1
        if errors or wrong:
            self.failed += 1
            self.wrong += bool(wrong)
            print(f"invocation {self.attempted} (seed {seed}) failed: "
                  + "; ".join(errors + wrong), file=sys.stderr)
            return wall, None
        return wall, stats

    def count(self, config: Path, seed: int, meter: PointMeter) -> int:
        """Target points one invocation evaluates.  Not an operation: its
        exports are skipped, so only its R sequence is checked, against the
        operations of the same sub-seed; a wrong one makes the run incorrect."""
        patcher = Patcher()
        count_points(patcher, isalib.cli, meter, isalib.targets.is_failure)
        for name in self.EXPORTS:
            patcher.replace(isalib.cli, name, lambda original: lambda *a, **k: None)
        before = meter.totals()[0]
        try:
            _, _, wrong, _ = self._call(config, seed, None, exports=False)
        finally:
            patcher.uninstall()
        if wrong:
            self.wrong += 1
            print(f"counting invocation (seed {seed}): " + "; ".join(wrong),
                  file=sys.stderr)
        return meter.totals()[0] - before


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seeds", type=int, required=True, help="sub-seeds per run")
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--warmup-config", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.tmp)
    # a sub-seed that fails the gate is counted in `failed` and replaced by
    # the next one, so that the metrics cover `--seeds` sub-seeds that pass
    drawn = [int(s) for s in
             np.random.SeedSequence(args.seed).generate_state(2 * args.seeds)]
    calib_s = host_probe()
    runner.invoke(args.warmup_config, drawn[0])

    # counting and timed invocations alternate, so that the timed ones are
    # spread over the run rather than caught in one slow stretch of the host
    meter = PointMeter()
    evals: dict[int, int] = {}
    stats: dict[int, dict] = {}
    times: dict[int, list[float]] = {}
    seeds = []
    for seed in drawn:
        if len(stats) == args.seeds:
            break
        seeds.append(seed)
        points = runner.count(args.config, seed, meter)
        wall, result = runner.invoke(args.config, seed)
        if result is not None:
            evals[seed] = points
            stats[seed] = result
            times[seed] = [wall]
    timed = list(times)
    # then more timed invocations while the next one, taking as long as it
    # did last, keeps the timed total within `seconds`
    for seed in itertools.cycle(timed):
        if sum(map(sum, times.values())) + times[seed][-1] > args.seconds:
            break
        wall, _ = runner.invoke(args.config, seed)
        times[seed].append(wall)
    wall_by_seed = {seed: statistics.median(times[seed]) for seed in timed}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ess = sum(stats[s]["ess"] for s in stats)
    metrics = {}
    if timed:
        metrics["wall_s"] = statistics.fmean(wall_by_seed.values())
        metrics["ess_per_s"] = ess / len(stats) / metrics["wall_s"]
    if ess:
        metrics["draws_per_ess"] = sum(stats[s]["draws"] for s in stats) / ess
        metrics["evals_per_ess"] = sum(evals[s] for s in stats) / ess
    metrics["peak_rss_mb"] = peak_rss_mb

    # traced pass
    if args.trace:
        tracer = Tracer()
        tracer.install(isalib)
        traced = []

        def under_root_span(main, argv):
            return tracer.call(tracer.ROOT, main, argv)

        try:
            for seed in timed:
                wall, _ = runner.invoke(args.config, seed, under_root_span)
                traced.append(wall)
        finally:
            tracer.uninstall()
        overhead = (
            statistics.fmean(traced) - statistics.fmean(wall_by_seed[s] for s in timed)
            if traced else 0.0
        )
        metrics = tracer.layer_metrics(len(traced), overhead) if traced else {}

    context = {
        "sub_seeds": seeds,
        "timed_invocations": sum(map(len, times.values())),
        "timed_wall_s": [round(wall_by_seed[s], 4) for s in timed],
        "host.calib_s": calib_s,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "wrong": runner.wrong, "metrics": metrics, "context": context}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
