"""Smoke test of the benchmark itself: every workload once at a reduced size,
untraced and traced, checked against the metrics BENCHMARK.json declares.

Run from the repository root (takes about a minute):
    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import CountingTarget, Patcher, PointMeter, TraceError  # noqa: E402
from workloads import WORKLOADS as DEFINED  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers that run, and so must read above zero, on each workload
RUNS_ON = {
    "toy2d_mcmc": ["init.stretch_s", "init.stretch_accept", "parallel.map_s",
                   "isa.step_s", "isa.refit_s", "ensemble.csv_write_s",
                   "diagnostics.triangle_s"],
    "regression_t": ["init.multistart_s", "init.dedup_s", "init.modes",
                     "optimize.converged_frac", "optimize.evals", "isa.refit_s",
                     "proposals.logq_s", "ensemble.cov_s", "diagnostics.triangle_s"],
    "toy2d_baseline": ["init.stretch_s", "init.stretch_accept", "diagnostics.iact_s"],
}
ALWAYS = ["targets.evals", "targets.eval_s", "targets.eval_us", "cli.self_s"]
DETERMINISTIC = {
    0: ["draws_per_ess", "evals_per_ess"],
    1: ["targets.evals", "optimize.evals", "isa.iterations", "ensemble.cov_calls"],
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_the_benchmark_tables():
    assert WORKLOADS == list(DEFINED)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {n: m["value"] for n, m in res["metrics"].items()}
    if trace:
        assert all(values[n] > 0 for n in RUNS_ON[workload] + ALWAYS), values
    else:
        assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("trace", [0, 1])
def test_deterministic_metrics_repeat(trace):
    first = result("regression_t", trace)["metrics"]
    proc = bench("regression_t", trace)
    again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in DETERMINISTIC[trace]:
        assert again[name]["value"] == first[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("toy2d_mcmc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Target:
    def residuals(self, theta):
        return [theta]

    def log_density(self, theta):
        return -float(self.residuals(theta)[0]) ** 2

    def log_density_batch(self, thetas):
        return [0.0] * len(thetas), [i % 2 == 1 for i in range(len(thetas))]


def test_counting_proxy_counts_each_point_once():
    meter = PointMeter()
    proxy = CountingTarget(_Target(), meter, is_failure=lambda value: False)
    proxy.log_density(1.0)  # calls residuals inside the target: one point
    proxy.residuals(2.0)
    proxy.log_density_batch([1.0, 2.0, 3.0])
    assert meter.totals()[:2] == (5, 1)
    # methods the target lacks stay missing, so the optimizer's choice holds
    assert not hasattr(proxy, "neg_log_posterior")
    with pytest.raises(TraceError):
        CountingTarget(object(), meter, is_failure=lambda value: False)


def test_counting_proxy_is_thread_safe():
    meter = PointMeter()
    proxy = CountingTarget(_Target(), meter, is_failure=lambda value: False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [proxy.log_density(1.0) for _ in range(5000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert meter.totals()[0] == 8 * 5000


def test_a_missing_layer_name_fails_loudly():
    class Module:
        pass

    with pytest.raises(TraceError):
        Patcher().replace(Module, "renamed_away", lambda original: original)
