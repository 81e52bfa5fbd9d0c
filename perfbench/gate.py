"""Correctness gate: checks the files one CLI invocation wrote.

Each check returns (errors, wrong, stats).  With `exports` false the
invocation ran with its exports skipped, and only what precedes them is
checked.  `errors` say the invocation did
not finish as the CLI documents (exit code, stop reason, missing outputs);
`wrong` say it finished with outputs that cannot be right.  Either makes the
invocation a failed operation; only `wrong` makes the run incorrect.
`stats` carries what the end-to-end metrics need and a fingerprint that must
repeat bitwise for every invocation of one seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

WEIGHT_SUM_TOL = 1e-12
STOP_TO_EXIT = {"converged": 0, "max_iterations": 2, "collapsed": 3}


def check_isa_run(out: Path, exit_code: int,
                  exports: bool = True) -> tuple[list[str], list[str], dict]:
    errors: list[str] = []
    wrong: list[str] = []
    if exit_code not in (0, 2):
        errors.append(f"run exited with {exit_code}")
    try:
        with open(out / "trace.json") as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        return errors + [f"trace.json unreadable: {exc}"], wrong, {}
    records = trace.get("records") or []
    if not records:
        return errors + ["trace.json has no iterations"], wrong, {}
    reason = trace.get("stopped_reason")
    if STOP_TO_EXIT.get(reason) != exit_code:
        errors.append(f"stopped_reason {reason!r} disagrees with exit code {exit_code}")
    for rec in records:
        r, n = rec["r"], rec["N_e"]
        if not (math.isfinite(r) and 1.0 <= r <= n):
            wrong.append(f"iteration {rec['k']}: R={r} outside [1, {n}]")
    if exports:
        _check_ensemble(out, errors, wrong)
    final = records[-1]
    stats = {
        "fingerprint": [rec["r"] for rec in records],
        "draws": final["N_e"],
        "ess": final["N_e"] / final["r"],
    }
    return errors, wrong, stats


def _check_ensemble(out: Path, errors: list[str], wrong: list[str]) -> None:
    try:
        with open(out / "ensemble.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            weights = [float(row[0]) for row in reader if row]
    except (OSError, ValueError, StopIteration, IndexError) as exc:
        errors.append(f"ensemble.csv unreadable: {exc}")
        return
    total = math.fsum(weights)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        wrong.append(f"ensemble weights sum to {total!r}")
    d = sum(1 for name in header if name.startswith("theta_"))
    expected = ["triangle.svg"] + [f"hist_theta_{i}.csv" for i in range(d)]
    expected += [
        f"hist2d_theta_{i}_theta_{j}.csv" for i in range(d) for j in range(i + 1, d)
    ]
    errors += [f"{name} missing" for name in expected if not (out / name).is_file()]


def check_baseline(out: Path, exit_code: int,
                   exports: bool = True) -> tuple[list[str], list[str], dict]:
    # mcmc-baseline calls none of the exports the counting pass skips
    errors: list[str] = []
    wrong: list[str] = []
    if exit_code != 0:
        errors.append(f"mcmc-baseline exited with {exit_code}")
    if not (out / "chain.csv").is_file():
        errors.append("chain.csv missing")
    try:
        with open(out / "iact.json") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return errors + [f"iact.json unreadable: {exc}"], wrong, {}
    taus = report.get("iact") or []
    if not taus:
        errors.append("iact.json lists no IACT")
    for tau in taus:
        if not (math.isfinite(tau) and tau >= 1.0):
            wrong.append(f"IACT {tau} is non-finite or below 1")
    if errors or wrong:
        return errors, wrong, {}
    draws = report["walkers"] * report["steps"]
    stats = {
        "fingerprint": taus + [report["acceptance_rate"]],
        "draws": draws,
        "ess": draws / max(taus),
    }
    return errors, wrong, stats


CHECKS = {"run": check_isa_run, "mcmc-baseline": check_baseline}
