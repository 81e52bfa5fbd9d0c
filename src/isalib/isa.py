"""Iterative importance sampling driver: sample, weigh, monitor R, refit.

Each iteration draws a fixed number of samples from the current proposal,
weighs them against the target, estimates the quality measure R, and refits
the proposal from the weighted ensemble until the relative change in R drops
below the tolerance.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import (
    QualityReport,
    WeightedEnsemble,
    estimate_r,
    self_normalize,
    write_json,
)
from .errors import AllWeightsZero, DegenerateEnsemble, DomainError
from .proposals import fit_gaussian, fit_student_t
from .targets import checked_batch

FAMILIES = ("gaussian", "student_t")
# convergence is only declared while the R estimator is not saturated:
# an estimate from N_e samples is capped near N_e, so large values are
# uncertain and must not trigger the stopping rule
SATURATION_FRACTION = 0.5
# a refit that fails for too few effective samples draws again from the
# current proposal with its spread times WIDEN_FACTOR, at most MAX_WIDENINGS
# times per run: the simplest defensive proposal (Hesterberg 1995)
WIDEN_FACTOR = 4.0
MAX_WIDENINGS = 3
# rows per target and proposal evaluation: a step's temporaries (model
# predictions, residuals, whitened deviations) are O(EVAL_BLOCK_ROWS) rows
# wide instead of O(N); the blocks never depend on the worker count, and
# every batch gives a row the same value however the draw is split
EVAL_BLOCK_ROWS = 4096
# trace.json names of the IterationRecord fields not written under their own
RECORD_KEYS = {"n_e": "N_e", "failure_count": "failures"}


@dataclass(frozen=True)
class IsaConfig:
    samples_per_iteration: int
    max_iterations: int = 10
    tol: float = 0.05
    inflation: float = 1.0
    family: str = "gaussian"
    nu: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_iteration < 2:
            raise DomainError("samples_per_iteration must be >= 2")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        # tol == 0 is allowed for forcing a full max_iterations run
        # written so that NaN fails each check
        if not self.tol >= 0.0:
            raise DomainError("tol must be >= 0")
        if not self.inflation >= 1.0:
            raise DomainError("inflation must be >= 1")
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}")
        if self.family == "student_t" and not self.nu > 2.0:
            raise DomainError("student_t family needs nu > 2")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IterationRecord:
    k: int
    n_e: int
    r: float
    n_eff: float
    failure_count: int
    wall_time: float
    proposal: dict  # proposal snapshot (serialized form)
    max_weight: float  # largest self-normalized weight
    saturated: bool  # r >= SATURATION_FRACTION * n_e: too large to trust
    widened: bool  # drawn from a widened proposal, not from a refit


@dataclass(frozen=True)
class IterationTrace:
    records: tuple
    stopped_reason: str  # "converged" | "max_iterations" | "collapsed"
    final_proposal: object
    final_ensemble: WeightedEnsemble | None
    config: IsaConfig
    # the draw that ended the run with every log-weight -inf (so all N_e
    # samples count as failures); it has no R, so it is not a record
    all_failed_draw: dict | None = None

    def r_values(self) -> list[float]:
        return [rec.r for rec in self.records]

    def to_dict(self) -> dict:
        data = {
            "config": self.config.to_dict(),
            "records": [
                {RECORD_KEYS.get(key, key): value for key, value in asdict(rec).items()}
                for rec in self.records
            ],
            "stopped_reason": self.stopped_reason,
        }
        if self.all_failed_draw is not None:
            data["all_failed_draw"] = self.all_failed_draw
        return data

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())


def parallel_map_density(target, thetas):
    """`checked_batch` of target.log_density_batch over the rows of `thetas`."""
    return checked_batch(target.log_density_batch, thetas)


def isa_step(
    target, proposal, n_e: int, rng: np.random.Generator
) -> tuple[WeightedEnsemble, QualityReport]:
    """One importance-sampling pass: draw n_e samples from the proposal and
    self-normalize the weights log p(theta|z) - log q(theta).

    The draw is one `proposal.sample` call; its rows are then weighed in
    blocks of EVAL_BLOCK_ROWS, one target and one proposal batch per block,
    so the weights equal those of a single batch bitwise.  Failed target
    evaluations get log-weight -inf; raises AllWeightsZero if every sample
    fails.
    """
    if target.dimension != proposal.dimension:
        raise DomainError("target and proposal dimensions disagree")
    thetas = proposal.sample(rng, n_e)
    log_w = np.empty(len(thetas))
    for start in range(0, len(thetas), EVAL_BLOCK_ROWS):
        block = thetas[start : start + EVAL_BLOCK_ROWS]
        log_p, failed = parallel_map_density(target, block)
        log_q = proposal.log_density_batch(block)
        log_w[start : start + len(block)] = np.where(failed, -np.inf, log_p - log_q)
    weights = self_normalize(log_w)
    ensemble = WeightedEnsemble(thetas, log_w, weights)
    return ensemble, estimate_r(weights)


def _fit(ensemble: WeightedEnsemble, config: IsaConfig):
    if config.family == "student_t":
        return fit_student_t(ensemble, config.nu, config.inflation)
    return fit_gaussian(ensemble, config.inflation)


def isa_run(
    target,
    init,
    config: IsaConfig,
    workers: int = 1,
    rng: np.random.Generator | None = None,
) -> IterationTrace:
    """Run the full iteration from an initial ensemble or proposal.

    `init` is either a WeightedEnsemble (the k=0 proposal is fit from it) or
    a proposal object used directly for the first draw.  Stops when the
    relative change |R_k+1 - R_k| / R_k falls below config.tol (and the
    estimate is not saturated), at max_iterations, or on collapse; collapse
    is recorded in stopped_reason, not raised.  Collapse is a degenerate
    initial ensemble, a draw whose weights are all zero, or a failed refit
    once MAX_WIDENINGS are used; a draw whose weights are all zero is kept
    as `all_failed_draw`.  `workers` is accepted for compatibility
    and ignored: each draw is evaluated in the fixed row blocks of
    `isa_step`, in one process.
    """
    rng = rng or np.random.Generator(np.random.Philox(config.seed))
    records: list[IterationRecord] = []
    ensemble = None
    try:
        if isinstance(init, WeightedEnsemble):
            proposal = _fit(init, config)
        else:
            proposal = init
    except DegenerateEnsemble:
        return IterationTrace((), "collapsed", None, None, config)

    stopped = "max_iterations"
    all_failed_draw = None
    prev_r = None
    widenings = 0
    widened = False
    for k in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()
        try:
            ensemble, report = isa_step(
                target, proposal, config.samples_per_iteration, rng
            )
        except AllWeightsZero:
            n_e = config.samples_per_iteration
            all_failed_draw = {"k": k, "N_e": n_e, "failures": n_e,
                               "proposal": proposal.to_dict()}
            stopped = "collapsed"
            break
        saturated = report.r >= SATURATION_FRACTION * config.samples_per_iteration
        records.append(
            IterationRecord(
                k=k,
                n_e=config.samples_per_iteration,
                r=report.r,
                n_eff=report.n_eff,
                failure_count=int(np.sum(np.isneginf(ensemble.log_weights_raw))),
                wall_time=time.perf_counter() - t0,
                proposal=proposal.to_dict(),
                max_weight=float(ensemble.weights.max()),
                saturated=saturated,
                widened=widened,
            )
        )
        if (
            prev_r is not None
            and prev_r > 0
            and abs(report.r - prev_r) / prev_r < config.tol
            and not saturated
        ):
            stopped = "converged"
            break
        prev_r = report.r
        if k < config.max_iterations:
            try:
                proposal = _fit(ensemble, config)
                widened = False
            except DegenerateEnsemble:
                if widenings == MAX_WIDENINGS:
                    stopped = "collapsed"
                    break
                widenings += 1
                proposal = proposal.widened(WIDEN_FACTOR)
                widened = True
    return IterationTrace(
        tuple(records), stopped, proposal, ensemble, config, all_failed_draw
    )
