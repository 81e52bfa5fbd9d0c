"""Minimization of the negative log-posterior F for mixture initialization.

Targets exposing least-squares structure (`residuals_batch`) are minimized
with damped Gauss-Newton (Levenberg-Marquardt), everything else with BFGS
on F from `log_density_batch`.  Both move all the starts of a multistart in
lockstep, one batch call per stage, and take their finite differences from
one stencil builder.  Accepted steps strictly decrease F.  Every batch is
a `targets.checked_batch` call; failed trial steps are rejected and
stencils fall back to one side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, EvaluationFailed
from .targets import TargetDensity, checked_batch, is_failure

# step for the mode-curvature Hessian that becomes a Laplace covariance:
# probed at ~0.5% of the parameter scale, not at gradient resolution,
# so exactly-flat (quartic) ridge directions get a finite width
HESSIAN_REL_STEP = 5e-3


class OptStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    FAILED = "failed"


@dataclass(frozen=True)
class OptSettings:
    rel_step: float = 1e-6
    f_tol: float = 1e-10
    grad_tol: float = 1e-6
    max_iter: int = 200


@dataclass(frozen=True)
class OptimizationResult:
    minimizer: np.ndarray
    f_min: float
    hessian_approx: np.ndarray
    status: OptStatus
    n_iter: int
    f_history: tuple = field(repr=False, default=())


def repair_spd_eig(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalue-clipping SPD repair of a matrix or of each matrix in a
    (..., n, n) stack, each with its own floor; always yields positive
    definite matrices (used for Hessian approximations serving as
    covariance inverses).  A matrix's result is the same alone as in a
    stack."""
    a = np.asarray(matrix, dtype=float)
    a = 0.5 * (a + a.swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(a)
    floor = 1e-8 * np.maximum(np.abs(vals).max(axis=-1), 1.0)
    vals = np.maximum(vals, floor[..., None])
    repaired = (vecs * vals[..., None, :]) @ vecs.swapaxes(-1, -2)
    return 0.5 * (repaired + repaired.swapaxes(-1, -2))


def _axis_offsets(n):
    """The 2n unit offsets of a central difference: +e_j, -e_j for each j."""
    return np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)


def _stencils(evaluate, thetas, rel_step, offsets):
    """One `evaluate(points) -> (values, failed)` call over each row of
    `thetas` (S, n) plus each unit offset (P, n) times the row's steps
    h = rel_step * (1 + |theta|): the values (S, P, ...), failed (S, P), h."""
    h = rel_step * (1.0 + np.abs(thetas))
    points = thetas[:, None, :] + offsets * h[:, None, :]
    values, failed = evaluate(points.reshape(-1, thetas.shape[1]))
    shape = (len(thetas), len(offsets))
    return values.reshape(shape + values.shape[1:]), failed.reshape(shape), h


def _derivatives(evaluate, thetas, centre, rel_step):
    """First difference quotients (S, n, ...) of a scalar or vector
    `evaluate` at every row of `thetas`, from one `_stencils` call over 2n
    axis points per row: central, or one-sided against the row's value in
    `centre` where a side failed; and a mask of the rows with no coordinate
    failed on both sides.  With no rows it makes no `evaluate` call."""
    if not len(thetas):
        return np.empty(thetas.shape + centre.shape[1:]), np.ones(0, dtype=bool)
    values, failed, h = _stencils(evaluate, thetas, rel_step, _axis_offsets(thetas.shape[1]))
    step = h.reshape(h.shape + (1,) * (values.ndim - 2))  # broadcasts over a vector's entries
    up, dn, centre = values[:, 0::2], values[:, 1::2], centre[:, None]
    up_failed, dn_failed = failed[:, 0::2], failed[:, 1::2]
    quotients = (up - dn) / (2.0 * step)
    if failed.any():
        quotients = np.where(up_failed.reshape(step.shape), (centre - dn) / step, quotients)
        quotients = np.where(dn_failed.reshape(step.shape), (up - centre) / step, quotients)
    return quotients, ~(up_failed & dn_failed).any(axis=1)


def _hessians(evaluate, thetas, centre, rel_step):
    """Second-difference Hessians (S, n, n) of a scalar `evaluate` at every
    row of `thetas` (value `centre`), from one `_stencils` call over 2n^2
    points per row, and a mask of the rows where no point failed.  With no
    rows it makes no `evaluate` call."""
    s, n = thetas.shape
    if not s:
        return np.empty((0, n, n)), np.ones(0, dtype=bool)
    unit = _axis_offsets(n).reshape(n, 2, n)
    i, j = np.triu_indices(n, 1)
    # +e_i+e_j, +e_i-e_j, -e_i+e_j and -e_i-e_j for each pair i < j
    pairs = unit[i][:, :, None] + unit[j][:, None, :]
    offsets = np.concatenate([unit.reshape(-1, n), pairs.reshape(-1, n)])
    values, failed, h = _stencils(evaluate, thetas, rel_step, offsets)
    hess = np.empty((s, n, n))
    diag = np.arange(n)
    sides = values[:, : 2 * n].reshape(s, n, 2)
    hess[:, diag, diag] = (sides[..., 0] - 2.0 * centre[:, None] + sides[..., 1]) / h**2
    cross = values[:, 2 * n :].reshape(s, i.size, 4)
    hess[:, i, j] = hess[:, j, i] = (
        cross[..., 0] - cross[..., 1] - cross[..., 2] + cross[..., 3]
    ) / (4.0 * h[:, i] * h[:, j])
    return hess, ~failed.any(axis=1)


def _pointwise(f, theta):
    """An `evaluate` over a scalar f, one call per point with NaN where
    `is_failure`; theta as a one-row batch; that batch's values and mask."""

    def evaluate(points):
        values = np.array([math.nan if is_failure(v) else v for v in map(f, points)], float)
        return values, np.isnan(values)

    thetas = np.asarray(theta, dtype=float)[None, :]
    return evaluate, thetas, *evaluate(thetas)


def finite_diff_gradient(f, theta, rel_step: float = 1e-6) -> np.ndarray:
    """Gradient of a scalar f at one point by `_derivatives`.  Raises
    EvaluationFailed if both sides of a coordinate fail, or if a one-sided
    quotient is needed and f fails at theta."""
    evaluate, thetas, centre, _ = _pointwise(f, theta)
    grad, ok = _derivatives(evaluate, thetas, centre, rel_step)
    if np.isnan(grad).any():  # only a failed value makes a quotient NaN
        raise EvaluationFailed("f failed at the expansion point" if ok[0]
                               else "both one-sided stencils failed for a coordinate")
    return grad[0]


def fd_hessian(f, theta, rel_step: float = 1e-5) -> np.ndarray:
    """Symmetrized central second differences of a scalar f at one point by
    `_hessians`, SPD-repaired so the result can serve as a covariance
    inverse.  Raises EvaluationFailed if f fails at any stencil point."""
    evaluate, thetas, centre, centre_failed = _pointwise(f, theta)
    hess, ok = _hessians(evaluate, thetas, centre, rel_step)
    if centre_failed[0] or not ok[0]:
        raise EvaluationFailed("stencil point evaluation failed")
    return repair_spd_eig(hess[0])


def gauss_newton_hessian(
    residual_jacobian: np.ndarray, prior_precision: np.ndarray
) -> np.ndarray:
    """H = J^T J + prior_precision, SPD-repaired, for one Jacobian or a
    (..., m, n) stack of them.  The residuals are whitened and F carries the
    1/2 convention, so no extra factor 2."""
    j = np.asarray(residual_jacobian, dtype=float)
    if not np.all(np.isfinite(j)):
        raise DomainError("residual Jacobian must be finite")
    return repair_spd_eig(
        j.swapaxes(-1, -2) @ j + np.asarray(prior_precision, dtype=float)
    )


def _neg_log_posterior_batch(target, thetas):
    """F of every row of `thetas` from one checked `log_density_batch` call,
    and the failed mask; a failed row holds NaN."""
    values, failed = checked_batch(target.log_density_batch, thetas)
    return -values, failed


def _norms_sq(x):
    """Squared norm of every row of a 2-d array."""
    return np.einsum("ij,ij->i", x, x)


def _results(starts, live, theta, f, hessians, status, n_iter, history):
    """One result per start: the rows `live` from the lockstep state, the
    k-th with hessians[k]; a FAILED result for the rest."""
    results = [OptimizationResult(x, math.inf, np.eye(x.size), OptStatus.FAILED, 0, ())
               for x in np.asarray(starts, dtype=float)]
    for k, i in enumerate(live):
        results[i] = OptimizationResult(
            theta[i].copy(), float(f[i]), hessians[k], status[i], int(n_iter[i]),
            tuple(history[i]),
        )
    return results


def _minimize_lm(target, starts, settings):
    """Levenberg-Marquardt from every row of `starts` in lockstep: per
    iteration one `residuals_batch` call for the stencils of every running
    start, one stacked solve of their damped normal equations, and one call
    per damping round.  Per start, lambda starts at 1e-3, grows x10 on a
    rejected (or failed) trial up to 1e12 and shrinks /10 on an accepted
    one down to 1e-12."""
    evaluate = partial(checked_batch, target.residuals_batch)
    theta = np.array(starts, dtype=float)
    n_starts, n = theta.shape
    r, start_failed = evaluate(theta)
    f = 0.5 * _norms_sq(r)
    lam = np.full(n_starts, 1e-3)
    n_iter = np.zeros(n_starts, dtype=int)
    status = np.full(n_starts, OptStatus.MAX_ITERATIONS, dtype=object)
    history = [[value] for value in f.tolist()]
    active = live = np.flatnonzero(~start_failed)
    for it in range(1, settings.max_iter + 1):
        if active.size == 0:
            break
        n_iter[active] = it
        jt, ok = _derivatives(evaluate, theta[active], r[active], settings.rel_step)
        status[active[~ok]] = OptStatus.FAILED
        active, jt = active[ok], jt[ok]
        grad = np.einsum("akm,am->ak", jt, r[active])
        flat = np.sqrt(_norms_sq(grad)) <= settings.grad_tol
        status[active[flat]] = OptStatus.CONVERGED
        active, jt, grad = active[~flat], jt[~flat], grad[~flat]
        jtj = np.einsum("akm,alm->akl", jt, jt)
        # the damping rounds: `pending` indexes the active starts whose trial
        # step is neither accepted nor given up on; an accepted step moves
        # its start at once and records how much F fell
        df = np.full(active.size, np.nan)
        pending = np.arange(active.size)
        while pending.size:
            rows = active[pending]
            damped = jtj[pending] + lam[rows, None, None] * np.eye(n)
            trial = theta[rows] + np.linalg.solve(damped, -grad[pending, :, None])[..., 0]
            r_trial, failed = evaluate(trial)
            f_trial = 0.5 * _norms_sq(r_trial)
            good = ~failed & (f_trial < f[rows])
            if good.any():
                moved = rows[good]
                df[pending[good]] = f[moved] - f_trial[good]
                theta[moved], r[moved], f[moved] = trial[good], r_trial[good], f_trial[good]
            lam[rows[~good]] *= 10.0
            pending = pending[~good & (lam[rows] <= 1e12)]
        accepted = ~np.isnan(df)
        status[active[~accepted]] = OptStatus.FAILED
        active, df = active[accepted], df[accepted]
        lam[active] = np.maximum(lam[active] / 10.0, 1e-12)
        for i in active:
            history[i].append(float(f[i]))
        converged = df < settings.f_tol * (1.0 + np.abs(f[active]))
        status[active[converged]] = OptStatus.CONVERGED
        active = active[~converged]
    jt, ok = _derivatives(evaluate, theta[live], r[live], settings.rel_step)
    # one stacked repair; a start without a Jacobian keeps the identity.  The
    # prior rows are part of the whitened residuals, so J holds them
    hessians = np.tile(np.eye(n), (live.size, 1, 1))
    hessians[ok] = gauss_newton_hessian(jt[ok].swapaxes(1, 2), np.zeros((n, n)))
    return _results(starts, live, theta, f, hessians, status, n_iter, history)


def _minimize_bfgs(target, starts, settings):
    """BFGS from every row of `starts` in lockstep: per iteration one
    `log_density_batch` call for the gradient stencils of every start still
    running and one per Armijo backtracking round (at most 60, each halving
    the step).  The final Hessians take one more; a start whose Hessian
    stencil fails gets pinv of its inverse-Hessian estimate."""
    evaluate = partial(_neg_log_posterior_batch, target)
    theta = np.array(starts, dtype=float)
    n_starts, n = theta.shape
    f, start_failed = evaluate(theta)
    grad = np.zeros((n_starts, n))
    live = np.flatnonzero(~start_failed)
    grad[live], ok = _derivatives(evaluate, theta[live], f[live], settings.rel_step)
    active = live = live[ok]
    hinv = np.tile(np.eye(n), (n_starts, 1, 1))
    n_iter = np.zeros(n_starts, dtype=int)
    status = np.full(n_starts, OptStatus.MAX_ITERATIONS, dtype=object)
    history = [[value] for value in f.tolist()]
    for it in range(1, settings.max_iter + 1):
        if active.size == 0:
            break
        n_iter[active] = it
        flat = np.sqrt(_norms_sq(grad[active])) <= settings.grad_tol
        status[active[flat]] = OptStatus.CONVERGED
        active = active[~flat]
        g = grad[active]
        direction = -np.einsum("akl,al->ak", hinv[active], g)
        slope = np.einsum("ak,ak->a", g, direction)
        uphill = slope >= 0.0
        hinv[active[uphill]] = np.eye(n)
        direction[uphill], slope[uphill] = -g[uphill], -_norms_sq(g[uphill])
        # the backtracking rounds: `pending` indexes the active starts whose
        # Armijo test has not passed yet
        alpha, f_new = np.ones(active.size), np.full(active.size, np.nan)
        pending = np.arange(active.size)
        for _ in range(60):
            if pending.size == 0:
                break
            rows = active[pending]
            f_trial, failed = evaluate(theta[rows] + alpha[pending, None] * direction[pending])
            good = ~failed & (f_trial <= f[rows] + 1e-4 * alpha[pending] * slope[pending])
            f_new[pending[good]] = f_trial[good]
            pending = pending[~good]
            alpha[pending] *= 0.5
        moved = ~np.isnan(f_new)
        status[active[~moved]] = OptStatus.FAILED
        active, s, f_new = active[moved], alpha[moved, None] * direction[moved], f_new[moved]
        grad_new, ok = _derivatives(evaluate, theta[active] + s, f_new, settings.rel_step)
        status[active[~ok]] = OptStatus.FAILED
        active, s, f_new, grad_new = active[ok], s[ok], f_new[ok], grad_new[ok]
        y = grad_new - grad[active]
        sy = np.einsum("ak,ak->a", s, y)
        update = sy > 1e-12 * np.sqrt(_norms_sq(s)) * np.sqrt(_norms_sq(y))
        rows, rho, s_up = active[update], 1.0 / sy[update, None, None], s[update]
        left = np.eye(n) - rho * np.einsum("ak,al->akl", s_up, y[update])
        hinv[rows] = np.einsum(
            "akm,alm->akl", np.einsum("akl,alm->akm", left, hinv[rows]), left
        ) + rho * np.einsum("ak,al->akl", s_up, s_up)
        df = f[active] - f_new
        theta[active] += s
        f[active], grad[active] = f_new, grad_new
        for i in active:
            history[i].append(float(f[i]))
        # the |dF| test alone does not certify a minimum; require the
        # gradient criterion as well so CONVERGED implies a small gradient
        converged = (df < settings.f_tol * (1.0 + np.abs(f_new))) & (
            np.sqrt(_norms_sq(grad_new)) <= settings.grad_tol
        )
        status[active[converged]] = OptStatus.CONVERGED
        active = active[~converged]
    hessians, ok = _hessians(evaluate, theta[live], f[live], HESSIAN_REL_STEP)
    hessians[~ok] = np.linalg.pinv(hinv[live[~ok]])
    return _results(starts, live, theta, f, repair_spd_eig(hessians), status, n_iter,
                    history)


def minimize(
    target: TargetDensity, start, settings: OptSettings | None = None
) -> OptimizationResult:
    """Minimize F from `start` by `minimize_all`.  An infeasible start
    (Failure density) returns a FAILED result at once.  Stops when |dF| <
    f_tol*(1+|F|), the gradient norm drops below grad_tol, or at max_iter."""
    return minimize_all(target, np.asarray(start, dtype=float)[None, :], settings)[0]


def minimize_all(
    target: TargetDensity, starts, settings: OptSettings | None = None
) -> list[OptimizationResult]:
    """`minimize` from every row of `starts`, all in lockstep.  The products
    are plain einsum and each start's solve is its own, so each start's
    result is the same as alone.  Levenberg-Marquardt is chosen by
    attribute, so a proxy that forwards `residuals_batch` keeps it."""
    settings = settings or OptSettings()
    if getattr(target, "residuals_batch", None) is not None:
        return _minimize_lm(target, starts, settings)
    return _minimize_bfgs(target, starts, settings)
