"""Minimization of the negative log-posterior F for mixture initialization.

Targets exposing least-squares structure (`residuals` and its batch form
`residuals_batch`) are minimized with damped Gauss-Newton
(Levenberg-Marquardt), all the starts of a multistart in lockstep;
everything else falls back to BFGS with finite-difference gradients.
Accepted steps strictly decrease F.
A value fails when `targets.is_failure` says so (a Failure, NaN or +-inf);
failed trial steps are rejected and stencils fall back to one side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationFailed
from .targets import TargetDensity, is_failure

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


def _central_differences(f, theta, rel_step):
    """One difference quotient of f per coordinate j: central with step
    h_j = rel_step * (1 + |theta_j|), or one-sided around theta where one
    side's value is a failure (`is_failure`).  f may return a scalar or a
    vector.  Raises EvaluationFailed if both sides fail, or if a one-sided
    quotient is needed and f fails at theta."""
    theta = np.asarray(theta, dtype=float)
    f0 = None
    quotients = []
    for j in range(theta.size):
        h = rel_step * (1.0 + abs(theta[j]))
        up = theta.copy()
        up[j] += h
        dn = theta.copy()
        dn[j] -= h
        f_up, f_dn = f(up), f(dn)
        if not is_failure(f_up) and not is_failure(f_dn):
            quotients.append((np.asarray(f_up) - np.asarray(f_dn)) / (2.0 * h))
            continue
        if f0 is None:
            f0 = f(theta)
            if is_failure(f0):
                raise EvaluationFailed("f failed at the expansion point")
            f0 = np.asarray(f0)
        if not is_failure(f_up):
            quotients.append((np.asarray(f_up) - f0) / h)
        elif not is_failure(f_dn):
            quotients.append((f0 - np.asarray(f_dn)) / h)
        else:
            raise EvaluationFailed(f"both one-sided stencils failed for coordinate {j}")
    return quotients


def finite_diff_gradient(f, theta, rel_step: float = 1e-6) -> np.ndarray:
    """Gradient of a scalar f by `_central_differences`."""
    return np.array(_central_differences(f, theta, rel_step), dtype=float)


def fd_hessian(f, theta, rel_step: float = 1e-5) -> np.ndarray:
    """Symmetrized central second differences, SPD-repaired so the result can
    serve as a covariance inverse."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    h = rel_step * (1.0 + np.abs(theta))

    def ev(point):
        val = f(point)
        if is_failure(val):
            raise EvaluationFailed("stencil point evaluation failed")
        return float(val)

    f0 = ev(theta)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (ev(theta + ei) - 2.0 * f0 + ev(theta - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                ev(theta + ei + ej)
                - ev(theta + ei - ej)
                - ev(theta - ei + ej)
                + ev(theta - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return repair_spd_eig(hess)


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


def _fd_jacobian(residuals, theta, rel_step):
    """Jacobian of a residual vector by `_central_differences`, one column
    per coordinate."""
    return np.column_stack(_central_differences(residuals, theta, rel_step))


def _stencil_jacobians(target, thetas, rel_step):
    """Transposed residual Jacobians (S, n, m) of the rows of `thetas` by
    central differences, from one `residuals_batch` call over the 2n
    stencil points of every row, and a mask of the rows that have one.  A
    row with a failed stencil point is redone by `_fd_jacobian` (one-sided
    where a side fails); if that raises EvaluationFailed, the row has none."""
    s, n = thetas.shape
    h = rel_step * (1.0 + np.abs(thetas))
    diag = np.arange(n)
    up = np.repeat(thetas[:, None, :], n, axis=1)  # (S, n, n), row j moves theta_j
    dn = up.copy()
    up[:, diag, diag] += h
    dn[:, diag, diag] -= h
    r, failed = target.residuals_batch(np.stack([up, dn], axis=2).reshape(-1, n))
    r = r.reshape(s, n, 2, r.shape[1])
    jt = (r[:, :, 0] - r[:, :, 1]) / (2.0 * h)[:, :, None]
    ok = ~failed.reshape(s, 2 * n).any(axis=1)
    for i in np.flatnonzero(~ok):
        try:
            jt[i] = _fd_jacobian(target.residuals, thetas[i], rel_step).T
            ok[i] = True
        except EvaluationFailed:
            pass
    return jt, ok


def _norms_sq(x):
    """Squared norm of every row of a 2-d array."""
    return np.einsum("ij,ij->i", x, x)


def _minimize_lm(target, starts, settings):
    """Levenberg-Marquardt from every row of `starts` in lockstep.

    Each iteration makes one `residuals_batch` call for the stencils of
    every start still running, one stacked solve of their damped normal
    equations, and one `residuals_batch` call per damping round for the
    trial steps still pending.  The reductions are plain einsum and each
    start's solve is its own, so a start's result does not depend on which
    other starts share its batch.  Per start: lambda starts at 1e-3, grows
    x10 on a rejected (or failed) trial up to 1e12 and shrinks /10 on an
    accepted one down to 1e-12."""
    theta = np.array(starts, dtype=float)
    n_starts, n = theta.shape
    r, start_failed = target.residuals_batch(theta)
    f = 0.5 * _norms_sq(r)
    lam = np.full(n_starts, 1e-3)
    n_iter = np.zeros(n_starts, dtype=int)
    status = np.full(n_starts, OptStatus.MAX_ITERATIONS, dtype=object)
    history = [[value] for value in f.tolist()]
    active = np.flatnonzero(~start_failed)
    for it in range(1, settings.max_iter + 1):
        if active.size == 0:
            break
        n_iter[active] = it
        jt, ok = _stencil_jacobians(target, theta[active], settings.rel_step)
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
            r_trial, failed = target.residuals_batch(trial)
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
    live = np.flatnonzero(~start_failed)
    jt, ok = _stencil_jacobians(target, theta[live], settings.rel_step)
    # one stacked repair; a start without a Jacobian keeps the identity.  The
    # prior rows are part of the whitened residuals, so J holds them
    hessians = np.tile(np.eye(n), (live.size, 1, 1))
    hessians[ok] = gauss_newton_hessian(jt[ok].swapaxes(1, 2), np.zeros((n, n)))
    results = [_failed(start) for start in np.asarray(starts, dtype=float)]
    for k, i in enumerate(live):
        results[i] = OptimizationResult(
            theta[i].copy(), float(f[i]), hessians[k], status[i], int(n_iter[i]),
            tuple(history[i]),
        )
    return results


def _minimize_bfgs(target, start, settings):
    def func(point):
        return target.neg_log_posterior(point)

    theta = np.asarray(start, dtype=float)
    fval = func(theta)
    if is_failure(fval):
        return _failed(theta)
    try:
        grad = finite_diff_gradient(func, theta, settings.rel_step)
    except EvaluationFailed:
        return _failed(theta)
    hinv = np.eye(theta.size)
    history = [fval]
    status = OptStatus.MAX_ITERATIONS
    it = 0
    for it in range(1, settings.max_iter + 1):
        if np.linalg.norm(grad) <= settings.grad_tol:
            status = OptStatus.CONVERGED
            break
        direction = -hinv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            hinv = np.eye(theta.size)
            direction = -grad
            slope = -float(grad @ grad)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            trial = theta + alpha * direction
            f_trial = func(trial)
            if not is_failure(f_trial) and f_trial <= fval + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = OptStatus.FAILED
            break
        try:
            grad_trial = finite_diff_gradient(func, trial, settings.rel_step)
        except EvaluationFailed:
            status = OptStatus.FAILED
            break
        s = alpha * direction
        y = grad_trial - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            eye = np.eye(theta.size)
            left = eye - rho * np.outer(s, y)
            hinv = left @ hinv @ left.T + rho * np.outer(s, s)
        df = fval - f_trial
        theta, fval, grad = trial, f_trial, grad_trial
        history.append(fval)
        # the |dF| test alone does not certify a minimum; require the
        # gradient criterion as well so CONVERGED implies a small gradient
        if df < settings.f_tol * (1.0 + abs(fval)) and (
            np.linalg.norm(grad) <= settings.grad_tol
        ):
            status = OptStatus.CONVERGED
            break
    try:
        hessian = fd_hessian(func, theta, HESSIAN_REL_STEP)
    except EvaluationFailed:
        hessian = repair_spd_eig(np.linalg.pinv(hinv))
    return OptimizationResult(theta, fval, hessian, status, it, tuple(history))


def _failed(theta):
    return OptimizationResult(
        np.asarray(theta, dtype=float),
        math.inf,
        np.eye(np.asarray(theta).size),
        OptStatus.FAILED,
        0,
        (),
    )


def minimize(
    target: TargetDensity, start, settings: OptSettings | None = None
) -> OptimizationResult:
    """Minimize F = -log posterior from `start`: `minimize_all` with this
    one start.

    A target with `residuals_batch` (least-squares structure) is minimized
    by Levenberg-Marquardt, any other by BFGS with finite-difference
    gradients.  Infeasible starts (Failure density) return a FAILED result
    immediately.  Stops when |dF| < f_tol*(1+|F|), the gradient norm drops
    below grad_tol, or max_iter is reached.
    """
    return minimize_all(target, np.asarray(start, dtype=float)[None, :], settings)[0]


def minimize_all(
    target: TargetDensity, starts, settings: OptSettings | None = None
) -> list[OptimizationResult]:
    """`minimize` from every row of `starts`; each start's result is the
    same as alone.  Levenberg-Marquardt moves all the starts in lockstep,
    one residual batch per stage; BFGS runs one start after the other.  The
    choice is by attribute, so a proxy that forwards `residuals_batch`
    keeps it."""
    settings = settings or OptSettings()
    if getattr(target, "residuals_batch", None) is not None:
        return _minimize_lm(target, starts, settings)
    return [_minimize_bfgs(target, start, settings) for start in starts]
