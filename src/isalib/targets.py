"""Unnormalized log-posterior targets with graceful-failure semantics.

A target returns either a finite log-density or a Failure value.  Failure is
a distinct object (not a -inf float) so callers can count model failures
separately; `is_failure`, the one per-point test, also counts NaN and +-inf.
Importance weighting maps a failure to log-weight -inf.  Batch entry points
report failures as a boolean mask; `checked_batch` also fails NaN or +-inf rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import chol_logdet


@dataclass(frozen=True)
class Failure:
    """Marker for a failed model/likelihood evaluation (likelihood zero)."""

    reason: str = ""


FAILURE = Failure()


def is_failure(value) -> bool:
    """True for a Failure and for a float (Python or numpy) that is NaN or
    +-inf.  Arrays are not inspected: their producer maps non-finite entries
    to a Failure, as `RegressionTarget.residuals` does."""
    if isinstance(value, (float, np.floating)):
        return not math.isfinite(value)
    return isinstance(value, Failure)


def checked_batch(batch, thetas):
    """One `batch(thetas) -> (values, failed)` call, values 1-d (log densities)
    or (n, m) (residuals): a row also fails when any of its values is NaN or
    +-inf, and every failed row holds NaN."""
    values, failed = batch(np.asarray(thetas, dtype=float))
    values = np.array(values, dtype=float)
    finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    failed = np.asarray(failed, dtype=bool) | ~finite
    values[failed] = math.nan
    return values, failed


class TargetDensity:
    """Unnormalized log-posterior interface.

    Subclasses provide `dimension` and `log_density(theta) -> float | Failure`;
    optionally `gradient(theta)`, `neg_log_posterior(theta)` (F, with +inf
    outside support), `residuals(theta)` for least-squares structure, and
    `sample_prior(rng, n)` used by initializers.

    Importance sampling (in row blocks of `isa.EVAL_BLOCK_ROWS`) and the
    optimizer's BFGS evaluate through `log_density_batch(thetas) -> (values,
    failed)`: a float array and a boolean mask, with `-inf` in every failed
    row.  The default loops over `log_density`; a target may override it
    with a vectorized version that agrees with the per-point path up to
    rounding and gives each row the same result however the batch is
    split, so the blocks do not change the weights.  The built-in targets
    do.
    Least-squares targets have the same pair for their residuals:
    `residuals_batch(thetas) -> (r, failed)`, an (n, m) array with NaN in
    every failed row and the mask; the optimizer's Levenberg-Marquardt
    calls it.  One rule keeps the paths together: a class that defines
    `log_density` or `residuals` but not `log_density_batch` gets the
    default loop, which marks every value `is_failure` rejects, and a class
    that defines `residuals` but not `residuals_batch` gets
    `residuals_loop`, one `residuals` call per row.  ISA, BFGS and
    Levenberg-Marquardt evaluate every batch through `checked_batch`, so a
    non-finite row that a vectorized override leaves unmasked fails too.
    """

    dimension: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if ("log_density" in own or "residuals" in own) and "log_density_batch" not in own:
            cls.log_density_batch = TargetDensity.log_density_batch
        if "residuals" in own and "residuals_batch" not in own:
            cls.residuals_batch = residuals_loop

    def log_density(self, theta):
        raise NotImplementedError

    def log_density_batch(self, thetas):
        """One `log_density` call per row of `thetas`."""
        thetas = np.asarray(thetas, dtype=float)
        values = np.empty(len(thetas))
        failed = np.zeros(len(thetas), dtype=bool)
        for i, theta in enumerate(thetas):
            value = self.log_density(theta)
            failed[i] = is_failure(value)
            values[i] = -math.inf if failed[i] else value
        return values, failed

    def neg_log_posterior(self, theta) -> float:
        value = self.log_density(theta)
        return math.inf if is_failure(value) else -value


def residuals_loop(target, thetas):
    """`residuals_batch` by one `target.residuals` call per row: (r, failed),
    where a row fails on a Failure or on a non-finite entry and holds NaN."""
    values = [target.residuals(theta) for theta in np.asarray(thetas, dtype=float)]
    failed = np.array(
        [is_failure(v) or not np.all(np.isfinite(v)) for v in values], dtype=bool
    )
    width = next((np.size(v) for v, f in zip(values, failed) if not f), 0)
    r = np.full((len(values), width), math.nan)
    for i in np.flatnonzero(~failed):
        r[i] = values[i]
    return r, failed


class Toy2DTarget(TargetDensity):
    """2-d toy posterior: uniform prior on [0, 11]^2 and
    F(theta) = 1e-2 * ||theta - (5,5)||^4 + 0.2 * sin(5 ||theta||)."""

    dimension = 2
    lower = 0.0
    upper = 11.0
    center = (5.0, 5.0)

    def log_density(self, theta):
        x, y = float(theta[0]), float(theta[1])
        # support check first: cheaper and equivalent to checking afterwards
        if not (self.lower <= x <= self.upper and self.lower <= y <= self.upper):
            return Failure("outside prior cube")
        dx = x - self.center[0]
        dy = y - self.center[1]
        return -(1e-2 * (dx * dx + dy * dy) ** 2 + 0.2 * math.sin(5.0 * math.hypot(x, y)))

    def log_density_batch(self, thetas):
        t = np.asarray(thetas, dtype=float)
        x, y = t[:, 0], t[:, 1]
        inside = (
            (self.lower <= x) & (x <= self.upper) & (self.lower <= y) & (y <= self.upper)
        )
        x, y = x[inside], y[inside]
        dx = x - self.center[0]
        dy = y - self.center[1]
        values = np.full(len(t), -math.inf)
        values[inside] = -(
            1e-2 * (dx * dx + dy * dy) ** 2 + 0.2 * np.sin(5.0 * np.hypot(x, y))
        )
        return values, ~inside

    def gradient(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        dev = t - np.asarray(self.center)
        grad = -0.04 * float(dev @ dev) * dev
        norm = math.hypot(t[0], t[1])
        if norm > 0.0:
            grad -= math.cos(5.0 * norm) * t / norm
        return grad

    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, 2))


class GaussianTarget(TargetDensity):
    """Exact multivariate normal posterior (normalized), analytic gradient."""

    def __init__(self, mean, covariance):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DomainError("mean and covariance dimensions disagree")
        try:
            chol = np.linalg.cholesky(0.5 * (cov + cov.T))
        except np.linalg.LinAlgError as exc:
            raise DomainError("covariance must be SPD") from exc
        self.mean = mean
        self.covariance = 0.5 * (cov + cov.T)
        self._chol = chol
        self._precision = np.linalg.inv(self.covariance)
        self._log_norm = -0.5 * (
            mean.size * math.log(2.0 * math.pi) + chol_logdet(chol)
        )
        self.dimension = mean.size

    def log_density(self, theta):
        dev = np.asarray(theta, dtype=float) - self.mean
        return self._log_norm - 0.5 * float(dev @ self._precision @ dev)

    def log_density_batch(self, thetas):
        dev = np.asarray(thetas, dtype=float) - self.mean
        quad = np.einsum("ij,ij->i", np.einsum("ij,jk->ik", dev, self._precision), dev)
        return self._log_norm - 0.5 * quad, np.zeros(len(dev), dtype=bool)

    def gradient(self, theta) -> np.ndarray:
        dev = np.asarray(theta, dtype=float) - self.mean
        return -self._precision @ dev

    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.dimension))
        return self.mean + z @ self._chol.T


class RegressionTarget(TargetDensity):
    """Additive-noise regression posterior with diagonal Gaussian noise and
    prior: F = 0.5 sum ((z_k - M_k)/sigma_k)^2 + 0.5 sum ((theta_j - m_j)/s_j)^2.

    `model` maps a parameter vector to a length-n_z prediction or a Failure;
    model failures propagate (likelihood treated as zero).  A model with a
    `batch(thetas) -> (n, n_z)` attribute is evaluated one batch at a time,
    and a row with a non-finite prediction fails.  `residuals_batch` holds
    that batch code; `log_density_batch` and the optimizer's lockstep
    Levenberg-Marquardt both go through it.
    """

    def __init__(self, model, data_z, noise_sd, prior_mean, prior_sd):
        self.model = model
        self.data_z = np.asarray(data_z, dtype=float)
        self.noise_sd = np.asarray(noise_sd, dtype=float)
        self.prior_mean = np.asarray(prior_mean, dtype=float)
        self.prior_sd = np.asarray(prior_sd, dtype=float)
        if self.data_z.shape != self.noise_sd.shape:
            raise DomainError("data and noise_sd disagree in length")
        if self.prior_mean.shape != self.prior_sd.shape:
            raise DomainError("prior mean and sd disagree in length")
        if np.any(self.noise_sd <= 0) or np.any(self.prior_sd <= 0):
            raise DomainError("noise and prior standard deviations must be positive")
        self.dimension = self.prior_mean.size

    def residuals(self, theta):
        """Whitened residual vector r with F = 0.5 ||r||^2, or Failure."""
        theta = np.asarray(theta, dtype=float)
        pred = self.model(theta)
        if is_failure(pred):
            return pred
        pred = np.asarray(pred, dtype=float)
        if pred.shape != self.data_z.shape or not np.all(np.isfinite(pred)):
            return Failure("model output has wrong shape or non-finite entries")
        return np.concatenate(
            [
                (self.data_z - pred) / self.noise_sd,
                (theta - self.prior_mean) / self.prior_sd,
            ]
        )

    def log_density(self, theta):
        r = self.residuals(theta)
        if is_failure(r):
            return r
        return -0.5 * float(r @ r)

    def residuals_batch(self, thetas):
        """The whitened residuals of every row and the failed mask, from one
        `model.batch` call; a row with a non-finite prediction fails and
        holds NaN.  A model without `batch` is evaluated by `residuals_loop`."""
        batch = getattr(self.model, "batch", None)
        if batch is None:
            return residuals_loop(self, thetas)
        thetas = np.asarray(thetas, dtype=float)
        pred = np.asarray(batch(thetas), dtype=float)
        if pred.shape != (len(thetas), self.data_z.size):
            raise DomainError("model.batch output must have shape (n, n_z)")
        failed = ~np.all(np.isfinite(pred), axis=1)
        # written in place: a batch holds one (n, n_z + n_theta) array
        # besides the predictions
        n_z = self.data_z.size
        r = np.empty((len(thetas), n_z + self.dimension))
        np.subtract(self.data_z, pred, out=r[:, :n_z])
        np.subtract(thetas, self.prior_mean, out=r[:, n_z:])
        r[:, :n_z] /= self.noise_sd
        r[:, n_z:] /= self.prior_sd
        r[failed] = math.nan
        return r, failed

    def log_density_batch(self, thetas):
        """-0.5 ||r||^2 over `residuals_batch`; a model without `batch` keeps
        the per-point loop, so its values equal `log_density` bitwise."""
        if getattr(self.model, "batch", None) is None:
            return super().log_density_batch(thetas)
        r, failed = self.residuals_batch(thetas)
        values = -0.5 * np.einsum("ij,ij->i", r, r)
        values[failed] = -math.inf
        return values, failed

    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.dimension))
        return self.prior_mean + z * self.prior_sd


def builtin_regression_model(n_theta: int, n_z: int):
    """Smooth, mildly nonlinear stand-in forward model:
    M(theta)_k = sum_j [theta_j * sin(k*j/n_theta) + theta_j^2 / 10].
    `model.batch` evaluates the rows of an (n, n_theta) array at once."""

    k = np.arange(n_z)[:, None]
    j = np.arange(n_theta)[None, :]
    basis = np.sin(k * j / n_theta)
    # einsum runs its inner loop along k over a contiguous (n_theta, n_z) copy
    basis_t = np.ascontiguousarray(basis.T)

    def model(theta):
        theta = np.asarray(theta, dtype=float)
        return basis @ theta + np.sum(theta**2) / 10.0

    def batch(thetas):
        thetas = np.asarray(thetas, dtype=float)
        pred = np.einsum("ij,jk->ik", thetas, basis_t)
        pred += np.einsum("ij,ij->i", thetas, thetas)[:, None] / 10.0
        return pred

    model.batch = batch
    return model


def make_synthetic_regression(
    n_theta: int,
    n_z: int,
    noise_sd,
    prior_mean,
    prior_sd,
    theta_ref,
    data_seed: int,
    model=None,
) -> RegressionTarget:
    """Build a regression target with synthetic data z = M(theta_ref) + eps,
    eps drawn once from the stated noise with the recorded seed.  Raises
    DomainError unless noise_sd is a scalar or has n_z entries and
    prior_mean, prior_sd and theta_ref have n_theta entries each."""
    noise_sd = np.asarray(noise_sd, dtype=float)
    if noise_sd.shape not in ((), (1,), (n_z,)):
        raise DomainError(f"noise_sd must be a scalar or have n_z = {n_z} entries")
    for name, value in (("prior_mean", prior_mean), ("prior_sd", prior_sd),
                        ("theta_ref", theta_ref)):
        if np.shape(value) != (n_theta,):
            raise DomainError(f"{name} must have n_theta = {n_theta} entries")
    model = model or builtin_regression_model(n_theta, n_z)
    noise_sd = np.broadcast_to(noise_sd, (n_z,)).copy()
    rng = np.random.Generator(np.random.Philox(data_seed))
    pred = np.asarray(model(np.asarray(theta_ref, dtype=float)))
    data_z = pred + rng.standard_normal(n_z) * noise_sd
    return RegressionTarget(model, data_z, noise_sd, prior_mean, prior_sd)


def toy2d_log_density(theta):
    """Convenience wrapper around the 2-d toy target."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2,):
        raise DomainError("toy2d expects a length-2 parameter vector")
    return Toy2DTarget().log_density(theta)
