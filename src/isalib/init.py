"""Initialization strategies: short stretch-move ensemble MCMC runs, and
Gaussian mixtures built from deduplicated multistart optimization modes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import WeightedEnsemble
from .errors import DomainError, EmptyInput, InitializationFailed
from .optimize import OptimizationResult, OptSettings, OptStatus, minimize_all
from .proposals import GaussianMixtureProposal, GaussianProposal, gmm_weights
from .targets import TargetDensity, is_failure

STRETCH_A_DEFAULT = 2.0
DEDUP_CONFIDENCE_DEFAULT = 0.95
FEASIBLE_DRAW_BUDGET = 10_000  # prior draws allowed per walker
STRETCH_BLOCK_STEPS = 1024  # steps whose uniforms are drawn at once
DEDUP_BAND = 1e-9  # relative half-width of the band around 1 - confidence left to scipy
F_MIN_TIE = 1e-9  # kept modes whose f_min is this close (relative) are ordered by minimizer


def default_walker_count(n_theta: int) -> int:
    """2*n_theta + 2 walkers, but never fewer than 4."""
    return max(2 * n_theta + 2, 4)


@dataclass(frozen=True)
class McmcChain:
    """Stretch-move chain; samples are walker-major per step, i.e. sample
    index step * walkers + walker, and every stored sample has a finite
    density."""

    walkers: int
    steps: int
    samples: np.ndarray  # (steps * walkers, n_theta)
    acceptance_rate: float

    @property
    def n_theta(self) -> int:
        return self.samples.shape[1]

    def by_walker(self) -> np.ndarray:
        """Reshape to (steps, walkers, n_theta)."""
        return self.samples.reshape(self.steps, self.walkers, self.n_theta)


def _draw_feasible_walkers(target, n_walkers, rng):
    positions = np.empty((n_walkers, target.dimension))
    logp = np.empty(n_walkers)
    for w in range(n_walkers):
        for _ in range(FEASIBLE_DRAW_BUDGET):
            candidate = target.sample_prior(rng, 1)[0]
            value = target.log_density(candidate)
            if not is_failure(value):
                positions[w] = candidate
                logp[w] = value
                break
        else:
            raise InitializationFailed(
                f"no feasible start for walker {w} in {FEASIBLE_DRAW_BUDGET} prior draws"
            )
    return positions, logp


def _stretch_draws(u, a, dim, half):
    """z, (dim - 1) log z, the partner and log u of each (step, walker) from
    u[step, walker, :3]; the partner is one of the k walkers of the other half."""
    first = np.arange(u.shape[1]) < half
    k = np.where(first, u.shape[1] - half, half)
    z = ((a - 1.0) * u[..., 0] + 1.0) ** 2 / a
    partners = np.where(first, half, 0) + np.minimum((u[..., 1] * k).astype(int), k - 1)
    return z, (dim - 1) * np.log(z), partners, np.log(u[..., 2])


def stretch_move_run(
    target: TargetDensity,
    n_walkers: int,
    n_steps: int,
    a: float = STRETCH_A_DEFAULT,
    rng: np.random.Generator | None = None,
) -> McmcChain:
    """Affine-invariant stretch-move ensemble sampler.

    Walker k proposes Y = X_j + z (X_k - X_j), with X_j a walker of the
    other half and z ~ g(z) propto 1/sqrt(z) on [1/a, a], and accepts it
    with probability min(1, z^(n-1) p(Y)/p(X_k)).  Walkers move in index
    order, so one half after the other; a proposal whose density is a
    failure (`is_failure`: a Failure, NaN or +-inf) is rejected, so every
    stored sample has a finite density.

    After the start walkers, the stream is u = rng.random((steps, walkers, 3)):
    walker w at step s takes z, its partner and its acceptance uniform from
    u[s, w, 0], u[s, w, 1] and u[s, w, 2].  It is drawn STRETCH_BLOCK_STEPS
    steps at a time, in order, so neither the chain nor the generator state
    after it depends on the block size.
    """
    if n_walkers < 4:
        raise DomainError("need at least 4 walkers for the stretch move")
    if n_steps < 1 or a <= 1.0:
        raise DomainError("need n_steps >= 1 and stretch parameter a > 1")
    rng = rng or np.random.default_rng()
    dim = target.dimension
    positions, logp = _draw_feasible_walkers(target, n_walkers, rng)
    positions, logp = positions.tolist(), logp.tolist()
    samples = np.empty((n_steps, n_walkers, dim))
    accepts = 0
    for start in range(0, n_steps, STRETCH_BLOCK_STEPS):
        u = rng.random((min(STRETCH_BLOCK_STEPS, n_steps - start), n_walkers, 3))
        draws = (x.tolist() for x in _stretch_draws(u, a, dim, n_walkers // 2))
        for step, (z, log_z, partners, log_u) in enumerate(zip(*draws), start):
            for w in range(n_walkers):
                zw, xj = z[w], positions[partners[w]]
                proposal = [j + zw * (k - j) for j, k in zip(xj, positions[w])]
                value = target.log_density(np.array(proposal))
                if not is_failure(value) and log_u[w] <= log_z[w] + value - logp[w]:
                    positions[w] = proposal
                    logp[w] = value
                    accepts += 1
            samples[step] = positions
    return McmcChain(
        walkers=n_walkers,
        steps=n_steps,
        samples=samples.reshape(n_steps * n_walkers, dim),
        acceptance_rate=accepts / (n_steps * n_walkers),
    )


def mcmc_init_ensemble(chain: McmcChain, n_keep: int) -> WeightedEnsemble:
    """The first n_keep chain samples with uniform weights (deliberately
    early, unconverged samples from a short run)."""
    if n_keep < 1 or n_keep > chain.samples.shape[0]:
        raise DomainError("n_keep must be in [1, chain length]")
    return WeightedEnsemble.uniform(chain.samples[:n_keep])


@dataclass(frozen=True)
class ModeSet:
    """Deduplicated local minima of F with approximate Hessians."""

    minimizers: np.ndarray  # (m, n_theta)
    f_mins: np.ndarray  # (m,)
    hessians: np.ndarray  # (m, n_theta, n_theta)

    def __len__(self) -> int:
        return self.minimizers.shape[0]


def _mode_distance(mu_i, hess_i, mu_j) -> float:
    # Mahalanobis distance of mu_j from mode i under covariance H_i^{-1}
    dev = mu_j - mu_i
    return float(dev @ hess_i @ dev)


def _chi2_sf(d: float, k: int) -> float:
    """P(X > d) for X chi-square with k degrees of freedom and finite d > 0,
    in closed form (Abramowitz & Stegun 26.4.4-26.4.5).  With h = d/2 it is
    the sum of e^-h h^i / Gamma(i + 1) over i = 0, 1, ..., k/2 - 1 for even
    k, and erfc(sqrt(h)) plus that sum over i = 1/2, 3/2, ..., (k-2)/2 for
    odd k; every term is positive."""
    h = 0.5 * d
    log_h = math.log(d) - math.log(2.0)  # finite where h underflows to 0
    half = (k % 2) / 2  # the i are half-integers for odd k
    terms = [math.erfc(math.sqrt(h))] if k % 2 else []
    terms += [math.exp((j + half) * log_h - h - math.lgamma(j + half + 1.0))
              for j in range(k // 2)]
    return math.fsum(terms)


def _within_quantile(d: float, dim: int, confidence: float) -> bool:
    """d <= 2 * gammaincinv(dim/2, confidence), scipy's chi-square quantile.

    A d <= 0 is within; a finite d > 0 whose tail _chi2_sf(d, dim) is
    further than DEDUP_BAND (relative) from 1 - confidence is decided by
    that tail.  Anything else asks scipy.  At scipy's quantile the tail is
    within about 1e-12 of 1 - confidence, so every answer is scipy's.
    """
    if d <= 0.0:
        return True
    if math.isfinite(d):
        tail = _chi2_sf(d, dim)
        if tail < (1.0 - confidence) * (1.0 - DEDUP_BAND):
            return False
        if tail > (1.0 - confidence) * (1.0 + DEDUP_BAND):
            return True
    # imported here: scipy.special is slow to load, and only a pair this
    # close to the quantile needs it
    from scipy.special import gammaincinv

    return d <= 2.0 * float(gammaincinv(dim / 2.0, confidence))


def dedup_modes(
    candidates: list[OptimizationResult],
    confidence: float = DEDUP_CONFIDENCE_DEFAULT,
) -> ModeSet:
    """Greedy dedup of converged minima in ascending f_min order.

    Two minima are distinct when the symmetrized distance
    max(d_ij, d_ji), with d_ij = (mu_i - mu_j)^T H_i (mu_i - mu_j), exceeds
    the chi-square quantile at `confidence` with n_theta degrees of freedom.
    The lower-f_min representative of each cluster is kept.  Each pair is
    decided as scipy's quantile would decide it, but from the closed-form
    chi-square tail (`_within_quantile`): scipy.special is loaded only for
    a pair whose tail is within DEDUP_BAND of 1 - confidence.

    The kept modes come in ascending f_min, except that each run of modes
    whose f_min is within a relative F_MIN_TIE of the run's lowest is
    ordered by minimizer (lexicographic).  Modes of a symmetric posterior
    have f_min equal up to rounding, so a change in rounding cannot swap
    them, nor the mixture components built from them.
    """
    converged = [c for c in candidates if c.status is OptStatus.CONVERGED]
    if not converged:
        raise EmptyInput("no converged candidates to deduplicate")
    if not 0.0 < confidence < 1.0:
        raise DomainError("confidence must be in (0, 1)")
    # stable order: ascending f_min, ties by lexicographic minimizer
    converged.sort(key=lambda c: (c.f_min, tuple(c.minimizer)))
    dim = converged[0].minimizer.size
    kept: list[OptimizationResult] = []
    for cand in converged:
        distinct = True
        for mode in kept:
            d_ij = _mode_distance(mode.minimizer, mode.hessian_approx, cand.minimizer)
            d_ji = _mode_distance(cand.minimizer, cand.hessian_approx, mode.minimizer)
            if _within_quantile(max(d_ij, d_ji), dim, confidence):
                distinct = False
                break
        if distinct:
            kept.append(cand)
    ordered: list[OptimizationResult] = []
    while len(ordered) < len(kept):
        low = kept[len(ordered)].f_min
        tied = [m for m in kept[len(ordered):] if m.f_min - low <= F_MIN_TIE * abs(low)]
        ordered += sorted(tied, key=lambda m: tuple(m.minimizer))
    kept = ordered
    return ModeSet(
        minimizers=np.stack([m.minimizer for m in kept]),
        f_mins=np.array([m.f_min for m in kept]),
        hessians=np.stack([m.hessian_approx for m in kept]),
    )


def build_gmm(modes: ModeSet) -> GaussianMixtureProposal:
    """Mixture with one Gaussian per mode: mean at the minimizer, covariance
    the inverse approximate Hessian, weights exp(-f_min) renormalized."""
    if len(modes) == 0:
        raise EmptyInput("empty mode set")
    components = tuple(
        GaussianProposal(modes.minimizers[j], np.linalg.inv(modes.hessians[j]))
        for j in range(len(modes))
    )
    return GaussianMixtureProposal(components, gmm_weights(modes.f_mins))


def multistart(
    target: TargetDensity,
    n_starts: int,
    rng: np.random.Generator,
    settings: OptSettings | None = None,
) -> list[OptimizationResult]:
    """`minimize_all` from n_starts prior draws, all the starts in lockstep.
    Failed results are kept (they are data for reporting) but carry FAILED
    status."""
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    return minimize_all(target, target.sample_prior(rng, n_starts), settings)
