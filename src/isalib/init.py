"""Initialization strategies: short stretch-move ensemble MCMC runs, and
Gaussian mixtures built from deduplicated multistart optimization modes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import WeightedEnsemble
from .errors import DomainError, EmptyInput, InitializationFailed
from .optimize import OptimizationResult, OptSettings, OptStatus, minimize
from .proposals import GaussianMixtureProposal, GaussianProposal, gmm_weights
from .targets import TargetDensity, is_failure

STRETCH_A_DEFAULT = 2.0
DEDUP_CONFIDENCE_DEFAULT = 0.95
FEASIBLE_DRAW_BUDGET = 10_000  # prior draws allowed per walker
STRETCH_BLOCK_STEPS = 1024  # steps whose uniforms are drawn at once


def default_walker_count(n_theta: int) -> int:
    """2*n_theta + 2 walkers, but never fewer than 4."""
    return max(2 * n_theta + 2, 4)


@dataclass(frozen=True)
class McmcChain:
    """Stretch-move chain; samples are walker-major per step, i.e. sample
    index step * walkers + walker."""

    walkers: int
    steps: int
    samples: np.ndarray  # (steps * walkers, n_theta)
    log_densities: np.ndarray  # matching log target densities
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
    stored log density is finite.

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
    log_densities = np.empty((n_steps, n_walkers))
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
            log_densities[step] = logp
    return McmcChain(
        walkers=n_walkers,
        steps=n_steps,
        samples=samples.reshape(n_steps * n_walkers, dim),
        log_densities=log_densities.reshape(-1),
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


def dedup_modes(
    candidates: list[OptimizationResult],
    confidence: float = DEDUP_CONFIDENCE_DEFAULT,
) -> ModeSet:
    """Greedy dedup of converged minima in ascending f_min order.

    Two minima are distinct when the symmetrized distance
    max(d_ij, d_ji), with d_ij = (mu_i - mu_j)^T H_i (mu_i - mu_j), exceeds
    the chi-square quantile at `confidence` with n_theta degrees of freedom.
    The lower-f_min representative of each cluster is kept.
    """
    converged = [c for c in candidates if c.status is OptStatus.CONVERGED]
    if not converged:
        raise EmptyInput("no converged candidates to deduplicate")
    if not 0.0 < confidence < 1.0:
        raise DomainError("confidence must be in (0, 1)")
    # stable order: ascending f_min, ties by lexicographic minimizer
    converged.sort(key=lambda c: (c.f_min, tuple(c.minimizer)))
    # imported here: scipy.special is slow to load, and only init.gmm runs need it
    from scipy.special import gammaincinv
    dim = converged[0].minimizer.size
    # the chi-square quantile: the inverse regularized lower gamma at dim/2, doubled
    threshold = 2.0 * float(gammaincinv(dim / 2.0, confidence))
    kept: list[OptimizationResult] = []
    for cand in converged:
        distinct = True
        for mode in kept:
            d_ij = _mode_distance(mode.minimizer, mode.hessian_approx, cand.minimizer)
            d_ji = _mode_distance(cand.minimizer, cand.hessian_approx, mode.minimizer)
            if max(d_ij, d_ji) <= threshold:
                distinct = False
                break
        if distinct:
            kept.append(cand)
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
    """Run `minimize` from n_starts prior draws.  Failed results are kept
    (they are data for reporting) but carry FAILED status."""
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    starts = target.sample_prior(rng, n_starts)
    settings = settings or OptSettings()
    return [minimize(target, start, settings) for start in starts]
