"""Proposal families: Gaussian, multivariate t, and Gaussian mixture.

All log-densities carry full normalization constants, so values are
comparable across mixture components and across families.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import WeightedEnsemble, weighted_covariance, weighted_mean, write_json
from .errors import DomainError
from .linalg import chol_logdet, spd_repair, total

SYMMETRY_TOL = 1e-12


def _validated_spd(matrix) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("covariance must be a square matrix")
    if not np.isfinite(a).all():
        raise DomainError("covariance must be finite")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > SYMMETRY_TOL * scale:
        raise DomainError("covariance must be symmetric")
    return spd_repair(a)


def _mahalanobis(chol: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """Squared length of each row of dev whitened by L: forward substitution
    L y = dev^T over the columns in a fixed order, elementwise only, so that
    a row's value does not depend on the other rows of the batch."""
    if not np.isfinite(dev).all():
        raise DomainError("points must be finite")
    y = dev.T.copy()
    for k, row in enumerate(y):
        row /= chol[k, k]
        y[k + 1:] -= chol[k + 1:, k, None] * row
    return sum(row * row for row in y)


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=0)'s algorithm: shift by the column max,
    sum without the m tied maxima, log1p(s/m) + log(m) + max (Blanchard,
    Higham & Higham 2021); a non-finite result is log(sum(exp(a)))."""
    a_max = a.max(axis=0)
    ties = a == a_max
    m = ties.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(ties, -np.inf, a) - a_max).sum(axis=0)
        out = np.log1p(s / m) + np.log(m) + a_max
        odd = ~np.isfinite(out)
        out[odd] = np.log(np.exp(a[:, odd]).sum(axis=0))
    return out


class _Proposal:
    """The draw-count check and the single-point density of every family."""

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 1:
            raise DomainError("count must be >= 1")
        return self._draw(rng, count)

    def log_density(self, theta) -> float:
        return float(self.log_density_batch(np.asarray(theta)[None, :])[0])


@dataclass(frozen=True)
class GaussianProposal(_Proposal):
    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov, chol = _validated_spd(self.covariance)
        if mean.ndim != 1 or mean.size != cov.shape[0] or not np.isfinite(mean).all():
            raise DomainError("mean must be finite and match the covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "chol", chol)

    @property
    def dimension(self) -> int:
        return self.mean.size

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self._transform(rng.standard_normal((count, self.dimension)))

    def _transform(self, z: np.ndarray) -> np.ndarray:
        """Map standard-normal rows z to draws from this proposal."""
        out = z @ self.chol.T
        out += self.mean
        return out

    def widened(self, factor: float) -> "GaussianProposal":
        """The same proposal with its covariance multiplied by `factor`."""
        return GaussianProposal(self.mean, factor * self.covariance)

    def log_density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        maha = _mahalanobis(self.chol, thetas - self.mean)
        d = self.dimension
        return -0.5 * (maha + d * math.log(2.0 * math.pi) + chol_logdet(self.chol))

    def to_dict(self) -> dict:
        return {
            "family": "gaussian",
            "mean": self.mean.tolist(),
            "covariance": self.covariance.ravel().tolist(),
        }


@dataclass(frozen=True)
class StudentTProposal(_Proposal):
    location: np.ndarray
    scale_matrix: np.ndarray
    nu: float
    chol: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.nu <= 2.0:
            raise DomainError("nu must exceed 2 so the covariance exists")
        loc = np.asarray(self.location, dtype=float)
        scale, chol = _validated_spd(self.scale_matrix)
        if loc.ndim != 1 or loc.size != scale.shape[0] or not np.isfinite(loc).all():
            raise DomainError("location must be finite and match the scale")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "scale_matrix", scale)
        object.__setattr__(self, "chol", chol)

    @property
    def dimension(self) -> int:
        return self.location.size

    @property
    def covariance(self) -> np.ndarray:
        return self.nu / (self.nu - 2.0) * self.scale_matrix

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        z = rng.standard_normal((count, self.dimension))
        g = rng.chisquare(self.nu, size=count)
        # location + (z L^T) * sqrt(nu / g), in place: a draw holds z, the
        # samples and g, and no temporary of the samples' size
        out = z @ self.chol.T
        np.divide(self.nu, g, out=g)
        np.sqrt(g, out=g)
        out *= g[:, None]
        out += self.location
        return out

    def widened(self, factor: float) -> "StudentTProposal":
        """The same proposal with its scale matrix multiplied by `factor`."""
        return StudentTProposal(self.location, factor * self.scale_matrix, self.nu)

    def log_density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        maha = _mahalanobis(self.chol, thetas - self.location)
        d = self.dimension
        nu = self.nu
        const = (
            math.lgamma(0.5 * (nu + d))
            - math.lgamma(0.5 * nu)
            - 0.5 * d * math.log(nu * math.pi)
            - 0.5 * chol_logdet(self.chol)
        )
        return const - 0.5 * (nu + d) * np.log1p(maha / nu)

    def to_dict(self) -> dict:
        return {
            "family": "student_t",
            "nu": self.nu,
            "mean": self.location.tolist(),
            "covariance": self.scale_matrix.ravel().tolist(),
        }


@dataclass(frozen=True)
class GaussianMixtureProposal(_Proposal):
    components: tuple
    psi: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise DomainError("mixture needs at least one component")
        if not all(isinstance(c, GaussianProposal) for c in comps):
            raise DomainError("mixture components must be Gaussian")
        d = comps[0].dimension
        if any(c.dimension != d for c in comps):
            raise DomainError("mixture components disagree in dimension")
        psi = np.asarray(self.psi, dtype=float)
        if psi.size != len(comps) or np.any(psi < 0):
            raise DomainError("psi must be nonnegative, one entry per component")
        if not abs(total(psi) - 1.0) <= 1e-12:
            raise DomainError("psi must sum to one")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "psi", psi)

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        edges = np.cumsum(self.psi)
        idx = np.searchsorted(edges, rng.random(count), side="right")
        idx = np.minimum(idx, len(self.components) - 1)
        z = rng.standard_normal((count, self.dimension))
        out = np.empty((count, self.dimension))
        for j, comp in enumerate(self.components):
            mask = idx == j
            if mask.any():
                out[mask] = comp._transform(z[mask])
        return out

    def widened(self, factor: float) -> "GaussianMixtureProposal":
        """Every component widened by `factor`, with the same weights psi."""
        return GaussianMixtureProposal(
            tuple(c.widened(factor) for c in self.components), self.psi
        )

    def log_density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        parts = np.stack(
            [c.log_density_batch(thetas) for c in self.components], axis=0
        )
        with np.errstate(divide="ignore"):
            log_psi = np.log(self.psi)
        return _logsumexp_columns(parts + log_psi[:, None])

    def to_dict(self) -> dict:
        return {
            "family": "gaussian_mixture",
            "psi": self.psi.tolist(),
            "components": [c.to_dict() for c in self.components],
        }


def fit_gaussian(ensemble: WeightedEnsemble, inflation: float = 1.0) -> GaussianProposal:
    """Moment fit: weighted mean and inflated, SPD-repaired weighted covariance."""
    return GaussianProposal(
        weighted_mean(ensemble), weighted_covariance(ensemble, inflation)
    )


def fit_student_t(
    ensemble: WeightedEnsemble, nu: float, inflation: float = 1.0
) -> StudentTProposal:
    """Moment-matched t fit: scale = (nu-2)/nu * inflated covariance, so the
    proposal's covariance equals the inflated ensemble covariance."""
    if nu <= 2.0:
        raise DomainError("nu must exceed 2")
    cov = weighted_covariance(ensemble, inflation)
    return StudentTProposal(weighted_mean(ensemble), (nu - 2.0) / nu * cov, nu)


def gmm_weights(phi) -> np.ndarray:
    """psi_j = exp(-phi_j) / sum_i exp(-phi_i), computed with a logsumexp shift."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size == 0 or not np.all(np.isfinite(phi)):
        raise DomainError("phi must be a non-empty finite vector")
    shifted = -(phi - phi.min())
    w = np.exp(shifted)
    return w / total(w)


def proposal_from_dict(data: dict):
    family = data.get("family")
    if family == "gaussian_mixture":
        comps = [proposal_from_dict(c) for c in data["components"]]
        return GaussianMixtureProposal(tuple(comps), np.asarray(data["psi"], dtype=float))
    if family not in ("gaussian", "student_t"):
        raise DomainError(f"unknown proposal family: {family!r}")
    mean = np.asarray(data["mean"], dtype=float)
    cov = np.asarray(data["covariance"], dtype=float).reshape(mean.size, mean.size)
    if family == "gaussian":
        return GaussianProposal(mean, cov)
    return StudentTProposal(mean, cov, float(data["nu"]))


def save_proposal(proposal, path) -> None:
    write_json(path, proposal.to_dict())


def load_proposal(path):
    with open(path) as fh:
        return proposal_from_dict(json.load(fh))
