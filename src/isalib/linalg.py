"""Small linear-algebra helpers: an exact sum for weight normalization, SPD
repair and the Cholesky log-determinant."""

import math

import numpy as np

from .errors import DegenerateEnsemble

# Jitter schedule for SPD repair: start small, double until the Cholesky
# succeeds or the relative jitter exceeds JITTER_MAX.
JITTER_START = 1e-8
JITTER_MAX = 1e-2


def fsum(values) -> float:
    """Exact (compensated) sum of a 1-d array; keeps self-normalized weights
    within 1e-12 of summing to one."""
    return math.fsum(np.asarray(values, dtype=float))


def spd_repair(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (repaired_matrix, lower_cholesky).

    Symmetrizes, then tries a Cholesky factorization; on failure adds
    jitter delta * trace/n * I with delta doubling from JITTER_START up to
    JITTER_MAX.  Raises DegenerateEnsemble if no jitter level works.
    """
    a = np.asarray(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    try:
        return a, np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    scale = np.trace(a) / n
    if not np.isfinite(scale) or scale <= 0.0:
        raise DegenerateEnsemble("covariance has non-positive trace; cannot repair")
    delta = JITTER_START
    while delta <= JITTER_MAX:
        candidate = a + delta * scale * np.eye(n)
        try:
            return candidate, np.linalg.cholesky(candidate)
        except np.linalg.LinAlgError:
            delta *= 2.0
    raise DegenerateEnsemble(
        f"covariance not positive definite after jitter up to {JITTER_MAX:g}"
    )


def chol_logdet(chol: np.ndarray) -> float:
    """log det of A given its lower Cholesky factor L (A = L L^T)."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
