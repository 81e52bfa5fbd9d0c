"""Small linear-algebra helpers: the fixed-order reductions used for weight
normalization and R, SPD repair and the Cholesky log-determinant."""

import numpy as np

from .errors import DegenerateEnsemble

# Jitter schedule for SPD repair: start small, double until the Cholesky
# succeeds or the relative jitter exceeds JITTER_MAX.
JITTER_START = 1e-8
JITTER_MAX = 1e-2


# The weight reductions use plain einsum (optimize=False), not np.sum or a
# BLAS dot: it runs single-threaded in one fixed loop order, and its result
# does not depend on the array's alignment (tested at byte offsets 0-15).
# Its rounding error on 20k positive weights is about 1e-15, well inside the
# 1e-12 tolerance on the weight sum.
def total(values) -> float:
    """sum_i values_i of a 1-d float array, in one fixed order."""
    return float(np.einsum("i->", np.asarray(values, dtype=float)))


def total_squares(values) -> float:
    """sum_i values_i^2 of a 1-d float array, in one fixed order."""
    v = np.asarray(values, dtype=float)
    return float(np.einsum("i,i->", v, v))


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
