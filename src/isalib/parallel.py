"""Deterministic parallel evaluation of target densities.

Draws happen on the orchestrator thread; only density evaluations fan out to
a worker pool, and results are committed in input order, so output is
identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def parallel_map_density(target, thetas, workers: int = 1) -> list:
    """Evaluate target.log_density over `thetas`, preserving input order.

    Failure values are returned in place (they are data, not errors).
    """
    if workers < 1:
        raise DomainError("workers must be >= 1")
    thetas = list(thetas)
    if not thetas:
        return []
    if workers == 1:
        return [target.log_density(t) for t in thetas]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(target.log_density, thetas))
