"""Deterministic parallel evaluation of target densities.

Draws happen on the orchestrator thread; only density evaluations fan out.
A batch is cut into `workers` contiguous chunks, each evaluated by one
`log_density_batch` call on a worker thread, and the chunks are joined in
input order.  Every built-in target gives a row the same value however the
batch is split, so output is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError


def parallel_map_density(target, thetas, workers: int = 1):
    """Evaluate target.log_density_batch over the rows of `thetas`.

    Returns `(values, failed)` in input order.  Failures are data, not
    errors: a failed row, and any row whose value is not finite, has
    `failed` set and value -inf.
    """
    if workers < 1:
        raise DomainError("workers must be >= 1")
    thetas = np.asarray(thetas, dtype=float)
    if workers == 1 or len(thetas) < 2:
        values, failed = target.log_density_batch(thetas)
    else:
        chunks = np.array_split(thetas, min(workers, len(thetas)))
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(target.log_density_batch, chunks))
        values = np.concatenate([part[0] for part in parts])
        failed = np.concatenate([part[1] for part in parts])
    values = np.asarray(values, dtype=float)
    failed = np.asarray(failed, dtype=bool) | ~np.isfinite(values)
    return np.where(failed, -np.inf, values), failed
