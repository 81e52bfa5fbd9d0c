"""Weighted-sample container, weight normalization, and the quality measure R.

The quality measure R = E(w^2)/E(w)^2 = var(w)/E(w)^2 + 1 is estimated for
self-normalized weights as R_hat = N * sum(w_i^2); the effective sample size
is N_eff = N / R.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .csvformat import format_block
from .errors import AllWeightsZero, DegenerateEnsemble, DomainError
from .linalg import spd_repair, total, total_squares

WEIGHT_SUM_TOL = 1e-12
# rows formatted per write: bounds the text held in memory for a large ensemble
CSV_BLOCK_ROWS = 1024


def self_normalize(log_weights_raw) -> np.ndarray:
    """Turn raw log-weights (possibly -inf) into weights summing to one.

    Shifts by the largest finite entry, exponentiates and divides by one
    fixed-order `linalg.total`, so the weights sum to one within 1e-12.
    Invariant under adding any finite constant to all entries.  Raises
    AllWeightsZero if every entry is -inf.
    """
    lw = np.asarray(log_weights_raw, dtype=float)
    if lw.ndim != 1 or lw.size == 0:
        raise DomainError("log weights must be a non-empty 1-d array")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise DomainError("log weights must be finite or -inf")
    finite = np.isfinite(lw)
    if not finite.any():
        raise AllWeightsZero("all raw log-weights are -inf")
    shifted = lw - lw[finite].max()
    w = np.exp(shifted)
    return w / total(w)


@dataclass(frozen=True)
class WeightedEnsemble:
    """Parameter samples with self-normalized importance weights.

    samples has shape (n, n_theta); weights sum to one.  weights[i] == 0 where
    log_weights_raw[i] is -inf or more than about 745 below the largest entry.
    """

    samples: np.ndarray
    log_weights_raw: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise DomainError("samples must have shape (n, n_theta) with n >= 1")
        if not np.all(np.isfinite(s)):
            raise DomainError("samples must be finite")
        if len(self.weights) != s.shape[0] or len(self.log_weights_raw) != s.shape[0]:
            raise DomainError("samples and weights disagree in length")
        # NaN-safe: a non-finite weight makes the sum non-finite
        if not abs(total(self.weights) - 1.0) <= WEIGHT_SUM_TOL:
            raise DomainError("weights must be finite and sum to one")
        object.__setattr__(self, "samples", s)
        object.__setattr__(
            self, "log_weights_raw", np.asarray(self.log_weights_raw, dtype=float)
        )
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.samples.setflags(write=False)
        self.log_weights_raw.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def from_log_weights(cls, samples, log_weights_raw) -> "WeightedEnsemble":
        lw = np.asarray(log_weights_raw, dtype=float)
        return cls(np.asarray(samples, dtype=float), lw, self_normalize(lw))

    @classmethod
    def uniform(cls, samples) -> "WeightedEnsemble":
        s = np.asarray(samples, dtype=float)
        return cls.from_log_weights(s, np.zeros(s.shape[0]))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def n_theta(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class QualityReport:
    """Quality measure r >= 1 and the implied effective sample size n / r."""

    r: float
    n_eff: float
    n: int


def estimate_r(weights) -> QualityReport:
    """Estimate R for self-normalized weights: R_hat = N * sum(w_i^2)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a non-empty 1-d array")
    # NaN-safe: a non-finite weight makes the sum non-finite
    if not abs(total(w) - 1.0) <= WEIGHT_SUM_TOL or np.any(w < 0):
        raise DomainError("weights must be finite, nonnegative and self-normalized")
    n = w.size
    r = n * total_squares(w)
    r = min(max(r, 1.0), float(n))
    return QualityReport(r=r, n_eff=n / r, n=n)


# The moment reductions use plain einsum (optimize=False): it never dispatches
# to threaded BLAS and runs in a fixed loop order, so results do not depend
# on the BLAS thread count.
def weighted_mean(ensemble: WeightedEnsemble) -> np.ndarray:
    """mu_hat = sum_i w_i theta_i."""
    return np.einsum("i,ij->j", ensemble.weights, ensemble.samples)


def check_collapse(ensemble: WeightedEnsemble) -> QualityReport:
    """Collapse guard: reject ensembles with n_eff < n_theta + 1."""
    report = estimate_r(ensemble.weights)
    if report.n_eff < ensemble.n_theta + 1:
        raise DegenerateEnsemble(
            f"effective sample size {report.n_eff:.3g} below n_theta + 1 "
            f"= {ensemble.n_theta + 1}"
        )
    return report


def weighted_covariance(ensemble: WeightedEnsemble, inflation: float = 1.0) -> np.ndarray:
    """Inflated self-normalized sample covariance, SPD-repaired.

    Sigma_hat = inflation * sum_i w_i (theta_i - mu)(theta_i - mu)^T.
    Raises DegenerateEnsemble on collapse or irreparable rank deficiency.
    """
    if inflation < 1.0:
        raise DomainError("inflation must be >= 1")
    check_collapse(ensemble)
    mu = weighted_mean(ensemble)
    dev = ensemble.samples - mu
    cov = np.einsum("ij,ik->jk", dev * ensemble.weights[:, None], dev)
    repaired, _ = spd_repair(inflation * cov)
    return repaired


def gaussian_mismatch_r(epsilon: float, n_theta: int) -> float:
    """Closed-form R for target N(0, I) and proposal N(0, (1+eps) I):
    R = ((1+eps) / sqrt(1+2 eps))^n_theta."""
    if n_theta < 1:
        raise DomainError("n_theta must be >= 1")
    if 1.0 + 2.0 * epsilon <= 0.0:
        raise DomainError("requires 1 + 2*epsilon > 0")
    return ((1.0 + epsilon) / math.sqrt(1.0 + 2.0 * epsilon)) ** n_theta


def write_csv_table(path, header, table) -> None:
    """Write a header row and one row per line of the 2-d float `table`.

    The bytes are those of csv.writer (comma-separated, CRLF line ends) over
    Python's '%.17g' of every value: 17 significant digits, rounded half to
    even, in %f form for decimal exponents -4 to 16 and in %e form
    otherwise, without trailing zeros, so each reads back as the same
    double.  Each block of CSV_BLOCK_ROWS rows is formatted by one numpy
    kernel, `csvformat.format_block`, and written with one call.  NaN, inf
    and the rare values within 1e-9 of a rounding tie, exact ties such as
    2**-25 among them, are formatted by '%.17g' itself."""
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
            fh.write(format_block(table[start : start + CSV_BLOCK_ROWS]))


def write_json(path, data) -> None:
    """Write `data` as JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_ensemble_csv(ensemble: WeightedEnsemble, path) -> None:
    """CSV with header weight,theta_0,...,theta_{n-1}; 17 significant digits."""
    write_csv_table(
        path,
        ["weight"] + [f"theta_{j}" for j in range(ensemble.n_theta)],
        np.column_stack([ensemble.weights, ensemble.samples]),
    )


def read_ensemble_csv(path) -> WeightedEnsemble:
    """Read an ensemble CSV written by write_ensemble_csv.  Raises
    DomainError naming the file and line on a malformed header or row,
    including a weight that is not finite and nonnegative."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "weight":
            raise DomainError(f"not an ensemble CSV: {path}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DomainError(
                    f"{path}, line {reader.line_num}: expected {len(header)} "
                    f"fields, found {len(row)}"
                )
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise DomainError(f"{path}, line {reader.line_num}: {exc}") from exc
            if not (math.isfinite(values[0]) and values[0] >= 0.0):
                raise DomainError(
                    f"{path}, line {reader.line_num}: weight must be finite "
                    f"and nonnegative, found {row[0]!r}"
                )
            rows.append(values)
    if not rows:
        raise DomainError(f"empty ensemble CSV: {path}")
    data = np.asarray(rows)
    weights = data[:, 0]
    weight_sum = total(weights)
    if weight_sum == 0.0:
        raise DomainError(f"{path}: every weight is zero")
    # weights that already sum to one are kept, so a written file reads back
    if abs(weight_sum - 1.0) > WEIGHT_SUM_TOL:
        weights = weights / weight_sum
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return WeightedEnsemble(data[:, 1:], logw, weights)
