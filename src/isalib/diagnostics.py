"""Chain and ensemble diagnostics: integrated autocorrelation time, weighted
histograms, and triangle-plot data/SVG export."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import (
    WeightedEnsemble,
    weighted_covariance,
    weighted_mean,
    write_csv_table,
)
from .errors import ChainTooShort, DomainError
from .linalg import total

MIN_CHAIN_LENGTH = 100
SOKAL_C = 5.0  # adaptive window: smallest T with T >= 5 * tau_hat(T)
STEPS_PER_TAU = 50  # a chain shorter than this many IACTs gives an unreliable one (emcee)
DEFAULT_BINS = 50
DEFAULT_RANGE_SIGMAS = 4.0


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m, a length numpy's FFT handles fast."""
    best = 1 << (m - 1).bit_length()
    odd = 1  # runs over the 3^b 5^c below best
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-m // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def _autocorrelation(chain: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation function via an FFT of the 5-smooth length
    size >= 2 n - 1.  The spectrum becomes the power spectrum in place: real
    part re^2 + im^2, imaginary part 0."""
    n = chain.size
    size = _fft_length(2 * n - 1)
    spectrum = np.fft.rfft(chain - chain.mean(), n=size)
    pairs = spectrum.view(float).reshape(-1, 2)
    np.square(pairs, out=pairs)
    pairs[:, 0] += pairs[:, 1]
    pairs[:, 1] = 0.0
    acf = np.fft.irfft(spectrum, n=size)[:n]
    if acf[0] <= 0.0:
        raise ChainTooShort("chain is constant; autocorrelation undefined")
    acf /= acf[0]
    return acf


class IactEstimate(float):
    """An IACT tau_hat(T) that also carries its Sokal window T, in steps, as
    `window`.  In a chain of fewer than STEPS_PER_TAU * tau steps the window
    is a large share of the chain, and tau_hat may be far too small."""

    def __new__(cls, tau: float, window: int):
        estimate = super().__new__(cls, tau)
        estimate.window = window
        return estimate


def iact(chain) -> float:
    """Integrated autocorrelation time tau = 1 + 2 sum rho(t) with a
    Sokal-style adaptive window (smallest T with T >= 5 tau_hat(T))."""
    chain = np.asarray(chain, dtype=float)
    if chain.ndim != 1:
        raise DomainError("iact expects a 1-d chain; use iact_ensemble for 2-d")
    return iact_ensemble(chain[:, None])


def iact_ensemble(chains: np.ndarray) -> float:
    """IACT from several walkers of one coordinate, shape (steps, walkers):
    per-walker autocorrelations are averaged before windowing.  Returns an
    IactEstimate, so the window it was read at comes with it."""
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2:
        raise DomainError("expected shape (steps, walkers)")
    if chains.shape[0] < MIN_CHAIN_LENGTH:
        raise ChainTooShort(f"need at least {MIN_CHAIN_LENGTH} steps")
    # summed in walker order, then divided once: np.mean's order
    steps, walkers = chains.shape
    rho = np.zeros(steps)
    for w in range(walkers):
        rho += _autocorrelation(chains[:, w])
    rho /= walkers
    tau = 2.0 * np.cumsum(rho) - 1.0  # tau_hat(T) = 1 + 2 sum_{t=1..T} rho(t)
    window = np.arange(len(tau)) >= SOKAL_C * tau
    t = np.argmax(window) if window.any() else len(tau) - 1
    return IactEstimate(max(tau[t], 1e-12), int(t))


@dataclass(frozen=True)
class Histogram1D:
    edges: np.ndarray  # length bins + 1, strictly increasing
    mass: np.ndarray  # length bins, nonnegative
    out_of_range: float


@dataclass(frozen=True)
class Histogram2D:
    x_edges: np.ndarray
    y_edges: np.ndarray
    mass: np.ndarray  # (bins_x, bins_y)
    out_of_range: float


def default_ranges(ensemble: WeightedEnsemble) -> list[tuple]:
    """Per coordinate, weighted mean +- 4 weighted standard deviations, from
    one mean and one covariance of the ensemble."""
    mus = weighted_mean(ensemble)
    variances = np.diag(weighted_covariance(ensemble))
    ranges = []
    for mu, var in zip(mus.tolist(), variances.tolist()):
        sd = math.sqrt(max(var, 0.0))
        if sd == 0.0:
            sd = max(abs(mu), 1.0) * 1e-6
        ranges.append((mu - DEFAULT_RANGE_SIGMAS * sd, mu + DEFAULT_RANGE_SIGMAS * sd))
    return ranges


def default_range(ensemble: WeightedEnsemble, coordinate_index: int) -> tuple:
    """Weighted mean +- 4 weighted standard deviations of one coordinate."""
    return default_ranges(ensemble)[coordinate_index]


def _binned(ensemble: WeightedEnsemble, coordinate_index: int, bins: int, value_range):
    """One coordinate's bin edges and each sample's bin by numpy's histogram
    rule: x == edges[-1] is in the last bin, and -1 marks x out of range."""
    if bins < 1:
        raise DomainError("bins must be >= 1")
    if not 0 <= coordinate_index < ensemble.n_theta:
        raise DomainError("coordinate index out of range")
    lo, hi = value_range or default_range(ensemble, coordinate_index)
    if not hi > lo:
        raise DomainError("histogram range must be increasing")
    edges = np.linspace(lo, hi, bins + 1)
    x = ensemble.samples[:, coordinate_index]
    index = np.searchsorted(edges, x, side="right") - 1
    index[x == hi] = bins - 1
    index[index == bins] = -1
    return edges, index


# Masses are np.bincount sums in sample order, so the 2-d ones are bitwise
# np.histogram2d's; index + 1 puts the out-of-range samples in a dropped slot.
def _histogram_1d(edges, index, weights) -> Histogram1D:
    mass = np.bincount(index + 1, weights=weights, minlength=edges.size)[1:]
    return Histogram1D(edges, mass, total(weights[index < 0]))


def _histogram_2d(x_edges, x_index, y_edges, y_index, weights) -> Histogram2D:
    cols = y_edges.size
    flat = (x_index + 1) * cols + y_index + 1
    mass = np.bincount(flat, weights=weights, minlength=x_edges.size * cols)
    outside = weights[(x_index < 0) | (y_index < 0)]
    return Histogram2D(x_edges, y_edges, mass.reshape(-1, cols)[1:, 1:], total(outside))


def weighted_histogram_1d(
    ensemble: WeightedEnsemble,
    coordinate_index: int,
    bins: int = DEFAULT_BINS,
    value_range: tuple | None = None,
) -> Histogram1D:
    edges, index = _binned(ensemble, coordinate_index, bins, value_range)
    return _histogram_1d(edges, index, ensemble.weights)


def weighted_histogram_2d(
    ensemble: WeightedEnsemble,
    index_x: int,
    index_y: int,
    bins: int = DEFAULT_BINS,
    x_range: tuple | None = None,
    y_range: tuple | None = None,
) -> Histogram2D:
    x_edges, x_index = _binned(ensemble, index_x, bins, x_range)
    y_edges, y_index = _binned(ensemble, index_y, bins, y_range)
    return _histogram_2d(x_edges, x_index, y_edges, y_index, ensemble.weights)


def triangle_export(
    ensemble: WeightedEnsemble, bins: int = DEFAULT_BINS, out_dir="."
) -> list[Path]:
    """Write 1-d histogram CSVs per coordinate, 2-d histogram CSVs per pair,
    and a minimal SVG triangle grid.  Deterministic for a fixed ensemble.
    A pair i < j's CSV is its bins x bins mass matrix: one row per theta_i
    bin, one column per theta_j bin; its bin edges are those of the two 1-d
    CSVs."""
    # the ranges raise on a degenerate ensemble, so before anything is made
    binned = [_binned(ensemble, i, bins, r) for i, r in enumerate(default_ranges(ensemble))]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = ensemble.n_theta
    w = ensemble.weights
    written: list[Path] = []
    hists1d = []
    for i in range(d):
        hist = _histogram_1d(*binned[i], w)
        hists1d.append(hist)
        path = out / f"hist_theta_{i}.csv"
        write_csv_table(
            path,
            ["bin_left", "bin_right", "mass"],
            np.column_stack([hist.edges[:-1], hist.edges[1:], hist.mass]),
        )
        written.append(path)
    hists2d = {}
    for i in range(d):
        for j in range(i + 1, d):
            hist = _histogram_2d(*binned[i], *binned[j], w)
            hists2d[(i, j)] = hist
            path = out / f"hist2d_theta_{i}_theta_{j}.csv"
            write_csv_table(path, [f"y_bin_{b}" for b in range(bins)], hist.mass)
            written.append(path)
    svg_path = out / "triangle.svg"
    svg_path.write_text(_triangle_svg(hists1d, hists2d, d))
    written.append(svg_path)
    return written


PANEL = 120  # panel edge length in SVG user units
GAP = 10


def _triangle_svg(hists1d, hists2d, d) -> str:
    size = d * PANEL + (d + 1) * GAP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(d):
        x0 = GAP + i * (PANEL + GAP)
        y0 = GAP + i * (PANEL + GAP)
        parts.append(_bar_panel(hists1d[i], x0, y0))
        for j in range(i + 1, d):
            # lower triangle: row j, column i
            parts.append(
                _heat_panel(hists2d[(i, j)], GAP + i * (PANEL + GAP), GAP + j * (PANEL + GAP))
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bar_panel(hist: Histogram1D, x0: float, y0: float) -> str:
    bins = hist.mass.size
    peak = hist.mass.max() if hist.mass.max() > 0 else 1.0
    width = PANEL / bins
    rects = [
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{PANEL}" height="{PANEL}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    ]
    for b in range(bins):
        h = PANEL * float(hist.mass[b]) / peak
        height = f"{h:.2f}"
        if height == "0.00":  # an empty bin, or one too light to see
            continue
        rects.append(
            f'<rect x="{x0 + b * width:.2f}" y="{y0 + PANEL - h:.2f}" '
            f'width="{width:.2f}" height="{height}" fill="gray"/>'
        )
    return "\n".join(rects)


def _heat_panel(hist: Histogram2D, x0: float, y0: float) -> str:
    bins = hist.mass.shape[0]
    peak = hist.mass.max() if hist.mass.max() > 0 else 1.0
    cell = PANEL / bins
    rects = [
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{PANEL}" height="{PANEL}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    ]
    # a cell's position depends only on its column a or its row b, so those
    # strings are formatted once; only the shade is formatted per cell
    columns = [f'<rect x="{x0 + a * cell:.2f}" ' for a in range(bins)]
    rows = [
        f'y="{y0 + PANEL - (b + 1) * cell:.2f}" '
        f'width="{cell:.2f}" height="{cell:.2f}" '
        for b in range(bins)
    ]
    shades = np.rint(255.0 * (1.0 - hist.mass / peak)).astype(int).tolist()
    for column, column_shades in zip(columns, shades):
        for row, shade in zip(rows, column_shades):
            if shade < 255:  # 255 is white on white: empty, or too light to see
                rects.append(f'{column}{row}fill="rgb({shade},{shade},{shade})"/>')
    return "\n".join(rects)
