import csv
import math
import tracemalloc
from math import fsum

import numpy as np
import pytest

import isalib.diagnostics
from isalib import ChainTooShort, DomainError, WeightedEnsemble
from isalib.diagnostics import (
    default_range,
    iact,
    iact_ensemble,
    triangle_export,
    weighted_histogram_1d,
    weighted_histogram_2d,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def five_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def reference_iact(chains):
    """The windowed IACT from direct lagged dot products, sum_i x_i x_(i+t)
    per centered walker, normalized and averaged over walkers."""
    n, walkers = chains.shape
    rho = np.zeros(n)
    for w in range(walkers):
        x = chains[:, w] - chains[:, w].mean()
        acf = np.array([x[: n - t] @ x[t:] for t in range(n)])
        rho += acf / acf[0]
    rho /= walkers
    tau = 2.0 * np.cumsum(rho) - 1.0
    return next((tau[t] for t in range(n) if t >= 5.0 * tau[t]), tau[-1])


def ar1_chain(rho, n, rng):
    # AR(1) with coefficient rho has tau = (1 + rho) / (1 - rho)
    chain = np.empty(n)
    chain[0] = rng.standard_normal()
    noise = rng.standard_normal(n - 1) * math.sqrt(1.0 - rho**2)
    for t in range(1, n):
        chain[t] = rho * chain[t - 1] + noise[t - 1]
    return chain


class TestIact:
    def test_iid_chain_near_one(self):
        tau = iact(rng_for(0).standard_normal(50_000))
        assert tau == pytest.approx(1.0, abs=0.1)

    def test_ar1_matches_theory(self):
        rho = 0.5
        tau = iact(ar1_chain(rho, 200_000, rng_for(1)))
        assert tau == pytest.approx((1 + rho) / (1 - rho), rel=0.1)

    def test_strong_correlation(self):
        rho = 0.9
        tau = iact(ar1_chain(rho, 400_000, rng_for(2)))
        assert tau == pytest.approx((1 + rho) / (1 - rho), rel=0.15)

    def test_short_chain_rejected(self):
        with pytest.raises(ChainTooShort):
            iact(np.arange(50, dtype=float))

    def test_constant_chain_rejected(self):
        with pytest.raises(ChainTooShort):
            iact(np.ones(1000))

    def test_two_d_input_rejected(self):
        with pytest.raises(DomainError):
            iact(np.zeros((200, 4)))


class TestIactEnsemble:
    def test_iid_walkers(self):
        tau = iact_ensemble(rng_for(3).standard_normal((20_000, 4)))
        assert tau == pytest.approx(1.0, abs=0.1)

    def test_matches_single_chain_estimate(self):
        rho = 0.6
        rng = rng_for(4)
        chains = np.column_stack([ar1_chain(rho, 100_000, rng) for _ in range(4)])
        tau = iact_ensemble(chains)
        assert tau == pytest.approx((1 + rho) / (1 - rho), rel=0.1)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            iact_ensemble(np.zeros(1000))
        with pytest.raises(ChainTooShort):
            iact_ensemble(np.zeros((10, 4)))

    @pytest.mark.parametrize("walkers", [1, 3, 4])
    @pytest.mark.parametrize("steps", [100, 257, 1000])  # 2n - 1 = 199, 513, 1999
    def test_matches_direct_lagged_products(self, walkers, steps):
        rng = rng_for(5)
        chains = np.column_stack([ar1_chain(0.8, steps, rng) for _ in range(walkers)])
        assert not five_smooth(2 * steps - 1)
        assert iact_ensemble(chains) == pytest.approx(reference_iact(chains), rel=1e-10)

    def test_fft_length_is_the_smallest_5_smooth(self):
        for m in range(1, 5001):
            expected = next(k for k in range(m, 2 * m + 1) if five_smooth(k))
            assert isalib.diagnostics._fft_length(m) == expected, m

    def test_traced_peak_of_a_long_chain(self):
        # four walker ACFs at once and a 262,144-point complex product
        # peaked at about 9 MB; one running sum and an in-place power
        # spectrum of 200,000 points stay near 4 MB
        chains = rng_for(6).standard_normal((100_000, 4))
        tracemalloc.start()
        try:
            iact_ensemble(chains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestHistograms:
    def ensemble(self):
        rng = rng_for(5)
        return WeightedEnsemble.from_log_weights(
            rng.standard_normal((5000, 2)), rng.standard_normal(5000) * 0.1
        )

    def test_mass_conserved(self):
        ens = self.ensemble()
        hist = weighted_histogram_1d(ens, 0)
        total = fsum(hist.mass) + hist.out_of_range
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_explicit_range_out_of_range_mass(self):
        ens = self.ensemble()
        hist = weighted_histogram_1d(ens, 0, bins=10, value_range=(-0.5, 0.5))
        assert hist.out_of_range > 0.0
        assert fsum(hist.mass) + hist.out_of_range == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_lands_in_single_bin(self):
        ens = WeightedEnsemble.uniform(np.full((10, 1), 3.0))
        hist = weighted_histogram_1d(ens, 0, bins=5, value_range=(0.0, 10.0))
        assert np.count_nonzero(hist.mass) == 1
        assert fsum(hist.mass) == pytest.approx(1.0)

    def test_default_range_covers_bulk(self):
        ens = self.ensemble()
        lo, hi = default_range(ens, 0)
        assert lo < -3.0 and hi > 3.0
        hist = weighted_histogram_1d(ens, 0)
        assert hist.out_of_range < 1e-3

    def test_2d_mass_conserved(self):
        ens = self.ensemble()
        hist = weighted_histogram_2d(ens, 0, 1, bins=30)
        assert fsum(hist.mass.ravel()) + hist.out_of_range == pytest.approx(
            1.0, abs=1e-12
        )
        assert hist.mass.shape == (30, 30)

    def test_bad_arguments(self):
        ens = self.ensemble()
        with pytest.raises(DomainError):
            weighted_histogram_1d(ens, 0, bins=0)
        with pytest.raises(DomainError):
            weighted_histogram_1d(ens, 5)
        with pytest.raises(DomainError):
            weighted_histogram_1d(ens, 0, value_range=(1.0, 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [{"index_y": 1, "x_range": (1.0, 1.0)}, {"index_y": 5}],
        ids=["zero-width-range", "index-out-of-range"],
    )
    def test_bad_2d_arguments(self, kwargs):
        with pytest.raises(DomainError):
            weighted_histogram_2d(self.ensemble(), 0, **kwargs)


class TestTriangleExport:
    def test_masses_match_numpy_histograms(self, tmp_path):
        # the export bins each coordinate once; its 2-d masses are bitwise
        # those of np.histogram2d, its 1-d masses direct sums that np.histogram
        # (differences of a cumulative sum) matches to rounding
        rng = rng_for(11)
        samples = rng.standard_normal((20_000, 3)) * [1.0, 0.5, 2.0]
        ens = WeightedEnsemble.from_log_weights(samples, rng.standard_normal(20_000))
        triangle_export(ens, bins=20, out_dir=tmp_path)

        def table(name):
            with open(tmp_path / name, newline="") as fh:
                return np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])

        w = ens.weights
        edges = []
        for i in range(3):
            rows = table(f"hist_theta_{i}.csv")
            edges.append(np.append(rows[:, 0], rows[-1, 1]))
            x = samples[:, i]
            inside = (x >= edges[i][0]) & (x <= edges[i][-1])
            ref, _ = np.histogram(x[inside], bins=edges[i], weights=w[inside])
            np.testing.assert_allclose(rows[:, 2], ref, rtol=0.0, atol=1e-14)
        for i in range(3):
            for j in range(i + 1, 3):
                x, y = samples[:, i], samples[:, j]
                inside = ((x >= edges[i][0]) & (x <= edges[i][-1])
                          & (y >= edges[j][0]) & (y <= edges[j][-1]))
                ref, _, _ = np.histogram2d(
                    x[inside], y[inside], bins=(edges[i], edges[j]), weights=w[inside]
                )
                assert np.array_equal(table(f"hist2d_theta_{i}_theta_{j}.csv"), ref)

    def test_files_written(self, tmp_path):
        rng = rng_for(6)
        ens = WeightedEnsemble.uniform(rng.standard_normal((500, 3)))
        written = triangle_export(ens, bins=10, out_dir=tmp_path)
        names = {p.name for p in written}
        assert names == {
            "hist_theta_0.csv",
            "hist_theta_1.csv",
            "hist_theta_2.csv",
            "hist2d_theta_0_theta_1.csv",
            "hist2d_theta_0_theta_2.csv",
            "hist2d_theta_1_theta_2.csv",
            "triangle.svg",
        }
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_csv_mass_column_sums_to_one(self, tmp_path):
        rng = rng_for(7)
        ens = WeightedEnsemble.uniform(rng.standard_normal((2000, 2)))
        triangle_export(ens, bins=20, out_dir=tmp_path)
        lines = (tmp_path / "hist_theta_0.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,mass"
        mass = [float(line.split(",")[2]) for line in lines[1:]]
        assert fsum(mass) == pytest.approx(1.0, abs=1e-3)

    def test_deterministic_output(self, tmp_path):
        rng = rng_for(8)
        ens = WeightedEnsemble.uniform(rng.standard_normal((300, 2)))
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        triangle_export(ens, bins=15, out_dir=dir_a)
        triangle_export(ens, bins=15, out_dir=dir_b)
        for name in ("hist_theta_0.csv", "hist2d_theta_0_theta_1.csv", "triangle.svg"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_one_covariance_per_export(self, tmp_path, monkeypatch):
        calls = []
        original = isalib.diagnostics.weighted_covariance

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(isalib.diagnostics, "weighted_covariance", counted)
        ens = WeightedEnsemble.uniform(rng_for(10).standard_normal((400, 4)))
        triangle_export(ens, bins=8, out_dir=tmp_path)
        assert len(calls) == 1

    def test_2d_rows_are_the_first_coordinate(self, tmp_path):
        # a skewed pair: theta_1 is spread wider than theta_0 and shifted,
        # so the mass matrix is not symmetric and a transposed file fails
        rng = rng_for(15)
        samples = rng.standard_normal((3000, 2)) * [0.5, 2.0] + [0.0, 1.0]
        samples[:, 1] += samples[:, 0] ** 2
        ens = WeightedEnsemble.from_log_weights(samples, rng.standard_normal(3000))
        triangle_export(ens, bins=9, out_dir=tmp_path)
        path = tmp_path / "hist2d_theta_0_theta_1.csv"
        mass = weighted_histogram_2d(ens, 0, 1, 9).mass
        assert not np.array_equal(mass, mass.T)
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), mass)

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        def reference(path, header, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([f"{value:.17g}" for value in row])

        ens = WeightedEnsemble.from_log_weights(
            rng_for(13).standard_normal((500, 2)), rng_for(14).standard_normal(500)
        )
        bins = 7
        triangle_export(ens, bins=bins, out_dir=tmp_path)
        # histograms over each coordinate's own default range
        h1 = weighted_histogram_1d(ens, 0, bins)
        reference(
            tmp_path / "ref_1d.csv",
            ["bin_left", "bin_right", "mass"],
            zip(h1.edges[:-1], h1.edges[1:], h1.mass),
        )
        h2 = weighted_histogram_2d(ens, 0, 1, bins)
        reference(tmp_path / "ref_2d.csv", [f"y_bin_{b}" for b in range(bins)], h2.mass)
        assert (tmp_path / "hist_theta_0.csv").read_bytes() == (
            tmp_path / "ref_1d.csv"
        ).read_bytes()
        assert (tmp_path / "hist2d_theta_0_theta_1.csv").read_bytes() == (
            tmp_path / "ref_2d.csv"
        ).read_bytes()

    def test_svg_bytes_match_per_cell_reference(self, tmp_path, monkeypatch):
        # the per-cell panel loops that format every coordinate of every cell
        PANEL = isalib.diagnostics.PANEL

        def bar_panel(hist, x0, y0):
            bins = hist.mass.size
            peak = hist.mass.max() if hist.mass.max() > 0 else 1.0
            width = PANEL / bins
            rects = [
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{PANEL}" height="{PANEL}" '
                f'fill="none" stroke="black" stroke-width="1"/>'
            ]
            for b in range(bins):
                h = PANEL * float(hist.mass[b]) / peak
                if f"{h:.2f}" == "0.00":
                    continue
                rects.append(
                    f'<rect x="{x0 + b * width:.2f}" y="{y0 + PANEL - h:.2f}" '
                    f'width="{width:.2f}" height="{h:.2f}" fill="gray"/>'
                )
            return "\n".join(rects)

        def heat_panel(hist, x0, y0):
            bins = hist.mass.shape[0]
            peak = hist.mass.max() if hist.mass.max() > 0 else 1.0
            cell = PANEL / bins
            rects = [
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{PANEL}" height="{PANEL}" '
                f'fill="none" stroke="black" stroke-width="1"/>'
            ]
            for a in range(bins):
                for b in range(bins):
                    value = float(hist.mass[a, b]) / peak
                    shade = int(round(255 * (1.0 - value)))
                    if shade == 255:
                        continue
                    rects.append(
                        f'<rect x="{x0 + a * cell:.2f}" '
                        f'y="{y0 + PANEL - (b + 1) * cell:.2f}" '
                        f'width="{cell:.2f}" height="{cell:.2f}" '
                        f'fill="rgb({shade},{shade},{shade})"/>'
                    )
            return "\n".join(rects)

        rng = rng_for(15)
        samples = rng.standard_normal((3000, 3)) * [1.0, 3.0, 0.2]
        ens = WeightedEnsemble.from_log_weights(samples, 2.0 * rng.standard_normal(3000))
        hist = weighted_histogram_2d(ens, 0, 2)
        assert (hist.mass == 0).any() and (hist.mass > 0).any()
        triangle_export(ens, out_dir=tmp_path / "fast")
        monkeypatch.setattr(isalib.diagnostics, "_bar_panel", bar_panel)
        monkeypatch.setattr(isalib.diagnostics, "_heat_panel", heat_panel)
        triangle_export(ens, out_dir=tmp_path / "reference")
        assert (tmp_path / "fast" / "triangle.svg").read_bytes() == (
            tmp_path / "reference" / "triangle.svg"
        ).read_bytes()

    def test_svg_skips_invisible_rects(self, tmp_path):
        # samples with |theta_0| > 1.5 carry e^-20 of the others' weight, so
        # their bins have a mass that is positive but too small to draw
        rng = rng_for(16)
        samples = rng.standard_normal((3000, 2))
        ens = WeightedEnsemble.from_log_weights(
            samples, np.where(np.abs(samples[:, 0]) > 1.5, -20.0, 0.0)
        )
        bars = weighted_histogram_1d(ens, 0).mass
        bars = isalib.diagnostics.PANEL * bars / bars.max()
        assert ((bars > 0) & (bars < 0.005)).any()
        cells = weighted_histogram_2d(ens, 0, 1).mass
        cells = cells / cells.max()
        assert ((cells > 0) & (np.rint(255 * (1 - cells)) == 255)).any()
        triangle_export(ens, out_dir=tmp_path)
        svg = (tmp_path / "triangle.svg").read_text()
        assert 'height="0.00"' not in svg and "rgb(255,255,255)" not in svg
        assert 'fill="gray"' in svg and 'fill="rgb(' in svg

    def test_svg_is_well_formed(self, tmp_path):
        import xml.etree.ElementTree as ET

        ens = WeightedEnsemble.uniform(rng_for(9).standard_normal((200, 2)))
        triangle_export(ens, bins=10, out_dir=tmp_path)
        root = ET.parse(tmp_path / "triangle.svg").getroot()
        assert root.tag.endswith("svg")
