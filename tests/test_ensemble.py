import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import isalib.csvformat
import isalib.ensemble
from isalib import (
    AllWeightsZero,
    DegenerateEnsemble,
    DomainError,
    WeightedEnsemble,
    estimate_r,
    gaussian_mismatch_r,
    self_normalize,
    weighted_covariance,
    weighted_mean,
)
from isalib.cli import main
from isalib.ensemble import read_ensemble_csv, write_ensemble_csv
from isalib.linalg import total, total_squares


def fsum_moments(ens):
    """Reference moments: one compensated sum per mean entry and per
    covariance entry, accumulated in sample-index order."""
    w = ens.weights
    d = ens.n_theta
    mu = np.array([math.fsum(w * ens.samples[:, j]) for j in range(d)])
    dev = ens.samples - mu
    cov = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            cov[a, b] = cov[b, a] = math.fsum(w * dev[:, a] * dev[:, b])
    return mu, cov


class TestSelfNormalize:
    def test_equal_weights(self):
        np.testing.assert_allclose(self_normalize([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance_large_negative(self):
        np.testing.assert_allclose(self_normalize([-1000.0, -1000.0]), [0.5, 0.5])

    def test_zero_likelihood_sample(self):
        np.testing.assert_allclose(self_normalize([0.0, -np.inf]), [1.0, 0.0])

    def test_all_zero_raises(self):
        with pytest.raises(AllWeightsZero):
            self_normalize([-np.inf, -np.inf])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            self_normalize([0.0, np.nan])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=40),
        # moderate shifts: huge ones destroy input precision before the
        # normalization ever sees the values
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=200)
    def test_constant_shift_invariance(self, logs, shift):
        base = self_normalize(logs)
        shifted = self_normalize(np.asarray(logs) + shift)
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-15)

    # log-weights spanning far more than a double's exponent range: most
    # entries underflow to weight zero after the shift by the maximum
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_sums_to_one(self, logs):
        assert abs(math.fsum(self_normalize(logs)) - 1.0) <= 1e-12


class TestReductionAlignment:
    def test_bitwise_equal_at_every_offset(self):
        # log-normal with sigma 8: weights spread over ~30 decades
        w = np.random.default_rng(17).lognormal(0.0, 8.0, 20_001)
        copies = []
        for byte_offset in range(16):
            buf = np.empty(w.nbytes + 16, dtype=np.uint8)
            view = buf[byte_offset : byte_offset + w.nbytes].view(np.float64)
            view[:] = w
            copies.append(view)
        for element_offset in range(8):
            buf = np.zeros(w.size + 8)
            buf[element_offset : element_offset + w.size] = w
            copies.append(buf[element_offset : element_offset + w.size])
        sums = {total(c) for c in copies}
        squares = {total_squares(c) for c in copies}
        assert len(sums) == 1 and len(squares) == 1
        assert sums == {total(w)} and squares == {total_squares(w)}


class TestEstimateR:
    def test_uniform_weights_r_is_one(self):
        report = estimate_r([0.25] * 4)
        assert report.r == pytest.approx(1.0)
        assert report.n_eff == pytest.approx(4.0)

    def test_degenerate_weight_r_is_n(self):
        report = estimate_r([1.0, 0.0, 0.0, 0.0])
        assert report.r == pytest.approx(4.0)
        assert report.n_eff == pytest.approx(1.0)

    def test_half_support(self):
        # N * sum(w^2) = 4 * (0.25 + 0.25) = 2
        report = estimate_r([0.5, 0.5, 0.0, 0.0])
        assert report.r == pytest.approx(2.0)
        assert report.n_eff == pytest.approx(2.0)

    @given(st.lists(st.floats(-30, 5), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_bounds_and_exact_product(self, logs):
        w = self_normalize(logs)
        report = estimate_r(w)
        assert 1.0 <= report.r <= report.n
        assert report.n_eff * report.r == pytest.approx(report.n, abs=1e-9)

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            estimate_r([0.5, 0.3])


class TestMoments:
    def test_weighted_mean_two_points(self):
        ens = WeightedEnsemble.uniform([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(weighted_mean(ens), [1.0, 0.0])

    def test_point_mass(self):
        ens = WeightedEnsemble.uniform([[3.0, 7.0]])
        np.testing.assert_allclose(weighted_mean(ens), [3.0, 7.0])

    def test_uniform_weights_match_population_moments(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((500, 3))
        ens = WeightedEnsemble.uniform(samples)
        np.testing.assert_allclose(
            weighted_mean(ens), samples.mean(axis=0), atol=1e-12
        )
        pop_cov = np.cov(samples.T, bias=True)
        np.testing.assert_allclose(
            weighted_covariance(ens), pop_cov, atol=1e-10
        )

    def test_covariance_rank_deficient_gets_jitter(self):
        ens = WeightedEnsemble.uniform([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        cov = weighted_covariance(ens)
        assert cov[0, 0] == pytest.approx(2.0 / 3.0)
        # second coordinate has zero spread: repaired with a small positive jitter
        assert 0.0 < cov[1, 1] < 1e-6
        np.linalg.cholesky(cov)

    def test_inflation_scales_linearly(self):
        rng = np.random.default_rng(4)
        ens = WeightedEnsemble.uniform(rng.standard_normal((100, 2)))
        np.testing.assert_allclose(
            weighted_covariance(ens, inflation=2.0),
            2.0 * weighted_covariance(ens, inflation=1.0),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_match_fsum_reference(self, d):
        rng = np.random.default_rng(40 + d)
        mixing = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        samples = rng.standard_normal((3000, d)) @ mixing.T + rng.uniform(1.0, 5.0, d)
        ens = WeightedEnsemble.from_log_weights(samples, rng.standard_normal(3000))
        mu_ref, cov_ref = fsum_moments(ens)
        np.testing.assert_allclose(weighted_mean(ens), mu_ref, rtol=1e-12)
        # entries near zero get an absolute floor at the scale of the matrix
        np.testing.assert_allclose(
            weighted_covariance(ens),
            cov_ref,
            rtol=1e-12,
            atol=1e-12 * np.abs(cov_ref).max(),
        )

    def test_single_effective_sample_degenerate(self):
        ens = WeightedEnsemble.from_log_weights(
            [[0.0, 0.0], [1.0, 1.0]], [0.0, -np.inf]
        )
        with pytest.raises(DegenerateEnsemble):
            weighted_covariance(ens)

    def test_collapse_guard_threshold(self):
        # n_eff = 2 < n_theta + 1 = 3 in dimension 2
        ens = WeightedEnsemble.from_log_weights(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [0.0, 0.0, -np.inf, -np.inf],
        )
        with pytest.raises(DegenerateEnsemble):
            weighted_covariance(ens)


class TestGaussianMismatchR:
    def test_matched_covariance(self):
        assert gaussian_mismatch_r(0.0, 7) == pytest.approx(1.0)

    def test_small_mismatch_2d(self):
        assert gaussian_mismatch_r(0.1, 2) == pytest.approx(1.21 / 1.2)

    def test_power_law_in_dimension(self):
        expected = (1.1 / math.sqrt(1.2)) ** 10
        assert gaussian_mismatch_r(0.1, 10) == pytest.approx(expected)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gaussian_mismatch_r(-0.5, 2)

    @pytest.mark.parametrize("eps,dim", [(0.1, 2), (0.1, 10)])
    def test_monte_carlo_agreement(self, eps, dim):
        rng = np.random.default_rng(1234 + dim)
        n = 10**5
        x = rng.standard_normal((n, dim)) * math.sqrt(1.0 + eps)
        sq = np.einsum("ij,ij->i", x, x)
        log_w = -0.5 * sq - (-0.5 * sq / (1.0 + eps))
        report = estimate_r(self_normalize(log_w))
        expected = gaussian_mismatch_r(eps, dim)
        assert report.r == pytest.approx(expected, rel=0.05)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ens = WeightedEnsemble.from_log_weights(
            rng.standard_normal((30, 3)), rng.standard_normal(30)
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        back = read_ensemble_csv(path)
        np.testing.assert_allclose(back.samples, ens.samples, rtol=1e-15)
        np.testing.assert_allclose(back.weights, ens.weights, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_weights_read_back_bitwise(self, tmp_path, seed):
        # weights that sum to one within WEIGHT_SUM_TOL are kept as written
        rng = np.random.default_rng(seed)
        ens = WeightedEnsemble.from_log_weights(
            rng.standard_normal((500, 2)), 3.0 * rng.standard_normal(500)
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        back = read_ensemble_csv(path)
        assert back.weights.tobytes() == ens.weights.tobytes()
        assert back.samples.tobytes() == ens.samples.tobytes()

    def test_weights_off_one_are_normalized(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("weight,theta_0\n2.0,1.0\n0.0,2.0\n6.0,3.0\n")
        assert read_ensemble_csv(path).weights.tolist() == [0.25, 0.0, 0.75]

    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        # small blocks, so the 200 rows span several of them
        monkeypatch.setattr(isalib.ensemble, "CSV_BLOCK_ROWS", 64)
        rng = np.random.default_rng(10)
        samples = rng.standard_normal((200, 4)) * np.array([1e-300, 1.0, 1e12, 3.0])
        samples[0, 1] = -0.0
        ens = WeightedEnsemble.from_log_weights(samples, rng.standard_normal(200))
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["weight", "theta_0", "theta_1", "theta_2", "theta_3"])
            for i in range(ens.n):
                writer.writerow(
                    [f"{ens.weights[i]:.17g}"] + [f"{x:.17g}" for x in ens.samples[i]]
                )
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "body",
        [
            "0.5,1.0,abc\n",
            "0.5,1.0\n",
            "0.5,1.0,2.0,3.0\n",
            "nan,1.0,2.0\n",
            "inf,1.0,2.0\n",
            "-0.5,1.0,2.0\n",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("weight,theta_0,theta_1\n0.5,0.0,0.0\n" + body)
        with pytest.raises(DomainError, match=r"bad\.csv, line 3"):
            read_ensemble_csv(path)

    def test_all_zero_weights_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("weight,theta_0\n0.0,1.0\n0,2.0\n")
        with pytest.raises(DomainError, match=r"zero\.csv: every weight is zero"):
            read_ensemble_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DomainError):
            read_ensemble_csv(path)


def percent_g_template(table):
    """The writer's text before the numpy kernel, kept as the reference: one
    '%.17g' row template for the whole table."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    return (row * len(table)) % tuple(table.ravel().tolist())


def csv_writer_text(header, table):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in table:
        writer.writerow([f"{x:.17g}" for x in row])
    return buf.getvalue()


def assert_writes_percent_g(directory, table, block_rows):
    """write_csv_table with CSV_BLOCK_ROWS = block_rows writes the bytes of
    both references."""
    table = np.asarray(table, dtype=float)
    header = [f"c{j}" for j in range(table.shape[1])]
    path = Path(directory) / "table.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isalib.ensemble, "CSV_BLOCK_ROWS", block_rows)
        isalib.ensemble.write_csv_table(path, header, table)
    got = path.read_bytes()
    assert got == (",".join(header) + "\r\n" + percent_g_template(table)).encode()
    assert got == csv_writer_text(header, table).encode()


def with_neighbours(values):
    """Each value with its neighbours one ulp up and down, as three columns."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.column_stack([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])


BLOCK_ROWS = [1, 64, isalib.ensemble.CSV_BLOCK_ROWS]
# zero and the ends of the double range, exact ties, the %f/%e switch points,
# and the double nearest 1e-60, whose 17 digits lie below a power of ten
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    2.0**-25, 2.0**-26, -(2.0**-25), 3 * 2.0**-25, 100.0, 1e16, 1e17, 2.0**60,
    0.0001, 0.00001,
    9.9999999999999997e-61, 1e-60, 0.5, 1.0, 99999999999999999.0, 123456.0,
    math.nan, math.inf, -math.inf,
]


class TestCsvKernel:
    """write_csv_table writes Python's '%.17g' of every double."""

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    def test_edge_values(self, tmp_path, block_rows):
        assert_writes_percent_g(tmp_path, with_neighbours(EDGE_VALUES), block_rows)

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    def test_powers_of_two(self, tmp_path, block_rows):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_writes_percent_g(tmp_path, with_neighbours(np.concatenate([powers, -powers])),
                                block_rows)

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    def test_powers_of_ten(self, tmp_path, block_rows):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        assert_writes_percent_g(tmp_path, with_neighbours(np.concatenate([powers, -powers])),
                                block_rows)

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    def test_random_bit_patterns(self, tmp_path, block_rows):
        bits = np.random.default_rng(11).integers(0, 2**64, (4000, 3), dtype=np.uint64)
        assert_writes_percent_g(tmp_path, bits.view(np.float64), block_rows)

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    def test_header_only_and_one_column(self, tmp_path, block_rows):
        assert_writes_percent_g(tmp_path, np.empty((0, 3)), block_rows)
        assert (tmp_path / "table.csv").read_bytes() == b"c0,c1,c2\r\n"
        scales = 10.0 ** np.arange(-6, 6, 0.04)[:, None]
        column = np.random.default_rng(12).standard_normal((300, 1)) * scales
        assert_writes_percent_g(tmp_path, column, block_rows)

    @settings(max_examples=150, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 5)),
               elements=st.floats(allow_nan=True, allow_infinity=True)),
        st.sampled_from(BLOCK_ROWS),
    )
    def test_any_floats(self, table, block_rows):
        with tempfile.TemporaryDirectory() as directory:
            assert_writes_percent_g(directory, table, block_rows)


class TestCsvKernelFallback:
    """The numpy kernel formats the values itself; only NaN, inf and the
    near-ties reach '%.17g'."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        seen = []
        percent_g = isalib.csvformat._percent_g

        def counting(values):
            seen.extend(values.tolist())
            return percent_g(values)

        monkeypatch.setattr(isalib.csvformat, "_percent_g", counting)
        return seen

    def test_none_on_a_normal_table(self, tmp_path, fallbacks):
        table = np.random.default_rng(13).standard_normal((20_000, 6))
        assert_writes_percent_g(tmp_path, table, isalib.ensemble.CSV_BLOCK_ROWS)
        assert fallbacks == []

    def test_none_in_a_toy2d_mcmc_run(self, tmp_path, fallbacks):
        config = Path(__file__).resolve().parent.parent / "configs" / "toy2d_mcmc.json"
        code = main(["run", "--config", str(config), "--seed", "3", "--output", str(tmp_path)])
        assert code == 0
        assert fallbacks == []
        ens = read_ensemble_csv(tmp_path / "ensemble.csv")
        table = np.column_stack([ens.weights, ens.samples])
        assert (tmp_path / "ensemble.csv").read_bytes() == csv_writer_text(
            ["weight", "theta_0", "theta_1"], table
        ).encode()

    # 2**-25 = 2.98023223876953125e-08 and 3 * 2**-25 have 18 digits, the
    # last a 5: exact ties, which '%.17g' rounds half to even
    @pytest.mark.parametrize("value", [2.0**-25, -3 * 2.0**-25, math.inf, -math.inf])
    def test_ties_and_infinities_take_it(self, tmp_path, fallbacks, value):
        assert_writes_percent_g(tmp_path, [[value]], 1)
        assert fallbacks == [value]

    def test_nan_takes_it(self, tmp_path, fallbacks):
        assert_writes_percent_g(tmp_path, [[math.nan]], 1)
        assert len(fallbacks) == 1 and math.isnan(fallbacks[0])

    @pytest.mark.parametrize(
        "value",
        [100.0, 1e16, 1e17, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 9.9999999999999997e-61,
         2.0**-26],
    )
    def test_integers_and_range_ends_do_not(self, tmp_path, fallbacks, value):
        assert_writes_percent_g(tmp_path, [[value]], 1)
        assert fallbacks == []
