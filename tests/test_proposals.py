import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isalib import (
    DegenerateEnsemble,
    DomainError,
    GaussianMixtureProposal,
    GaussianProposal,
    StudentTProposal,
    WeightedEnsemble,
    estimate_r,
    fit_gaussian,
    fit_student_t,
    gmm_weights,
    self_normalize,
)
from isalib.proposals import load_proposal, proposal_from_dict, save_proposal


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


THREE_FAMILIES = pytest.mark.parametrize(
    "proposal",
    [
        GaussianProposal(np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]])),
        StudentTProposal(np.array([0.0, 1.0]), np.eye(2), nu=3.0),
        GaussianMixtureProposal(
            (
                GaussianProposal(np.zeros(2), np.eye(2)),
                GaussianProposal(np.ones(2), 2.0 * np.eye(2)),
            ),
            np.array([0.25, 0.75]),
        ),
    ],
    ids=["gaussian", "student_t", "mixture"],
)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestGaussianProposal:
    def test_log_density_at_mean(self):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        assert prop.log_density(np.zeros(2)) == pytest.approx(-math.log(2 * math.pi))

    def test_point_mass_limit(self):
        prop = GaussianProposal(np.array([5.0, 5.0]), 1e-30 * np.eye(2))
        draws = prop.sample(rng_for(0), 50)
        np.testing.assert_allclose(draws, 5.0, atol=1e-12)

    def test_sample_mean_clt_bound(self):
        prop = GaussianProposal(np.zeros(3), np.eye(3))
        draws = prop.sample(rng_for(1), 10**5)
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_mahalanobis_consistency(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        prop = GaussianProposal(np.array([1.0, -2.0]), cov)
        draws = prop.sample(rng_for(2), 10**5)
        dev = draws - prop.mean
        maha = np.einsum("ij,ij->i", dev @ np.linalg.inv(cov), dev)
        assert maha.mean() == pytest.approx(2.0, rel=0.03)

    def test_self_weighting_gives_unit_r(self):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        draws = prop.sample(rng_for(3), 2000)
        logs = prop.log_density_batch(draws) - prop.log_density_batch(draws)
        report = estimate_r(self_normalize(logs))
        assert report.r == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DomainError):
            GaussianProposal(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestStudentTProposal:
    def test_nu_must_exceed_two(self):
        with pytest.raises(DomainError):
            StudentTProposal(np.zeros(2), np.eye(2), 2.0)

    def test_large_nu_matches_gaussian(self):
        scale = np.array([[1.5, 0.2], [0.2, 0.8]])
        t_prop = StudentTProposal(np.array([0.5, -0.5]), scale, nu=1e6)
        g_prop = GaussianProposal(np.array([0.5, -0.5]), scale)
        for theta in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]):
            assert t_prop.log_density(np.asarray(theta)) == pytest.approx(
                g_prop.log_density(np.asarray(theta)), abs=1e-3
            )

    def test_scalar_density_vs_scipy(self):
        from scipy.stats import multivariate_t

        loc = np.array([1.0, 2.0])
        scale = np.array([[2.0, 0.4], [0.4, 1.0]])
        prop = StudentTProposal(loc, scale, nu=3.0)
        ref = multivariate_t(loc, scale, df=3.0)
        for theta in ([0.0, 0.0], [1.0, 2.0], [3.0, -1.0]):
            assert prop.log_density(np.asarray(theta)) == pytest.approx(
                ref.logpdf(theta), rel=1e-12
            )

    def test_covariance_property(self):
        prop = StudentTProposal(np.zeros(2), np.eye(2), nu=3.0)
        np.testing.assert_allclose(prop.covariance, 3.0 * np.eye(2))


class TestMixture:
    def test_identical_components_collapse(self):
        comp = GaussianProposal(np.zeros(2), np.eye(2))
        mix = GaussianMixtureProposal((comp, comp), np.array([0.5, 0.5]))
        theta = np.array([0.3, -0.7])
        assert mix.log_density(theta) == pytest.approx(comp.log_density(theta))

    def test_degenerate_mixture_weights(self):
        a = GaussianProposal(np.zeros(2), 1e-30 * np.eye(2))
        b = GaussianProposal(10.0 * np.ones(2), np.eye(2))
        mix = GaussianMixtureProposal((a, b), np.array([1.0, 0.0]))
        draws = mix.sample(rng_for(4), 200)
        np.testing.assert_allclose(draws, 0.0, atol=1e-12)

    def test_permutation_invariance(self):
        a = GaussianProposal(np.zeros(2), np.eye(2))
        b = GaussianProposal(np.ones(2), 2.0 * np.eye(2))
        mix_ab = GaussianMixtureProposal((a, b), np.array([0.3, 0.7]))
        mix_ba = GaussianMixtureProposal((b, a), np.array([0.7, 0.3]))
        theta = np.array([0.4, 0.6])
        assert mix_ab.log_density(theta) == pytest.approx(
            mix_ba.log_density(theta), rel=1e-14
        )

    def test_psi_must_normalize(self):
        comp = GaussianProposal(np.zeros(2), np.eye(2))
        with pytest.raises(DomainError):
            GaussianMixtureProposal((comp, comp), np.array([0.5, 0.6]))

    def test_student_t_component_rejected(self):
        data = {
            "family": "gaussian_mixture",
            "psi": [1.0],
            "components": [StudentTProposal(np.zeros(2), np.eye(2), nu=3.0).to_dict()],
        }
        with pytest.raises(DomainError):
            proposal_from_dict(data)


def reference_draw(proposal, rng, count):
    """The draws as they were written before they drew in place (bitwise
    reference)."""

    def transform(comp, z):
        return comp.mean + z @ comp.chol.T

    d = proposal.dimension
    if isinstance(proposal, GaussianProposal):
        return transform(proposal, rng.standard_normal((count, d)))
    if isinstance(proposal, StudentTProposal):
        z = rng.standard_normal((count, d))
        g = rng.chisquare(proposal.nu, size=count)
        return proposal.location + (z @ proposal.chol.T) * np.sqrt(proposal.nu / g)[:, None]
    edges = np.cumsum(proposal.psi)
    idx = np.searchsorted(edges, rng.random(count), side="right")
    idx = np.minimum(idx, len(proposal.components) - 1)
    z = rng.standard_normal((count, d))
    out = np.empty((count, d))
    for j, comp in enumerate(proposal.components):
        mask = idx == j
        if mask.any():
            out[mask] = transform(comp, z[mask])
    return out


class TestDrawInPlace:
    @THREE_FAMILIES
    @pytest.mark.parametrize("count", [1, 7, 5001])
    def test_draw_equals_the_reference(self, proposal, count):
        for seed in range(3):
            ours = proposal.sample(rng_for(seed), count)
            assert ours.tobytes() == reference_draw(proposal, rng_for(seed), count).tobytes()

    @pytest.mark.parametrize("d", [1, 5])
    def test_one_and_five_dimensional_draws_equal_the_reference(self, d):
        rng = rng_for(40 + d)
        scale = random_spd(rng, d)
        loc = rng.standard_normal(d)
        for proposal in (GaussianProposal(loc, scale), StudentTProposal(loc, scale, 3.5)):
            ours = proposal.sample(rng_for(d), 2000)
            assert ours.tobytes() == reference_draw(proposal, rng_for(d), 2000).tobytes()


class TestCholIsDerived:
    """The Cholesky factor is computed from the spread, never passed in."""

    @pytest.mark.parametrize("make", [
        lambda extra: GaussianProposal(np.zeros(2), np.eye(2), extra),
        lambda extra: StudentTProposal(np.zeros(2), np.eye(2), 3.0, extra),
        lambda extra: GaussianProposal(np.zeros(2), np.eye(2), chol=extra),
        lambda extra: StudentTProposal(np.zeros(2), np.eye(2), 3.0, chol=extra),
    ])
    def test_extra_argument_rejected(self, make):
        with pytest.raises(TypeError):
            make("garbage")


class TestWidened:
    @THREE_FAMILIES
    def test_spread_scaled_center_kept(self, proposal):
        wide = proposal.widened(4.0)
        assert type(wide) is type(proposal)
        before, after = proposal.to_dict(), wide.to_dict()
        pairs = list(zip(before.get("components", [before]),
                         after.get("components", [after])))
        assert after.get("psi") == before.get("psi")
        assert after.get("nu") == before.get("nu")
        for old, new in pairs:
            assert new["mean"] == old["mean"]
            np.testing.assert_array_equal(new["covariance"], 4.0 * np.asarray(old["covariance"]))


class TestFitting:
    def test_fit_gaussian_recovers_standard_normal(self):
        draws = rng_for(5).standard_normal((10**5, 2))
        prop = fit_gaussian(WeightedEnsemble.uniform(draws))
        assert np.abs(prop.mean).max() < 0.02
        assert np.linalg.norm(prop.covariance - np.eye(2)) < 0.05

    def test_inflation_doubles_covariance(self):
        ens = WeightedEnsemble.uniform(rng_for(6).standard_normal((200, 2)))
        np.testing.assert_allclose(
            fit_gaussian(ens, inflation=2.0).covariance,
            2.0 * fit_gaussian(ens, inflation=1.0).covariance,
            rtol=1e-12,
        )

    def test_two_samples_degenerate_in_2d(self):
        ens = WeightedEnsemble.uniform([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateEnsemble):
            fit_gaussian(ens)

    def test_student_t_moment_match_factor(self):
        ens = WeightedEnsemble.uniform(rng_for(7).standard_normal((500, 2)))
        cov = fit_gaussian(ens).covariance
        t3 = fit_student_t(ens, nu=3.0)
        np.testing.assert_allclose(t3.scale_matrix, cov / 3.0, rtol=1e-10)
        t4 = fit_student_t(ens, nu=4.0)
        np.testing.assert_allclose(
            t3.scale_matrix / t4.scale_matrix, (1.0 / 3.0) / (1.0 / 2.0), rtol=1e-10
        )

    def test_student_t_nu_guard(self):
        ens = WeightedEnsemble.uniform(rng_for(8).standard_normal((50, 2)))
        with pytest.raises(DomainError):
            fit_student_t(ens, nu=2.0)

    def test_refit_idempotence(self):
        base = GaussianProposal(
            np.array([1.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
        )
        draws = base.sample(rng_for(9), 10**6)
        refit = fit_gaussian(WeightedEnsemble.uniform(draws))
        np.testing.assert_allclose(refit.mean, base.mean, atol=0.01)
        assert (
            np.linalg.norm(refit.covariance - base.covariance)
            / np.linalg.norm(base.covariance)
            < 0.01
        )


class TestGmmWeights:
    def test_equal_minima(self):
        np.testing.assert_allclose(gmm_weights([0.0, 0.0]), [0.5, 0.5])

    def test_log3_separation(self):
        np.testing.assert_allclose(
            gmm_weights([0.0, math.log(3.0)]), [0.75, 0.25], rtol=1e-14
        )

    def test_huge_values_no_overflow(self):
        psi = gmm_weights([1e4, 1e4 + 1.0])
        e = math.e
        np.testing.assert_allclose(psi, [e / (1 + e), 1 / (1 + e)], rtol=1e-14)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_normalized(self, phi):
        psi = gmm_weights(phi)
        assert abs(math.fsum(psi) - 1.0) <= 1e-12
        assert np.all(psi >= 0)


class TestSerialization:
    @THREE_FAMILIES
    def test_json_round_trip(self, proposal, tmp_path):
        path = tmp_path / "prop.json"
        save_proposal(proposal, path)
        back = load_proposal(path)
        theta = np.array([0.3, 0.4])
        assert back.log_density(theta) == pytest.approx(
            proposal.log_density(theta), rel=1e-14
        )

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            proposal_from_dict({"family": "cauchy", "mean": [0.0]})


class TestFiniteness:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: GaussianProposal(np.zeros(2), np.full((2, 2), np.nan)),
            lambda: GaussianProposal(np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]])),
            lambda: GaussianProposal(np.array([np.nan, 0.0]), np.eye(2)),
            lambda: StudentTProposal(np.zeros(2), np.full((2, 2), np.nan), nu=3.0),
            lambda: StudentTProposal(np.array([0.0, -np.inf]), np.eye(2), nu=3.0),
        ],
        ids=["nan-covariance", "inf-covariance", "nan-mean", "nan-scale", "inf-location"],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    @THREE_FAMILIES
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, proposal, bad):
        thetas = np.zeros((3, 2))
        thetas[1, 0] = bad
        with pytest.raises(DomainError):
            proposal.log_density_batch(thetas)

    def test_domain_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            GaussianProposal(np.zeros(2), np.eye(2)).log_density(np.array([np.nan, 0.0]))


class TestScipyReference:
    """The numpy kernels against the scipy functions they stand in for."""

    def test_logsumexp_bitwise(self):
        from scipy.special import logsumexp

        from isalib.proposals import _logsumexp_columns

        rng = rng_for(10)
        for _ in range(200):
            a = rng.normal(scale=30.0, size=(int(rng.integers(1, 7)), 400))
            a[:, :100] = rng.integers(-2, 2, size=(a.shape[0], 100))  # ties
            a[rng.random(a.shape) < 0.2] = -np.inf
            a[:, 100:110] = -np.inf
            a[0, 110], a[-1, 111] = np.inf, np.nan
            ours, ref = _logsumexp_columns(a), logsumexp(a, axis=0)
            assert np.array_equal(np.isnan(ours), np.isnan(ref))
            assert np.nan_to_num(ours).tobytes() == np.nan_to_num(ref).tobytes()

    def test_mahalanobis_matches_solve_triangular(self):
        from scipy.linalg import solve_triangular

        from isalib.proposals import _mahalanobis

        rng = rng_for(11)
        for d in range(1, 9):
            chol = np.linalg.cholesky(random_spd(rng, d))
            dev = 3.0 * rng.standard_normal((500, d))
            y = solve_triangular(chol, dev.T, lower=True)
            np.testing.assert_allclose(
                _mahalanobis(chol, dev), np.einsum("ij,ij->j", y, y), rtol=1e-12
            )

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    @pytest.mark.parametrize("nu", [2.5, 3.0, 5.0, 30.0, 1e3, 1e6])
    def test_student_t_constant_matches_gammaln(self, d, nu):
        # at the location the density is its normalizing constant; the two
        # log-gamma terms cancel as nu grows, so their size sets the scale
        from scipy.special import gammaln

        scale = random_spd(rng_for(12), d)
        prop = StudentTProposal(np.zeros(d), scale, nu)
        big, small = gammaln(0.5 * (nu + d)), gammaln(0.5 * nu)
        ref = (big - small - 0.5 * d * math.log(nu * math.pi)
               - 0.5 * np.linalg.slogdet(scale)[1])
        terms = abs(big) + abs(small) + abs(ref)
        assert abs(prop.log_density(np.zeros(d)) - ref) <= 1e-15 * terms

    @THREE_FAMILIES
    @given(
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(1, 199), max_size=4, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_its_chunks(self, proposal, seed, cuts):
        thetas = proposal.sample(rng_for(seed), 200)
        whole = proposal.log_density_batch(thetas)
        parts = [proposal.log_density_batch(c) for c in np.split(thetas, sorted(cuts))]
        assert whole.tobytes() == np.concatenate(parts).tobytes()
