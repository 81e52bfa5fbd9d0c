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


class TestWidened:
    @pytest.mark.parametrize(
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
    @pytest.mark.parametrize(
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
