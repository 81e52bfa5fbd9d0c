import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isalib import (
    DomainError,
    EmptyInput,
    GaussianTarget,
    InitializationFailed,
    OptimizationResult,
    OptStatus,
    Toy2DTarget,
    build_gmm,
    dedup_modes,
    mcmc_init_ensemble,
    multistart,
    stretch_move_run,
)
import isalib.init
from isalib.init import (
    DEDUP_BAND,
    _chi2_sf,
    _mode_distance,
    _stretch_draws,
    _within_quantile,
    default_walker_count,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def converged(minimizer, f_min, hessian=None):
    minimizer = np.asarray(minimizer, dtype=float)
    if hessian is None:
        hessian = np.eye(minimizer.size)
    return OptimizationResult(
        minimizer, f_min, np.asarray(hessian, dtype=float), OptStatus.CONVERGED, 5
    )


def scipy_quantile(dim, confidence):
    from scipy.special import gammaincinv

    return 2.0 * float(gammaincinv(dim / 2.0, confidence))


def reference_dedup(candidates, confidence):
    """The dedup loop with scipy's quantile as its threshold, as it was
    before the closed-form tail decided the pairs."""
    converged = [c for c in candidates if c.status is OptStatus.CONVERGED]
    converged.sort(key=lambda c: (c.f_min, tuple(c.minimizer)))
    threshold = scipy_quantile(converged[0].minimizer.size, confidence)
    kept = []
    for cand in converged:
        distinct = True
        for mode in kept:
            d_ij = _mode_distance(mode.minimizer, mode.hessian_approx, cand.minimizer)
            d_ji = _mode_distance(cand.minimizer, cand.hessian_approx, mode.minimizer)
            if max(d_ij, d_ji) <= threshold:
                distinct = False
                break
        if distinct:
            kept.append(cand)
    return kept


BAND_CONFIDENCES = (1e-6, 0.01, 0.5, 0.68, 0.95, 0.9999, 1 - 1e-9)


class TestWalkerCount:
    def test_scaling(self):
        assert default_walker_count(2) == 6
        assert default_walker_count(5) == 12

    def test_floor_is_four(self):
        assert default_walker_count(1) == 4


class TestStretchMove:
    def test_walker_minimum(self):
        with pytest.raises(DomainError):
            stretch_move_run(Toy2DTarget(), n_walkers=3, n_steps=5, rng=rng_for(0))

    def test_stretch_parameter_guard(self):
        with pytest.raises(DomainError):
            stretch_move_run(Toy2DTarget(), n_walkers=4, n_steps=5, a=1.0, rng=rng_for(0))

    def test_chain_shapes_and_support(self):
        chain = stretch_move_run(Toy2DTarget(), n_walkers=6, n_steps=50, rng=rng_for(1))
        assert chain.samples.shape == (300, 2)
        assert chain.samples.min() >= 0.0 and chain.samples.max() <= 11.0
        assert chain.by_walker().shape == (50, 6, 2)

    def test_acceptance_rate_reasonable(self):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        chain = stretch_move_run(target, n_walkers=10, n_steps=500, rng=rng_for(2))
        assert 0.2 < chain.acceptance_rate < 0.95

    def test_stored_samples_have_finite_density(self):
        # with both equal and unequal halves
        target = GaussianTarget(np.zeros(2), np.eye(2))
        for walkers in (4, 5):
            chain = stretch_move_run(target, n_walkers=walkers, n_steps=20, rng=rng_for(3))
            assert all(math.isfinite(target.log_density(theta)) for theta in chain.samples)

    @pytest.mark.parametrize("walkers", [4, 5, 7])
    def test_stream_does_not_depend_on_block_size(self, monkeypatch, walkers):
        # 1030 steps span two default blocks
        runs = []
        for block in (1, 7, isalib.init.STRETCH_BLOCK_STEPS):
            monkeypatch.setattr(isalib.init, "STRETCH_BLOCK_STEPS", block)
            rng = rng_for(9)
            chain = stretch_move_run(Toy2DTarget(), n_walkers=walkers, n_steps=1030, rng=rng)
            runs.append((chain.samples.tobytes(), chain.acceptance_rate,
                         json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize(
        "walkers, last, first",
        [(4, [3, 3, 1, 1], [2, 2, 0, 0]),  # k = 2 in both halves
         (5, [4, 4, 1, 1, 1], [2, 2, 0, 0, 0]),  # k = 3, then 2
         (6, [5, 5, 5, 2, 2, 2], [3, 3, 3, 0, 0, 0])],  # k = 3 in both
    )
    def test_partner_in_other_half_at_uniform_edges(self, walkers, last, first):
        # u just below 1 picks the last walker of the other half, u = 0 the first
        for u, expected in ((np.nextafter(1.0, 0.0), last), (0.0, first)):
            with np.errstate(divide="ignore"):  # log u at u = 0
                draws = _stretch_draws(np.full((1, walkers, 3), u), 2.0, 2, walkers // 2)
            np.testing.assert_array_equal(draws[2][0], expected)

    def test_gaussian_moments_long_run(self):
        target = GaussianTarget(np.array([1.0, -2.0]), np.diag([2.0, 0.5]))
        chain = stretch_move_run(target, n_walkers=10, n_steps=4000, rng=rng_for(4))
        burn = chain.samples[10000:]
        np.testing.assert_allclose(burn.mean(axis=0), target.mean, atol=0.15)
        np.testing.assert_allclose(burn.var(axis=0), [2.0, 0.5], rtol=0.15)

    def test_reproducible_with_seed(self):
        a = stretch_move_run(Toy2DTarget(), n_walkers=4, n_steps=30, rng=rng_for(5))
        b = stretch_move_run(Toy2DTarget(), n_walkers=4, n_steps=30, rng=rng_for(5))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_infinite_density_rejected(self):
        # +inf is a failure, not an infinitely good proposal: walkers that
        # accepted it would never move again
        class InfRight(GaussianTarget):
            def log_density(self, theta):
                return math.inf if theta[0] > 1.0 else super().log_density(theta)

        target = InfRight(np.zeros(2), np.eye(2))
        chain = stretch_move_run(target, n_walkers=4, n_steps=200, rng=rng_for(7))
        assert all(math.isfinite(target.log_density(theta)) for theta in chain.samples)
        assert chain.samples[:, 0].max() <= 1.0
        assert chain.acceptance_rate > 0.2

    def test_infeasible_prior_raises(self):
        class Hostile(Toy2DTarget):
            def sample_prior(self, rng, n):
                return np.full((n, 2), 50.0)  # always outside the support

        with pytest.raises(InitializationFailed):
            stretch_move_run(Hostile(), n_walkers=4, n_steps=2, rng=rng_for(6))


class TestMcmcInitEnsemble:
    def test_takes_first_samples_uniform_weights(self):
        chain = stretch_move_run(Toy2DTarget(), n_walkers=4, n_steps=10, rng=rng_for(7))
        ens = mcmc_init_ensemble(chain, 20)
        np.testing.assert_array_equal(ens.samples, chain.samples[:20])
        np.testing.assert_allclose(ens.weights, 1.0 / 20.0)

    def test_keep_bounds(self):
        chain = stretch_move_run(Toy2DTarget(), n_walkers=4, n_steps=2, rng=rng_for(8))
        with pytest.raises(DomainError):
            mcmc_init_ensemble(chain, 0)
        with pytest.raises(DomainError):
            mcmc_init_ensemble(chain, 9)


class TestDedupModes:
    def test_identical_candidates_merge(self):
        cands = [converged([0.0, 0.0], 1.0), converged([0.0, 0.0], 1.0)]
        assert len(dedup_modes(cands)) == 1

    def test_far_apart_kept(self):
        cands = [converged([0.0, 0.0], 1.0), converged([10.0, 0.0], 2.0)]
        modes = dedup_modes(cands)
        assert len(modes) == 2
        # ascending f_min order
        assert modes.f_mins[0] <= modes.f_mins[1]

    def test_lower_f_min_representative_wins(self):
        cands = [converged([0.01, 0.0], 2.0), converged([0.0, 0.0], 1.0)]
        modes = dedup_modes(cands)
        assert len(modes) == 1
        np.testing.assert_allclose(modes.minimizers[0], [0.0, 0.0])

    def test_symmetrized_distance_splits_anisotropic_pair(self):
        # mode A is tight along x: B sits far away as seen from A even
        # though A is nearby as seen from (loose) B
        tight = np.diag([1e4, 1.0])
        loose = np.eye(2)
        cands = [
            converged([0.0, 0.0], 1.0, tight),
            converged([0.5, 0.0], 1.5, loose),
        ]
        assert len(dedup_modes(cands, confidence=0.95)) == 2

    def test_non_converged_dropped(self):
        failed = OptimizationResult(
            np.zeros(2), np.inf, np.eye(2), OptStatus.FAILED, 0
        )
        modes = dedup_modes([failed, converged([1.0, 1.0], 0.5)])
        assert len(modes) == 1

    def test_all_failed_raises(self):
        failed = OptimizationResult(
            np.zeros(2), np.inf, np.eye(2), OptStatus.FAILED, 0
        )
        with pytest.raises(EmptyInput):
            dedup_modes([failed])

    def test_threshold_is_the_chi2_quantile(self):
        # two modes at squared distance exactly chi2.ppf(confidence, dim)
        # merge, and at the next float up they stay apart, so the threshold
        # dedup_modes uses equals scipy.stats.chi2.ppf bit for bit
        from scipy.stats import chi2

        for dim in range(1, 60):
            step = np.eye(dim)[0]
            for confidence in (0.5, 0.68, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999):
                quantile = float(chi2.ppf(confidence, df=dim))
                for scale, kept in ((quantile, 1), (np.nextafter(quantile, np.inf), 2)):
                    hess = np.eye(dim)
                    hess[0, 0] = scale
                    cands = [converged(np.zeros(dim), 0.0, hess), converged(step, 1.0, hess)]
                    assert len(dedup_modes(cands, confidence)) == kept, (dim, confidence)

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_rounding_of_f_min_cannot_swap_modes(self, ulps):
        # the two modes of a posterior symmetric in theta_0 have f_min equal
        # up to rounding; whichever comes out lower, they are ordered by
        # minimizer, while an f_min outside the tie band still comes after
        low = 2.497967869611777
        plus = low
        for _ in range(abs(ulps)):
            plus = np.nextafter(plus, math.copysign(math.inf, ulps))
        cands = [
            converged([1.512, 0.3], plus),
            converged([5.0, 5.0], low * (1.0 + 1e-8)),
            converged([-1.512, 0.3], low),
        ]
        modes = dedup_modes(cands)
        assert modes.minimizers[:, 0].tolist() == [-1.512, 1.512, 5.0]
        assert modes.f_mins.tolist() == [low, plus, low * (1.0 + 1e-8)]

    def test_confidence_validated(self):
        with pytest.raises(DomainError):
            dedup_modes([converged([0.0], 0.0, [[1.0]])], confidence=1.5)

    def test_idempotent(self):
        rng = rng_for(9)
        cands = [
            converged(rng.uniform(0, 11, 2) // 3 * 3, float(i)) for i in range(20)
        ]
        first = dedup_modes(cands)
        again = dedup_modes(
            [
                converged(first.minimizers[j], first.f_mins[j], first.hessians[j])
                for j in range(len(first))
            ]
        )
        assert len(again) == len(first)
        np.testing.assert_allclose(
            np.sort(again.minimizers, axis=0), np.sort(first.minimizers, axis=0)
        )


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        count=st.integers(2, 12),
        spread=st.floats(0.1, 10.0),
        confidence=st.sampled_from(BAND_CONFIDENCES),
    )
    def test_matches_the_scipy_threshold_loop(self, seed, dim, count, spread, confidence):
        rng = rng_for(seed)
        cands = []
        for i in range(count):
            root = rng.normal(size=(dim, dim))
            hess = root @ root.T + 0.1 * np.eye(dim)
            f_min = float(rng.integers(0, 4))  # ties are ordered by minimizer
            cands.append(converged(rng.normal(scale=spread, size=dim), f_min, hess))
        modes = dedup_modes(cands, confidence)
        kept = reference_dedup(cands, confidence)
        assert modes.minimizers.tobytes() == np.stack([m.minimizer for m in kept]).tobytes()
        assert modes.f_mins.tolist() == [m.f_min for m in kept]


class TestChi2Band:
    def test_tail_matches_scipy(self):
        from scipy.stats import chi2

        rng = rng_for(12)
        for k in [*range(1, 41), 99, 100, 301, 1000]:
            for d in rng.uniform(1e-3, 3.0 * k + 30.0, 25):
                assert _chi2_sf(d, k) == pytest.approx(chi2.sf(d, k), rel=1e-11), (k, d)

    def test_scipy_quantile_is_inside_the_band(self):
        for dim in [*range(1, 301), 500, 1000]:
            for confidence in BAND_CONFIDENCES:
                tail = _chi2_sf(scipy_quantile(dim, confidence), dim)
                assert abs(tail / (1.0 - confidence) - 1.0) < DEDUP_BAND, (dim, confidence)

    def test_decisions_near_the_quantile_are_scipys(self):
        rng = rng_for(13)
        for dim in [*range(1, 31), 64, 257]:
            for confidence in BAND_CONFIDENCES:
                threshold = scipy_quantile(dim, confidence)
                for offset in 10.0 ** rng.uniform(-12, 1, 20):
                    for d in (threshold * (1.0 + offset), threshold / (1.0 + offset)):
                        assert _within_quantile(d, dim, confidence) == (d <= threshold), (
                            dim, confidence, d)

    @pytest.mark.parametrize("d", [0.0, -0.0, -1.0, -math.inf, 5e-324, math.nan, math.inf])
    def test_edge_distances(self, d):
        # d <= 0 and a subnormal merge; NaN and +inf stay apart, as with scipy's threshold
        for dim in (1, 2, 5):
            assert _within_quantile(d, dim, 0.95) == (d <= scipy_quantile(dim, 0.95))


class TestBuildGmm:
    def test_component_covariance_is_inverse_hessian(self):
        hess = np.array([[4.0, 0.0], [0.0, 1.0]])
        modes = dedup_modes([converged([2.0, 3.0], 0.7, hess)])
        mix = build_gmm(modes)
        np.testing.assert_allclose(mix.components[0].covariance, np.linalg.inv(hess))
        np.testing.assert_allclose(mix.psi, [1.0])

    def test_weights_follow_depths(self):
        cands = [
            converged([0.0, 0.0], 0.0),
            converged([10.0, 0.0], np.log(3.0)),
        ]
        mix = build_gmm(dedup_modes(cands))
        np.testing.assert_allclose(sorted(mix.psi), [0.25, 0.75], rtol=1e-12)


class TestMultistart:
    def test_toy2d_finds_exactly_five_modes(self):
        results = multistart(Toy2DTarget(), 60, rng_for(10))
        modes = dedup_modes(results)
        assert len(modes) == 5
        # the known mode layout: along the diagonal ray toward (5, 5)
        radii = np.sort(np.linalg.norm(modes.minimizers, axis=1))
        np.testing.assert_allclose(radii, [4.7, 6.0, 7.2, 8.5, 9.7], atol=0.15)

    def test_global_mode_is_deepest(self):
        results = multistart(Toy2DTarget(), 60, rng_for(11))
        modes = dedup_modes(results)
        # deepest dent lies closest to the quartic center (5, 5), radius ~7.07
        best = modes.minimizers[np.argmin(modes.f_mins)]
        assert np.linalg.norm(best) == pytest.approx(7.2, abs=0.2)

    def test_n_starts_validated(self):
        with pytest.raises(DomainError):
            multistart(Toy2DTarget(), 0, rng_for(13))
