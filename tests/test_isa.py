import json
import tracemalloc

import numpy as np
import pytest

import isalib.isa
from isalib import (
    DomainError,
    GaussianMixtureProposal,
    GaussianProposal,
    GaussianTarget,
    IsaConfig,
    StudentTProposal,
    Toy2DTarget,
    WeightedEnsemble,
    gaussian_mismatch_r,
    isa_run,
    isa_step,
    make_synthetic_regression,
    mcmc_init_ensemble,
    stretch_move_run,
    weighted_covariance,
    weighted_mean,
)
from isalib.isa import (
    EVAL_BLOCK_ROWS,
    MAX_WIDENINGS,
    SATURATION_FRACTION,
    WIDEN_FACTOR,
    parallel_map_density,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def std_target(dim=2):
    return GaussianTarget(np.zeros(dim), np.eye(dim))


class TestConfig:
    def test_defaults(self):
        cfg = IsaConfig(samples_per_iteration=100)
        assert cfg.max_iterations == 10
        assert cfg.tol == 0.05
        assert cfg.family == "gaussian"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples_per_iteration": 1},
            {"samples_per_iteration": 100, "max_iterations": 0},
            {"samples_per_iteration": 100, "tol": -0.1},
            {"samples_per_iteration": 100, "inflation": 0.5},
            {"samples_per_iteration": 100, "family": "cauchy"},
            {"samples_per_iteration": 100, "family": "student_t", "nu": 2.0},
            {"samples_per_iteration": 100, "tol": float("nan")},
            {"samples_per_iteration": 100, "inflation": float("nan")},
            {"samples_per_iteration": 100, "family": "student_t", "nu": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            IsaConfig(**kwargs)

    def test_round_trips_through_dict(self):
        cfg = IsaConfig(samples_per_iteration=50, family="student_t", nu=4.0)
        assert IsaConfig(**cfg.to_dict()) == cfg


class TestIsaStep:
    def test_exact_proposal_r_one(self):
        ens, report = isa_step(
            std_target(), GaussianProposal(np.zeros(2), np.eye(2)), 500, rng_for(0)
        )
        assert report.r == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(ens.weights, 1.0 / 500.0, rtol=1e-9)

    def test_mismatched_proposal_r_matches_closed_form(self):
        eps = 0.2
        _, report = isa_step(
            std_target(5),
            GaussianProposal(np.zeros(5), (1.0 + eps) * np.eye(5)),
            10**5,
            rng_for(1),
        )
        assert report.r == pytest.approx(gaussian_mismatch_r(eps, 5), rel=0.05)

    def test_failures_get_zero_weight(self):
        # proposal mass partly outside the support cube
        ens, _ = isa_step(
            Toy2DTarget(),
            GaussianProposal(np.zeros(2), np.eye(2)),
            400,
            rng_for(2),
        )
        outside = (ens.samples < 0.0).any(axis=1) | (ens.samples > 11.0).any(axis=1)
        assert outside.any()
        assert np.all(ens.weights[outside] == 0.0)
        assert np.all(np.isneginf(ens.log_weights_raw[outside]))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            isa_step(std_target(3), GaussianProposal(np.zeros(2), np.eye(2)), 10, rng_for(3))

    def test_evaluates_the_toy_target_as_one_batch(self, monkeypatch):
        calls = []
        per_point = Toy2DTarget.log_density

        def spy(self, theta):
            calls.append(theta)
            return per_point(self, theta)

        monkeypatch.setattr(Toy2DTarget, "log_density", spy)
        prop = GaussianProposal(np.array([5.0, 5.0]), 4.0 * np.eye(2))
        ens, _ = isa_step(Toy2DTarget(), prop, 500, rng_for(4))
        assert calls == []
        assert np.any(ens.weights == 0.0)


def families(center, scale):
    """A proposal of each family around `center`, with spread `scale`."""
    cov = scale * np.eye(center.size)
    return {
        "gaussian": GaussianProposal(center, cov),
        "student_t": StudentTProposal(center, cov, nu=3.0),
        "mixture": GaussianMixtureProposal(
            (GaussianProposal(center, cov), GaussianProposal(center + 0.5, 2.0 * cov)),
            np.array([0.4, 0.6]),
        ),
    }


# each built-in target and the centre and spread of its proposals; the toy
# proposals reach past the support cube, so some rows fail
BLOCK_TARGETS = {
    "toy2d": (Toy2DTarget, np.array([5.0, 5.0]), 9.0),
    "gaussian": (
        lambda: GaussianTarget(np.array([1.0, -1.0, 0.5]), np.diag([1.0, 2.0, 0.5])),
        np.zeros(3), 2.0,
    ),
    "regression": (
        lambda: make_synthetic_regression(
            3, 8, 0.1, np.zeros(3), np.full(3, 3.0), [1.0, -0.5, 0.8], data_seed=11
        ),
        np.array([1.0, -0.5, 0.8]), 0.01,
    ),
}


def step_bytes(target, proposal, n, seed):
    """The bytes of the samples, raw log-weights and weights of one step,
    and its QualityReport."""
    ens, report = isa_step(target, proposal, n, rng_for(seed))
    arrays = (ens.samples, ens.log_weights_raw, ens.weights)
    return tuple(a.tobytes() for a in arrays), report


class TestEvalBlocks:
    """A draw is weighed in blocks of EVAL_BLOCK_ROWS rows; any block size
    gives the ensemble of one whole-draw batch, bitwise."""

    # 20,001 rows end in a partial block at the default size and at 7
    N = 20_001

    @pytest.mark.parametrize("family", ["gaussian", "student_t", "mixture"])
    @pytest.mark.parametrize("name", sorted(BLOCK_TARGETS))
    def test_block_size_does_not_change_the_ensemble(self, monkeypatch, name, family):
        make, center, scale = BLOCK_TARGETS[name]
        target, proposal = make(), families(center, scale)[family]
        default = step_bytes(target, proposal, self.N, 21)
        # one row per block costs about 1 s per case at N rows, so it runs
        # on a draw of 1,001 rows (one block at the default size)
        small = step_bytes(target, proposal, 1001, 22)
        for rows in (7, self.N, self.N + 5):
            monkeypatch.setattr(isalib.isa, "EVAL_BLOCK_ROWS", rows)
            assert step_bytes(target, proposal, self.N, 21) == default
        monkeypatch.setattr(isalib.isa, "EVAL_BLOCK_ROWS", 1)
        assert step_bytes(target, proposal, 1001, 22) == small

    def test_nan_rows_in_the_last_block_fail(self, monkeypatch):
        proposal = GaussianProposal(np.zeros(2), np.eye(2))
        last = self.N // EVAL_BLOCK_ROWS * EVAL_BLOCK_ROWS
        bad_rows = [last, last + 1, self.N - 2, self.N - 1]
        bad = proposal.sample(rng_for(23), self.N)[bad_rows, 0]

        class NanRows(GaussianTarget):
            def log_density_batch(self, thetas):
                values, failed = super().log_density_batch(thetas)
                return np.where(np.isin(thetas[:, 0], bad), np.nan, values), failed

        target = NanRows(np.zeros(2), np.eye(2))
        ens, _ = isa_step(target, proposal, self.N, rng_for(23))
        assert np.flatnonzero(np.isneginf(ens.log_weights_raw)).tolist() == bad_rows
        assert np.all(ens.weights[bad_rows] == 0.0)
        default = step_bytes(target, proposal, self.N, 23)
        for rows in (7, self.N):
            monkeypatch.setattr(isalib.isa, "EVAL_BLOCK_ROWS", rows)
            assert step_bytes(target, proposal, self.N, 23) == default


def test_step_memory_is_bounded_by_the_block():
    # a tall regression: at the default block size one step's traced peak
    # stays under the bound (14.5 MB measured), where weighing the whole
    # draw in one batch peaked at 65.8 MB
    n, n_theta, n_z = 20_000, 5, 200
    target = make_synthetic_regression(
        n_theta, n_z, 0.1, np.zeros(n_theta), np.full(n_theta, 3.0),
        np.linspace(-1.0, 1.0, n_theta), data_seed=3,
    )
    proposal = StudentTProposal(np.zeros(n_theta), 0.1 * np.eye(n_theta), nu=3.0)
    isa_step(target, proposal, 100, rng_for(24))  # first-call set-up
    # the model's predictions and the residuals are block-sized; the
    # samples, log-weights and weights scale with the draw
    bound = 3 * EVAL_BLOCK_ROWS * (n_z + n_theta) * 8 + 8 * n * (n_theta + 1) * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ensemble, _ = isa_step(target, proposal, n, rng_for(25))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert ensemble.n == n
    assert peak < bound, f"traced peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


class TestParallelMapDensity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_become_failures(self, bad):
        class Batch:
            def log_density_batch(self, thetas):
                values = np.where(thetas[:, 0] > 0.0, bad, -1.0)
                return values, np.zeros(len(thetas), dtype=bool)

        thetas = np.array([[1.0], [-1.0], [2.0], [-2.0], [-3.0]])
        values, failed = parallel_map_density(Batch(), thetas)
        assert failed.tolist() == [True, False, True, False, False]
        # `targets.checked_batch` fills every failed row with NaN
        np.testing.assert_array_equal(values, [np.nan, -1.0, np.nan, -1.0, -1.0])


class TestNonFiniteTarget:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_finishes_with_bad_points_at_weight_zero(self, bad):
        class Broken(GaussianTarget):
            def log_density(self, theta):
                return bad if theta[0] > 2.0 else super().log_density(theta)

        trace = isa_run(
            Broken(np.zeros(2), np.eye(2)),
            GaussianProposal(np.zeros(2), np.eye(2)),
            IsaConfig(samples_per_iteration=2000, max_iterations=3, tol=0.0, seed=18),
        )
        assert trace.stopped_reason == "max_iterations"
        assert len(trace.records) == 3
        ens = trace.final_ensemble
        bad_rows = ens.samples[:, 0] > 2.0
        assert bad_rows.any()
        assert np.all(ens.weights[bad_rows] == 0.0)
        assert np.all(ens.weights[~bad_rows] > 0.0)
        assert trace.records[-1].failure_count == int(bad_rows.sum())

    def test_failures_count_failed_evaluations_not_zero_weights(self):
        # the rows with theta_1 > 0 get a finite log density so far below the
        # rest that their weights underflow to zero; only the rows past
        # theta_0 = 2 fail
        class Deep(GaussianTarget):
            def log_density_batch(self, thetas):
                values, failed = super().log_density_batch(thetas)
                failed = failed | (thetas[:, 0] > 2.0)
                values = np.where(thetas[:, 1] > 0.0, -1e4, values)
                return np.where(failed, -np.inf, values), failed

        trace = isa_run(
            Deep(np.zeros(2), np.eye(2)),
            GaussianProposal(np.zeros(2), np.eye(2)),
            IsaConfig(samples_per_iteration=2000, max_iterations=1, seed=19),
        )
        ens = trace.final_ensemble
        failed = ens.samples[:, 0] > 2.0
        assert failed.any() and not np.isneginf(ens.log_weights_raw[~failed]).any()
        assert np.all(ens.weights[ens.samples[:, 1] > 0.0] == 0.0)
        assert trace.records[-1].failure_count == int(failed.sum())
        assert trace.to_dict()["records"][-1]["failures"] == int(failed.sum())


class TestIsaRunGaussian:
    def test_fixed_point_converges_immediately(self):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        trace = isa_run(std_target(), prop, IsaConfig(samples_per_iteration=2000, seed=1))
        assert trace.stopped_reason == "converged"
        assert len(trace.records) == 2
        for r in trace.r_values():
            assert r == pytest.approx(1.0, abs=0.01)

    def test_offset_proposal_contracts_to_target(self):
        target = GaussianTarget(np.array([3.0, -1.0]), np.diag([2.0, 0.5]))
        prop = GaussianProposal(np.array([2.0, 0.0]), 4.0 * np.eye(2))
        trace = isa_run(
            target, prop, IsaConfig(samples_per_iteration=5000, max_iterations=8, seed=2)
        )
        assert trace.stopped_reason == "converged"
        rs = trace.r_values()
        assert rs[-1] < rs[0]
        assert rs[-1] == pytest.approx(1.0, abs=0.05)
        np.testing.assert_allclose(trace.final_proposal.mean, target.mean, atol=0.1)

    def test_ensemble_init_path(self):
        chain = stretch_move_run(Toy2DTarget(), 4, 10, rng=rng_for(5))
        init = mcmc_init_ensemble(chain, 20)
        trace = isa_run(
            Toy2DTarget(),
            init,
            IsaConfig(samples_per_iteration=20000, max_iterations=5, seed=2001),
        )
        assert trace.stopped_reason in ("converged", "max_iterations")
        assert trace.r_values()[-1] < 1.5

    def test_max_iterations_with_zero_tol(self):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        trace = isa_run(
            std_target(),
            prop,
            IsaConfig(samples_per_iteration=500, max_iterations=3, tol=0.0, seed=3),
        )
        assert trace.stopped_reason == "max_iterations"
        assert len(trace.records) == 3

    def test_reproducible_from_seed(self):
        prop = GaussianProposal(np.ones(2), 2.0 * np.eye(2))
        cfg = IsaConfig(samples_per_iteration=1000, max_iterations=4, seed=7)
        a = isa_run(std_target(), prop, cfg)
        b = isa_run(std_target(), prop, cfg)
        assert a.r_values() == b.r_values()
        np.testing.assert_array_equal(a.final_ensemble.samples, b.final_ensemble.samples)

    def test_saturated_estimate_does_not_converge(self):
        # tiny ensembles keep R pinned near its cap N: two nearly equal
        # saturated values must not be declared converged
        target = GaussianTarget(np.zeros(2), 1e-6 * np.eye(2))
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        trace = isa_run(
            target,
            prop,
            IsaConfig(samples_per_iteration=4, max_iterations=3, seed=8),
        )
        assert trace.stopped_reason != "converged"


class TestIsaRunStudentT:
    def test_student_t_family_used(self):
        prop = StudentTProposal(np.zeros(2), np.eye(2) / 3.0, nu=3.0)
        trace = isa_run(
            std_target(),
            prop,
            IsaConfig(samples_per_iteration=4000, family="student_t", nu=3.0, seed=9),
        )
        assert trace.stopped_reason == "converged"
        assert isinstance(trace.final_proposal, StudentTProposal)
        # heavier tails than the Gaussian target keep R slightly above 1
        assert trace.r_values()[-1] < 1.5

    def test_inflation_recorded_in_fit(self):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        cfg = IsaConfig(
            samples_per_iteration=5000, max_iterations=2, tol=0.0, inflation=2.0, seed=10
        )
        trace = isa_run(std_target(), prop, cfg)
        # second proposal was refit with doubled covariance
        refit_cov = np.array(trace.records[1].proposal["covariance"]).reshape(2, 2)
        np.testing.assert_allclose(refit_cov, 2.0 * np.eye(2), atol=0.2)


class TestCollapse:
    def test_all_failures_collapse(self):
        # proposal entirely outside the toy support
        prop = GaussianProposal(np.array([100.0, 100.0]), np.eye(2))
        trace = isa_run(
            Toy2DTarget(), prop, IsaConfig(samples_per_iteration=200, seed=11)
        )
        assert trace.stopped_reason == "collapsed"
        assert trace.records == ()

    def test_all_failed_first_draw_is_kept_outside_the_records(self):
        class NanEverywhere(GaussianTarget):
            def log_density(self, theta):
                return np.nan

        prop = GaussianProposal(np.ones(2), 2.0 * np.eye(2))
        trace = isa_run(
            NanEverywhere(np.zeros(2), np.eye(2)), prop,
            IsaConfig(samples_per_iteration=200, seed=11),
        )
        assert trace.all_failed_draw == {
            "k": 1, "N_e": 200, "failures": 200, "proposal": prop.to_dict()
        }
        data = trace.to_dict()
        assert data["records"] == [] and data["stopped_reason"] == "collapsed"
        assert data["all_failed_draw"] == trace.all_failed_draw

    def test_degenerate_init_ensemble_collapse(self):
        init = WeightedEnsemble.from_log_weights(
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0.0, -np.inf, -np.inf]
        )
        trace = isa_run(
            Toy2DTarget(), init, IsaConfig(samples_per_iteration=100, seed=12)
        )
        assert trace.stopped_reason == "collapsed"

    def test_trace_retained_on_mid_run_collapse(self):
        # one deep narrow target and a wide proposal with tiny N_e: the first
        # pass keeps a record even if a later fit degenerates
        prop = GaussianProposal(np.array([100.0, 100.0]), 0.5 * np.eye(2))
        trace = isa_run(
            Toy2DTarget(), prop, IsaConfig(samples_per_iteration=50, seed=13)
        )
        assert trace.stopped_reason == "collapsed"
        trace_dict = trace.to_dict()
        assert trace_dict["stopped_reason"] == "collapsed"


class TestTraceSerialization:
    def test_json_structure(self, tmp_path):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        cfg = IsaConfig(samples_per_iteration=300, max_iterations=2, tol=0.0, seed=14)
        trace = isa_run(std_target(), prop, cfg)
        path = tmp_path / "trace.json"
        trace.save_json(path)
        data = json.loads(path.read_text())
        assert data["stopped_reason"] == "max_iterations"
        assert "all_failed_draw" not in data
        assert len(data["records"]) == 2
        rec = data["records"][0]
        assert list(rec) == ["k", "N_e", "r", "n_eff", "failures", "wall_time",
                             "proposal", "max_weight", "saturated", "widened"]
        assert rec["k"] == 1
        assert rec["N_e"] == 300
        assert rec["r"] >= 1.0
        assert rec["proposal"]["family"] == "gaussian"
        assert data["config"]["seed"] == 14

    def test_weight_health_fields(self, tmp_path):
        # a narrow target under a wide proposal: each draw's R is near its
        # cap N (n_eff <= 2), so it is saturated and its refit collapses;
        # the run widens three times, then collapses
        n = 400
        narrow = isa_run(
            GaussianTarget(np.zeros(2), 1e-3 * np.eye(2)),
            GaussianProposal(np.zeros(2), np.eye(2)),
            IsaConfig(samples_per_iteration=n, max_iterations=5, seed=3),
        )
        wide = isa_run(
            std_target(),
            GaussianProposal(np.zeros(2), 2.0 * np.eye(2)),
            IsaConfig(samples_per_iteration=n, max_iterations=2, tol=0.0, seed=3),
        )
        saturated = {}
        for name, trace in (("narrow", narrow), ("wide", wide)):
            path = tmp_path / f"{name}.json"
            trace.save_json(path)
            records = json.loads(path.read_text())["records"]
            saturated[name] = [rec["saturated"] for rec in records]
            for rec in records:
                assert rec["saturated"] == (rec["r"] >= SATURATION_FRACTION * n)
                # N max(w)^2 <= R = N sum(w^2) <= N max(w)
                w_max = rec["max_weight"]
                assert n * w_max**2 <= rec["r"] * (1 + 1e-12)
                assert rec["r"] <= n * w_max * (1 + 1e-12)
            assert records[-1]["max_weight"] == trace.final_ensemble.weights.max()
        assert narrow.stopped_reason == "collapsed"
        assert saturated == {"narrow": [True] * 4, "wide": [False, False]}

    def test_failed_refits_widen_then_collapse(self):
        # every draw of a narrow target under a wide proposal is too
        # degenerate to refit: each failed refit widens the last proposal,
        # and the one after the last widening ends the run
        trace = isa_run(
            GaussianTarget(np.zeros(2), 1e-3 * np.eye(2)),
            GaussianProposal(np.zeros(2), np.eye(2)),
            IsaConfig(samples_per_iteration=400, max_iterations=10, seed=3),
        )
        assert trace.stopped_reason == "collapsed"
        assert [rec.widened for rec in trace.records] == [False] + [True] * MAX_WIDENINGS
        covs = [np.asarray(rec.proposal["covariance"]) for rec in trace.records]
        for before, after in zip(covs, covs[1:]):
            np.testing.assert_array_equal(after, WIDEN_FACTOR * before)

    def test_records_monotone_k(self):
        prop = GaussianProposal(np.zeros(2), np.eye(2))
        trace = isa_run(
            std_target(),
            prop,
            IsaConfig(samples_per_iteration=200, max_iterations=4, tol=0.0, seed=15),
        )
        assert [rec.k for rec in trace.records] == [1, 2, 3, 4]


class TestFinalEnsembleMoments:
    def test_posterior_moments_recovered(self):
        target = GaussianTarget(np.array([1.0, 2.0]), np.array([[1.0, 0.3], [0.3, 0.5]]))
        prop = GaussianProposal(np.zeros(2), 4.0 * np.eye(2))
        trace = isa_run(
            target, prop, IsaConfig(samples_per_iteration=20000, max_iterations=6, seed=16)
        )
        assert trace.stopped_reason == "converged"
        np.testing.assert_allclose(weighted_mean(trace.final_ensemble), target.mean, atol=0.05)
        np.testing.assert_allclose(
            weighted_covariance(trace.final_ensemble), target.covariance, atol=0.05
        )
