import math

import numpy as np
import pytest

from isalib import (
    DomainError,
    Failure,
    GaussianTarget,
    RegressionTarget,
    Toy2DTarget,
    is_failure,
    make_synthetic_regression,
    minimize,
    multistart,
    toy2d_log_density,
)
from isalib.optimize import finite_diff_gradient
from isalib.targets import TargetDensity, builtin_regression_model, residuals_loop


def toy_f(theta):
    # independent re-statement of the toy objective for oracle checks
    theta = np.asarray(theta, dtype=float)
    center = np.array([5.0, 5.0])
    return 1e-2 * np.linalg.norm(theta - center) ** 4 + 0.2 * math.sin(
        5.0 * np.linalg.norm(theta)
    )


def composed_toy_log_density(theta):
    """Toy2DTarget.log_density as it was composed from two methods, a support
    check and F, each converting theta to floats itself."""

    def in_support(theta):
        x, y = float(theta[0]), float(theta[1])
        return 0.0 <= x <= 11.0 and 0.0 <= y <= 11.0

    def f_value(theta):
        dx = float(theta[0]) - 5.0
        dy = float(theta[1]) - 5.0
        return 1e-2 * (dx * dx + dy * dy) ** 2 + 0.2 * math.sin(
            5.0 * math.hypot(float(theta[0]), float(theta[1]))
        )

    if not in_support(theta):
        return Failure("outside prior cube")
    return -f_value(theta)


class TestIsFailure:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_fail(self, value):
        assert is_failure(value)
        assert is_failure(np.float64(value))

    def test_finite_values_and_arrays_do_not(self):
        for value in (0.0, -1e308, np.float64(2.5), 3, np.array([np.nan, 1.0])):
            assert not is_failure(value)
        assert is_failure(Failure("x"))

    def test_default_batch_loop_marks_nan_failed(self):
        class NanRight(TargetDensity):
            dimension = 2

            def log_density(self, theta):
                return math.nan if theta[0] > 0.0 else -float(theta @ theta)

        thetas = np.array([[1.0, 0.0], [-1.0, 0.5], [0.5, 0.5]])
        values, failed = NanRight().log_density_batch(thetas)
        assert failed.tolist() == [True, False, True]
        assert values.tolist() == [-math.inf, -1.25, -math.inf]
        assert NanRight().neg_log_posterior(thetas[0]) == math.inf


class TestToy2D:
    def test_origin_value(self):
        # F(0,0) = 0.01 * (sqrt(50))^4 + 0 = 25
        assert toy2d_log_density(np.zeros(2)) == pytest.approx(-25.0)

    def test_center_value(self):
        value = toy2d_log_density(np.array([5.0, 5.0]))
        assert value == pytest.approx(-toy_f([5.0, 5.0]))
        assert value == pytest.approx(0.1432, abs=1e-3)

    def test_outside_cube_fails(self):
        assert is_failure(toy2d_log_density(np.array([12.0, 5.0])))
        assert is_failure(toy2d_log_density(np.array([5.0, -0.1])))

    def test_matches_oracle_inside(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(0.0, 11.0, size=(50, 2)):
            assert toy2d_log_density(theta) == pytest.approx(-toy_f(theta), rel=1e-12)

    def test_equals_the_composed_form_bitwise(self):
        rng = np.random.default_rng(7)
        faces = rng.uniform(0.0, 11.0, size=(200, 2))
        faces[:100, 0] = rng.choice([0.0, 11.0], size=100)
        faces[100:, 1] = rng.choice([0.0, 11.0], size=100)
        nudged = np.nextafter(faces, np.where(faces == 0.0, -1.0, 12.0))
        inside = rng.uniform(0.0, 11.0, size=(2000, 2))
        outside = rng.uniform(-1.0, 12.0, size=(2000, 2))
        thetas = np.vstack([faces, nudged, inside, outside])
        target = Toy2DTarget()
        outcomes = set()
        for theta in thetas:
            value, reference = target.log_density(theta), composed_toy_log_density(theta)
            # repr tells every float bit pattern apart, and a Failure by its reason
            assert repr(value) == repr(reference)
            outcomes.add(is_failure(value))
        assert outcomes == {True, False}

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            toy2d_log_density(np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        target = Toy2DTarget()
        for theta in ([5.0, 5.0], [2.0, 3.0], [8.5, 1.5]):
            theta = np.asarray(theta)
            fd = finite_diff_gradient(target.neg_log_posterior, theta, 1e-6)
            np.testing.assert_allclose(-target.gradient(theta), fd, rtol=1e-4, atol=1e-6)

    def test_diagonal_scan_has_multiple_local_minima(self):
        # the sin ripple leaves dents along rays through the mode region
        t = np.linspace(0.0, 11.0, 4001)
        f = np.array([toy_f([x, x]) for x in t])
        interior = (f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])
        assert interior.sum() >= 3

    def test_prior_sampler_stays_in_cube(self):
        draws = Toy2DTarget().sample_prior(np.random.default_rng(0), 1000)
        assert draws.min() >= 0.0 and draws.max() <= 11.0


class TestGaussianTarget:
    def test_normalized_density_at_mean(self):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        assert target.log_density(np.zeros(2)) == pytest.approx(-math.log(2 * math.pi))

    def test_gradient_zero_at_mean(self):
        target = GaussianTarget(np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        np.testing.assert_allclose(target.gradient(np.array([1.0, 2.0])), 0.0, atol=1e-14)

    def test_symmetry(self):
        target = GaussianTarget(np.array([1.0, -1.0]), np.eye(2))
        d = np.array([0.7, 0.2])
        assert target.log_density(target.mean + d) == pytest.approx(
            target.log_density(target.mean - d)
        )

    def test_gradient_matches_finite_differences(self):
        target = GaussianTarget(np.array([0.5, -0.5]), np.array([[1.5, 0.4], [0.4, 0.9]]))
        theta = np.array([1.2, 0.3])
        fd = finite_diff_gradient(target.neg_log_posterior, theta, 1e-6)
        np.testing.assert_allclose(-target.gradient(theta), fd, rtol=1e-4)

    def test_non_spd_rejected(self):
        with pytest.raises(DomainError):
            GaussianTarget(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestRegressionTarget:
    def test_zero_residual_zero_penalty(self):
        theta_true = np.array([0.5, -0.3])
        model = lambda theta: theta.copy()
        target = RegressionTarget(
            model,
            data_z=theta_true,
            noise_sd=np.ones(2),
            prior_mean=theta_true,
            prior_sd=np.ones(2),
        )
        assert target.log_density(theta_true) == pytest.approx(0.0)

    def test_reduces_to_gaussian(self):
        # identity model, z = 0, unit noise, essentially flat prior
        target = RegressionTarget(
            lambda theta: theta.copy(),
            data_z=np.zeros(2),
            noise_sd=np.ones(2),
            prior_mean=np.zeros(2),
            prior_sd=1e8 * np.ones(2),
        )
        theta = np.array([1.0, 2.0])
        assert target.log_density(theta) == pytest.approx(
            -0.5 * float(theta @ theta), abs=1e-10
        )

    def test_model_failure_propagates(self):
        target = RegressionTarget(
            lambda theta: Failure("sim blew up"),
            data_z=np.zeros(2),
            noise_sd=np.ones(2),
            prior_mean=np.zeros(2),
            prior_sd=np.ones(2),
        )
        assert is_failure(target.log_density(np.zeros(2)))

    def test_maximized_at_generating_point_no_noise(self):
        theta_ref = np.array([1.0, -0.5, 0.2])
        target = make_synthetic_regression(
            n_theta=3,
            n_z=8,
            noise_sd=1e-12,  # effectively no noise in the synthetic data
            prior_mean=np.zeros(3),
            prior_sd=1e6 * np.ones(3),
            theta_ref=theta_ref,
            data_seed=0,
        )
        base = target.log_density(theta_ref)
        rng = np.random.default_rng(1)
        for _ in range(20):
            other = theta_ref + rng.standard_normal(3) * 0.1
            assert target.log_density(other) < base + 1e-6

    @pytest.mark.parametrize(
        "overrides",
        [{"noise_sd": [0.1, 0.2]}, {"prior_mean": np.zeros(3)}, {"prior_sd": np.ones(1)},
         {"theta_ref": [1.0, 2.0, 3.0]}],
        ids=["noise_sd", "prior_mean", "prior_sd", "theta_ref"],
    )
    def test_lengths_checked_before_the_model_runs(self, overrides):
        def model(theta):
            raise AssertionError("model called")

        kwargs = dict(n_theta=2, n_z=5, noise_sd=0.1, prior_mean=np.zeros(2),
                      prior_sd=np.ones(2), theta_ref=[1.0, 1.0], data_seed=0)
        with pytest.raises(DomainError, match=next(iter(overrides))):
            make_synthetic_regression(**{**kwargs, **overrides}, model=model)

    def test_builtin_model_is_deterministic(self):
        model = builtin_regression_model(3, 6)
        theta = np.array([0.3, -0.2, 0.7])
        np.testing.assert_array_equal(model(theta), model(theta))

    def test_synthetic_data_reproducible(self):
        kwargs = dict(
            n_theta=2,
            n_z=5,
            noise_sd=0.1,
            prior_mean=np.zeros(2),
            prior_sd=np.ones(2),
            theta_ref=np.array([1.0, 1.0]),
            data_seed=42,
        )
        a = make_synthetic_regression(**kwargs)
        b = make_synthetic_regression(**kwargs)
        np.testing.assert_array_equal(a.data_z, b.data_z)


REGRESSION = make_synthetic_regression(
    n_theta=2, n_z=6, noise_sd=0.1, prior_mean=np.full(2, 5.0), prior_sd=np.full(2, 3.0),
    theta_ref=[6.0, 4.0], data_seed=11,
)
# each built-in target class with the arguments that build one on [-1, 12]^2
BUILTIN = {
    "toy2d": (Toy2DTarget, ()),
    "gaussian": (GaussianTarget, (np.array([5.0, 5.0]), np.array([[4.0, 1.2], [1.2, 2.0]]))),
    "regression": (RegressionTarget, (REGRESSION.model, REGRESSION.data_z, REGRESSION.noise_sd,
                                      REGRESSION.prior_mean, REGRESSION.prior_sd)),
}


def per_point(target, thetas):
    """Values and failed mask from one log_density call per row."""
    raw = [target.log_density(theta) for theta in thetas]
    failed = np.array([is_failure(value) for value in raw])
    values = np.array([-math.inf if is_failure(value) else value for value in raw])
    return values, failed


def assert_batch_matches_per_point(target, thetas, atol=0.0):
    values, failed = target.log_density_batch(thetas)
    ref_values, ref_failed = per_point(target, thetas)
    np.testing.assert_array_equal(failed, ref_failed)
    assert np.all(np.isneginf(values[failed]))
    np.testing.assert_allclose(values[~failed], ref_values[~ref_failed], rtol=1e-13, atol=atol)


class TestLogDensityBatch:
    def test_toy2d_matches_per_point_at_the_cube_faces(self):
        below = np.nextafter(0.0, -1.0)
        above = np.nextafter(11.0, 12.0)
        edges = np.array(
            [[0.0, 0.0], [11.0, 11.0], [0.0, 11.0], [11.0, 5.0], [5.0, 0.0],
             [below, 5.0], [5.0, below], [above, 5.0], [5.0, above], [above, below],
             [-1.0, 12.0]]
        )
        rng = np.random.default_rng(3)
        thetas = np.vstack([edges, rng.uniform(-1.0, 12.0, size=(500, 2))])
        # F sums two terms of opposite sign: where they nearly cancel, the
        # vectorized sin/hypot differ from math's by an ulp of the terms
        assert_batch_matches_per_point(Toy2DTarget(), thetas, atol=1e-14)
        failed = Toy2DTarget().log_density_batch(edges)[1]
        assert failed.tolist() == [False] * 5 + [True] * 6

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_gaussian_matches_per_point(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        target = GaussianTarget(rng.standard_normal(dim), a @ a.T + np.eye(dim))
        assert_batch_matches_per_point(target, 3.0 * rng.standard_normal((400, dim)))

    def test_builtin_regression_matches_per_point(self):
        target = make_synthetic_regression(
            n_theta=5, n_z=12, noise_sd=0.1, prior_mean=np.zeros(5),
            prior_sd=3.0 * np.ones(5), theta_ref=[1.0, -0.5, 0.8, 0.3, -1.2], data_seed=11,
        )
        thetas = np.random.default_rng(4).standard_normal((400, 5))
        assert_batch_matches_per_point(target, thetas)
        rows = np.array([target.model(theta) for theta in thetas])
        np.testing.assert_allclose(target.model.batch(thetas), rows, rtol=1e-13, atol=1e-14)

    def test_regression_without_batch_model_loops_per_point(self):
        def model(theta):
            return Failure("negative input") if theta[0] < 0.0 else 2.0 * theta

        target = RegressionTarget(
            model, data_z=np.ones(2), noise_sd=np.ones(2),
            prior_mean=np.zeros(2), prior_sd=np.ones(2),
        )
        thetas = np.random.default_rng(5).standard_normal((50, 2))
        assert_batch_matches_per_point(target, thetas)
        np.testing.assert_array_equal(target.log_density_batch(thetas)[1], thetas[:, 0] < 0.0)

    def test_non_finite_batch_prediction_fails_the_row(self):
        def model(theta):
            return theta.copy()

        model.batch = lambda thetas: np.where(thetas[:, :1] > 0.0, np.nan, thetas)
        target = RegressionTarget(
            model, data_z=np.zeros(2), noise_sd=np.ones(2),
            prior_mean=np.zeros(2), prior_sd=np.ones(2),
        )
        thetas = np.array([[1.0, 0.0], [-1.0, 0.5]])
        values, failed = target.log_density_batch(thetas)
        assert failed.tolist() == [True, False]
        assert values[0] == -math.inf
        assert values[1] == pytest.approx(-0.5 * 2 * (1.0 + 0.25))

    def test_batch_prediction_of_wrong_shape_rejected(self):
        def model(theta):
            return theta.copy()

        model.batch = lambda thetas: thetas[:, :1]
        target = RegressionTarget(
            model, data_z=np.zeros(2), noise_sd=np.ones(2),
            prior_mean=np.zeros(2), prior_sd=np.ones(2),
        )
        with pytest.raises(DomainError):
            target.log_density_batch(np.zeros((3, 2)))

    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_subclass_overriding_log_density_keeps_its_values(self, name):
        base, args = BUILTIN[name]
        # the per-point method the built-in batch stands in for
        point = "residuals" if base is RegressionTarget else "log_density"

        def clipped(self, theta):
            return Failure("clipped") if theta[0] > 5.5 else getattr(base, point)(self, theta)

        def doubled(self, thetas):
            values, failed = base.log_density_batch(self, thetas)
            return 2.0 * values, failed

        thetas = np.random.default_rng(6).uniform(-1.0, 12.0, size=(400, 2))
        target = type("Clipped", (base,), {point: clipped})(*args)
        values, failed = target.log_density_batch(thetas)
        ref_values, ref_failed = per_point(target, thetas)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(failed, ref_failed)
        assert failed[thetas[:, 0] > 5.5].all() and not failed.all()

        own_batch = type("Doubled", (base,), {"log_density_batch": doubled})
        inherited = type("Inherited", (own_batch,), {})
        expected = base(*args).log_density_batch(thetas)
        for cls in (own_batch, inherited):
            assert cls.log_density_batch is doubled
            values, failed = cls(*args).log_density_batch(thetas)
            np.testing.assert_array_equal(values, 2.0 * expected[0])
            np.testing.assert_array_equal(failed, expected[1])


def edge_regression(batch):
    """REGRESSION's target with a model that fails where theta_0 > 5.5, past
    which its optimum lies: by a Failure per point and, with `batch`, by NaN
    rows of the batch."""

    def model(theta):
        return Failure("edge") if theta[0] > 5.5 else REGRESSION.model(theta)

    if batch:
        model.batch = lambda thetas: np.where(
            thetas[:, :1] > 5.5, np.nan, REGRESSION.model.batch(thetas)
        )
    return RegressionTarget(model, REGRESSION.data_z, REGRESSION.noise_sd,
                            REGRESSION.prior_mean, REGRESSION.prior_sd)


class CountingProxy:
    """Counts every point passed to the target's evaluation methods and
    forwards everything else, as the benchmark's counting proxy does."""

    def __init__(self, target):
        self._target = target
        self.points = 0
        for name in dir(target):
            if name in ("log_density", "residuals", "neg_log_posterior"):
                setattr(self, name, self._counted(getattr(target, name), lambda args: 1))
            elif name.endswith("_batch") and not name.startswith("_"):
                setattr(self, name, self._counted(getattr(target, name), lambda args: len(args[0])))

    def _counted(self, method, points):
        def counted(*args):
            self.points += points(args)
            return method(*args)

        return counted

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestResidualsBatch:
    """`residuals_batch` is the batch form of `residuals`, and the optimizer's
    Levenberg-Marquardt reaches the residuals only through it or, where a
    stencil point fails, through `residuals`."""

    def test_loop_and_vectorized_paths_agree(self):
        thetas = np.random.default_rng(8).uniform(-1.0, 12.0, size=(400, 2))
        r, failed = edge_regression(batch=True).residuals_batch(thetas)
        looped = edge_regression(batch=False)
        r_loop, failed_loop = looped.residuals_batch(thetas)
        np.testing.assert_array_equal(failed, thetas[:, 0] > 5.5)
        np.testing.assert_array_equal(failed_loop, failed)
        assert np.isnan(r[failed]).all() and np.isnan(r_loop[failed]).all()
        np.testing.assert_allclose(r[~failed], r_loop[~failed], rtol=1e-13)
        for theta, row in zip(thetas[~failed], r_loop[~failed]):
            assert row.tobytes() == looped.residuals(theta).tobytes()

    def test_subclass_overriding_residuals_drives_the_optimizer(self):
        shift = np.array([0.25, -0.5])

        def residuals(self, theta):
            if theta[1] > 9.0:
                return np.full(8, np.inf)
            return RegressionTarget.residuals(self, theta - shift)

        base = RegressionTarget(REGRESSION.model, REGRESSION.data_z, REGRESSION.noise_sd,
                                REGRESSION.prior_mean, REGRESSION.prior_sd)
        shifted = type("Shifted", (RegressionTarget,), {"residuals": residuals})(
            REGRESSION.model, REGRESSION.data_z, REGRESSION.noise_sd,
            REGRESSION.prior_mean, REGRESSION.prior_sd,
        )
        assert type(shifted).residuals_batch is residuals_loop
        thetas = np.array([[1.0, 2.0], [1.0, 9.5]])
        r, failed = shifted.residuals_batch(thetas)
        assert failed.tolist() == [False, True]
        assert r[0].tobytes() == base.residuals(thetas[0] - shift).tobytes()
        start = np.array([4.0, 3.0])
        moved, fixed = minimize(shifted, start), minimize(base, start - shift)
        np.testing.assert_allclose(moved.minimizer, fixed.minimizer + shift, rtol=1e-7)
        assert moved.f_min == pytest.approx(fixed.f_min, rel=1e-9)

    def test_a_counting_proxy_sees_every_point(self):
        target = edge_regression(batch=True)
        evaluated = {"point": 0, "batch": 0}
        model, batch = target.model, target.model.batch

        def counted_model(theta):
            evaluated["point"] += 1
            return model(theta)

        def counted_batch(thetas):
            evaluated["batch"] += len(thetas)
            return batch(thetas)

        counted_model.batch = counted_batch
        target.model = counted_model
        proxy = CountingProxy(target)
        multistart(proxy, 12, np.random.default_rng(4))
        # only Levenberg-Marquardt evaluates here.  The optimum lies past the
        # model's edge, so stencils fall back to one side, and those
        # quotients come from the batch too: no point goes through the
        # per-point model
        assert evaluated["point"] == 0 and evaluated["batch"] > 0
        assert proxy.points == evaluated["point"] + evaluated["batch"]
