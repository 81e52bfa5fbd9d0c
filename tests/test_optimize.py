import math

import numpy as np
import pytest

from isalib import (
    EvaluationFailed,
    FAILURE,
    GaussianTarget,
    OptSettings,
    OptStatus,
    RegressionTarget,
    Toy2DTarget,
    fd_hessian,
    finite_diff_gradient,
    gauss_newton_hessian,
    minimize,
)
from isalib.optimize import _fd_jacobian, repair_spd_eig


class TestFiniteDiffGradient:
    def test_quadratic_exact_to_truncation(self):
        f = lambda x: float(x @ x)
        theta = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(
            finite_diff_gradient(f, theta), 2.0 * theta, rtol=1e-7
        )

    def test_linear_function(self):
        c = np.array([3.0, -1.0])
        f = lambda x: float(c @ x)
        np.testing.assert_allclose(
            finite_diff_gradient(f, np.array([0.2, 0.4])), c, rtol=1e-9
        )

    def test_one_sided_fallback_at_boundary(self):
        # f is infinite for x < 0: the stencil must fall back to one side
        def f(x):
            return float(x[0] ** 2) if x[0] >= 0.0 else math.inf

        grad = finite_diff_gradient(f, np.array([0.0]), rel_step=1e-6)
        assert grad[0] == pytest.approx(0.0, abs=1e-5)

    def test_both_sides_failing_raises(self):
        def f(x):
            return 0.0 if abs(x[0]) < 1e-9 else math.inf

        with pytest.raises(EvaluationFailed):
            finite_diff_gradient(f, np.array([0.0]))


class TestFdHessian:
    def test_quadratic_recovers_matrix(self):
        a = np.array([[3.0, 0.5], [0.5, 2.0]])
        f = lambda x: 0.5 * float(x @ a @ x)
        hess = fd_hessian(f, np.array([0.7, -0.3]))
        np.testing.assert_allclose(hess, a, rtol=1e-5, atol=1e-6)

    def test_indefinite_input_repaired(self):
        # saddle: true Hessian diag(2, -2); repair must clip to positive
        f = lambda x: float(x[0] ** 2 - x[1] ** 2)
        hess = fd_hessian(f, np.zeros(2))
        assert np.all(np.linalg.eigvalsh(hess) > 0.0)


class TestRepairSpd:
    def test_spd_unchanged(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(repair_spd_eig(a), a, rtol=1e-12)

    def test_negative_eigenvalue_clipped(self):
        a = np.diag([1.0, -5.0])
        repaired = repair_spd_eig(a)
        vals = np.linalg.eigvalsh(repaired)
        assert vals.min() > 0.0
        assert repaired[0, 0] == pytest.approx(1.0)

    def test_zero_matrix(self):
        repaired = repair_spd_eig(np.zeros((3, 3)))
        np.linalg.cholesky(repaired)


class TestGaussNewton:
    def test_linear_model_exact(self):
        # r(theta) = A theta - b  =>  H = A^T A + P exactly
        a = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
        p = np.diag([0.5, 0.25])
        hess = gauss_newton_hessian(a, p)
        np.testing.assert_allclose(hess, a.T @ a + p, rtol=1e-12)

    def test_jacobian_of_linear_residuals(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
        jac = _fd_jacobian(lambda t: a @ t - 1.0, np.array([0.3, 0.7]), 1e-6)
        np.testing.assert_allclose(jac, a, rtol=1e-7)


class TestMinimizeBfgs:
    def test_gaussian_target_finds_mean(self):
        target = GaussianTarget(np.array([2.0, -1.0]), np.array([[1.5, 0.2], [0.2, 0.7]]))
        result = minimize(target, np.array([0.0, 0.0]))
        assert result.status is OptStatus.CONVERGED
        np.testing.assert_allclose(result.minimizer, target.mean, atol=1e-4)

    def test_converged_implies_small_gradient(self):
        target = Toy2DTarget()
        result = minimize(target, np.array([5.5, 5.5]))
        assert result.status is OptStatus.CONVERGED
        grad = finite_diff_gradient(target.neg_log_posterior, result.minimizer)
        assert np.linalg.norm(grad) <= 1e-5

    def test_f_history_monotone_nonincreasing(self):
        result = minimize(Toy2DTarget(), np.array([3.0, 8.0]))
        hist = np.array(result.f_history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_infeasible_start_failed(self):
        result = minimize(Toy2DTarget(), np.array([20.0, 20.0]))
        assert result.status is OptStatus.FAILED
        assert math.isinf(result.f_min)

    def test_hessian_positive_definite(self):
        result = minimize(Toy2DTarget(), np.array([5.2, 5.2]))
        assert np.all(np.linalg.eigvalsh(result.hessian_approx) > 0.0)

    def test_max_iterations_status(self):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        result = minimize(target, np.array([50.0, 50.0]), OptSettings(max_iter=1))
        assert result.status is OptStatus.MAX_ITERATIONS


class TestMinimizeLm:
    def make_target(self):
        theta_ref = np.array([1.0, -0.5])
        model = lambda t: np.array([t[0] + t[1], t[0] - t[1], 2.0 * t[0]])
        return theta_ref, RegressionTarget(
            model,
            data_z=model(theta_ref),
            noise_sd=np.ones(3),
            prior_mean=theta_ref,
            prior_sd=10.0 * np.ones(2),
        )

    def test_linear_least_squares_exact(self):
        theta_ref, target = self.make_target()
        result = minimize(target, np.array([4.0, 4.0]))
        assert result.status is OptStatus.CONVERGED
        np.testing.assert_allclose(result.minimizer, theta_ref, atol=1e-5)
        assert result.f_min == pytest.approx(0.0, abs=1e-10)

    def test_lm_dispatch_used_for_residual_targets(self):
        _, target = self.make_target()
        assert hasattr(target, "residuals")
        result = minimize(target, np.array([0.0, 0.0]))
        # LM keeps a Gauss-Newton Hessian: for this linear model it is J^T J
        jac = _fd_jacobian(target.residuals, result.minimizer, 1e-6)
        np.testing.assert_allclose(
            result.hessian_approx, jac.T @ jac, rtol=1e-4
        )

    def test_residual_failure_start(self):
        target = RegressionTarget(
            lambda t: FAILURE,
            data_z=np.zeros(2),
            noise_sd=np.ones(2),
            prior_mean=np.zeros(2),
            prior_sd=np.ones(2),
        )
        result = minimize(target, np.zeros(2))
        assert result.status is OptStatus.FAILED

    def test_rosenbrock_style_nonlinear(self):
        model = lambda t: np.array([10.0 * (t[1] - t[0] ** 2), 1.0 - t[0]])
        target = RegressionTarget(
            model,
            data_z=np.zeros(2),
            noise_sd=np.ones(2),
            prior_mean=np.array([1.0, 1.0]),
            prior_sd=1e6 * np.ones(2),
        )
        result = minimize(target, np.array([-1.2, 1.0]), OptSettings(max_iter=500))
        np.testing.assert_allclose(result.minimizer, [1.0, 1.0], atol=1e-3)
