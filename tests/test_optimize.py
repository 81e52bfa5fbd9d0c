import math
import types
from functools import partial

import numpy as np
import pytest

from isalib import (
    EvaluationFailed,
    FAILURE,
    GaussianTarget,
    OptimizationResult,
    OptSettings,
    OptStatus,
    RegressionTarget,
    Toy2DTarget,
    fd_hessian,
    finite_diff_gradient,
    gauss_newton_hessian,
    minimize,
)
from isalib.init import multistart
from isalib.optimize import HESSIAN_REL_STEP, _derivatives, minimize_all, repair_spd_eig
from isalib.targets import (
    TargetDensity, is_failure, make_synthetic_regression, residuals_loop,
)


def reference_gradient(f, theta, rel_step=1e-6):
    """The scalar stencil loop as it stood before the gradient and the
    Jacobian shared one; kept as a bitwise reference."""
    theta = np.asarray(theta, dtype=float)
    f0 = None
    grad = np.empty(theta.size)
    for j in range(theta.size):
        h = rel_step * (1.0 + abs(theta[j]))
        up = theta.copy()
        up[j] += h
        dn = theta.copy()
        dn[j] -= h
        f_up = float(f(up))
        f_dn = float(f(dn))
        if math.isfinite(f_up) and math.isfinite(f_dn):
            grad[j] = (f_up - f_dn) / (2.0 * h)
            continue
        if f0 is None:
            f0 = float(f(theta))
            if not math.isfinite(f0):
                raise EvaluationFailed("f is not finite at the expansion point")
        if math.isfinite(f_up):
            grad[j] = (f_up - f0) / h
        elif math.isfinite(f_dn):
            grad[j] = (f0 - f_dn) / h
        else:
            raise EvaluationFailed(f"both one-sided stencils failed for coordinate {j}")
    return grad


def reference_jacobian(residuals, theta, rel_step):
    """The vector stencil loop as it stood before the merge (bitwise reference)."""
    theta = np.asarray(theta, dtype=float)
    r0 = None
    cols = []
    for j in range(theta.size):
        h = rel_step * (1.0 + abs(theta[j]))
        up = theta.copy()
        up[j] += h
        dn = theta.copy()
        dn[j] -= h
        r_up = residuals(up)
        r_dn = residuals(dn)
        if not is_failure(r_up) and not is_failure(r_dn):
            cols.append((np.asarray(r_up) - np.asarray(r_dn)) / (2.0 * h))
            continue
        if r0 is None:
            r0 = residuals(theta)
            if is_failure(r0):
                raise EvaluationFailed("residuals failed at the expansion point")
            r0 = np.asarray(r0)
        if not is_failure(r_up):
            cols.append((np.asarray(r_up) - r0) / h)
        elif not is_failure(r_dn):
            cols.append((r0 - np.asarray(r_dn)) / h)
        else:
            raise EvaluationFailed(f"both one-sided stencils failed for coordinate {j}")
    return np.column_stack(cols)


def reference_hessian(f, theta, rel_step):
    """The per-point second-difference loop of `fd_hessian` as it stood
    before the batch stencils, without the SPD repair (bitwise reference)."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    h = rel_step * (1.0 + np.abs(theta))

    def ev(point):
        val = f(point)
        if is_failure(val):
            raise EvaluationFailed("stencil point evaluation failed")
        return float(val)

    f0 = ev(theta)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (ev(theta + ei) - 2.0 * f0 + ev(theta - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                ev(theta + ei + ej)
                - ev(theta + ei - ej)
                - ev(theta - ei + ej)
                + ev(theta - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def lm_jacobian(residuals, theta, rel_step):
    """The Jacobian Levenberg-Marquardt takes at one point: `_derivatives`
    over a `residuals_loop` batch, with the residuals at theta as the
    centre.  Returns it (m, n) and whether it exists."""
    evaluate = partial(residuals_loop, types.SimpleNamespace(residuals=residuals))
    thetas = np.asarray(theta, dtype=float)[None, :]
    jt, ok = _derivatives(evaluate, thetas, evaluate(thetas)[0], rel_step)
    return jt[0].T, bool(ok[0])


def failed_result(start):
    return OptimizationResult(np.asarray(start, dtype=float), math.inf,
                              np.eye(np.size(start)), OptStatus.FAILED, 0, ())


THETA = np.array([0.7, 0.3, -1.9])
# the points where the function fails: one or both sides of coordinate 1's
# stencil, or that side and THETA itself
FAILS_AT = {
    "none": lambda x: False,
    "up": lambda x: x[1] > THETA[1],
    "down": lambda x: x[1] < THETA[1],
    "both": lambda x: x[1] != THETA[1],
    "expansion-point": lambda x: x[1] > THETA[1] or np.array_equal(x, THETA),
}


def scalar_function(fails, failure):
    def f(x):
        if FAILS_AT[fails](x):
            return failure
        return float(np.sin(x[0]) * x[1] ** 3 + math.exp(0.3 * x[2]) * x[0])
    return f


def vector_function(fails):
    def f(x):
        if FAILS_AT[fails](x):
            return FAILURE
        return np.array([np.sin(x[0]) * x[1] ** 3, math.exp(0.3 * x[2]) * x[0], x @ x])
    return f


class TestOneStencil:
    """The gradient and the Jacobian share one stencil loop; it reproduces
    both earlier loops bit for bit."""

    @pytest.mark.parametrize("failure", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
    @pytest.mark.parametrize("fails", ["none", "up", "down"])
    def test_gradient_matches_reference_bitwise(self, fails, failure):
        f = scalar_function(fails, failure)
        for rel_step in (1e-6, 1e-3):
            grad = finite_diff_gradient(f, THETA, rel_step)
            ref = reference_gradient(f, THETA, rel_step)
            assert grad.dtype == ref.dtype and grad.shape == ref.shape
            assert grad.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fails", ["none", "up", "down"])
    def test_jacobian_matches_reference_bitwise(self, fails):
        f = vector_function(fails)
        for rel_step in (1e-6, 1e-3):
            jac, ok = lm_jacobian(f, THETA, rel_step)
            ref = reference_jacobian(f, THETA, rel_step)
            assert ok and jac.dtype == ref.dtype and jac.shape == ref.shape
            assert jac.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fails", ["both", "expansion-point"])
    def test_failed_stencil_raises(self, fails):
        f = scalar_function(fails, math.inf)
        with pytest.raises(EvaluationFailed) as ref_error:
            reference_gradient(f, THETA, 1e-6)
        with pytest.raises(EvaluationFailed) as error:
            finite_diff_gradient(f, THETA, 1e-6)
        assert ("expansion point" in str(error.value)) == (fails == "expansion-point")
        assert ("expansion point" in str(ref_error.value)) == (fails == "expansion-point")
        with pytest.raises(EvaluationFailed):
            reference_jacobian(vector_function(fails), THETA, 1e-6)
        if fails == "both":
            # the batch path holds each start's (valid) centre residuals, so
            # only a coordinate failing on both sides leaves it without a
            # Jacobian
            assert not lm_jacobian(vector_function(fails), THETA, 1e-6)[1]

    @pytest.mark.parametrize("fails", ["none", "up", "down"])
    def test_fd_hessian_matches_reference_bitwise(self, fails):
        f = scalar_function(fails, math.inf)
        for rel_step in (1e-5, HESSIAN_REL_STEP):
            if fails == "none":
                ref = repair_spd_eig(reference_hessian(f, THETA, rel_step))
                assert fd_hessian(f, THETA, rel_step).tobytes() == ref.tobytes()
            else:
                with pytest.raises(EvaluationFailed):
                    fd_hessian(f, THETA, rel_step)

    def test_gradient_accepts_a_failure_object(self):
        grad = finite_diff_gradient(scalar_function("up", FAILURE), THETA)
        ref = reference_gradient(scalar_function("up", math.inf), THETA)
        assert grad.tobytes() == ref.tobytes()


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


def reference_repair(matrix):
    """`repair_spd_eig` for one matrix as it stood before it took stacks
    (bitwise reference)."""
    a = 0.5 * (matrix + matrix.T)
    vals, vecs = np.linalg.eigh(a)
    floor = 1e-8 * max(float(np.abs(vals).max()), 1.0)
    vals = np.maximum(vals, floor)
    repaired = (vecs * vals) @ vecs.T
    return 0.5 * (repaired + repaired.T)


class TestStackedRepair:
    """One call repairs a stack; each matrix's result is the one it gets
    alone, with its own eigenvalue floor."""

    def test_stacked_gauss_newton_equals_each_alone(self):
        zeros = np.zeros((5, 5))
        for seed in range(20):
            jacs = np.random.default_rng(seed).normal(size=(50, 17, 5))
            stacked = gauss_newton_hessian(jacs, zeros)
            for jac, hess in zip(jacs, stacked):
                assert hess.tobytes() == reference_repair(jac.T @ jac + zeros).tobytes()
                assert hess.tobytes() == gauss_newton_hessian(jac, zeros).tobytes()

    def test_each_matrix_keeps_its_own_floor(self):
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        stack = np.stack([
            (q * [1e6, 2.0, -3.0]) @ q.T,  # clipped at 1e-2
            np.diag([1.0, -5.0, 0.5]),  # clipped at 1e-8 * 5
            np.zeros((3, 3)),
            rng.normal(size=(3, 3)),
        ])
        repaired = repair_spd_eig(stack)
        for matrix, fixed in zip(stack, repaired):
            assert fixed.tobytes() == reference_repair(matrix).tobytes()
            np.linalg.cholesky(fixed)
        assert np.linalg.eigvalsh(repaired[1]).min() == pytest.approx(5e-8)


class TestGaussNewton:
    def test_linear_model_exact(self):
        # r(theta) = A theta - b  =>  H = A^T A + P exactly
        a = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
        p = np.diag([0.5, 0.25])
        hess = gauss_newton_hessian(a, p)
        np.testing.assert_allclose(hess, a.T @ a + p, rtol=1e-12)

    def test_jacobian_of_linear_residuals(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
        jac, ok = lm_jacobian(lambda t: a @ t - 1.0, np.array([0.3, 0.7]), 1e-6)
        assert ok
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
        jac = reference_jacobian(target.residuals, result.minimizer, 1e-6)
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


def reference_lm(target, start, settings):
    """Levenberg-Marquardt one start at a time, as it was before the starts
    moved in lockstep; kept as the reference for the lockstep version."""
    theta = np.asarray(start, dtype=float)
    r = target.residuals(theta)
    if is_failure(r):
        return failed_result(theta)
    r = np.asarray(r)
    fval = 0.5 * float(r @ r)
    history = [fval]
    lam = 1e-3
    status = OptStatus.MAX_ITERATIONS
    it = 0
    for it in range(1, settings.max_iter + 1):
        try:
            jac = reference_jacobian(target.residuals, theta, settings.rel_step)
        except EvaluationFailed:
            status = OptStatus.FAILED
            break
        grad = jac.T @ r
        if np.linalg.norm(grad) <= settings.grad_tol:
            status = OptStatus.CONVERGED
            break
        jtj = jac.T @ jac
        accepted = False
        while lam <= 1e12:
            step = np.linalg.solve(jtj + lam * np.eye(theta.size), -grad)
            trial = theta + step
            r_trial = target.residuals(trial)
            if not is_failure(r_trial):
                r_trial = np.asarray(r_trial)
                f_trial = 0.5 * float(r_trial @ r_trial)
                if f_trial < fval:
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
            status = OptStatus.FAILED
            break
        lam = max(lam / 10.0, 1e-12)
        df = fval - f_trial
        theta, r, fval = trial, r_trial, f_trial
        history.append(fval)
        if df < settings.f_tol * (1.0 + abs(fval)):
            status = OptStatus.CONVERGED
            break
    try:
        jac = reference_jacobian(target.residuals, theta, settings.rel_step)
        hessian = gauss_newton_hessian(jac, np.zeros((theta.size, theta.size)))
    except EvaluationFailed:
        hessian = np.eye(theta.size)
    return OptimizationResult(theta, fval, hessian, status, it, tuple(history))


def shipped_regression():
    """The regression target of configs/regression_student_t.json."""
    return make_synthetic_regression(
        5, 12, 0.1, [0.0] * 5, [3.0] * 5, [1.0, -0.5, 0.8, 0.3, -1.2], data_seed=11
    )


def edge_model(fails):
    """A 2-parameter model that fails where theta_0 > 1.2: by a Failure (per
    point only, so its residuals go through the loop) or by NaN predictions
    (per point and in `batch`)."""

    def predict(t):
        return np.stack([t[0] + t[1], t[0] - t[1], 2.0 * t[0], t[1] ** 2 / 3.0])

    def model(theta):
        if theta[0] > 1.2:
            return FAILURE if fails == "failure" else np.full(4, np.nan)
        return predict(theta)

    if fails == "nan":
        model.batch = lambda thetas: np.where(
            thetas[:, :1] > 1.2, np.nan, predict(thetas.T).T
        )
    return model


def edge_target(fails, theta_0):
    """Data from (theta_0, -0.5): the optimum lies inside the region where
    the model works (theta_0 1.1), or past its edge (1.3), where the
    stencils and the trial steps fail."""
    return RegressionTarget(
        edge_model(fails),
        data_z=np.array([theta_0 - 0.45, theta_0 + 0.55, 2.0 * theta_0 + 0.05, 0.25 / 3.0]),
        noise_sd=np.full(4, 0.1),
        prior_mean=np.zeros(2),
        prior_sd=np.full(2, 3.0),
    )


LOCKSTEP_CASES = {
    "regression": (shipped_regression, 5),
    "failure-inside": (lambda: edge_target("failure", 1.1), 2),
    "failure-past-edge": (lambda: edge_target("failure", 1.3), 2),
    "nan-inside": (lambda: edge_target("nan", 1.1), 2),
    "nan-past-edge": (lambda: edge_target("nan", 1.3), 2),
}


def lockstep_starts(case):
    """50 starts; on the edge targets some start inside the failing region."""
    make, dim = LOCKSTEP_CASES[case]
    target = make()
    starts = np.random.default_rng(17).normal(scale=2.0, size=(50, dim))
    return target, starts


def assert_same_result(a, b):
    assert a.minimizer.tobytes() == b.minimizer.tobytes()
    assert a.hessian_approx.tobytes() == b.hessian_approx.tobytes()
    assert (a.f_min, a.status, a.n_iter, a.f_history) == (
        b.f_min, b.status, b.n_iter, b.f_history
    )


class TestLockstepLm:
    """All the starts of a multistart move in lockstep; each start's result
    is its own."""

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_result_does_not_depend_on_the_batch(self, case):
        target, starts = lockstep_starts(case)
        together = minimize_all(target, starts)
        perm = np.random.default_rng(3).permutation(len(starts))
        permuted = minimize_all(target, starts[perm])
        for i, start in enumerate(starts):
            assert_same_result(together[i], minimize(target, start))
        for k, i in enumerate(perm):
            assert_same_result(permuted[k], together[i])

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_matches_the_per_start_reference(self, case):
        target, starts = lockstep_starts(case)
        settings = OptSettings()
        results = minimize_all(target, starts, settings)
        statuses = set()
        for start, result in zip(starts, results):
            ref = reference_lm(target, start, settings)
            assert (result.status, result.n_iter) == (ref.status, ref.n_iter)
            np.testing.assert_allclose(result.minimizer, ref.minimizer, rtol=1e-6)
            statuses.add((result.status, result.n_iter == 0))
        if case != "regression":
            # some starts fail at once; the others converge inside the
            # region, or fail at its edge
            ends = OptStatus.CONVERGED if case.endswith("inside") else OptStatus.FAILED
            assert statuses == {(OptStatus.FAILED, True), (ends, False)}

    def test_one_residual_batch_per_stage(self):
        target, starts = lockstep_starts("regression")
        calls = []
        batch = target.residuals_batch
        target.residuals_batch = lambda thetas: calls.append(len(thetas)) or batch(thetas)
        results = minimize_all(target, starts)
        # the start residuals, then per iteration the stencils of every
        # running start and at least one damping round, then the final stencils
        rounds = max(r.n_iter for r in results)
        assert calls[0] == len(starts) and calls[-1] == 2 * 5 * len(starts)
        assert 2 * rounds + 2 <= len(calls) < sum(r.n_iter for r in results)


def reference_bfgs(target, start, settings):
    """BFGS one start at a time, as it was before the starts moved in
    lockstep, with F taken through `log_density_batch` one point at a time;
    kept as the reference for the lockstep version."""

    def func(point):
        values, failed = target.log_density_batch(np.asarray(point, dtype=float)[None, :])
        return math.inf if failed[0] or not math.isfinite(values[0]) else -float(values[0])

    theta = np.asarray(start, dtype=float)
    fval = func(theta)
    if is_failure(fval):
        return failed_result(theta)
    try:
        grad = reference_gradient(func, theta, settings.rel_step)
    except EvaluationFailed:
        return failed_result(theta)
    hinv = np.eye(theta.size)
    history = [fval]
    status = OptStatus.MAX_ITERATIONS
    it = 0
    for it in range(1, settings.max_iter + 1):
        if np.linalg.norm(grad) <= settings.grad_tol:
            status = OptStatus.CONVERGED
            break
        direction = -hinv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            hinv = np.eye(theta.size)
            direction = -grad
            slope = -float(grad @ grad)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            trial = theta + alpha * direction
            f_trial = func(trial)
            if not is_failure(f_trial) and f_trial <= fval + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            status = OptStatus.FAILED
            break
        try:
            grad_trial = reference_gradient(func, trial, settings.rel_step)
        except EvaluationFailed:
            status = OptStatus.FAILED
            break
        s = alpha * direction
        y = grad_trial - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            left = np.eye(theta.size) - rho * np.outer(s, y)
            hinv = left @ hinv @ left.T + rho * np.outer(s, s)
        df = fval - f_trial
        theta, fval, grad = trial, f_trial, grad_trial
        history.append(fval)
        if df < settings.f_tol * (1.0 + abs(fval)) and (
            np.linalg.norm(grad) <= settings.grad_tol
        ):
            status = OptStatus.CONVERGED
            break
    try:
        hessian = repair_spd_eig(reference_hessian(func, theta, HESSIAN_REL_STEP))
    except EvaluationFailed:
        hessian = repair_spd_eig(np.linalg.pinv(hinv))
    return OptimizationResult(theta, fval, hessian, status, it, tuple(history))


class BoxedGaussian(TargetDensity):
    """A unit normal about `mean` that fails more than 1e-3 from it in any
    coordinate: the gradient stencils (steps near 1e-6) fit inside the box,
    and every Hessian stencil point (steps near 5e-3) lies outside."""

    dimension = 2
    mean = np.array([0.3, -0.2])

    def log_density(self, theta):
        dev = np.asarray(theta, dtype=float) - self.mean
        return FAILURE if np.abs(dev).max() > 1e-3 else -0.5 * float(dev @ dev)


def bfgs_starts(case):
    """100 starts: toy2d prior draws with five outside its cube, normal
    draws about a 3-d Gaussian target, or draws inside BoxedGaussian's box."""
    rng = np.random.default_rng(17)
    if case == "toy2d":
        starts = Toy2DTarget().sample_prior(rng, 100)
        starts[::20] += 12.0
        return Toy2DTarget(), starts
    if case == "gaussian":
        cov = np.array([[1.5, 0.2, 0.1], [0.2, 0.7, 0.0], [0.1, 0.0, 2.0]])
        return GaussianTarget(np.array([2.0, -1.0, 0.5]), cov), rng.normal(scale=3.0, size=(100, 3))
    return BoxedGaussian(), BoxedGaussian.mean + rng.uniform(-5e-4, 5e-4, size=(100, 2))


BFGS_CASES = ["toy2d", "gaussian", "boxed"]


class TestLockstepBfgs:
    """BFGS moves all the starts of a multistart in lockstep; each start's
    result is its own."""

    @pytest.mark.parametrize("case", BFGS_CASES)
    def test_result_does_not_depend_on_the_batch(self, case):
        target, starts = bfgs_starts(case)
        together = minimize_all(target, starts)
        perm = np.random.default_rng(3).permutation(len(starts))
        permuted = minimize_all(target, starts[perm])
        for i, start in enumerate(starts):
            assert_same_result(together[i], minimize(target, start))
        for k, i in enumerate(perm):
            assert_same_result(permuted[k], together[i])

    @pytest.mark.parametrize("case", BFGS_CASES)
    def test_matches_the_per_start_reference(self, case):
        target, starts = bfgs_starts(case)
        settings = OptSettings()
        statuses = set()
        for start, result in zip(starts, minimize_all(target, starts, settings)):
            ref = reference_bfgs(target, start, settings)
            # the reference's products are `@` and dot, the lockstep's einsum:
            # they can differ in the last bit, and the iterations carry that on
            assert (result.status, result.n_iter) == (ref.status, ref.n_iter)
            np.testing.assert_allclose(result.minimizer, ref.minimizer, rtol=1e-8)
            np.testing.assert_allclose(result.f_history, ref.f_history, rtol=1e-9, atol=1e-12)
            scale = np.abs(ref.hessian_approx).max()
            np.testing.assert_allclose(result.hessian_approx, ref.hessian_approx, atol=1e-7 * scale)
            statuses.add(result.status)
        expected = {OptStatus.CONVERGED, OptStatus.FAILED} if case == "toy2d" else {
            OptStatus.CONVERGED}
        assert statuses == expected

    def test_one_density_batch_per_stage(self):
        target, starts = bfgs_starts("toy2d")
        calls, points = [], []
        batch = target.log_density_batch
        target.log_density_batch = lambda thetas: calls.append(len(thetas)) or batch(thetas)
        target.log_density = lambda theta: points.append(theta)
        results = minimize_all(target, starts)
        live = sum(r.status is not OptStatus.FAILED for r in results)
        rounds = max(r.n_iter for r in results)
        # the starts, their gradient stencils, then per iteration at least
        # one backtracking round and the new gradients, then the Hessians
        assert (calls[0], calls[1], calls[-1]) == (len(starts), 2 * 2 * live, 2 * 2**2 * live)
        assert 2 * rounds + 1 <= len(calls) < sum(r.n_iter for r in results)
        assert points == []

    def test_hessian_stencil_failure_falls_back_to_the_inverse_estimate(self):
        target, starts = bfgs_starts("boxed")
        for start, result in zip(starts, minimize_all(target, starts)):
            assert result.status is OptStatus.CONVERGED
            with pytest.raises(EvaluationFailed):
                reference_hessian(target.neg_log_posterior, result.minimizer, HESSIAN_REL_STEP)
            np.linalg.cholesky(result.hessian_approx)
            np.testing.assert_allclose(result.hessian_approx, np.eye(2), atol=1e-4)


class TestOneSidedStencils:
    """A stencil point that fails on one side gives a one-sided quotient from
    the batch and the known centre residuals: nothing is evaluated twice."""

    def test_jacobian_matches_the_reference(self):
        target = edge_target("failure", 1.3)
        # theta_0 on, or within a step of, the model's edge at 1.2
        thetas = np.column_stack([[1.2, 1.2 - 1e-7, 1.2 - 1e-6, 0.4], [0.3, -0.5, 2.0, 1.0]])
        r, failed = target.residuals_batch(thetas)
        assert not failed.any()
        jt, ok = _derivatives(target.residuals_batch, thetas, r, 1e-6)
        assert ok.all()
        for theta, jac in zip(thetas, jt):
            ref = reference_jacobian(target.residuals, theta, 1e-6)
            assert jac.T.tobytes() == ref.tobytes()

    def test_each_stage_evaluates_2n_rows_per_start(self):
        target, starts = lockstep_starts("failure-past-edge")
        evaluated, calls = [], []
        residuals, batch = target.residuals, target.residuals_batch
        target.residuals = lambda theta: evaluated.append(theta) or residuals(theta)

        def counted_batch(thetas):
            r, failed = batch(thetas)
            calls.append(failed)
            return r, failed

        target.residuals_batch = counted_batch
        results = minimize_all(target, starts)
        # every residual evaluated went through a batch
        assert len(evaluated) == sum(failed.size for failed in calls)
        # the stencil batches: 2n rows for each start running at each
        # iteration, then for every start that did not fail at once
        n = starts.shape[1]
        iters = np.array([r.n_iter for r in results])
        live = sum(r.n_iter > 0 for r in results)
        sizes = [2 * n * np.count_nonzero(iters >= it) for it in range(1, iters.max() + 1)]
        stencils = iter(calls[1:])
        one_sided = 0
        for size in sizes + [2 * n * live]:
            failed = next(f for f in stencils if f.size == size).reshape(-1, n, 2)
            one_sided += np.count_nonzero(failed.any(axis=2) & ~failed.all(axis=2))
        assert one_sided > 0

    def test_no_failure_gives_the_central_quotient(self):
        target, starts = lockstep_starts("regression")
        r, failed = target.residuals_batch(starts)
        assert not failed.any()
        jt, ok = _derivatives(target.residuals_batch, starts, r, 1e-6)
        assert ok.all()
        h = 1e-6 * (1.0 + np.abs(starts))
        for j in range(starts.shape[1]):
            step = np.zeros_like(starts)
            step[:, j] = h[:, j]
            up, up_failed = target.residuals_batch(starts + step)
            dn, dn_failed = target.residuals_batch(starts - step)
            assert not (up_failed | dn_failed).any()
            assert jt[:, j].tobytes() == ((up - dn) / (2.0 * h[:, j, None])).tobytes()


def strict_batch(batch, calls):
    """`batch` that records each call's row count and raises on no rows, as
    a user's vectorized override may."""

    def call(thetas):
        calls.append(len(thetas))
        if not len(thetas):
            raise ValueError("empty batch")
        return batch(thetas)

    return call


class TestNoEmptyBatch:
    """No stage calls a batch method with zero rows: a stage with no start
    left is skipped."""

    def test_bfgs_infeasible_start_makes_one_call(self):
        target, calls = Toy2DTarget(), []
        target.log_density_batch = strict_batch(target.log_density_batch, calls)
        assert minimize(target, [20.0, 20.0]).status is OptStatus.FAILED
        assert calls == [1]

    def test_lm_failed_start_makes_one_call(self):
        target, calls = shipped_regression(), []
        target.residuals_batch = strict_batch(target.residuals_batch, calls)
        assert minimize(target, [1e308, 0.0, 0.0, 0.0, 0.0]).status is OptStatus.FAILED
        assert calls == [1]

    @pytest.mark.parametrize(
        "method, starts_for, case",
        [("log_density_batch", bfgs_starts, case) for case in BFGS_CASES]
        + [("residuals_batch", lockstep_starts, case) for case in sorted(LOCKSTEP_CASES)],
    )
    def test_multistart_makes_no_empty_call(self, method, starts_for, case):
        # every start alone and the lockstep batch, some of whose starts fail
        # at once; the strict batch raises on a call with no rows
        target, starts = starts_for(case)
        expected = minimize_all(target, starts)
        setattr(target, method, strict_batch(getattr(target, method), []))
        for result, ref in zip(minimize_all(target, starts), expected):
            assert_same_result(result, ref)
        for start, ref in zip(starts, expected):
            assert_same_result(minimize(target, start), ref)


class EdgeSquares(TargetDensity):
    """2-d least squares about (centre, -0.5) whose vectorized
    `residuals_batch` gives every row past theta_0 = 1 the value `bad`,
    unmasked; its `masked` twin marks those rows failed and fills them with
    NaN itself."""

    dimension = 2

    def __init__(self, bad, centre, masked):
        self.bad, self.centre, self.masked = bad, centre, masked

    def residuals_batch(self, thetas):
        t = np.asarray(thetas, dtype=float)
        r = np.stack([2.0 * (t[:, 0] - self.centre), t[:, 1] + 0.5,
                      0.3 * t[:, 0] * t[:, 1]], axis=1)
        past = t[:, 0] > 1.0
        r[past] = math.nan if self.masked else self.bad
        return r, past & self.masked

    def sample_prior(self, rng, n):
        return rng.uniform(-2.0, 1.5, size=(n, 2))


class TestUnmaskedNonFiniteResiduals:
    """A NaN or +-inf residual row that a vectorized `residuals_batch` leaves
    unmasked fails in Levenberg-Marquardt as if the batch had masked it."""

    @pytest.mark.parametrize("centre", [0.8, 1.05])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_multistart_equals_the_masked_twin(self, bad, centre):
        results = multistart(EdgeSquares(bad, centre, False), 10, np.random.default_rng(5))
        twins = multistart(EdgeSquares(bad, centre, True), 10, np.random.default_rng(5))
        for result, twin in zip(results, twins, strict=True):
            assert_same_result(result, twin)
        statuses = {result.status for result in results}
        assert OptStatus.FAILED in statuses and len(statuses) > 1
