import numpy as np
import pytest

from saddlekit.newton import trust_region_minimize


def cosh_bowl(calls):
    """sum(cosh(w)): strictly convex, Hessian diag(cosh(w)) varies with w."""

    def hessian(w):
        calls.append(w.copy())
        return np.diag(np.cosh(w))

    return (lambda w: float(np.sum(np.cosh(w)))), np.sinh, hessian


class TestMinCurvature:
    def test_converged_exit_reports_the_last_decomposition(self):
        calls = []
        value, gradient, hessian = cosh_bowl(calls)
        res = trust_region_minimize(value, gradient, hessian, [0.8, -0.5], np.zeros(2), 2.0)
        assert res.status == "converged"
        assert res.min_curvature == pytest.approx(np.min(np.cosh(res.w)), abs=1e-15)
        # one Hessian per iterate, none after the last
        assert np.array_equal(calls[-1], res.w)

    def test_max_iter_exit_evaluates_the_returned_point(self):
        calls = []
        value, gradient, hessian = cosh_bowl(calls)
        res = trust_region_minimize(
            value, gradient, hessian, [0.8, -0.5], np.zeros(2), 2.0, max_iter=1
        )
        assert res.status == "max_iter"
        assert len(calls) == 2
        assert res.min_curvature == float(np.min(np.cosh(res.w)))

    def test_probe_pays_no_extra_hessian(self):
        # a stop_below run never reads the curvature of its final point
        calls = []
        value, gradient, hessian = cosh_bowl(calls)
        res = trust_region_minimize(
            value, gradient, hessian, [0.8, -0.5], np.zeros(2), 2.0,
            max_iter=1, stop_below=-1.0,
        )
        assert res.status == "max_iter"
        assert len(calls) == 1
        assert np.isnan(res.min_curvature)

    def test_tangential_boundary_exit_reads_the_curvature(self):
        # |w - c|^2 from w0 = c on the unit sphere: the start is on the
        # boundary with no gradient at all
        c = np.array([0.6, 0.8])
        res = trust_region_minimize(
            lambda w: float((w - c) @ (w - c)), lambda w: 2.0 * (w - c),
            lambda w: 2.0 * np.eye(2), c, np.zeros(2), 1.0,
        )
        assert res.status == "converged"
        assert np.array_equal(res.w, c)
        assert res.min_curvature == 2.0


class TestRejectedSteps:
    def test_rejected_steps_reuse_the_iterate_evaluations(self):
        # a value quantised to 1e-6 cannot show the tiny decrease of the
        # steps near the minimum, so they are rejected and the radius shrinks
        # to its floor; none of those rejections moves w
        calls = []
        value, gradient, hessian = cosh_bowl(calls)

        def quantised(w):
            return float(np.floor(value(w) / 1e-6) * 1e-6)

        res = trust_region_minimize(quantised, gradient, hessian, [0.8, -0.5], np.zeros(2), 2.0)
        assert res.status == "converged"
        assert res.grad_norm > 1e-11  # stopped by the radius floor, not the gradient
        iterates = {tuple(w) for w in calls}
        assert len(calls) == len(iterates)
        assert res.grad_norm == np.linalg.norm(np.sinh(res.w))
