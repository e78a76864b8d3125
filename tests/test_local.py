import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import saddlekit.local
import saddlekit.outer
from conftest import axis_subspace, ball, span_subspace
from saddlekit.errors import (
    DomainViolation,
    InsufficientData,
    LowerBoundViolated,
    NonFiniteValue,
    SliceEmpty,
    Unbounded,
)
from saddlekit.geometry import AffineSubspace, OptimizingTriple, inner_max_diameter
from saddlekit.linalg import Frame
from saddlekit.local import (
    _orthogonal_space_min,
    _refine_point_estimate,
    classify_gaps,
    estimate_negative_eigenspace,
    fast_local_solve,
    measure_convergence_rate,
    orthogonal_space_lower_bound,
)
from saddlekit.objectives import (
    ObjectiveFunction,
    cubic_saddle_problem,
    failure_3d_problem,
    make_diagonal_quadratic,
    make_perturbed_quadratic,
    make_quadratic,
)
from saddlekit.outer import outer_min_subspace
from saddlekit.trace import SolverTrace, TraceRecord


def principal_angle(frame_a, frame_b):
    """Largest principal angle between two orthonormal column spans."""
    sv = np.linalg.svd(frame_a.T @ frame_b, compute_uv=False)
    return float(np.arccos(np.clip(sv[-1], -1.0, 1.0)))


def trace_from_levels(levels):
    t = SolverTrace()
    for i, l in enumerate(levels):
        t.append(TraceRecord(
            iter=i, l=float(l), u=None, diameter=0.1, kkt_residual=0.0,
            z=np.zeros(2), grad_norm=0.0, ratio=None,
        ))
    return t


class TestOrthogonalSpaceLowerBound:
    def test_positive_definite_through_origin(self):
        f = make_diagonal_quadratic([1.0, 2.0, -1.0])
        s = axis_subspace(3, [2])
        val = orthogonal_space_lower_bound(f, np.zeros(3), s, ball(3, 2.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_offset(self):
        # restriction to {(0.1 + t, 0.05)} of x1^2 - x2^2 has minimum -0.0025
        f = make_diagonal_quadratic([1.0, -1.0])
        s = axis_subspace(2, [1], base=[0.1, 0.05])
        val = orthogonal_space_lower_bound(f, np.array([0.1, 0.05]), s, ball(2, 2.0))
        assert val == pytest.approx(-0.0025, abs=1e-9)

    def test_concave_restriction_unbounded(self):
        prob = failure_3d_problem()
        base, cols = prob.naive_subspace
        s = AffineSubspace(base, Frame(cols))
        with pytest.raises(Unbounded):
            orthogonal_space_lower_bound(prob.objective, np.zeros(3), s, ball(3, 2.0))

    def test_matrix_norm_lower_bound(self):
        # certified restricted minimum respects the closed-form matrix bound
        # -1/2 |A| (1 + |(V'AV)^-1| |V'| |A|)^2 |z|^2 for the exact quadratic
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        a = 2.0 * np.diag([1.0, -1.0, -3.0])
        z = np.array([0.1, 0.2, 0.05])
        s = axis_subspace(3, [1, 2], base=z)
        val = orthogonal_space_lower_bound(f, z, s, ball(3, 2.0))
        v = np.eye(3)[:, [0]]  # complement frame of the downhill plane
        na = np.linalg.norm(a, 2)
        inv = np.linalg.norm(np.linalg.inv(v.T @ a @ v), 2)
        bound = -0.5 * na * (1.0 + inv * 1.0 * na) ** 2 * float(z @ z)
        assert val >= bound
        assert abs(val) <= 10.0 * float(z @ z)


class TestOrthogonalSpaceMin:
    def test_minimiser_lies_on_the_orthogonal_space_in_the_region(self):
        f = make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], 0.2)
        region = ball(np.full(4, 0.05), 1.0)
        z = np.array([0.1, -0.2, 0.05, 0.3])
        s = span_subspace(z, [0.1, 0.0, 1.0, 0.2], [0.0, -0.1, 0.1, 1.0])
        bound, point = _orthogonal_space_min(f, z, s, region)
        npt.assert_allclose(s.frame.columns.T @ (point - z), 0.0, atol=1e-14)
        assert region.contains(point)
        # away from z: the minimiser carries information the bound alone lacks
        assert np.linalg.norm(point - z) > 0.1

    def test_value_matches_the_public_bound(self):
        # strictly convex restriction: the bound is the value at the point
        f = make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], 0.05)
        region = ball(4, 1.0)
        z = np.array([0.2, 0.1, 0.0, 0.0])
        s = axis_subspace(4, [2, 3], base=z)
        bound, point = _orthogonal_space_min(f, z, s, region)
        assert bound == orthogonal_space_lower_bound(f, z, s, region)
        assert bound == pytest.approx(f.value(point), abs=1e-15)


class TestEigenspaceEstimation:
    def _triple_on(self, f, axes, lvl, region, n):
        s = axis_subspace(n, axes)
        return inner_max_diameter(f, s, lvl, region)

    def test_failure_3d_recovers_downhill_plane(self):
        f = failure_3d_problem().objective
        t = self._triple_on(f, [1, 2], -1.0, ball(3, 2.0), 3)
        est = estimate_negative_eigenspace(f, t, 2)
        angle = principal_angle(est.frame.columns, np.eye(3)[:, 1:])
        assert angle <= 1e-6

    def test_index_one_is_pair_direction(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        t = self._triple_on(f, [1], -1.0, ball(2, 2.0), 2)
        est = estimate_negative_eigenspace(f, t, 1)
        npt.assert_allclose(np.abs(est.frame.columns[:, 0]), [0.0, 1.0], atol=1e-9)

    def test_perturbation_trend(self):
        # estimated plane approaches the true downhill plane as the
        # perturbation shrinks
        region = ball(3, 2.0)
        angles = []
        for delta in (1e-2, 1e-3, 1e-4):
            h = make_perturbed_quadratic([1.0, -1.0, -3.0], delta)
            t = outer_min_subspace(h, -0.5, region, 2, probe_nonunique=False)
            est = estimate_negative_eigenspace(h, t, 2)
            angles.append(principal_angle(est.frame.columns, np.eye(3)[:, 1:]))
        assert angles[0] > angles[1] > angles[2]

    def test_requires_nonzero_diameter(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        s = axis_subspace(2, [1])
        degenerate = OptimizingTriple(
            subspace=s, x=np.zeros(2), y=np.zeros(2), diameter=0.0, empty=True
        )
        with pytest.raises(ValueError):
            estimate_negative_eigenspace(f, degenerate, 1)

    def test_no_negative_curvature_off_the_pair_direction(self):
        # the only negative direction is the pair's own: nothing is left
        # for a second column
        f = make_diagonal_quadratic([1.0, 1.0, -1.0])
        t = self._triple_on(f, [2], -1.0, ball(3, 2.0), 3)
        with pytest.raises(SliceEmpty):
            estimate_negative_eigenspace(f, t, 2)

    def test_index_one_evaluates_no_hessian(self):
        base = make_diagonal_quadratic([1.0, -1.0])

        def hess(x):
            raise AssertionError("hessian evaluated")

        f = ObjectiveFunction(dim=2, f=base.f, grad=base.grad, hess=hess)
        t = self._triple_on(base, [1], -1.0, ball(2, 2.0), 2)
        estimate_negative_eigenspace(f, t, 1)


class TestFastLocal:
    def test_naive_subspace_unbounded(self):
        prob = failure_3d_problem()
        base, cols = prob.naive_subspace
        s_bad = AffineSubspace(base, Frame(cols))
        with pytest.raises(Unbounded):
            fast_local_solve(
                prob.objective, ball(3, 2.0), 2, -1.0,
                naive_subspace=True, S0=s_bad,
            )

    def test_failure_3d_converges_to_origin(self):
        f = failure_3d_problem().objective
        res = fast_local_solve(f, ball(3, 2.0), 2, -1.0, max_iter=10, tol=1e-14)
        assert res.converged
        assert res.iterations <= 10
        assert abs(res.value_estimate) < 1e-10
        assert np.linalg.norm(res.point_estimate) < 1e-5

    def test_exact_subproblems_converge_in_one_step(self):
        # with forcing off the first pair is symmetric to machine precision,
        # its midpoint is the saddle, and the next level is essentially zero
        f = failure_3d_problem().objective
        res = fast_local_solve(
            f, ball(3, 2.0), 2, -1.0, max_iter=3, tol=0.0, forcing=0.0
        )
        assert abs(res.trace[0].l) < 1e-12
        assert np.linalg.norm(res.trace[0].z) < 1e-8

    def test_levels_monotone_and_below_critical(self):
        f = failure_3d_problem().objective
        res = fast_local_solve(f, ball(3, 2.0), 2, -1.0, max_iter=10, tol=0.0)
        levels = [r.l for r in res.trace]
        assert all(levels[i] <= levels[i + 1] + 1e-15 for i in range(len(levels) - 1))
        assert all(l <= 1e-10 for l in levels)

    def test_cubic_saddle_superlinear(self):
        prob = cubic_saddle_problem()
        res = fast_local_solve(prob.objective, ball(2, 1.5), 1, -0.5, max_iter=10, tol=1e-14)
        assert len(res.trace) >= 4
        rate = measure_convergence_rate(res.trace, true_value=0.0)
        assert rate.classification == "Superlinear"
        assert np.linalg.norm(res.point_estimate) < 1e-4

    def test_stored_critical_value_is_the_rate_reference(self):
        prob = cubic_saddle_problem()
        res = fast_local_solve(
            prob.objective, ball(2, 1.5), 1, -0.5, max_iter=10, tol=1e-14,
            critical_value=0.0,
        )
        assert res.trace.critical_value == 0.0
        assert res.rate.reference == 0.0

    def test_rotated_saddle_point_is_stationary(self):
        # n = 16, m = 2: the final Newton step leaves no gradient behind
        n = 16
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.ones(n)
        lam[-2:] = -1.0
        a = 2.0 * (q * lam) @ q.T
        f = make_quadratic(0.5 * (a + a.T))
        res = fast_local_solve(f, ball(n, 4.0), 2, -0.5, tol=1e-9)
        assert res.converged
        assert np.linalg.norm(f.gradient(res.point_estimate)) <= 1e-12

    def test_invalid_lower_bound_detected(self):
        # no saddle anywhere: the "lower bound" 0.5 exceeds the restricted
        # minimum and the iteration reports it instead of looping
        f = make_diagonal_quadratic([1.0, 1.0])
        with pytest.raises((LowerBoundViolated, SliceEmpty, Unbounded)):
            fast_local_solve(f, ball(2, 2.0), 1, 0.5, max_iter=5)

    def test_midpoint_contraction(self):
        h = make_perturbed_quadratic([1.0, -1.0, -3.0], 1e-3)
        res = fast_local_solve(h, ball(3, 1.5), 2, -0.3, max_iter=8, tol=1e-13)
        final = res.trace[-1]
        prev_level = res.trace[-2].l if len(res.trace) > 1 else -0.3
        assert float(final.z @ final.z) / abs(prev_level) < 0.1

    def test_rotated_coordinates(self, rng):
        # nothing may depend on axis alignment of the eigenvectors
        from saddlekit.objectives import ObjectiveFunction

        base = make_diagonal_quadratic([1.0, -1.0, -3.0])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        f = ObjectiveFunction(
            dim=3,
            f=lambda x: base.value(q @ x),
            grad=lambda x: q.T @ base.gradient(q @ x),
            hess=lambda x: q.T @ base.hessian(q @ x) @ q,
        )
        res = fast_local_solve(f, ball(3, 2.0), 2, -1.0, max_iter=10, tol=1e-14)
        assert res.converged
        assert abs(res.value_estimate) < 1e-10
        rate = measure_convergence_rate(res.trace, true_value=0.0)
        assert rate.classification == "Superlinear"


class TestOffCentre:
    @pytest.mark.parametrize("l0", [-0.3, -0.1])
    @pytest.mark.parametrize("off", [0.0, 0.02, 0.1])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
    def test_converges(self, delta, off, l0):
        # the trust centre off the saddle: the Hessian eigenspace at the
        # centre is not the best subspace, and its base lies off the positive
        # directions
        f = make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], delta)
        region = ball(np.full(4, off / 2.0), 1.0)
        res = fast_local_solve(f, region, 2, l0, tol=1e-12, rng=np.random.default_rng(0))
        assert res.converged
        assert abs(res.value_estimate) <= 1e-12
        assert np.linalg.norm(f.gradient(res.point_estimate)) <= 1e-10

    @pytest.mark.parametrize("delta", [0.05, 0.2])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("m", [2, 3])
    def test_rotated_higher_index(self, m, seed, delta):
        # a rotated objective and a centre 0.2 off the saddle at index >= 2:
        # the eigenspace estimate must find the negative directions off the
        # pair direction without leaving the basin
        rng = np.random.default_rng(seed)
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        u = rng.standard_normal(4)
        h = make_perturbed_quadratic(
            np.concatenate([np.linspace(0.5, 2.0, 4 - m), -np.linspace(1.0, 2.0, m)]), delta
        )
        f = ObjectiveFunction(
            4,
            lambda x: h.value(q_mat @ x),
            lambda x: q_mat.T @ h.gradient(q_mat @ x),
            lambda x: q_mat.T @ h.hessian(q_mat @ x) @ q_mat,
        )
        region = ball(0.2 * u / np.linalg.norm(u), 1.0)
        res = fast_local_solve(f, region, m, -0.1, tol=1e-12, rng=np.random.default_rng(0))
        assert res.converged
        assert abs(res.value_estimate) <= 1e-12
        assert np.linalg.norm(f.gradient(res.point_estimate)) <= 1e-10


class TestShiftedCriticalValue:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [5.0, -3.0, 100.0])
    @pytest.mark.parametrize("base", [
        failure_3d_problem().objective,
        make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], 0.05),
    ], ids=["failure-3d", "perturbed"])
    def test_converges_at_a_nonzero_critical_value(self, base, c, seed):
        # f + c has its critical value at c: the level reaches c in floating
        # point and stops rising, a gap that no tolerance tied to 0 would see
        f = ObjectiveFunction(
            base.dim, lambda x: base.value(x) + c, base.gradient, base.hessian
        )
        res = fast_local_solve(
            f, ball(base.dim, 1.0), 2, c - 0.3, tol=1e-12, rng=np.random.default_rng(seed)
        )
        assert res.converged
        assert abs(res.value_estimate - c) <= 1e-12 * (1.0 + abs(c))


class TestCoordinateInvariance:
    """The local method does not depend on the coordinates: for
    g(x) = f(Qx + c), with Q orthogonal and the trust region mapped along,
    the level and the point come out the same.  The trust centre sits up to
    0.1 off the saddle in a random direction."""

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        delta=st.floats(0.0, 0.2),
        shift=st.floats(0.0, 3.0),
        off=st.floats(0.0, 0.1),
    )
    @example(seed=0, delta=0.0, shift=2.0, off=0.0)
    def test_level_and_point_invariant(self, seed, delta, shift, off):
        rng = np.random.default_rng(seed)
        f = make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], delta)
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        c = rng.standard_normal(4)
        c *= shift / np.linalg.norm(c)
        u = rng.standard_normal(4)
        centre = off * u / np.linalg.norm(u)
        g = ObjectiveFunction(
            4,
            lambda x: f.value(q_mat @ x + c),
            lambda x: q_mat.T @ f.gradient(q_mat @ x + c),
            lambda x: q_mat.T @ f.hessian(q_mat @ x + c) @ q_mat,
        )
        res_f = fast_local_solve(
            f, ball(centre, 1.0), 2, -0.3, tol=1e-12, rng=np.random.default_rng(0)
        )
        res_g = fast_local_solve(
            g, ball(q_mat.T @ (centre - c), 1.0), 2, -0.3, tol=1e-12,
            rng=np.random.default_rng(0),
        )
        assert res_f.converged and res_g.converged
        assert abs(res_g.value_estimate - res_f.value_estimate) <= 1e-12
        mapped = q_mat @ res_g.point_estimate + c
        assert np.linalg.norm(mapped - res_f.point_estimate) <= 1e-8


class TestLoopStructure:
    def _count_calls(self, monkeypatch):
        calls = {"inner": 0, "outer": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            saddlekit.local, "inner_max_diameter", counted("inner", inner_max_diameter)
        )
        outer = counted("outer", outer_min_subspace)
        monkeypatch.setattr(saddlekit.local, "outer_min_subspace", outer)
        monkeypatch.setattr(saddlekit.outer, "outer_min_subspace", outer)
        return calls

    @pytest.mark.parametrize("forcing", [0.3, 0.0])
    def test_one_inner_solve_per_iteration(self, monkeypatch, forcing):
        calls = self._count_calls(monkeypatch)
        f = make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], 0.05)
        res = fast_local_solve(f, ball(np.full(4, 0.05), 1.0), 2, -0.3, tol=1e-12, forcing=forcing)
        assert res.converged
        assert calls == {"inner": res.iterations, "outer": 0}

    def test_naive_path_one_inner_solve_per_iteration(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        prob = failure_3d_problem()
        base, cols = prob.naive_subspace
        with pytest.raises(Unbounded):
            fast_local_solve(
                prob.objective, ball(3, 2.0), 2, -1.0,
                naive_subspace=True, S0=AffineSubspace(base, Frame(cols)),
            )
        assert calls == {"inner": 1, "outer": 0}

    def test_next_subspace_is_rebased_at_the_minimiser(self):
        f = make_perturbed_quadratic([1.0, 0.5, -1.0, -0.5], 0.05)
        region = ball(np.full(4, 0.05), 1.0)
        res = fast_local_solve(f, region, 2, -0.3, tol=1e-12)
        assert len(res.states) >= 2
        for prev, state in zip(res.states, res.states[1:]):
            _, point = _orthogonal_space_min(f, prev.midpoint, prev.eigen_subspace, region)
            assert state.triple.subspace.frame is prev.eigen_subspace.frame
            npt.assert_array_equal(state.triple.subspace.base, point)

    def test_supplied_subspace_must_have_dimension_m(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        with pytest.raises(ValueError, match="dimension"):
            fast_local_solve(f, ball(3, 2.0), 2, -1.0, S0=axis_subspace(3, [2]))


class TestRefinePointEstimate:
    def test_newton_step_reaches_the_saddle(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        z = np.array([1e-3, -2e-3, 5e-4])
        npt.assert_allclose(_refine_point_estimate(f, ball(3, 2.0), z), 0.0, atol=1e-15)

    def test_target_outside_region_is_not_evaluated(self):
        # the Newton target is the origin, outside the ball around (1, 0)
        base = make_diagonal_quadratic([1.0, -1.0])
        region = ball([1.0, 0.0], 0.5)

        def grad(x):
            assert region.contains(x), "gradient evaluated outside the region"
            return base.gradient(x)

        f = ObjectiveFunction(dim=2, f=base.f, grad=grad, hess=base.hess)
        z = np.array([1.2, 0.1])
        assert _refine_point_estimate(f, region, z) is z

    def test_step_that_raises_gradient_norm_is_rejected(self):
        # gradient atan(x): from x = 2 Newton overshoots to -3.54, where
        # |atan| is larger
        f = ObjectiveFunction(
            dim=1,
            f=lambda x: float(x[0] * np.arctan(x[0]) - 0.5 * np.log1p(x[0] ** 2)),
            grad=lambda x: np.arctan(x),
            hess=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
        )
        z = np.array([2.0])
        assert _refine_point_estimate(f, ball(1, 5.0), z) is z

    def test_target_outside_domain_keeps_point(self):
        # gradient log(x) on x > 0: from x = 5 Newton lands at 5 (1 - log 5) < 0
        def grad(x):
            if x[0] <= 0.0:
                raise DomainViolation(f"log needs x > 0, got {x[0]}")
            return np.log(x)

        f = ObjectiveFunction(
            dim=1, f=lambda x: float(x[0] * np.log(x[0]) - x[0]), grad=grad,
            hess=lambda x: np.array([[1.0 / x[0]]]),
        )
        z = np.array([5.0])
        assert _refine_point_estimate(f, ball(1, 10.0), z) is z

    def test_singular_hessian_keeps_point(self):
        f = make_quadratic(np.diag([2.0, 0.0]))
        z = np.array([0.1, 0.2])
        assert _refine_point_estimate(f, ball(2, 2.0), z) is z

    def test_non_finite_hessian_keeps_point(self):
        base = make_diagonal_quadratic([1.0, -1.0])
        f = ObjectiveFunction(
            dim=2, f=base.f, grad=base.grad, hess=lambda x: np.full((2, 2), np.nan)
        )
        with pytest.raises(NonFiniteValue):
            f.hessian(np.zeros(2))
        z = np.array([0.1, 0.2])
        assert _refine_point_estimate(f, ball(2, 2.0), z) is z


class TestRateMeasurement:
    def test_geometric_is_linear(self):
        gaps = [1.0, 0.5, 0.25, 0.125]
        ratios, label = classify_gaps(gaps)
        assert label == "Linear"
        npt.assert_allclose(ratios, 0.5)

    def test_superlinear_sequence(self):
        ratios, label = classify_gaps([1.0, 1e-1, 1e-3, 1e-7])
        assert label == "Superlinear"
        npt.assert_allclose(ratios, [1e-1, 1e-2, 1e-4])

    def test_stalled_sequence(self):
        _, label = classify_gaps([1.0, 0.99, 0.985, 0.984])
        assert label == "Stalled"

    def test_requires_four_records(self):
        with pytest.raises(InsufficientData):
            measure_convergence_rate(trace_from_levels([-1.0, -0.5]))

    def test_levels_against_true_value(self):
        t = trace_from_levels([-1e-1, -1e-3, -1e-7, -1e-15])
        rate = measure_convergence_rate(t, true_value=0.0)
        assert rate.classification == "Superlinear"

    def test_repeated_stop_level_is_not_a_rate_sample(self):
        # levels of the README fast-local run on failure-3d (--tol 1e-30):
        # the last record repeats the level that the bound could not raise
        gaps = [
            3.6370033906938096e-08,
            5.997580661980079e-18,
            7.3748648193147636e-30,
            2.4067657706341365e-44,
        ]
        t = trace_from_levels([-g for g in gaps] + [-gaps[-1]])
        rate = measure_convergence_rate(t, true_value=0.0)
        assert rate.classification == "Superlinear"
        npt.assert_array_equal(rate.ratios, np.array(gaps[1:]) / np.array(gaps[:-1]))
        npt.assert_allclose(rate.ratios, [1.65e-10, 1.23e-12, 3.26e-15], rtol=5e-3)

    def test_stored_critical_value_is_the_reference(self):
        t = trace_from_levels([-1e-1, -1e-3, -1e-7, -1e-15])
        t.critical_value = 0.0
        assert measure_convergence_rate(t).reference == 0.0
        assert measure_convergence_rate(t, true_value=-1.0).reference == -1.0

    def test_aitken_reference(self):
        # geometric decay: the extrapolated limit recovers 0 well enough to
        # classify the rate as linear at ratio 1/2
        levels = [-(0.5**i) for i in range(8)]
        rate = measure_convergence_rate(trace_from_levels(levels))
        assert rate.classification == "Linear"
        assert rate.mean_ratio == pytest.approx(0.5, abs=0.02)

    def test_bracket_trace_uses_widths(self):
        t = SolverTrace()
        lo, hi = -1.0, 1.0
        for i in range(6):
            hi = 0.5 * (lo + hi)
            t.append(TraceRecord(
                iter=i, l=lo, u=hi, diameter=1.0, kkt_residual=0.0,
                z=np.zeros(1), grad_norm=0.0, ratio=0.5,
            ))
        rate = measure_convergence_rate(t)
        assert rate.classification == "Linear"
        assert rate.mean_ratio == pytest.approx(0.5, abs=1e-12)
