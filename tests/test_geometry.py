import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis_subspace, ball, span_subspace
from saddlekit import geometry
from saddlekit.errors import BadSignature, NonUniqueWarning, SliceEmpty, ZeroGradient
from saddlekit.geometry import (
    AffineSubspace,
    TrustRegion,
    _off_axis_ray,
    _pull_to_level,
    _SliceProblem,
    brute_force_diameter,
    closest_point_on_slice,
    inner_max_diameter,
    isosceles_min_segment,
    isosceles_segment_length,
    opposite_gradient_residual,
    quadratic_minmax_exact,
)
from saddlekit.linalg import Frame
from saddlekit.objectives import (
    ObjectiveFunction,
    cubic_saddle_problem,
    failure_3d_problem,
    four_lines_function,
    make_diagonal_quadratic,
    make_perturbed_quadratic,
    make_quadratic,
)


def _oracle_quadratic_slices():
    """(f, S, l, U, resolution): the quadratic slices of acceptance criterion
    9, and 3-D slices of x1^2 - x2^2 - 2 x3^2 - 3 x4^2 tilted by <= 0.03 rad
    off its negative eigenspace, near their top and well below it."""
    quad2 = make_diagonal_quadratic([1.0, -1.0])
    quad2b = make_diagonal_quadratic([2.0, -0.5])
    quad3 = make_diagonal_quadratic([1.0, -1.0, -3.0])
    quad4 = make_diagonal_quadratic([1.0, -1.0, -2.0, -3.0])
    tilted = span_subspace([0.0, 0.0], [np.sin(np.pi / 6.0), np.cos(np.pi / 6.0)])
    base, cols = failure_3d_problem().naive_subspace
    cases = [
        (quad2, axis_subspace(2, [1]), -1.0, ball(2, 2.0), 64),
        (quad2, axis_subspace(2, [1]), -0.25, ball(2, 2.0), 64),
        (quad2, tilted, -0.5, ball(2, 2.0), 64),
        (quad2b, axis_subspace(2, [1]), -0.8, ball(2, 3.0), 64),
        (quad3, axis_subspace(3, [1, 2]), -1.0, ball(3, 2.0), 64),
        (quad3, AffineSubspace(base, Frame(cols)), -1.0, ball(3, 2.0), 64),
        (quad3, axis_subspace(3, [0, 1]), -0.5, ball(3, 2.0), 64),
        (quad3, axis_subspace(3, [1, 2], base=[0.1, 0.0, 0.0]), -0.5, ball(3, 2.0), 64),
    ]
    rng = np.random.default_rng(5)
    for depth in (0.05, 0.05, 0.8, 0.8):
        skew = rng.standard_normal((4, 4))
        skew = 0.015 * (skew - skew.T) / np.linalg.norm(skew - skew.T, 2)
        tilt = np.linalg.solve(np.eye(4) - skew, np.eye(4) + skew)  # Cayley: a rotation
        s = AffineSubspace(tilt[:, 0] * rng.uniform(-0.05, 0.05), Frame(tilt[:, 1:]))
        h = s.frame.columns.T @ quad4.hessian(s.base) @ s.frame.columns
        top = quad4.value(s.from_local(np.linalg.solve(h, -(s.frame.columns.T @ quad4.gradient(s.base)))))
        cases.append((quad4, s, top - depth, ball(4, 1.0), 48))
    return cases


def golden_section_min(fun, lo, hi, tol=1e-10):
    """Independent 1-d minimization oracle."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


class TestInnerMaxDiameter:
    def test_saddle_slice_pair(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        s = axis_subspace(2, [1])
        t = inner_max_diameter(f, s, -1.0, ball(2, 2.0))
        assert t.diameter == pytest.approx(2.0, abs=1e-9)
        pair = {tuple(np.round(t.x, 6)), tuple(np.round(t.y, 6))}
        assert pair == {(0.0, 1.0), (0.0, -1.0)}
        assert t.kkt_residual <= 1e-6
        assert t.converged and not t.empty and not t.non_unique

    def test_degenerate_point_slice(self):
        # at the critical level the slice on the downhill axis is one point
        f = make_diagonal_quadratic([1.0, -1.0])
        t = inner_max_diameter(f, axis_subspace(2, [1]), 0.0, ball(2, 2.0))
        assert t.diameter <= 3e-6

    def test_empty_slice(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        t = inner_max_diameter(f, axis_subspace(2, [1]), 0.5, ball(2, 2.0))
        assert t.empty and t.diameter == 0.0

    def test_isotropic_disc_non_unique(self):
        prob = failure_3d_problem()
        base, cols = prob.naive_subspace
        s = AffineSubspace(base, Frame(cols))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = inner_max_diameter(prob.objective, s, -1.0, ball(3, 2.0))
        assert t.diameter == pytest.approx(2.0, abs=1e-9)
        assert t.non_unique
        assert any(issubclass(w.category, NonUniqueWarning) for w in caught)

    def test_ellipse_unique_pair(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        t = inner_max_diameter(f, axis_subspace(3, [1, 2]), -1.0, ball(3, 2.0))
        assert t.diameter == pytest.approx(2.0, abs=1e-9)
        assert not t.non_unique
        assert t.kkt_residual <= 1e-6
        # the pair sits on the axis of the least negative coefficient
        assert abs(t.x[1]) == pytest.approx(1.0, abs=1e-6)

    def test_warm_start(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        s = axis_subspace(2, [1])
        warm = (np.array([0.0, 0.8]), np.array([0.0, -0.9]))
        t = inner_max_diameter(f, s, -1.0, ball(2, 2.0), warm_pair=warm)
        assert t.diameter == pytest.approx(2.0, abs=1e-9)

    def test_unpullable_warm_pair_falls_back_to_cold_solve(self):
        # f = 1 - (|x|^2 - 1)^2 >= 0.5 is an annulus of outer radius
        # sqrt(1 + sqrt(0.5)): every diameter of the outer circle is a widest
        # pair.  The gradient vanishes at the origin, so a warm pair there
        # cannot be pulled onto the level and the slice is solved cold,
        # still without the non-uniqueness check of a cold call.
        f = ObjectiveFunction(
            dim=2,
            f=lambda x: 1.0 - (float(x @ x) - 1.0) ** 2,
            grad=lambda x: -4.0 * (float(x @ x) - 1.0) * x,
            hess=lambda x: -4.0 * (float(x @ x) - 1.0) * np.eye(2) - 8.0 * np.outer(x, x),
        )
        s = AffineSubspace(np.zeros(2), Frame(np.eye(2)))
        expect = 2.0 * np.sqrt(1.0 + np.sqrt(0.5))
        with pytest.warns(NonUniqueWarning):
            cold = inner_max_diameter(f, s, 0.5, ball(2, 2.0))
        assert cold.diameter == pytest.approx(expect, abs=1e-9)
        assert cold.non_unique
        origin = (np.zeros(2), np.zeros(2))
        for forcing in (None, 0.3):
            with warnings.catch_warnings():
                warnings.simplefilter("error", NonUniqueWarning)
                warm = inner_max_diameter(
                    f, s, 0.5, ball(2, 2.0), warm_pair=origin, forcing=forcing
                )
            assert warm.diameter == pytest.approx(expect, abs=1e-9)
            assert not warm.non_unique and not warm.empty
            if forcing is None:
                # the same fixed seeds: the exact retry is the cold solve
                assert warm.diameter == cold.diameter

    @pytest.mark.parametrize("forcing", [None, 0.0])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_solve_escapes_a_minor_axis_along_the_off_axis_ray(self, k, forcing):
        # the ellipse {f >= -1} has its minor axis (length 1) exactly along
        # the first off-axis seed ray, whose seed pair is then stationary;
        # the axis seeds still reach the major axis (length 2)
        u0 = _off_axis_ray(k, 0)
        q, _ = np.linalg.qr(np.column_stack([u0, np.eye(k)[:, : k - 1]]))
        semi_axes = np.array([0.5, 1.0] + [0.75] * (k - 2))
        f = make_quadratic(-2.0 * (q / semi_axes**2) @ q.T)
        s = axis_subspace(k, range(k))
        t = inner_max_diameter(f, s, -1.0, ball(k, 2.0), forcing=forcing)
        assert t.diameter == pytest.approx(2.0, abs=1e-9)
        assert abs(float((t.x - t.y) @ q[:, 1])) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("forcing", [None, 0.3])
    def test_cold_solve_reads_no_random_numbers(self, forcing):
        # the ball centre lies below the level, so the solve seeds a
        # feasible point first; the generator passed in changes no bit
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        s = axis_subspace(3, [1, 2])
        region = ball(np.array([0.0, 0.9, 0.0]), 1.0)
        assert f.value(region.center) < -0.5
        triples = [
            inner_max_diameter(f, s, -0.5, region, rng=rng, forcing=forcing)
            for rng in (None, np.random.default_rng(0), np.random.default_rng(1))
        ]
        for t in triples[1:]:
            assert t.x.tobytes() == triples[0].x.tobytes()
            assert t.y.tobytes() == triples[0].y.tobytes()
            assert t.diameter == triples[0].diameter
            assert not t.empty

    def test_swap_invariance(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        s = axis_subspace(2, [1])
        t = inner_max_diameter(f, s, -1.0, ball(2, 2.0))
        r1 = opposite_gradient_residual(f, t.x, t.y).residual
        r2 = opposite_gradient_residual(f, t.y, t.x).residual
        assert r1 == pytest.approx(r2, abs=1e-14)
        assert np.linalg.norm(t.x - t.y) == pytest.approx(t.diameter, abs=1e-12)

    def test_boundary_hit_flag(self):
        # slice wider than the trust region: the pair pins to the ball
        f = make_diagonal_quadratic([1.0, -1.0])
        t = inner_max_diameter(f, axis_subspace(2, [1]), -9.0, ball(2, 2.0))
        assert t.boundary_hit
        assert t.diameter == pytest.approx(4.0, abs=1e-6)

    def test_no_intersection_raises(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        s = axis_subspace(2, [1], base=[5.0, 0.0])
        with pytest.raises(ValueError):
            inner_max_diameter(f, s, -1.0, ball(2, 2.0))

    def test_envelope_diameter_sandwich(self):
        # on a coefficient-perturbed quadratic the slice diameter stays
        # between the closed forms of the two envelope halves
        coeffs = np.array([1.0, -1.0, -3.0])
        delta = 1e-2
        h = make_perturbed_quadratic(coeffs, delta)
        lvl = -0.5
        t = inner_max_diameter(h, axis_subspace(3, [1, 2]), lvl, ball(3, 2.0))
        lo = 2.0 * np.sqrt(lvl / (coeffs[1] - delta))
        hi = 2.0 * np.sqrt(lvl / (coeffs[1] + delta))
        assert lo - 1e-9 <= t.diameter <= hi + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cold_solve_seeds_each_axis_once(self, k, monkeypatch):
        # a ray and its reverse give one seed pair: k axes and two off-axis
        # rays, each searched in both directions
        rays = [0]
        farthest = geometry._farthest_feasible_on_ray

        def counted(*args, **kwargs):
            rays[0] += 1
            return farthest(*args, **kwargs)

        monkeypatch.setattr(geometry, "_farthest_feasible_on_ray", counted)
        f = make_diagonal_quadratic([1.0, -1.0, -2.0, -3.0])
        t = inner_max_diameter(f, axis_subspace(4, range(1, k + 1)), -1.0, ball(4, 2.0))
        assert t.diameter == pytest.approx(2.0, abs=1e-9)
        assert rays[0] == 2 * (k + 2)


class TestWarmSolveKeepsItsStart:
    """The pulled warm pair is feasible on the slice, so a warm exact solve
    reports at least its width (up to the polish's 1e-6 slack) and never an
    empty or diameter-0 slice.  The pair's stationarity system also has the
    narrower roots p = q and, on an ellipse, the minor axis."""

    @staticmethod
    def pulled_separation(f, s, level, region, warm):
        sp = _SliceProblem(f, s, region)
        tol = 1e-12 * (1.0 + abs(level))
        p, q = (_pull_to_level(sp, sp.clip(s.to_local(w)), level, tol) for w in warm)
        return None if p is None or q is None else float(np.linalg.norm(p - q))

    def test_four_lines_polish_keeps_the_pulled_width(self):
        # the polish-first branch used to keep a pair Newton had narrowed
        # from 0.729 to 0.665; the ascent from the pulled pair reaches the
        # cold solve's 0.746
        f = four_lines_function().objective
        region = TrustRegion(np.zeros(3), 0.5)
        s = AffineSubspace(np.array([0.0, 0.0, 0.0625]), Frame(np.eye(3)[:, :2]))
        w = np.array([0.26, 0.26, 0.0])
        sep = self.pulled_separation(f, s, -0.425, region, (w, -w))
        assert sep == pytest.approx(0.729226, abs=1e-6)
        warm = inner_max_diameter(f, s, -0.425, region, warm_pair=(w, -w))
        with pytest.warns(NonUniqueWarning):
            cold = inner_max_diameter(f, s, -0.425, region)
        assert cold.diameter == pytest.approx(0.745899, abs=1e-6)
        assert warm.diameter == pytest.approx(cold.diameter, abs=1e-9)

    def test_stationary_pair_with_a_negative_multiplier_is_widened(self):
        # on the x1 axis the slice of x1^2 - x2^2 >= 0.25 in the unit ball is
        # [-1, -0.5] and [0.5, 1]; the pair (±0.5, 0) across the gap solves
        # the stationarity system with multiplier -1: the narrowest pair, not
        # a certified widest one
        f = make_diagonal_quadratic([1.0, -1.0])
        w = np.array([0.5, 0.0])
        t = inner_max_diameter(f, axis_subspace(2, [0]), 0.25, ball(2, 1.0), warm_pair=(w, -w))
        assert t.diameter == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("x1, level, warm_level", [
        (0.0, -0.1, -0.12), (0.1, -0.1, -0.08), (0.05, -0.3, -0.29),
    ])
    def test_certified_line_solve_skips_the_ascent(self, x1, level, warm_level):
        # the previous level's widest pair, as the bisection hands it on: a
        # pull, a Newton polish and no probe or ascent (32-42 value calls
        # with them, 10-12 without)
        f = cubic_saddle_problem().objective
        s = axis_subspace(2, [1], base=[x1, 0.0])
        region = ball(2, 1.0)
        prev = inner_max_diameter(f, s, warm_level, region)
        calls = [0]

        def value(x):
            calls[0] += 1
            return f.f(x)

        counted = dataclasses.replace(f, f=value)
        warm = inner_max_diameter(counted, s, level, region, warm_pair=(prev.x, prev.y))
        cold = inner_max_diameter(f, s, level, region)
        assert calls[0] <= 20
        assert warm.diameter == pytest.approx(cold.diameter, abs=1e-12)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        angle=st.floats(0.0, 0.5),
        depth=st.floats(0.005, 0.1),
        spread=st.floats(0.5, 1.5),
    )
    def test_certified_line_diameter_is_the_cold_diameter(self, seed, angle, depth, spread):
        """On a concave line slice, an interval, the only stationary pair
        with positive multipliers is its two ends."""
        rng = np.random.default_rng(seed)
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q_mat.T @ np.diag([2.0, 4.0, -2.0, -6.0]) @ q_mat
        f = make_quadratic(0.5 * (a + a.T))
        # within 0.5 rad of the negative plane the second derivative along
        # the line is at most 4 sin^2 0.5 - 2 cos^2 0.5 < 0
        u_neg = q_mat.T[:, 2:] @ _off_axis_ray(2, 0)
        u_pos = q_mat.T[:, :2] @ _off_axis_ray(2, 1)
        d = np.cos(angle) * u_neg + np.sin(angle) * u_pos
        base = rng.standard_normal(4)
        base *= 0.1 * rng.uniform() / np.linalg.norm(base)
        s = AffineSubspace(base, Frame(d[:, None]))
        region = ball(4, 2.0)
        curv = 0.5 * float(d @ f.hessian(base) @ d)
        vertex = base - (float(d @ f.gradient(base)) / (2.0 * curv)) * d
        level = f.value(vertex) - depth
        half = np.sqrt(depth / -curv)
        warm = (vertex + spread * half * d, vertex - spread * half * d)
        t = inner_max_diameter(f, s, level, region, warm_pair=warm)
        cold = inner_max_diameter(f, s, level, region)
        assert cold.diameter == pytest.approx(2.0 * half, rel=1e-6)
        assert t.diameter == pytest.approx(cold.diameter, abs=1e-6 * (1.0 + cold.diameter))

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(
        problem=st.sampled_from(
            ["rotated-quadratic", "rotated-quadratic-line", "cubic-saddle", "four-lines"]
        ),
        seed=st.integers(0, 2**32 - 1),
        depth=st.floats(0.02, 0.8),
        tilt=st.floats(0.0, 0.3),
        spread=st.floats(0.05, 0.9),
    )
    def test_reported_diameter_is_at_least_the_pulled_warm_pair(
        self, problem, seed, depth, tilt, spread
    ):
        rng = np.random.default_rng(seed)
        if problem.startswith("rotated-quadratic"):
            f0 = make_diagonal_quadratic([1.0, 2.0, -1.0, -3.0])
            q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            f = ObjectiveFunction(
                4,
                lambda y: f0.value(q_mat @ y),
                lambda y: q_mat.T @ f0.gradient(q_mat @ y),
                lambda y: q_mat.T @ f0.hessian(q_mat @ y) @ q_mat,
            )
            neg = q_mat.T[:, 2:] if problem == "rotated-quadratic" else q_mat.T[:, 2:3]
            radius = 1.0
        elif problem == "cubic-saddle":
            f, neg, radius = cubic_saddle_problem().objective, np.eye(2)[:, 1:], 1.0
        else:
            f, neg, radius = four_lines_function().objective, np.eye(3)[:, :2], 0.5
        n, m = neg.shape
        # a plane tilted off the negative directions, off the centre, with a
        # warm pair on it around its base
        frame = np.linalg.qr(neg + tilt * rng.standard_normal((n, m)))[0]
        base = rng.standard_normal(n)
        base *= 0.3 * radius * rng.uniform() / np.linalg.norm(base)
        s = AffineSubspace(base, Frame(frame))
        region = ball(n, radius)
        level = f.value(base) - depth
        d = frame @ rng.standard_normal(m)
        d *= spread * radius / np.linalg.norm(d)
        warm = (base + d, base - d)
        sep = self.pulled_separation(f, s, level, region, warm)
        t = inner_max_diameter(f, s, level, region, warm_pair=warm)
        assert sep is not None
        assert not t.empty and t.diameter > 0.0
        assert t.diameter >= sep - 1e-6 * (1.0 + sep)


class TestPullToLevel:
    @staticmethod
    def counted(fn):
        """``fn`` with a running count of its value calls."""
        calls = [0]

        def value(x):
            calls[0] += 1
            return fn.f(x)

        return ObjectiveFunction(fn.dim, value, fn.grad, fn.hess), calls

    @staticmethod
    def plain_newton_pull(sp, w, l, feas_tol, max_steps=80):
        """The pull without a stall exit, as the reference for well-posed cases."""
        v = sp.phi(w) - l
        for _ in range(max_steps):
            if v >= -feas_tol:
                return w
            g = sp.gphi(w)
            w = sp.clip(w - (v / float(g @ g)) * g)
            v = sp.phi(w) - l
        return None if v < -feas_tol else w

    def test_unresolvable_level_stops_early(self):
        # phi is 1 - |w|^2 floored to a 1e-6 grid, and the level sits 1e-9
        # above a grid value: every Newton step asks phi for a change far
        # below its resolution, so the deficit never shrinks
        q = 1e-6
        smooth = make_diagonal_quadratic([-1.0, -1.0])
        fn = ObjectiveFunction(
            2, lambda x: q * np.floor((1.0 + smooth.f(x)) / q), smooth.grad, smooth.hess
        )
        fn, calls = self.counted(fn)
        sp = _SliceProblem(fn, axis_subspace(2, [0, 1]), ball(2, 2.0))
        w0 = np.array([np.sqrt(0.25 - 0.3 * q), 0.0])
        l = 0.75 + 1e-9
        assert sp.phi(w0) - l < -1e-12
        calls[0] = 0
        assert _pull_to_level(sp, w0, l, 1e-12) is None
        assert calls[0] <= 10

    def test_well_posed_pull_lands_where_plain_newton_does(self):
        fn = make_diagonal_quadratic([1.0, -1.0, -3.0])
        sp = _SliceProblem(fn, axis_subspace(3, [1, 2], base=[0.2, 0.0, 0.0]), ball(3, 2.0))
        w0 = np.array([0.9, 0.4])
        l, feas_tol = -0.5, 1e-12
        w = _pull_to_level(sp, w0, l, feas_tol)
        assert w is not None and sp.phi(w) >= l - feas_tol
        npt.assert_array_equal(w, self.plain_newton_pull(sp, w0, l, feas_tol))


class TestSliceInvariance:
    """The diameter of a slice does not depend on the coordinates: for
    g(y) = f(Qy + c) the slice through the pre-image of S has the same
    diameter as S for f.  The slice is the negative eigenspace of a diagonal
    saddle quadratic, so every superlevel slice is a convex ellipse."""

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(0.0, 3.0),
        level=st.floats(-1.5, -0.2),
    )
    def test_diameter_invariant_under_rotation_and_translation(self, seed, shift, level):
        rng = np.random.default_rng(seed)
        f = make_diagonal_quadratic([1.0, 2.0, -1.0, -3.0])
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        c = rng.standard_normal(4)
        c *= shift / np.linalg.norm(c)
        g = ObjectiveFunction(
            4,
            lambda y: f.value(q_mat @ y + c),
            lambda y: q_mat.T @ f.gradient(q_mat @ y + c),
            lambda y: q_mat.T @ f.hessian(q_mat @ y + c) @ q_mat,
        )
        s_x = axis_subspace(4, [2, 3])
        y0 = q_mat.T @ -c
        s_y = AffineSubspace(y0, Frame(q_mat.T @ s_x.frame.columns))
        t_x = inner_max_diameter(f, s_x, level, ball(4, 2.0))
        t_y = inner_max_diameter(g, s_y, level, ball(y0, 2.0))
        assert t_y.diameter == pytest.approx(t_x.diameter, abs=1e-9)
        assert t_x.diameter == pytest.approx(2.0 * np.sqrt(-level), abs=1e-9)


class TestClosestPoint:
    def test_downhill_axis(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        p = closest_point_on_slice(f, np.zeros(3), -1.0, axis_subspace(3, [2]))
        assert np.linalg.norm(p) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
        assert abs(p[2]) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)

    def test_already_inside(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        z = np.array([0.0, 2.0])  # f = -4 <= -1
        p = closest_point_on_slice(f, z, -1.0, axis_subspace(2, [1], base=z))
        npt.assert_array_equal(p, z)

    def test_distance_two(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        p = closest_point_on_slice(f, np.zeros(2), -4.0, axis_subspace(2, [1]))
        assert np.linalg.norm(p) == pytest.approx(2.0, abs=1e-9)

    def test_slice_empty(self):
        f = make_diagonal_quadratic([1.0, 1.0])  # positive definite
        with pytest.raises(SliceEmpty):
            closest_point_on_slice(f, np.zeros(2), -1.0, axis_subspace(2, [1]), radius=3.0)

    def test_off_subspace_query_rejected(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        with pytest.raises(ValueError):
            closest_point_on_slice(f, np.array([1.0, 0.0]), -1.0, axis_subspace(2, [1]))

    def test_cost_does_not_grow_with_positive_directions(self):
        # only the one negative-curvature direction is searched: the n - 1
        # positive directions add no value calls
        calls = {}
        for n in (4, 64):
            base = make_diagonal_quadratic([1.0] * (n - 1) + [-2.0])
            count = [0]

            def value(x, base=base, count=count):
                count[0] += 1
                return base.f(x)

            f = ObjectiveFunction(n, value, base.grad, base.hess)
            p = closest_point_on_slice(f, np.zeros(n), -0.5, axis_subspace(n, range(n)), radius=4.0)
            assert np.linalg.norm(p) == pytest.approx(0.5, abs=1e-9)
            calls[n] = count[0]
        assert calls[4] == calls[64]

    def test_unresolvable_level_polish_stops_early(self):
        # f = x1^2 - x2^2 floored to a 2^-20 grid, and the level sits 1e-9
        # above a grid value: no point has a level residual below 1e-9, far
        # above the 1e-12 |l| slack, so each Newton polish stops once 3 steps
        # in a row fail to improve instead of running to its step cap
        q = 2.0**-20
        smooth = make_diagonal_quadratic([1.0, -1.0])
        calls = [0]

        def hess(x):
            calls[0] += 1
            return smooth.hess(x)

        fn = ObjectiveFunction(2, lambda x: q * np.floor(smooth.f(x) / q), smooth.grad, hess)
        l = -0.25 + 1e-9
        p = closest_point_on_slice(fn, np.zeros(2), l, axis_subspace(2, [0, 1]), radius=2.0)
        # the sublevel set starts where x2^2 - x1^2 exceeds 0.25 - q
        assert np.linalg.norm(p) == pytest.approx(np.sqrt(0.25 - q), abs=1e-9)
        assert fn.value(p) <= l
        assert calls[0] <= 10

    @pytest.mark.parametrize("level", [-0.1, -0.01, -1e-4])
    @pytest.mark.parametrize("c", [1.0, -1.0, 2.0, -2.0])
    def test_nearer_crossing_wins(self, c, level):
        # x1^2 - x2^2 - 3 x3^2 + c x3^3 on span(e1, e3): the cubic term makes
        # the level crossing along -sign(c) e3 the nearer one
        f = ObjectiveFunction(
            3,
            lambda x: x[0] ** 2 - x[1] ** 2 - 3.0 * x[2] ** 2 + c * x[2] ** 3,
            lambda x: np.array([2.0 * x[0], -2.0 * x[1], -6.0 * x[2] + 3.0 * c * x[2] ** 2]),
            lambda x: np.diag([2.0, -2.0, -6.0 + 6.0 * c * x[2]]),
        )
        p = closest_point_on_slice(f, np.zeros(3), level, axis_subspace(3, [0, 2]))
        roots = np.roots([c, -3.0, 0.0, -level])
        nearer = np.min(np.abs(roots[np.abs(roots.imag) < 1e-12].real))
        assert np.linalg.norm(p) == pytest.approx(nearer, abs=1e-9)
        assert np.sign(p[2]) == -np.sign(c)


class TestOppositeGradientCertificate:
    def test_symmetric_pair_residual_zero(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        cert = opposite_gradient_residual(f, np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        assert cert.residual <= 1e-14
        assert cert.lambda1 == pytest.approx(2.0)
        assert cert.lambda2 == pytest.approx(2.0)
        assert cert.lambda3 == pytest.approx(0.0, abs=1e-14)
        assert cert.lambda4 == pytest.approx(0.0, abs=1e-14)

    def test_four_lines_pair_fails_certificate(self):
        f = four_lines_function().objective
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([-1.0, 0.0, 0.0])
        cert = opposite_gradient_residual(f, x, y)
        # expected value from the known gradients (-8/3, 0, 8/3), (8/3, 0, 8/3)
        expected = 2.0 * np.linalg.norm(
            np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0) - np.array([-1.0, 0.0, 0.0])
        )
        assert cert.residual == pytest.approx(expected, abs=1e-12)
        assert cert.residual > 0.7

    def test_zero_gradient_raises(self):
        f = ObjectiveFunction(dim=2, f=lambda x: 1.0, grad=lambda x: np.zeros(2))
        with pytest.raises(ZeroGradient):
            opposite_gradient_residual(f, np.zeros(2), np.ones(2))

    def test_coincident_points_rejected(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        with pytest.raises(ValueError):
            opposite_gradient_residual(f, np.ones(2), np.ones(2))


class TestIsosceles:
    def test_right_angle_bisector(self):
        assert isosceles_min_segment(np.pi / 4.0, 1.0) == pytest.approx(np.pi / 4.0)

    def test_thirty_degrees(self):
        assert isosceles_min_segment(np.pi / 6.0, 2.5) == pytest.approx(np.pi / 3.0)

    @pytest.mark.parametrize("alpha", [0.3, np.pi / 4.0, 1.2])
    def test_against_golden_section(self, alpha):
        d = 1.7
        theta_opt = isosceles_min_segment(alpha, d)
        lo, hi = 1e-6, np.pi - 2.0 * alpha - 1e-6
        theta_num = golden_section_min(lambda t: isosceles_segment_length(alpha, d, t), lo, hi)
        assert theta_num == pytest.approx(theta_opt, abs=1e-6)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            isosceles_min_segment(0.0, 1.0)
        with pytest.raises(ValueError):
            isosceles_min_segment(np.pi / 4.0, -1.0)


class TestQuadraticMinmaxExact:
    def test_two_dim(self):
        t = quadratic_minmax_exact([1.0, -1.0], -1.0)
        assert t.diameter == pytest.approx(2.0)
        npt.assert_allclose(t.x, [0.0, 1.0])
        npt.assert_allclose(t.y, [0.0, -1.0])

    def test_three_dim(self):
        t = quadratic_minmax_exact([1.0, -1.0, -3.0], -0.25)
        assert t.diameter == pytest.approx(1.0)
        assert t.subspace.dim == 2

    def test_level_to_zero_limit(self):
        d_prev = np.inf
        for lvl in (-1e-2, -1e-4, -1e-6):
            d = quadratic_minmax_exact([2.0, -5.0], lvl).diameter
            assert d < d_prev
            d_prev = d
        assert d_prev < 1e-3

    def test_signature_validation(self):
        with pytest.raises(BadSignature):
            quadratic_minmax_exact([1.0, 2.0, -1.0], -1.0)  # not descending
        with pytest.raises(BadSignature):
            quadratic_minmax_exact([1.0, 0.0, -1.0], -1.0)  # zero entry
        with pytest.raises(BadSignature):
            quadratic_minmax_exact([3.0, 2.0, 1.0], -1.0)  # no negative block
        with pytest.raises(ValueError):
            quadratic_minmax_exact([1.0, -1.0], 0.5)  # level not negative


class TestBruteForce:
    def test_matches_exact_formula(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        t = brute_force_diameter(f, axis_subspace(2, [1]), -1.0, ball(2, 2.0), 128)
        assert abs(t.diameter - 2.0) <= 2.0 * (4.0 / 128.0)

    def test_empty_slice(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        t = brute_force_diameter(f, axis_subspace(2, [1]), 0.5, ball(2, 2.0), 64)
        assert t.empty and t.diameter == 0.0

    def test_cross_validates_inner_solver(self):
        prob = failure_3d_problem()
        base, cols = prob.naive_subspace
        s = AffineSubspace(base, Frame(cols))
        region = ball(3, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t_inner = inner_max_diameter(prob.objective, s, -1.0, region)
        t_bf = brute_force_diameter(prob.objective, s, -1.0, region, 64)
        grid_tol = 2.0 * np.sqrt(2.0) * (2.0 * 2.0 / 63.0)
        assert abs(t_inner.diameter - t_bf.diameter) <= grid_tol
        assert t_inner.diameter >= t_bf.diameter - 1e-9

    def test_validation(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        with pytest.raises(ValueError):
            brute_force_diameter(f, axis_subspace(2, [1]), -1.0, ball(2, 2.0), 16)

    def test_quadratic_makes_no_scalar_value_call(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        calls = [0]

        def value(x):
            calls[0] += 1
            return f.f(x)

        counted = dataclasses.replace(f, f=value)  # keeps f.batch
        t = brute_force_diameter(counted, axis_subspace(3, [1, 2]), -1.0, ball(3, 2.0), 64)
        assert calls[0] == 0 and not t.empty

    @pytest.mark.parametrize("f, s, lvl, region, res", _oracle_quadratic_slices())
    def test_batched_triple_is_bit_identical_to_the_loop(self, f, s, lvl, region, res):
        batched = brute_force_diameter(f, s, lvl, region, res)
        looped = brute_force_diameter(dataclasses.replace(f, batch=None), s, lvl, region, res)
        assert not batched.empty
        assert batched.x.tobytes() == looped.x.tobytes()
        assert batched.y.tobytes() == looped.y.tobytes()
        assert batched.diameter == looped.diameter

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.0, 0.03), offset=st.floats(0.05, 0.9))
    def test_solver_never_below_grid(self, seed, angle, offset):
        """The grid's widest pair is feasible, so the slice solver reaches its
        length.  Slices within ``angle`` rad of the negative eigenspace of
        x1^2 - x2^2 - 3 x3^2 (f concave there), ``offset`` below their top."""
        rng = np.random.default_rng(seed)
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        skew = rng.standard_normal((3, 3))
        skew = np.tan(0.5 * angle) * (skew - skew.T) / np.linalg.norm(skew - skew.T, 2)
        tilt = np.linalg.solve(np.eye(3) - skew, np.eye(3) + skew)  # Cayley: rotation by <= angle
        frame = tilt[:, 1:]
        base = tilt[:, 0] * rng.uniform(-0.02, 0.02)
        s = AffineSubspace(base, Frame(frame))
        h = frame.T @ f.hessian(base) @ frame
        top = f.value(base + frame @ np.linalg.solve(h, -(frame.T @ f.gradient(base))))
        level, region, res = top - offset, ball(3, 1.0), 64
        t_inner = inner_max_diameter(f, s, level, region)
        t_bf = brute_force_diameter(f, s, level, region, res)
        rloc = np.sqrt(1.0 - float(base @ base))
        grid_error = 2.0 * np.sqrt(2.0) * (2.0 * rloc / (res - 1))
        assert t_inner.diameter >= t_bf.diameter - 1e-9 * (1.0 + t_bf.diameter)
        assert t_inner.diameter - t_bf.diameter <= grid_error


class TestContainers:
    def test_trust_region_validation(self):
        with pytest.raises(ValueError):
            TrustRegion(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            TrustRegion(np.zeros(2), float("inf"))

    def test_subspace_roundtrip(self, rng):
        s = span_subspace([1.0, 2.0, 3.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        w = rng.standard_normal(2)
        p = s.from_local(w)
        npt.assert_allclose(s.to_local(p), w, atol=1e-12)
        assert s.contains(p)
        assert not s.contains(p + np.array([1.0, 0.0, -1.0]))

    def test_base_dimension_check(self):
        with pytest.raises(ValueError):
            AffineSubspace(np.zeros(2), Frame(np.eye(3)[:, :1]))
