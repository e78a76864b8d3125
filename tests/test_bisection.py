import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis_subspace, ball
from saddlekit import bisection, geometry
from saddlekit.bisection import (
    bisection_solve,
    default_bracket,
    stationarity_diagnostic,
)
from saddlekit.errors import InvalidBracket
from saddlekit.geometry import inner_max_diameter
from saddlekit.local import _certified_bracket
from saddlekit.objectives import (
    ObjectiveFunction,
    cubic_saddle_problem,
    four_lines_function,
    make_diagonal_quadratic,
    make_quadratic,
)
from saddlekit.outer import default_initial_subspace, outer_min_subspace
from saddlekit.trace import SolverTrace, TraceRecord


def count_outer_calls(monkeypatch):
    """Levels handed to the subspace search by ``bisection_solve``."""
    levels = []

    def counted(f, l, *args, **kwargs):
        levels.append(l)
        return outer_min_subspace(f, l, *args, **kwargs)

    monkeypatch.setattr(bisection, "outer_min_subspace", counted)
    return levels


def certificate(f, U, m):
    return _certified_bracket(f, U, m, default_initial_subspace(f, U, m))


def rotated_quadratic(seed, n, m):
    """0.5 (x - c)^T A (x - c) + v, A rotated with m negative eigenvalues.

    Returns the objective, its saddle c and its critical value v.
    """
    rng = np.random.default_rng(seed)
    lam = np.concatenate([-np.linspace(1.0, 2.0, m), np.linspace(0.5, 2.0, n - m)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * lam) @ q.T
    a = a + a.T  # symmetric, eigenvalues 2 lam
    c = rng.uniform(-1.0, 1.0, n)
    v = float(rng.uniform(-1.0, 1.0))
    return make_quadratic(a, -a @ c, 0.5 * float(c @ a @ c) + v), c, v


class TestBisectionSolve:
    def test_invalid_bracket(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        with pytest.raises(InvalidBracket):
            bisection_solve(f, ball(2, 2.0), 1, 1.0, -1.0)

    def test_saddle_2d(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        (lo, hi), triple, trace = bisection_solve(f, ball(2, 2.0), 1, -1.0, 1.0, max_iter=20)
        assert lo <= 0.0 <= hi
        assert hi - lo == pytest.approx(2.0 * 2.0**-20, rel=1e-12)
        assert np.linalg.norm(f.gradient(triple.midpoint)) <= 1e-3
        assert len(trace) == 20

    def test_saddle_3d_index2(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        (lo, hi), triple, trace = bisection_solve(f, ball(3, 2.0), 2, -1.0, 1.0, max_iter=20)
        assert lo <= 0.0 <= hi
        assert hi - lo <= 4e-6
        assert np.linalg.norm(f.gradient(triple.midpoint)) <= 1e-3

    def test_width_halves_exactly(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        _, _, trace = bisection_solve(f, ball(2, 2.0), 1, -1.0, 1.0, max_iter=12)
        widths = trace.widths()
        for i in range(1, len(widths)):
            assert widths[i] == pytest.approx(0.5 * widths[i - 1], rel=1e-14)
        assert all(r.ratio == 0.5 for r in trace)

    def test_bracket_contains_critical_value_throughout(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        _, _, trace = bisection_solve(f, ball(3, 2.0), 2, -1.0, 1.0, max_iter=15)
        for r in trace:
            assert r.l <= 1e-12 <= r.u + 1e-12

    def test_all_empty_degenerate_run(self):
        # bracket entirely above every value of f in the region: every
        # midpoint tests empty and the upper bound walks down to the lower
        f = make_diagonal_quadratic([1.0, -1.0])  # max on ball(2) is 4
        (lo, hi), _, trace = bisection_solve(f, ball(2, 2.0), 1, 10.0, 11.0, max_iter=12)
        assert lo == 10.0
        assert hi - lo == pytest.approx(2.0**-12, rel=1e-12)
        assert all(r.diameter == 0.0 for r in trace)

    def test_tol_stops_early(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        (lo, hi), _, trace = bisection_solve(
            f, ball(2, 2.0), 1, -1.0, 1.0, tol=0.1, max_iter=50
        )
        assert hi - lo <= 0.1
        assert len(trace) < 50

    def test_monotone_bounds(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        _, _, trace = bisection_solve(f, ball(2, 2.0), 1, -1.0, 1.0, max_iter=15)
        lows = [r.l for r in trace]
        ups = [r.u for r in trace]
        assert all(lows[i] <= lows[i + 1] for i in range(len(lows) - 1))
        assert all(ups[i] >= ups[i + 1] for i in range(len(ups) - 1))

    def test_rotated_coordinates(self, rng):
        base = make_diagonal_quadratic([1.0, -1.0, -3.0])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        f = ObjectiveFunction(
            dim=3,
            f=lambda x: base.value(q @ x),
            grad=lambda x: q.T @ base.gradient(q @ x),
            hess=lambda x: q.T @ base.hessian(q @ x) @ q,
        )
        (lo, hi), triple, _ = bisection_solve(f, ball(3, 2.0), 2, -1.0, 1.0, max_iter=20)
        assert lo <= 0.0 <= hi
        assert np.linalg.norm(f.gradient(triple.midpoint)) <= 1e-3

    def test_off_centre_ball_finds_empty_levels(self):
        # the certificate is refused (the orthogonal-space minimum sits on the
        # ball boundary); the subspace search still finds levels empty, so the
        # upper end moves down from 12 toward min_U f = 4, attained at (2, 0)
        f = make_diagonal_quadratic([1.0, -1.0])
        U = geometry.TrustRegion(np.array([3.0, 0.0]), 1.0)
        (lo, hi), _, trace = bisection_solve(f, U, 1, -1.0, 12.0, tol=1e-6, max_iter=40)
        assert hi < 12.0
        assert any(r.diameter <= 1e-9 for r in trace)


class TestCertifiedBracket:
    """Levels outside the certified bracket are settled without the search."""

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        m_frac=st.floats(0.0, 1.0),
        off=st.floats(0.0, 0.5),
    )
    def test_rotated_quadratics_settle_every_level(self, seed, n, m_frac, off):
        m = min(1 + int(m_frac * (n - 1)), n - 1)
        f, c, v = rotated_quadratic(seed, n, m)
        u = np.random.default_rng(seed + 1).standard_normal(n)
        region = ball(c + off * u / np.linalg.norm(u), 1.0)
        cert = certificate(f, region, m)
        assert cert is not None
        lb, ub, s_cert = cert
        assert lb <= v <= ub
        assert s_cert.dim == m
        with pytest.MonkeyPatch.context() as mp:
            searched = count_outer_calls(mp)
            # offsets off the dyadic grid keep every midpoint away from v
            (lo, hi), _, _ = bisection_solve(
                f, region, m, v - 0.8137, v + 1.2291, tol=1e-5, max_iter=30
            )
        assert lo <= v <= hi
        assert hi - lo <= 1e-5
        assert searched == []

    @pytest.mark.parametrize("seed,n,m", [(2, 4, 2), (3, 5, 1), (4, 6, 3)])
    def test_certified_levels_run_no_cold_slice_solve(self, seed, n, m, monkeypatch):
        # the first level below lb starts from the certificate's quadratic
        # model, so no slice solve has to search for a feasible point
        f, c, v = rotated_quadratic(seed, n, m)
        region = ball(c, 1.0)
        assert certificate(f, region, m) is not None
        searches = []
        find_feasible = geometry._find_feasible

        def counted(sp, l, *args, **kwargs):
            searches.append(l)
            return find_feasible(sp, l, *args, **kwargs)

        monkeypatch.setattr(geometry, "_find_feasible", counted)
        (lo, hi), _, trace = bisection_solve(
            f, region, m, v - 0.8137, v + 1.2291, tol=1e-5, max_iter=30
        )
        assert lo <= v <= hi
        assert any(r.diameter > 1e-9 for r in trace)
        assert searches == []

    def test_empty_rows_record_the_slice_maximiser(self):
        # off the saddle's centre, the projection of the ball centre onto
        # S_cert is no critical point (gradient norm 0.143 here); the
        # maximiser on S_cert is the saddle itself
        f, c, v = rotated_quadratic(3, 4, 2)
        region = ball(c + 0.15 * np.ones(4), 1.0)
        assert certificate(f, region, 2) is not None
        _, _, trace = bisection_solve(
            f, region, 2, v - 0.8137, v + 1.2291, tol=1e-5, max_iter=30
        )
        empty = [r.grad_norm for r in trace if r.diameter <= 1e-9]
        assert empty
        assert max(empty) <= 1e-8

    @pytest.mark.parametrize("depth", [0.05, 0.8])
    @pytest.mark.parametrize(
        "seed,n,m,off",
        [(0, 2, 1, 0.0), (1, 3, 2, 0.8), (2, 4, 2, 0.3), (3, 5, 1, 0.2),
         (4, 6, 3, 0.5), (5, 4, 3, 0.4), (6, 3, 1, 0.8), (7, 5, 2, 0.7)],
    )
    def test_model_seed_finds_the_cold_widest_pair(self, seed, n, m, off, depth):
        # where the model's pair leaves the ball (rotated_quadratic(1, 3, 2)
        # moved 0.8 at depth 0.8) the clipped slice is wider along another
        # direction: seeded anyway, the pair stops at 1.100 against 1.264
        f, c, _ = rotated_quadratic(seed, n, m)
        u = np.random.default_rng(seed + 1).standard_normal(n)
        region = ball(c + off * u / np.linalg.norm(u), 1.0)
        lb, _, s_cert = certificate(f, region, m)
        level = lb - depth
        _, _, trace = bisection_solve(f, region, m, level - 1.0, level + 1.0, max_iter=1)
        # the recorded lower bound is the midpoint as rounded
        cold = inner_max_diameter(f, s_cert, trace[0].l, region).diameter
        assert abs(trace[0].diameter - cold) <= 1e-12 * (1.0 + cold)

    @pytest.mark.parametrize(
        "f,region,m,l0,u0,max_iter,expected,l_star",
        [
            # l* = 0 on the line x = y = 0 through the centre
            (four_lines_function().objective, ball(3, 0.5), 2, -1.0, 1.3, 3,
             (-0.13749999999999998, 0.15000000000000002), 0.0),
            # the saddle lies outside the ball, the restriction's l* inside
            (make_diagonal_quadratic([1.0, -1.0]), ball([0.0, 3.0], 1.0), 1, -20.0, 1.0, 6,
             (-15.078125, -14.75), None),
            # no Hessian, and a zero finite-difference one
            (ObjectiveFunction(dim=2, f=lambda x: 3.0, grad=lambda x: np.zeros(2)),
             ball(2, 2.0), 1, 0.0, 1.0, 8, (0.99609375, 1.0), None),
        ],
        ids=["four-lines", "saddle-outside-ball", "constant"],
    )
    def test_refused_certificate_falls_back_to_the_search(
        self, f, region, m, l0, u0, max_iter, expected, l_star, monkeypatch
    ):
        # expected brackets are those of the search alone
        assert certificate(f, region, m) is None
        searched = count_outer_calls(monkeypatch)
        bracket, _, trace = bisection_solve(f, region, m, l0, u0, max_iter=max_iter)
        assert len(searched) == len(trace) == max_iter
        assert bracket == expected
        if l_star is not None:
            assert bracket[0] <= l_star <= bracket[1]

    def test_off_centre_cubic_saddle(self, monkeypatch):
        # the benchmark's cubic-saddle bracket with the centre moved off the
        # saddle; the search alone finds empty chords along the boundary
        # there and ends at [-0.964, -0.964], which misses l* = 0
        f = cubic_saddle_problem().objective
        searched = count_outer_calls(monkeypatch)
        (lo, hi), triple, _ = bisection_solve(
            f, ball(np.array([0.5, 0.5]) / np.sqrt(2.0), 1.0), 1,
            -1.1023224268498633, 1.1096982286828247, tol=1e-6, max_iter=60,
        )
        assert lo <= 0.0 <= hi
        assert hi - lo <= 1e-6
        assert searched == []
        assert np.linalg.norm(f.gradient(triple.midpoint)) <= 1e-6

    def test_classification_matches_the_search_level_by_level(self, monkeypatch):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        region = ball(3, 2.0)
        searched = count_outer_calls(monkeypatch)
        lo, hi = -0.9, 1.1
        _, _, trace = bisection_solve(f, region, 2, lo, hi, max_iter=8)
        assert searched == []
        assert len(trace) == 8
        for r in trace:
            empty = r.u < hi
            mid = r.u if empty else r.l
            direct = outer_min_subspace(f, mid, region, 2)
            assert (direct.diameter <= 1e-9) == empty
            assert (r.diameter <= 1e-9) == empty
            lo, hi = r.l, r.u

    def test_polish_outside_the_domain_fails_the_polish_not_the_run(self):
        # Newton iterates of the pair polish once walked to z = -41.9, where
        # four-lines is undefined, and the DomainViolation ended the run
        f = four_lines_function().objective
        (lo, hi), _, trace = bisection_solve(
            f, ball(3, 0.5), 1, -1.0, 1.3, tol=1e-6, max_iter=40
        )
        assert lo < hi
        assert hi - lo <= 1e-6
        assert len(trace) == 22


class TestModelPair:
    """The quadratic model's pair on x1^2 - x2^2 - 3 x3^2 at its saddle."""

    f = make_diagonal_quadratic([1.0, -1.0, -3.0])

    def _model_pair(self, f, axes, level):
        return bisection._model_pair(f, axis_subspace(3, axes), level, ball(3, 2.0))

    def test_concave_frame_below_the_top(self):
        x, y = self._model_pair(self.f, [1, 2], -1.0)
        assert np.allclose(np.sort([x[1], y[1]]), [-1.0, 1.0], atol=1e-12)
        assert x[0] == y[0] == x[2] == y[2] == 0.0

    def test_failing_hessian(self):
        f = ObjectiveFunction(3, self.f.f, self.f.grad, lambda x: np.full((3, 3), np.nan))
        assert self._model_pair(f, [1, 2], -1.0) is None

    def test_frame_without_negative_curvature(self):
        assert self._model_pair(self.f, [0, 1], -1.0) is None

    @pytest.mark.parametrize("level", [0.0, 0.5])
    def test_level_at_or_above_the_top(self, level):
        assert self._model_pair(self.f, [1, 2], level) is None


class TestDefaultBracket:
    def test_bounds_sampled_values(self, rng):
        f = make_diagonal_quadratic([1.0, -1.0])
        region = ball(2, 2.0)
        lo, hi = default_bracket(f, region, rng=rng)
        assert lo < hi
        assert lo <= f.value(region.center)
        assert hi >= f.value(region.center) + 1.0

    def test_deterministic(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        region = ball(2, 2.0)
        a = default_bracket(f, region, rng=np.random.default_rng(5))
        b = default_bracket(f, region, rng=np.random.default_rng(5))
        assert a == b


def classify(f, lvl, m):
    """One bisection step on a bracket centred at ``lvl``, radius-2 ball.

    Returns the bracket after the step and the recorded diameter of the
    outer search at the midpoint level.
    """
    region = ball(f.dim, 2.0)
    (lo, hi), _, trace = bisection_solve(f, region, m, lvl - 1.0, lvl + 1.0, max_iter=1)
    assert len(trace) == 1
    return lo, hi, trace[0].diameter


class TestLevelClassification:
    """A nonempty minimized slice raises the lower end; an empty one lowers the upper."""

    def test_above_local_max(self):
        # no superlevel point anywhere in the region
        f = make_diagonal_quadratic([1.0, -1.0])
        lo, hi, diam = classify(f, 10.0, 1)
        assert (lo, hi) == (9.0, 10.0)
        assert diam <= 1e-9

    def test_below_critical_value(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        lo, hi, diam = classify(f, -1.0, 1)
        assert (lo, hi) == (-1.0, 0.0)
        assert diam == pytest.approx(2.0, abs=1e-9)

    def test_slightly_below_critical(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        lvl = -1e-4
        lo, hi, diam = classify(f, lvl, 1)
        assert lo == pytest.approx(lvl, abs=1e-15)
        assert hi == lvl + 1.0
        assert diam == pytest.approx(2.0 * np.sqrt(-lvl), abs=1e-8)

    def test_above_critical_is_empty(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        lo, hi, diam = classify(f, 0.5, 1)
        assert (lo, hi) == (-0.5, 0.5)
        assert diam <= 1e-9

    def test_monotone_in_level(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        diams = [classify(f, lvl, 2)[2] for lvl in (-1.0, -0.5, -0.1, -0.01)]
        assert all(diams[i] >= diams[i + 1] - 1e-9 for i in range(len(diams) - 1))


class TestStationarityDiagnostic:
    def test_converged_quadratic_run(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        _, _, trace = bisection_solve(f, ball(2, 2.0), 1, -1.0, 1.0, max_iter=20)
        report = stationarity_diagnostic(f, trace)
        assert report.converged
        assert not report.not_converging
        assert report.grad_norms[-1] <= 1e-4

    def test_constant_function(self):
        f = ObjectiveFunction(dim=2, f=lambda x: 3.0, grad=lambda x: np.zeros(2))
        _, _, trace = bisection_solve(f, ball(2, 2.0), 1, 0.0, 1.0, max_iter=8)
        report = stationarity_diagnostic(f, trace)
        assert all(g == 0.0 for g in report.grad_norms)

    def test_not_converging_flag(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        trace = SolverTrace()
        for i in range(5):
            trace.append(TraceRecord(
                iter=i, l=-1.0, u=1.0, diameter=2.0, kkt_residual=0.0,
                z=np.zeros(2), grad_norm=1.0, ratio=0.5,
            ))
        report = stationarity_diagnostic(f, trace)
        assert report.not_converging
        assert not report.converged

    def test_empty_trace_rejected(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        with pytest.raises(ValueError):
            stationarity_diagnostic(f, SolverTrace())
