import numpy as np
import pytest

from conftest import ball
from saddlekit.bisection import (
    bisection_solve,
    default_bracket,
    stationarity_diagnostic,
)
from saddlekit.errors import InvalidBracket
from saddlekit.objectives import ObjectiveFunction, make_diagonal_quadratic
from saddlekit.trace import SolverTrace, TraceRecord


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
