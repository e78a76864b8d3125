import numpy as np
import pytest

from conftest import ball
from saddlekit.geometry import AffineSubspace, quadratic_minmax_exact
from saddlekit.linalg import Frame
from saddlekit.objectives import ObjectiveFunction, make_diagonal_quadratic
from saddlekit.outer import default_initial_subspace, outer_min_subspace


def conjugated(f, q):
    """x -> f(Qx) with exact derivatives."""
    return ObjectiveFunction(
        dim=f.dim,
        f=lambda x: f.value(q @ x),
        grad=lambda x: q.T @ f.gradient(q @ x),
        hess=lambda x: q.T @ f.hessian(q @ x) @ q,
    )


class TestOuterMinSubspace:
    def test_full_space_index(self):
        # m = n: no rotations exist, the solve reduces to one inner problem
        f = make_diagonal_quadratic([1.0, -1.0])
        t = outer_min_subspace(f, -1.0, ball(2, 2.0), 2)
        assert t.subspace.dim == 2
        # the superlevel set meets the ball out to its rim along the x1 axis
        assert t.diameter == pytest.approx(4.0, abs=1e-6)
        assert t.boundary_hit

    def test_saddle_line(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        t = outer_min_subspace(f, -1.0, ball(2, 2.0), 1)
        assert t.diameter == pytest.approx(2.0, abs=1e-9)
        # minimizing line is the downhill axis
        v = t.subspace.frame.columns[:, 0]
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form(self):
        for coeffs, m in (
            ([2.0, -0.7], 1),
            ([1.0, -1.0, -3.0], 2),
            ([1.5, 1.0, -0.5, -2.0], 2),
        ):
            f = make_diagonal_quadratic(coeffs)
            lvl = -0.8
            t = outer_min_subspace(f, lvl, ball(len(coeffs), 3.0), m)
            expect = quadratic_minmax_exact(coeffs, lvl).diameter
            assert t.diameter == pytest.approx(expect, abs=1e-6)

    def test_recovers_from_rotated_start(self):
        # start 30 degrees off the downhill axis (inside the descent basin;
        # a start past 45 degrees puts the slice on the ball-diameter plateau
        # where no local rotation helps, which global search is not promised)
        f = make_diagonal_quadratic([1.0, -1.0])
        psi = np.pi / 6.0
        s0 = AffineSubspace(np.zeros(2), Frame(np.array([[np.sin(psi)], [np.cos(psi)]])))
        t = outer_min_subspace(f, -1.0, ball(2, 2.0), 1, S0=s0)
        assert t.diameter == pytest.approx(2.0, abs=1e-6)

    def test_rotation_invariance(self, rng):
        f = make_diagonal_quadratic([1.0, 0.5, -1.0, -2.0])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        fq = conjugated(f, q)
        lvl = -0.6
        t1 = outer_min_subspace(f, lvl, ball(4, 3.0), 2)
        t2 = outer_min_subspace(fq, lvl, ball(4, 3.0), 2)
        assert t1.diameter == pytest.approx(t2.diameter, abs=1e-6)

    def test_index_validation(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        with pytest.raises(ValueError):
            outer_min_subspace(f, -1.0, ball(2, 2.0), 3)


class TestDefaultInitialSubspace:
    def test_non_finite_hessian_falls_back_to_the_last_axes(self):
        f = ObjectiveFunction(
            dim=4,
            f=lambda x: float(x @ x),
            grad=lambda x: 2.0 * x,
            hess=lambda x: np.full((4, 4), np.nan),
        )
        center = np.array([0.1, 0.2, 0.3, 0.4])
        s = default_initial_subspace(f, ball(center, 1.0), 2)
        assert np.array_equal(s.base, center)
        assert np.array_equal(s.frame.columns, np.eye(4)[:, 2:])
