import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from saddlekit.errors import NotConcave, SingularSimplex
from saddlekit.objectives import make_quadratic
from saddlekit.quadfit import (
    SimplexData,
    concave_upper_bound,
    fit_quadratic_rectangular,
    fit_quadratic_square,
)


def simplex_from(f, vertices):
    vertices = np.asarray(vertices, dtype=float)
    return SimplexData(
        vertices=vertices,
        values=np.array([f.value(p) for p in vertices]),
        gradients=np.array([f.gradient(p) for p in vertices]),
    )


def random_quadratic(rng, n):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    c = float(rng.standard_normal())
    return make_quadratic(a, b, c), a, b, c


class TestSquareFit:
    def test_zero_data(self):
        data = SimplexData(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            values=np.zeros(3),
            gradients=np.zeros((3, 2)),
        )
        model = fit_quadratic_square(data)
        npt.assert_array_equal(model.a, np.zeros((2, 2)))
        npt.assert_array_equal(model.b, np.zeros(2))
        assert model.c == 0.0

    def test_worked_example(self):
        # h = 1/2 x' diag(2,-1) x + (1,0)'x + 3 at the unit simplex
        f = make_quadratic(np.diag([2.0, -1.0]), np.array([1.0, 0.0]), 3.0)
        data = simplex_from(f, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        npt.assert_allclose(data.values, [3.0, 5.0, 2.5])
        npt.assert_allclose(data.gradients, [[1.0, 0.0], [3.0, 0.0], [1.0, -1.0]])
        model = fit_quadratic_square(data)
        npt.assert_allclose(model.a, np.diag([2.0, -1.0]), atol=1e-12)
        npt.assert_allclose(model.b, [1.0, 0.0], atol=1e-12)
        assert model.c == pytest.approx(3.0, abs=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            f, a, b, c = random_quadratic(rng, n)
            vertices = rng.standard_normal((n + 1, n))
            data = simplex_from(f, vertices)
            model = fit_quadratic_square(data)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(model.a - a) <= 1e-9 * scale
            assert np.linalg.norm(model.b - b) <= 1e-9 * scale
            assert abs(model.c - c) <= 1e-9 * scale
            x = rng.standard_normal(n)
            assert model.value(x) == pytest.approx(f.value(x), abs=1e-8 * scale)

    def test_singular_simplex(self):
        data = SimplexData(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            values=np.zeros(3),
            gradients=np.zeros((3, 2)),
        )
        with pytest.raises(SingularSimplex):
            fit_quadratic_square(data)

    def test_vertex_count_check(self):
        data = SimplexData(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0]]),
            values=np.zeros(2),
            gradients=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError):
            fit_quadratic_square(data)


class TestRectangularFit:
    def test_exact_on_plane_in_3d(self, rng):
        f, a, _, _ = random_quadratic(rng, 3)
        base = rng.standard_normal(3)
        u = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        v = np.array([0.0, 1.0, 0.0])
        vertices = [base, base + 0.7 * u, base + 0.4 * u + 0.5 * v]
        data = simplex_from(f, vertices)
        model = fit_quadratic_rectangular(data)
        # exactness everywhere on the affine hull
        for _ in range(20):
            s, t = rng.standard_normal(2)
            x = base + s * u + t * v
            assert model.value(x) == pytest.approx(f.value(x), abs=1e-9)
        # vertex values and tangential gradients reproduce
        for p, val, g in zip(data.vertices, data.values, data.gradients):
            assert model.value(p) == pytest.approx(val, abs=1e-9)
            gt = model.hull_frame @ (model.hull_frame.T @ g)
            npt.assert_allclose(model.gradient(p), gt, atol=1e-9)

    def test_two_point_secant_model(self):
        # m = 1: the model is the 1-d quadratic matching both endpoint slopes
        f = make_quadratic(np.diag([2.0]), np.array([0.0]))
        data = simplex_from(f, [[0.0], [1.0]])
        model = fit_quadratic_rectangular(data)
        for t in (0.0, 0.3, 1.0, 2.0):
            assert model.value(np.array([t])) == pytest.approx(t * t, abs=1e-12)

    def test_agrees_with_square_when_full(self, rng):
        f, a, b, c = random_quadratic(rng, 3)
        vertices = rng.standard_normal((4, 3))
        data = simplex_from(f, vertices)
        sq = fit_quadratic_square(data)
        rect = fit_quadratic_rectangular(data)
        # reconstruct the ambient curvature from the reduced model
        q = rect.hull_frame
        a_rect = q @ rect.a @ q.T
        assert np.linalg.norm(a_rect - 0.5 * (sq.a + sq.a.T)) <= 1e-8
        x = rng.standard_normal(3)
        assert rect.value(x) == pytest.approx(sq.value(x), abs=1e-8)

    def test_error_shrinks_quadratically(self, rng):
        # cubic-perturbed quadratic: model error drops at least quadratically
        # with the simplex diameter
        h_mat = np.array([[2.0, 0.3, 0.0], [0.3, -1.0, 0.2], [0.0, 0.2, -3.0]])
        eta = 0.5

        def fval(x):
            return 0.5 * float(x @ h_mat @ x) + eta * float(np.sum(x**3))

        def fgrad(x):
            return h_mat @ x + 3.0 * eta * x**2

        from saddlekit.objectives import ObjectiveFunction

        f = ObjectiveFunction(dim=3, f=fval, grad=fgrad)
        base = np.array([0.2, -0.1, 0.3])
        u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        v = np.array([0.0, 0.0, 1.0])
        errs = []
        for diam in (0.1, 0.01):
            vertices = [base, base + diam * u, base + 0.5 * diam * u + 0.8 * diam * v]
            data = simplex_from(f, vertices)
            model = fit_quadratic_rectangular(data)
            err = 0.0
            for s in np.linspace(0.0, 1.0, 12):
                for t in np.linspace(0.0, 1.0 - s, 12):
                    x = (1 - s - t) * data.vertices[0] + s * data.vertices[1] + t * data.vertices[2]
                    err = max(err, abs(model.value(x) - f.value(x)))
            errs.append(err)
        assert errs[0] / max(errs[1], 1e-300) >= 50.0


class TestConcaveUpperBound:
    def test_one_dimensional_tangents(self):
        # f = -x^2 on [-1, 1]: both facet values equal the boundary value -1
        f = make_quadratic(np.diag([-2.0]))
        data = simplex_from(f, [[-1.0], [1.0]])
        bound = concave_upper_bound(data)
        assert bound == pytest.approx(-1.0, abs=1e-9)
        assert bound >= -1.0 - 1e-9

    def test_affine_function_is_exact(self):
        f = make_quadratic(np.zeros((2, 2)) - 1e-9 * np.eye(2), np.array([1.0, 2.0]), 0.5)
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        data = simplex_from(f, vertices)
        bound = concave_upper_bound(data)
        true_max = max(f.value(np.asarray(p, float)) for p in vertices)
        assert bound == pytest.approx(true_max, abs=1e-6)

    def test_majorizes_boundary_maximum(self, rng):
        # f = -x1^2 - x2^2 on a triangle around the origin
        f = make_quadratic(-2.0 * np.eye(2))
        vertices = np.array([[-1.0, -0.6], [1.2, -0.5], [0.0, 1.1]])
        data = simplex_from(f, vertices)
        bound = concave_upper_bound(data)
        # sampled oracle for the true boundary maximum
        true_max = -np.inf
        for i in range(3):
            a, b = vertices[i], vertices[(i + 1) % 3]
            for t in np.linspace(0.0, 1.0, 1000):
                true_max = max(true_max, f.value((1 - t) * a + t * b))
        assert bound >= true_max - 1e-9
        diam = data.diameter()
        assert bound - true_max <= 0.5 * diam**2 * 2.0

    def test_not_concave_rejected(self):
        f = make_quadratic(2.0 * np.eye(2))
        data = simplex_from(f, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotConcave):
            concave_upper_bound(data)

    def test_caller_veto(self):
        f = make_quadratic(-2.0 * np.eye(2))
        data = simplex_from(f, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotConcave):
            concave_upper_bound(data, curvature_negative=False)

    def test_package_import_loads_no_scipy(self):
        # scipy.optimize alone would triple the package's import time
        code = (
            f"import sys; sys.path[:0] = {sys.path!r}; import saddlekit; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestSimplexData:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimplexData(vertices=np.zeros((3, 2)), values=np.zeros(2), gradients=np.zeros((3, 2)))

    def test_diameter(self):
        data = SimplexData(
            vertices=np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]),
            values=np.zeros(3),
            gradients=np.zeros((3, 2)),
        )
        assert data.diameter() == pytest.approx(5.0)
