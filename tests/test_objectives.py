import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlekit.errors import DomainViolation, NonFiniteValue
from saddlekit.objectives import (
    ObjectiveFunction,
    cubic_saddle_problem,
    failure_3d_problem,
    fd_gradient,
    fd_hessian,
    four_lines_function,
    make_diagonal_quadratic,
    make_perturbed_quadratic,
    make_quadratic,
    problem_from_name,
)


class TestFiniteDifferences:
    def test_simple_saddle(self):
        f = make_diagonal_quadratic([1.0, -1.0])
        g = fd_gradient(f, np.array([1.0, 1.0]))
        npt.assert_allclose(g, [2.0, -2.0], atol=1e-6)

    def test_constant(self):
        f = ObjectiveFunction(dim=3, f=lambda x: 7.0)
        npt.assert_allclose(fd_gradient(f, np.zeros(3)), np.zeros(3), atol=1e-12)

    def test_four_lines_gradient_value(self):
        prob = four_lines_function()
        g = fd_gradient(prob.objective, np.array([1.0, 0.0, 0.0]))
        npt.assert_allclose(g, [-8.0 / 3.0, 0.0, 8.0 / 3.0], atol=1e-4)

    def test_step_validation(self):
        f = make_diagonal_quadratic([1.0])
        with pytest.raises(ValueError):
            fd_gradient(f, np.zeros(1), h=0.0)

    def test_nonfinite_detected(self):
        f = ObjectiveFunction(dim=1, f=lambda x: float("nan"))
        with pytest.raises(NonFiniteValue):
            fd_gradient(f, np.zeros(1))

    def test_hessian_matches_analytic(self, rng):
        f = make_quadratic(np.array([[2.0, 0.5], [0.5, -1.0]]), np.array([1.0, 0.0]))
        x = rng.standard_normal(2)
        h_fd = fd_hessian(ObjectiveFunction(dim=2, f=f.f), x)
        npt.assert_allclose(h_fd, f.hessian(x), atol=1e-4)

    def test_analytic_hessian_is_symmetrized(self):
        raw = np.array([[1.0, 3.0], [1.0, 2.0]])
        f = ObjectiveFunction(dim=2, f=lambda x: 0.0, hess=lambda x: raw)
        npt.assert_array_equal(f.hessian(np.zeros(2)), [[1.0, 2.0], [2.0, 2.0]])


class TestFiniteChecks:
    def test_large_finite_gradient_is_returned(self):
        # the entries are finite although their sum overflows to inf
        f = ObjectiveFunction(dim=2, f=lambda x: 0.0, grad=lambda x: np.array([1e308, 1e308]))
        with np.errstate(over="ignore"):
            npt.assert_array_equal(f.gradient(np.zeros(2)), [1e308, 1e308])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_entry_raises(self, bad):
        f = ObjectiveFunction(dim=2, f=lambda x: 0.0, grad=lambda x: np.array([1.0, bad]))
        with pytest.raises(NonFiniteValue):
            f.gradient(np.zeros(2))


class TestValues:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 8]),
           diagonal=st.booleans())
    def test_batch_matches_value_up_to_rounding(self, seed, n, diagonal):
        """Each batched value equals the scalar value within 4 eps of the
        size of its terms, 0.5 |x|'|A||x| + |b|'|x| + |c|: the two sum the
        same terms in different orders, so under cancellation they can
        differ by far more than eps |v|."""
        rng = np.random.default_rng(seed)
        if diagonal:
            f = make_diagonal_quadratic(rng.uniform(-5.0, 5.0, n))
            a, b, c = f.hessian(np.zeros(n)), np.zeros(n), 0.0
        else:
            a = rng.uniform(-5.0, 5.0, (n, n))
            a, b, c = a + a.T, rng.uniform(-5.0, 5.0, n), rng.uniform(-5.0, 5.0)
            f = make_quadratic(a, b, c)
        xs = rng.uniform(-10.0, 10.0, (25, n))
        v = f.values(xs)
        assert v.shape == (25,) and v.dtype == float
        ax = np.abs(xs)
        size = 0.5 * np.einsum("ij,ij->i", ax @ np.abs(a), ax) + ax @ np.abs(b) + abs(c)
        eps = np.finfo(float).eps
        for i, x in enumerate(xs):
            assert abs(v[i] - f.value(x)) <= 4.0 * eps * (1.0 + size[i])

    def test_failure_3d_inherits_the_batch(self):
        assert failure_3d_problem().objective.batch is not None
        assert problem_from_name("quadratic-diag:1,-2").objective.batch is not None

    def test_loop_without_batch_is_bit_identical(self, rng):
        for f in (cubic_saddle_problem().objective, make_perturbed_quadratic([1.0, -1.0, -2.0], 0.05)):
            assert f.batch is None
            xs = rng.uniform(-1.0, 1.0, (30, f.dim))
            npt.assert_array_equal(f.values(xs), [f.value(x) for x in xs])

    def test_empty_input(self):
        for f in (make_quadratic(np.eye(3), np.ones(3), 1.0), cubic_saddle_problem().objective):
            v = f.values(np.empty((0, f.dim)))
            assert v.shape == (0,)

    def test_nonfinite_batch_raises(self):
        for bad in (np.inf, np.nan):
            f = ObjectiveFunction(dim=2, f=lambda x: 0.0, batch=lambda xs: np.array([1.0, bad]))
            with pytest.raises(NonFiniteValue):
                f.values(np.zeros((2, 2)))

    def test_large_finite_batch_is_returned(self):
        f = ObjectiveFunction(dim=2, f=lambda x: 0.0, batch=lambda xs: np.array([1e308, 1e308]))
        with np.errstate(over="ignore"):
            npt.assert_array_equal(f.values(np.zeros((2, 2))), [1e308, 1e308])

    def test_loop_keeps_domain_violation(self):
        f = four_lines_function().objective
        xs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DomainViolation):
            f.values(xs)


class TestQuadratics:
    def test_values_and_gradient(self):
        f = make_quadratic(2.0 * np.diag([1.0, -1.0]))
        x = np.array([0.0, 1.0])
        assert f.value(x) == pytest.approx(-1.0)
        npt.assert_allclose(f.gradient(x), [0.0, -2.0])

    def test_critical_point_at_origin(self):
        f = make_quadratic(2.0 * np.diag([1.0, -1.0]))
        assert f.value(np.zeros(2)) == 0.0
        npt.assert_array_equal(f.gradient(np.zeros(2)), np.zeros(2))

    def test_three_dim_value(self):
        f = make_diagonal_quadratic([1.0, -1.0, -3.0])
        assert f.value(np.array([0.0, 0.0, 1.0])) == pytest.approx(-3.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestFourLines:
    def test_value_on_axis(self):
        f = four_lines_function().objective
        assert f.value(np.array([1.0, 0.0, 0.0])) == pytest.approx(-2.0)

    def test_gradient_values(self):
        f = four_lines_function().objective
        npt.assert_allclose(
            f.gradient(np.array([0.0, 1.0, 0.0])),
            [0.0, -8.0 / 3.0, -8.0 / 3.0],
            atol=1e-12,
        )
        npt.assert_allclose(
            f.gradient(np.array([-1.0, 0.0, 0.0])),
            [8.0 / 3.0, 0.0, 8.0 / 3.0],
            atol=1e-12,
        )

    def test_domain_violation(self):
        f = four_lines_function().objective
        with pytest.raises(DomainViolation):
            f.value(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainViolation):
            f.gradient(np.array([0.0, 0.0, -1.5]))

    def test_level_set_contains_the_four_rays(self):
        # each ray lies on the -2 level inside the slab |z| < 1
        f = four_lines_function().objective
        starts = [np.array([0.0, 0.0, -1.0])] * 2 + [np.array([0.0, 0.0, 1.0])] * 2
        dirs = [
            np.array([1.0, 0.0, 1.0]),
            np.array([-1.0, 0.0, 1.0]),
            np.array([0.0, 1.0, -1.0]),
            np.array([0.0, -1.0, -1.0]),
        ]
        for s, d in zip(starts, dirs):
            for lam in (0.3, 1.0, 1.7):
                p = s + lam * d
                assert f.value(p) == pytest.approx(-2.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        f = four_lines_function().objective
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=3)
            x[2] = rng.uniform(-0.8, 0.8)
            g = f.gradient(x)
            g_fd = fd_gradient(f, x, h=1e-6)
            assert np.linalg.norm(g - g_fd) <= 1e-4 * (1.0 + np.linalg.norm(g))


class TestCorpus:
    def test_known_critical_points_are_critical(self):
        for prob in (
            four_lines_function(),
            failure_3d_problem(),
            cubic_saddle_problem(),
            problem_from_name("quadratic-diag:2,-0.5"),
        ):
            g = prob.objective.gradient(prob.known_critical_point)
            assert np.linalg.norm(g) <= 1e-8

    def test_analytic_gradients_match_fd(self, rng):
        for prob in (failure_3d_problem(), cubic_saddle_problem()):
            f = prob.objective
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, size=f.dim)
                g = f.gradient(x)
                g_fd = fd_gradient(f, x)
                assert np.linalg.norm(g - g_fd) <= 1e-4 * (1.0 + np.linalg.norm(g))

    def test_name_parsing(self):
        p = problem_from_name("quadratic-diag:1,-1,-3")
        npt.assert_allclose(p.objective.hessian(np.zeros(3)), 2.0 * np.diag([1.0, -1.0, -3.0]))
        assert p.morse_index == 2
        assert problem_from_name("failure-3d").naive_subspace is not None
        assert problem_from_name("four-lines").objective.dim == 3
        assert problem_from_name("cubic-saddle").morse_index == 1

    def test_bad_names(self):
        with pytest.raises(ValueError):
            problem_from_name("quadratic-diag:")
        with pytest.raises(ValueError):
            problem_from_name("quadratic-diag:a,b")
        with pytest.raises(ValueError):
            problem_from_name("does-not-exist")

    @pytest.mark.parametrize("body", ["1,nan", "1,inf", "-inf", "1e308,-1e308"])
    def test_non_finite_hessian_rejected(self, body):
        # 1e308 is finite, but the Hessian entry 2e308 overflows
        with pytest.raises(ValueError, match="non-finite Hessian"):
            problem_from_name("quadratic-diag:" + body)
        assert problem_from_name("quadratic-diag:1,-8e307").objective.dim == 2

    def test_failure_3d_naive_plane(self):
        base, cols = failure_3d_problem().naive_subspace
        # the plane {x1 = x3}
        for w in np.eye(2):
            p = cols @ w
            assert p[0] == pytest.approx(p[2])


class TestEnvelope:
    def test_sandwich_on_unit_ball(self, rng):
        # the perturbed quadratic stays between the diagonal quadratics with
        # coefficients a -+ delta: x.(a*x) -+ delta |x|^2
        coeffs = np.array([1.5, -1.0, -2.0])
        delta = 0.05
        h = make_perturbed_quadratic(coeffs, delta)
        for _ in range(200):
            x = rng.standard_normal(3)
            x /= max(1.0, np.linalg.norm(x))
            v = h.value(x)
            model, spread = float(x @ (coeffs * x)), delta * float(x @ x)
            assert model - spread - 1e-12 <= v <= model + spread + 1e-12

    def test_perturbed_gradient_bound(self, rng):
        coeffs = np.array([1.0, -1.0])
        delta = 1e-3
        h = make_perturbed_quadratic(coeffs, delta)
        for _ in range(100):
            x = rng.standard_normal(2)
            drift = h.gradient(x) - 2.0 * coeffs * x
            assert np.linalg.norm(drift) <= 2.5 * delta * np.linalg.norm(x) + 1e-15

    def test_perturbed_derivatives_consistent(self, rng):
        h = make_perturbed_quadratic([1.5, -1.0, -2.0], 0.05)
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, 3)
            npt.assert_allclose(h.gradient(x), fd_gradient(h, x), atol=1e-5)
        x = rng.uniform(-1.0, 1.0, 3)
        npt.assert_allclose(h.hessian(x), fd_hessian(h, x), atol=1e-4)
