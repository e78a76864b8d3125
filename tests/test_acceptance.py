"""Acceptance suite: every release gate in one module.

Each test prints one CRITERION line (visible with ``pytest -s`` or in the
captured output).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from conftest import axis_subspace, ball, span_subspace
from saddlekit.bisection import bisection_solve
from saddlekit.errors import Unbounded
from saddlekit.geometry import (
    AffineSubspace,
    brute_force_diameter,
    inner_max_diameter,
    opposite_gradient_residual,
)
from saddlekit.linalg import Frame, complete_frame, orthonormalize
from saddlekit.local import fast_local_solve, measure_convergence_rate
from saddlekit.objectives import (
    cubic_saddle_problem,
    failure_3d_problem,
    four_lines_function,
    make_diagonal_quadratic,
    make_perturbed_quadratic,
    make_quadratic,
)
from saddlekit.outer import outer_min_subspace
from saddlekit.quadfit import SimplexData, fit_quadratic_rectangular, fit_quadratic_square


def _report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def random_signature(rng):
    """Random strictly-descending coefficients with m trailing negatives."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, min(3, n) + 1))
    if m >= n:
        m = n - 1 if n > 1 else 1
    pos = np.sort(rng.uniform(0.5, 3.0, n - m))[::-1]
    neg = np.sort(-rng.uniform(0.5, 3.0, m))[::-1]
    a = np.concatenate([pos, neg])
    for i in range(1, n):
        if a[i - 1] - a[i] < 0.05:
            a[i] = a[i - 1] - 0.05
    return a, n, m


@pytest.fixture(scope="module")
def quadratic_sweep():
    """20 random diagonal quadratics solved by the outer minimizer."""
    rng = np.random.default_rng(101)
    runs = []
    t0 = time.monotonic()
    for trial in range(20):
        a, n, m = random_signature(rng)
        lvl = float(rng.uniform(-2.0, -0.1))
        f = make_diagonal_quadratic(a)
        triple = outer_min_subspace(f, lvl, ball(n, 4.0), m)
        expected = 2.0 * np.sqrt(lvl / a[n - m])
        runs.append((a, n, m, lvl, triple, expected))
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def local_runs():
    """Fast-local runs shared between the failure-mode and rate criteria."""
    f3 = failure_3d_problem().objective
    cs = cubic_saddle_problem().objective
    res_f3 = fast_local_solve(f3, ball(3, 2.0), 2, -1.0, max_iter=10, tol=1e-14)
    res_cs = fast_local_solve(cs, ball(2, 1.5), 1, -0.5, max_iter=10, tol=1e-14)
    return res_f3, res_cs


def test_criterion_1_exact_quadratic_oracle(quadratic_sweep):
    runs, elapsed = quadratic_sweep
    worst = max(abs(t.diameter - expect) for *_, t, expect in runs)
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(1, ok, f"worst diameter error {worst:.3e}, runtime {elapsed:.1f}s")


def test_criterion_2_opposite_gradient_certification(quadratic_sweep):
    runs, _ = quadratic_sweep
    worst_kkt = 0.0
    for *_, triple, _expect in runs:
        if triple.converged and not triple.non_unique and not triple.empty:
            worst_kkt = max(worst_kkt, triple.kkt_residual)
    f4 = four_lines_function().objective
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([-1.0, 0.0, 0.0])
    gx = f4.gradient(x)
    gy = f4.gradient(y)
    grad_err = max(
        np.max(np.abs(gx - np.array([-8.0 / 3.0, 0.0, 8.0 / 3.0]))),
        np.max(np.abs(gy - np.array([8.0 / 3.0, 0.0, 8.0 / 3.0]))),
    )
    residual = opposite_gradient_residual(f4, x, y).residual
    ok = worst_kkt <= 1e-5 and residual > 0.5 and grad_err <= 1e-6
    _report(
        2, ok,
        f"max KKT residual {worst_kkt:.3e}, counterexample residual "
        f"{residual:.3f}, gradient error {grad_err:.2e}",
    )


def test_criterion_3_bisection_bracket():
    t0 = time.monotonic()
    results = []
    for coeffs, m in (([1.0, -1.0], 1), ([1.0, -1.0, -3.0], 2)):
        f = make_diagonal_quadratic(coeffs)
        (lo, hi), triple, _ = bisection_solve(
            f, ball(len(coeffs), 2.0), m, -1.0, 1.0, max_iter=20
        )
        gn = float(np.linalg.norm(f.gradient(triple.midpoint)))
        results.append((lo, hi, gn))
    elapsed = time.monotonic() - t0
    ok = all(
        hi - lo <= 4e-6 and lo <= 0.0 <= hi and gn <= 1e-3 for lo, hi, gn in results
    ) and elapsed < 30.0
    widths = ", ".join(f"{hi - lo:.2e}" for lo, hi, _ in results)
    grads = ", ".join(f"{gn:.2e}" for *_, gn in results)
    _report(3, ok, f"widths [{widths}], gradient norms [{grads}], runtime {elapsed:.1f}s")


def test_criterion_4_failure_mode_reproduction(local_runs):
    prob = failure_3d_problem()
    base, cols = prob.naive_subspace
    s_bad = AffineSubspace(base, Frame(cols))
    unbounded = False
    try:
        fast_local_solve(
            prob.objective, ball(3, 2.0), 2, -1.0, naive_subspace=True, S0=s_bad
        )
    except Unbounded:
        unbounded = True
    res_f3, _ = local_runs
    ok = (
        unbounded
        and res_f3.converged
        and res_f3.iterations <= 10
        and abs(res_f3.value_estimate) < 1e-10
    )
    _report(
        4, ok,
        f"naive subspace unbounded={unbounded}, eigenspace route reached "
        f"|l|={abs(res_f3.value_estimate):.2e} in {res_f3.iterations} iterations",
    )


def test_criterion_5_superlinear_rate(local_runs):
    res_f3, res_cs = local_runs
    labels = {}
    finals = {}
    for name, res in (("failure-3d", res_f3), ("cubic-saddle", res_cs)):
        rate = measure_convergence_rate(res.trace, true_value=0.0)
        r = rate.ratios
        labels[name] = (
            rate.classification == "Superlinear"
            and r.size >= 3
            and r[-1] < r[-2] < r[-3]
            and r[-1] < 0.1
        )
        finals[name] = rate.final_ratio
    bis_ok = True
    bis_ratios = []
    for coeffs, m, n in (([1.0, -1.0, -3.0], 2, 3), (None, 1, 2)):
        f = (
            make_diagonal_quadratic(coeffs)
            if coeffs is not None
            else cubic_saddle_problem().objective
        )
        _, _, trace = bisection_solve(f, ball(n, 1.5), m, -1.0, 1.0, max_iter=12)
        rate = measure_convergence_rate(trace)
        bis_ratios.append(rate.mean_ratio)
        bis_ok = bis_ok and rate.classification == "Linear" and abs(rate.mean_ratio - 0.5) <= 0.01
    ok = all(labels.values()) and bis_ok
    _report(
        5, ok,
        f"fast-local superlinear={labels}, final ratios "
        f"{ {k: f'{v:.1e}' for k, v in finals.items()} }, bisection mean ratios "
        f"{[f'{r:.3f}' for r in bis_ratios]}",
    )


def test_criterion_6_quadratic_recovery():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        c = float(rng.standard_normal())
        f = make_quadratic(a, b, c)
        vertices = rng.standard_normal((n + 1, n))
        data = SimplexData(
            vertices=vertices,
            values=np.array([f.value(p) for p in vertices]),
            gradients=np.array([f.gradient(p) for p in vertices]),
        )
        model = fit_quadratic_square(data)
        scale = max(1.0, float(np.linalg.norm(a)))
        worst = max(
            worst,
            float(np.linalg.norm(model.a - a)) / scale,
            float(np.linalg.norm(model.b - b)) / scale,
            abs(model.c - c) / scale,
        )
    # rectangular model error against a cubic perturbation must drop at
    # least 50x as the simplex diameter drops 10x
    h_mat = np.array([[2.0, 0.3, 0.0], [0.3, -1.0, 0.2], [0.0, 0.2, -3.0]])

    from saddlekit.objectives import ObjectiveFunction

    f = ObjectiveFunction(
        dim=3,
        f=lambda x: 0.5 * float(x @ h_mat @ x) + 0.5 * float(np.sum(x**3)),
        grad=lambda x: h_mat @ x + 1.5 * x**2,
    )
    base = np.array([0.2, -0.1, 0.3])
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([0.0, 0.0, 1.0])
    errs = []
    for diam in (0.1, 0.01):
        vertices = np.array([
            base, base + diam * u, base + 0.5 * diam * u + 0.8 * diam * v
        ])
        data = SimplexData(
            vertices=vertices,
            values=np.array([f.value(p) for p in vertices]),
            gradients=np.array([f.gradient(p) for p in vertices]),
        )
        model = fit_quadratic_rectangular(data)
        err = 0.0
        for s in np.linspace(0.0, 1.0, 10):
            for t in np.linspace(0.0, 1.0 - s, 10):
                x = (1 - s - t) * vertices[0] + s * vertices[1] + t * vertices[2]
                err = max(err, abs(model.value(x) - f.value(x)))
        errs.append(err)
    factor = errs[0] / max(errs[1], 1e-300)
    ok = worst <= 1e-9 and factor >= 50.0
    _report(6, ok, f"square round-trip error {worst:.2e}, shrink factor {factor:.0f}")


def test_criterion_7_frame_completion():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        frame = orthonormalize(rng.standard_normal((n, k)))
        full = complete_frame(frame)
        gram = full.columns.T @ full.columns
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n)))))
    n, k = 5, 3
    g = rng.standard_normal((n, k))
    errs = []
    for delta in (1e-2, 1e-4, 1e-6):
        frame = orthonormalize(np.eye(n)[:, :k] + delta * g)
        full = complete_frame(frame)
        errs.append(float(np.max(np.abs(full.columns - np.eye(n)))))
    ok = worst <= 1e-12 and errs[0] > errs[1] > errs[2]
    _report(
        7, ok,
        f"orthonormality defect {worst:.2e}, identity drift {errs[0]:.1e} > "
        f"{errs[1]:.1e} > {errs[2]:.1e}",
    )


def test_criterion_8_envelope_length_bounds():
    coeffs = np.array([1.0, -1.0, -3.0])
    delta = 1e-3
    h = make_perturbed_quadratic(coeffs, delta)
    res = fast_local_solve(h, ball(3, 1.5), 2, -0.4, max_iter=8, tol=1e-13)
    n = 3
    k = 1  # 0-based index of the least negative coefficient
    a1, an, ak = coeffs[0], coeffs[-1], coeffs[k]
    checked = 0
    ok = True
    for state in res.states:
        for point in (state.triple.x, state.triple.y):
            lvl = h.value(point)
            if not (lvl < -1e-25 and abs(point[k]) > 0.0):
                continue
            theta = max(abs(point[j] / point[k]) for j in range(n) if j != k)
            denom_lo = (ak - delta) * (1.0 + theta) ** 2 + (n - 1) * (an - delta) * theta**2
            denom_hi = (ak + delta) * (1.0 - theta) ** 2 + (n - 1) * (a1 + delta) * theta**2
            if denom_hi >= 0.0:
                continue  # theta too large for the closed form to apply
            lo = (1.0 - theta) * np.sqrt(lvl / denom_lo)
            hi = np.sqrt(((1.0 + theta) ** 2 + (n - 1) * theta**2) * lvl / denom_hi)
            r = float(np.linalg.norm(point))
            ok = ok and (lo - 1e-7 <= r <= hi + 1e-7)
            checked += 1
    final = res.trace[-1]
    prev_level = res.trace[-2].l if len(res.trace) > 1 else -0.4
    contraction = float(final.z @ final.z) / abs(prev_level)
    ok = ok and checked >= 4 and contraction < 0.1
    _report(
        8, ok,
        f"{checked} pair lengths inside the envelope bounds, final "
        f"|z|^2/|l| = {contraction:.2e}",
    )


def test_criterion_9_brute_force_cross_validation():
    quad2 = make_diagonal_quadratic([1.0, -1.0])
    quad3 = make_diagonal_quadratic([1.0, -1.0, -3.0])
    quad2b = make_diagonal_quadratic([2.0, -0.5])
    pert = make_perturbed_quadratic([1.0, -1.0], 1e-2)
    cubic = cubic_saddle_problem().objective
    lines = four_lines_function().objective
    tilted = span_subspace([0.0, 0.0], [np.sin(np.pi / 6.0), np.cos(np.pi / 6.0)])
    fail_plane = AffineSubspace(*(lambda b, c: (b, Frame(c)))(*failure_3d_problem().naive_subspace))
    cases = [
        (quad2, axis_subspace(2, [1]), -1.0, ball(2, 2.0)),
        (quad2, axis_subspace(2, [1]), -0.25, ball(2, 2.0)),
        (quad2, tilted, -0.5, ball(2, 2.0)),
        (quad2b, axis_subspace(2, [1]), -0.8, ball(2, 3.0)),
        (quad3, axis_subspace(3, [1, 2]), -1.0, ball(3, 2.0)),
        (quad3, fail_plane, -1.0, ball(3, 2.0)),
        (quad3, axis_subspace(3, [0, 1]), -0.5, ball(3, 2.0)),
        (quad3, axis_subspace(3, [1, 2], base=[0.1, 0.0, 0.0]), -0.5, ball(3, 2.0)),
        (pert, axis_subspace(2, [1]), -0.5, ball(2, 2.0)),
        (cubic, axis_subspace(2, [1]), -0.3, ball(2, 1.2)),
        (lines, axis_subspace(3, [0, 1]), -2.0, ball(3, 1.5)),
        (lines, axis_subspace(3, [0]), -2.0, ball(3, 1.5)),
    ]
    worst_gap = 0.0
    ok = True
    for f, s, lvl, region in cases:
        res = 64
        t_inner = inner_max_diameter(f, s, lvl, region)
        t_bf = brute_force_diameter(f, s, lvl, region, res)
        grid_h = 2.0 * region.radius / (res - 1)
        tol = 2.0 * np.sqrt(s.dim) * grid_h
        gap = abs(t_inner.diameter - t_bf.diameter)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= tol and t_inner.diameter >= t_bf.diameter - 1e-9
    ok = ok and len(cases) >= 10
    _report(9, ok, f"{len(cases)} slices cross-validated, worst gap {worst_gap:.2e}")
