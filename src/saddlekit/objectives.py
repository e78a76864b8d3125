"""Objective-function abstraction and the built-in test-problem corpus.

An :class:`ObjectiveFunction` bundles evaluation, gradient and (optional)
Hessian callables.  Missing derivatives fall back to central finite
differences.  An optional ``batch`` callable evaluates many points in one
call (:meth:`ObjectiveFunction.values`); it must agree with ``f`` row by row
up to rounding.  All callables must be pure and reentrant; the solvers may
evaluate them from several starts concurrently.

The corpus contains the problems addressable by name from the command line:

* ``quadratic-diag:a1,a2,...``  -- f(x) = sum_j a_j x_j^2
* ``failure-3d``                -- f(x) = x1^2 - x2^2 - 3 x3^2
* ``four-lines``                -- the 3-d example whose widest level-set
                                   pairs do not have opposite gradients
* ``cubic-saddle``              -- f(x) = x1^2 - x2^2 + 0.3 x2^3
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, NonFiniteValue

__all__ = [
    "ObjectiveFunction",
    "TestProblem",
    "fd_gradient",
    "fd_hessian",
    "make_quadratic",
    "make_diagonal_quadratic",
    "make_perturbed_quadratic",
    "four_lines_function",
    "failure_3d_problem",
    "cubic_saddle_problem",
    "problem_from_name",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ObjectiveFunction:
    """A smooth function R^n -> R with derivatives.

    ``grad`` and ``hess`` may be None, in which case central finite
    differences of ``f`` (resp. of the gradient) are used.  :meth:`hessian`
    returns the symmetric part ``(H + H^T) / 2`` of an analytic Hessian and
    the finite-difference Hessian, which is symmetric already, so every
    caller reads a symmetric matrix.

    ``batch``, when given, maps an ``(N, n)`` array to the ``N`` values of
    ``f`` at its rows, and must equal ``f`` row by row up to rounding.
    :meth:`values` uses it; when it is None, :meth:`values` loops over
    :meth:`value`.  ``dataclasses.replace(obj, f=g)`` keeps the old
    ``batch``, so replace both fields or set ``batch=None``.
    """

    dim: int
    f: Callable
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    batch: Optional[Callable] = None

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v = float(self.f(x))
        if not math.isfinite(v):
            raise NonFiniteValue(f"objective returned {v} at {x}")
        return v

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            g = np.asarray(self.grad(x), dtype=float)
            # a single reduction: any inf/nan entry makes the sum non-finite;
            # a non-finite sum of finite entries (overflow) is confirmed entrywise
            if not math.isfinite(float(np.sum(g))) and not np.all(np.isfinite(g)):
                raise NonFiniteValue(f"gradient returned non-finite entries at {x}")
            return g
        return fd_gradient(self, x)

    def values(self, xs):
        """Values of ``f`` at the rows of the ``(N, n)`` array ``xs``, shape ``(N,)``."""
        xs = np.asarray(xs, dtype=float)
        if self.batch is None:
            return np.array([self.value(x) for x in xs], dtype=float)
        v = np.asarray(self.batch(xs), dtype=float)
        if not math.isfinite(float(np.sum(v))) and not np.all(np.isfinite(v)):
            raise NonFiniteValue("batched objective returned non-finite values")
        return v

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            h = np.asarray(self.hess(x), dtype=float)
            if not np.all(np.isfinite(h)):
                raise NonFiniteValue(f"hessian returned non-finite entries at {x}")
            return 0.5 * (h + h.T)
        return fd_hessian(self, x)


def fd_gradient(fn, x, h=None):
    """Central-difference gradient of ``fn`` at ``x``.

    The default step is eps**(1/3) * (1 + |x|_inf), a standard choice that
    balances truncation against cancellation for central differences.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = _EPS ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    g = np.empty_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (fn.value(xp) - fn.value(xm)) / (2.0 * h)
    return g


def fd_hessian(fn, x, h=None):
    """Finite-difference Hessian, symmetrized.

    Uses central differences of the analytic gradient when one is present,
    falling back to second differences of function values otherwise.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if fn.grad is not None:
        if h is None:
            h = _EPS ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(x), initial=0.0)))
        cols = np.empty((n, n))
        for j in range(n):
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            cols[:, j] = (fn.gradient(xp) - fn.gradient(xm)) / (2.0 * h)
        return 0.5 * (cols + cols.T)
    if h is None:
        h = _EPS ** 0.25 * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    hmat = np.empty((n, n))
    f0 = fn.value(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hmat[i, i] = (fn.value(x + ei) - 2.0 * f0 + fn.value(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            hij = (
                fn.value(x + ei + ej)
                - fn.value(x + ei - ej)
                - fn.value(x - ei + ej)
                + fn.value(x - ei - ej)
            ) / (4.0 * h**2)
            hmat[i, j] = hij
            hmat[j, i] = hij
    return hmat


def make_quadratic(a, b=None, c=0.0):
    """Quadratic objective h(x) = 1/2 x^T A x + b^T x + c with exact derivatives.

    ``a`` must be symmetric.  The diagonal form ``sum_j a_j x_j^2`` used by
    the local analysis corresponds to ``a = 2*diag(coeffs)``, b = 0, c = 0.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("quadratic matrix must be square and symmetric")
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    c = float(c)
    return ObjectiveFunction(
        dim=n,
        f=lambda x: 0.5 * float(x @ a @ x) + float(b @ x) + c,
        grad=lambda x: a @ x + b,
        hess=lambda x: a.copy(),
        batch=lambda xs: 0.5 * np.einsum("ij,ij->i", xs @ a, xs) + xs @ b + c,
    )


def make_diagonal_quadratic(coeffs):
    """Objective f(x) = sum_j coeffs_j * x_j^2 (Hessian 2*diag(coeffs))."""
    coeffs = np.asarray(coeffs, dtype=float)
    return make_quadratic(2.0 * np.diag(coeffs))


def make_perturbed_quadratic(coeffs, delta):
    """Diagonal quadratic plus a smooth coordinate-coupling perturbation.

    Returns h(x) = sum_j a_j x_j^2 + delta * (0.6 sum_j sin(x_j^2)
    + 0.4 sum_j sin(x_j x_{j+1})).  The perturbation is bounded by
    delta * |x|^2 in value, so h is sandwiched between the diagonal
    quadratics with coefficients a_j -+ delta, and its gradient drift from
    the quadratic is at most 2.5 * delta * |x|.  The critical point stays at
    the origin; the coupling term tilts the Hessian eigenvectors by O(delta),
    which is what eigenspace-tracking tests need.
    """
    a = np.asarray(coeffs, dtype=float)
    d = float(delta)
    n = a.size

    def f(x):
        cross = np.sum(np.sin(x[:-1] * x[1:])) if n > 1 else 0.0
        return float(np.sum(a * x * x) + d * (0.6 * np.sum(np.sin(x * x)) + 0.4 * cross))

    def grad(x):
        g = 2.0 * a * x + 1.2 * d * x * np.cos(x * x)
        if n > 1:
            c = np.cos(x[:-1] * x[1:])
            g[:-1] += 0.4 * d * x[1:] * c
            g[1:] += 0.4 * d * x[:-1] * c
        return g

    def hess(x):
        h = np.diag(2.0 * a + 1.2 * d * np.cos(x * x) - 2.4 * d * x * x * np.sin(x * x))
        if n > 1:
            p = x[:-1] * x[1:]
            c, s = np.cos(p), np.sin(p)
            for j in range(n - 1):
                h[j, j + 1] += 0.4 * d * (c[j] - p[j] * s[j])
                h[j + 1, j] += 0.4 * d * (c[j] - p[j] * s[j])
                h[j, j] += -0.4 * d * x[j + 1] ** 2 * s[j]
                h[j + 1, j + 1] += -0.4 * d * x[j] ** 2 * s[j]
        return h

    return ObjectiveFunction(dim=n, f=f, grad=grad, hess=hess)


@dataclass(frozen=True)
class TestProblem:
    """A named objective with whatever ground truth is known about it."""

    name: str
    objective: ObjectiveFunction
    known_critical_point: Optional[np.ndarray] = None
    known_critical_value: Optional[float] = None
    morse_index: Optional[int] = None
    # Deliberately bad m-dimensional subspace (base, columns) used to
    # reproduce the documented failure mode of the local method.
    naive_subspace: Optional[tuple] = field(default=None, repr=False)


def four_lines_function():
    """The 3-d test function whose maximizing pairs defeat the gradient test.

    f(x, y, z) = -(x/(1+z) + y/(1-z))^(4/3) - (x/(1+z) - y/(1-z))^(4/3),
    defined for |z| < 1.  Its level set at -2 contains four rays through
    (0, 0, -1) and (0, 0, 1), and the widest pairs of the slice by the x-y
    plane are {(1,0,0), (-1,0,0)} and {(0,1,0), (0,-1,0)}, whose gradients
    are not anti-parallel.
    """

    def _parts(p):
        x, y, z = p
        if abs(z) >= 1.0:
            raise DomainViolation(f"four-lines function requires |z| < 1, got z={z}")
        u = x / (1.0 + z) + y / (1.0 - z)
        v = x / (1.0 + z) - y / (1.0 - z)
        return u, v

    def f(p):
        u, v = _parts(p)
        return -float(np.abs(u) ** (4.0 / 3.0) + np.abs(v) ** (4.0 / 3.0))

    def grad(p):
        x, y, z = p
        u, v = _parts(p)
        # d/du |u|^(4/3) = 4/3 * cbrt(u), continuous through u = 0
        fu = -(4.0 / 3.0) * np.cbrt(u)
        fv = -(4.0 / 3.0) * np.cbrt(v)
        du = np.array([1.0 / (1.0 + z), 1.0 / (1.0 - z),
                       -x / (1.0 + z) ** 2 + y / (1.0 - z) ** 2])
        dv = np.array([1.0 / (1.0 + z), -1.0 / (1.0 - z),
                       -x / (1.0 + z) ** 2 - y / (1.0 - z) ** 2])
        return fu * du + fv * dv

    objective = ObjectiveFunction(dim=3, f=f, grad=grad)
    return TestProblem(
        name="four-lines",
        objective=objective,
        known_critical_point=np.zeros(3),
        known_critical_value=0.0,
    )


def failure_3d_problem():
    """f(x) = x1^2 - x2^2 - 3 x3^2: index-2 saddle at the origin.

    Carries the plane {x : x1 = x3} as its naive subspace: the plane attains
    the optimal slice diameter at every negative level, yet the objective is
    concave on its orthogonal complement, so feeding it directly to the
    orthogonal-space minimization is unbounded.
    """
    base = np.zeros(3)
    cols = np.column_stack([
        np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0),
        np.array([0.0, 1.0, 0.0]),
    ])
    return TestProblem(
        name="failure-3d",
        objective=make_diagonal_quadratic([1.0, -1.0, -3.0]),
        known_critical_point=np.zeros(3),
        known_critical_value=0.0,
        morse_index=2,
        naive_subspace=(base, cols),
    )


def cubic_saddle_problem():
    """f(x) = x1^2 - x2^2 + 0.3 x2^3: a non-quadratic index-1 saddle at 0.

    The cubic term is chosen so the restriction of f to the downhill axis is
    genuinely asymmetric; perturbations like x1^3 x2 vanish identically on
    both invariant axes and leave the saddle search with purely quadratic
    subproblems.
    """

    def f(x):
        return float(x[0] ** 2 - x[1] ** 2 + 0.3 * x[1] ** 3)

    def grad(x):
        return np.array([
            2.0 * x[0],
            -2.0 * x[1] + 0.9 * x[1] ** 2,
        ])

    def hess(x):
        return np.array([
            [2.0, 0.0],
            [0.0, -2.0 + 1.8 * x[1]],
        ])

    return TestProblem(
        name="cubic-saddle",
        objective=ObjectiveFunction(dim=2, f=f, grad=grad, hess=hess),
        known_critical_point=np.zeros(2),
        known_critical_value=0.0,
        morse_index=1,
    )


def diagonal_problem(coeffs):
    """TestProblem wrapper for sum_j coeffs_j x_j^2."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    return TestProblem(
        name="quadratic-diag:" + ",".join(repr(float(c)) for c in coeffs),
        objective=make_diagonal_quadratic(coeffs),
        known_critical_point=np.zeros(n),
        known_critical_value=0.0,
        morse_index=int(np.sum(coeffs < 0.0)),
    )


def problem_from_name(name):
    """Resolve a CLI problem name to a TestProblem.

    Accepted forms: ``quadratic-diag:a1,a2,...``, ``failure-3d``,
    ``four-lines`` and ``cubic-saddle``.  Raises ValueError for an unknown
    name, and for coefficients whose Hessian entries ``2 a`` are not finite.
    """
    name = name.strip()
    if name == "failure-3d":
        return failure_3d_problem()
    if name == "four-lines":
        return four_lines_function()
    if name == "cubic-saddle":
        return cubic_saddle_problem()
    if name.startswith("quadratic-diag:"):
        body = name.split(":", 1)[1]
        try:
            coeffs = [float(tok) for tok in body.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad coefficient list in {name!r}: {exc}") from None
        if not coeffs:
            raise ValueError(f"no coefficients given in {name!r}")
        if not all(np.isfinite(2.0 * a) for a in coeffs):
            raise ValueError(f"coefficients in {name!r} give a non-finite Hessian 2a")
        return diagonal_problem(coeffs)
    raise ValueError(f"unknown problem name {name!r}")
