"""Quadratic-model recovery from values and gradients at simplex vertices.

Given m+1 vertices with exact data from a quadratic h(x) = 1/2 x'Ax + b'x + c,
the difference matrices P (vertex steps) and D (gradient steps) recover the
model exactly: A = D P^-1 in the full-dimensional case, and the curvature
operator D R^-1 Q' (from the QR factors of P) restricted to the affine hull
in the rectangular case.  For merely C^2 functions the rectangular model is
accurate to O(diam^2) on the simplex.

Also provides the concavity-based upper bound on the maximum of f over the
relative boundary of the simplex: on a region where f is concave, every
tangent plane majorizes f, so the pointwise minimum of the vertex tangent
planes bounds f from above; its maximum over each facet is a linear program.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotConcave, SingularSimplex
from .linalg import qr_decompose, sym_eigen

__all__ = [
    "SimplexData",
    "QuadraticModel",
    "fit_quadratic_square",
    "fit_quadratic_rectangular",
    "concave_upper_bound",
]


@dataclass(frozen=True)
class SimplexData:
    """Vertices p_1..p_{m+1} with values h(p_i) and gradients grad h(p_i)."""

    vertices: np.ndarray  # (m+1, n)
    values: np.ndarray  # (m+1,)
    gradients: np.ndarray  # (m+1, n)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        g = np.asarray(self.gradients, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("need at least two vertices")
        if vals.shape != (v.shape[0],) or g.shape != v.shape:
            raise ValueError("values/gradients shapes do not match the vertices")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gradients", g)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]

    @property
    def hull_dim(self):
        return self.n_vertices - 1

    def step_matrix(self):
        """P: columns p_{i+1} - p_1, shape (n, m)."""
        return (self.vertices[1:] - self.vertices[0]).T

    def gradient_matrix(self):
        """D: columns grad h(p_{i+1}) - grad h(p_1), shape (n, m)."""
        return (self.gradients[1:] - self.gradients[0]).T

    def diameter(self):
        v = self.vertices
        return float(max(
            np.linalg.norm(v[i] - v[j])
            for i in range(len(v))
            for j in range(i + 1, len(v))
        ))


@dataclass(frozen=True)
class QuadraticModel:
    """h(x) = 1/2 x'Ax + b'x + c, either ambient or reduced to an affine hull.

    When ``hull_base``/``hull_frame`` are set the model lives in the local
    coordinates w = frame' (x - base) of the simplex's affine hull and
    ``A`` is the reduced (m x m) curvature.
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    hull_base: Optional[np.ndarray] = None
    hull_frame: Optional[np.ndarray] = None

    @property
    def reduced(self):
        return self.hull_base is not None

    def _local(self, x):
        x = np.asarray(x, dtype=float)
        if not self.reduced:
            return x
        return self.hull_frame.T @ (x - self.hull_base)

    def value(self, x):
        w = self._local(x)
        return 0.5 * float(w @ self.a @ w) + float(self.b @ w) + self.c

    def gradient(self, x):
        """Model gradient; tangential to the hull for reduced models."""
        w = self._local(x)
        g = 0.5 * (self.a + self.a.T) @ w + self.b
        if self.reduced:
            return self.hull_frame @ g
        return g

    def curvature(self):
        """Symmetrized quadratic coefficient (only the symmetric part acts)."""
        return 0.5 * (self.a + self.a.T)


def _check_rank(p):
    sv = np.linalg.svd(p, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularSimplex(
            f"simplex steps are affinely dependent (singular values "
            f"{sv[0] if sv.size else 0:.3e} .. {sv[-1] if sv.size else 0:.3e})"
        )


def fit_quadratic_square(data):
    """Recover A, b, c from n+1 affinely independent vertices in R^n.

    A = D P^-1, b = grad h(p_1) - A p_1, c = h(p_1) - 1/2 p_1'A p_1 - b'p_1.
    Exact for quadratic data; raises :class:`SingularSimplex` otherwise when
    P is not invertible.
    """
    if data.hull_dim != data.ambient_dim:
        raise ValueError(
            f"square fit needs n+1 = {data.ambient_dim + 1} vertices, "
            f"got {data.n_vertices}"
        )
    p = data.step_matrix()
    _check_rank(p)
    d = data.gradient_matrix()
    a = d @ np.linalg.inv(p)
    p1 = data.vertices[0]
    g1 = data.gradients[0]
    b = g1 - a @ p1
    c = float(data.values[0] - 0.5 * p1 @ a @ p1 - b @ p1)
    return QuadraticModel(a=a, b=b, c=c)


def fit_quadratic_rectangular(data):
    """Reduced quadratic model on the simplex's affine hull (m < n allowed).

    Uses the QR factors of P: the curvature operator is D R^-1 Q' restricted
    to the hull, symmetrized since only the symmetric part enters the
    quadratic form.  The model reproduces values and tangential gradients at
    the vertices exactly for quadratic data.
    """
    p = data.step_matrix()
    _check_rank(p)
    q, r = qr_decompose(p)
    qc = q.columns
    d = data.gradient_matrix()
    b_raw = qc.T @ d @ np.linalg.inv(r)
    a_red = 0.5 * (b_raw + b_raw.T)
    p1 = data.vertices[0]
    b_red = qc.T @ data.gradients[0]
    c = float(data.values[0])
    return QuadraticModel(a=a_red, b=b_red, c=c, hull_base=p1, hull_frame=qc)


def concave_upper_bound(data, curvature_negative=True):
    """Upper bound for max f over the relative boundary of the simplex.

    Requires f concave on the simplex hull: the fitted reduced curvature
    must be negative definite (checked through its eigenvalues), and the
    caller can veto with ``curvature_negative=False``.  Each tangent plane
    then majorizes f, so for every boundary facet the maximum of the
    pointwise minimum of the m+1 tangent planes is a linear program over the
    facet's barycentric coordinates; the bound is the maximum over facets.
    """
    # imported here, not with the module: scipy.optimize would be most of the
    # time taken by `import saddlekit`
    from scipy.optimize import linprog

    if not curvature_negative:
        raise NotConcave("caller states the curvature is not negative definite")
    model = fit_quadratic_rectangular(data)
    evals, _ = sym_eigen(model.curvature())
    if evals[0] >= 0.0:
        raise NotConcave(
            f"fitted curvature has a nonnegative eigenvalue ({evals[0]:.3e})"
        )
    qc = model.hull_frame
    p1 = model.hull_base
    w = (data.vertices - p1) @ qc  # vertex positions in hull coordinates
    g = data.gradients @ qc  # tangential gradients
    vals = data.values
    n_vert = data.n_vertices
    m = data.hull_dim

    best = -np.inf
    for drop in range(n_vert):
        keep = [i for i in range(n_vert) if i != drop]
        # variables: lambda (len(keep)) then t; maximize t
        cost = np.zeros(len(keep) + 1)
        cost[-1] = -1.0
        a_ub = np.zeros((n_vert, len(keep) + 1))
        b_ub = np.zeros(n_vert)
        for i in range(n_vert):
            # t <= vals[i] + g_i . (sum_v lambda_v w_v - w_i)
            for col, v in enumerate(keep):
                a_ub[i, col] = -float(g[i] @ w[v])
            a_ub[i, -1] = 1.0
            b_ub[i] = float(vals[i] - g[i] @ w[i])
        a_eq = np.zeros((1, len(keep) + 1))
        a_eq[0, :-1] = 1.0
        b_eq = np.array([1.0])
        bounds = [(0.0, None)] * len(keep) + [(None, None)]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if not res.success:  # pragma: no cover - bounded feasible by construction
            raise RuntimeError(f"facet linear program failed: {res.message}")
        best = max(best, float(res.x[-1]))
    return best
