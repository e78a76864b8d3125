"""Global bisection driver on the critical-value bracket.

Each iteration classifies the bracket midpoint as below or above the
critical value.  Before the loop, a certified minimax bracket
``[lb, ub]`` is computed once near the saddle (the orthogonal-space
minimum and the slice maximum, alternated a few steps).  A midpoint above
``ub`` is empty without any solve; one below ``lb`` is nonempty, and its
slice on the certifying subspace is solved once for the trace, the first
such slice warm-started from the certificate's quadratic model at the
slice maximiser and every later one from the pair before it.  Only a
midpoint inside ``[lb, ub]``, or every midpoint when a certificate fails,
runs the outer min-max search: a positive minimized slice diameter
certifies the midpoint lies below the critical value (raise the lower
bound); a vanishing diameter means no subspace keeps a wide slice, so the
midpoint moves the upper bound down.  The bracket width halves exactly
once per iteration.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainViolation, InvalidBracket, NonFiniteValue
from .geometry import OptimizingTriple, inner_max_diameter
from .local import _certified_bracket
from .outer import default_initial_subspace, outer_min_subspace
from .trace import SolverTrace, TraceRecord

__all__ = [
    "BisectionState",
    "bisection_solve",
    "stationarity_diagnostic",
    "StationarityReport",
    "default_bracket",
]


@dataclass
class BisectionState:
    iter: int
    lower: float
    upper: float
    last_triple: Optional[OptimizingTriple] = None

    @property
    def width(self):
        return self.upper - self.lower


def default_bracket(f, U, rng=None):
    """Bracket from sampled values: min over seeds, max over seeds plus one.

    Seeds are the trust center, axis points at half radius, and 16 random
    interior points drawn from ``rng``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = f.dim
    pts = [U.center.copy()]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 0.5 * U.radius
        pts.append(U.center + e)
        pts.append(U.center - e)
    for _ in range(16):
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu > 0:
            pts.append(U.center + (0.9 * U.radius * rng.random() / nu) * u)
    vals = [f.value(p) for p in pts]
    return float(min(vals)), float(max(vals)) + 1.0


def bisection_solve(f, U, m, l0, u0, tol=0.0, max_iter=50, rng=None):
    """Bisect on the level until the bracket width drops below ``tol``.

    Each midpoint level is classified by certificate first, then by search.
    The certified bracket ``(lb, ub, S_cert)`` of the critical value is
    computed once, starting from the Hessian eigenspace at the trust centre
    (see :func:`saddlekit.local._certified_bracket`).  A midpoint above
    ``ub`` is empty and records the empty triple of ``S_cert`` at its
    maximiser ``S_cert.base``.  A midpoint below ``lb`` is nonempty and
    records the widest pair of its slice on ``S_cert``, warm-started from
    the pair of the last such level; the first such level starts from the
    pair of the quadratic model (:func:`_model_pair`) and falls back to the
    cold multi-start when the model gives none.  Any
    other midpoint, and every midpoint when no certificate holds, is
    classified by :func:`outer_min_subspace` on the full rotation schedule,
    started from the subspace of the last level certified below the
    critical value: a minimized diameter at most 1e-9 moves the upper bound
    down, a larger one raises the lower bound.  Returns
    ``((lower, upper), triple, trace)`` where the triple is the widest pair
    from the last level certified below the critical value (its midpoint is
    the critical-point candidate).  The final width satisfies
    ``upper - lower <= max(tol, (u0 - l0) * 2**-max_iter)``.  The solve
    draws no random numbers; ``rng`` is accepted and not read.
    """
    if not (l0 < u0):
        raise InvalidBracket(f"need l0 < u0, got [{l0}, {u0}]")

    state = BisectionState(iter=0, lower=float(l0), upper=float(u0))
    trace = SolverTrace()
    s_hint = None
    last_nonempty = None
    # a refused certificate settles no level
    lb, ub, s_cert = _certified_bracket(f, U, m, default_initial_subspace(f, U, m)) or (
        -np.inf, np.inf, None
    )
    warm_pair = None
    for i in range(max_iter):
        if tol > 0.0 and state.width <= tol:
            break
        state.iter = i
        mid = 0.5 * (state.lower + state.upper)
        if mid > ub:
            triple = OptimizingTriple(s_cert, s_cert.base, s_cert.base, 0.0, empty=True)
            empty = True
        elif mid < lb:
            if warm_pair is None:
                warm_pair = _model_pair(f, s_cert, mid, U)
            triple = inner_max_diameter(f, s_cert, mid, U, warm_pair=warm_pair)
            warm_pair = (triple.x, triple.y)
            empty = False
        else:
            triple = outer_min_subspace(f, mid, U, m, S0=s_hint)
            empty = triple.diameter <= 1e-9
        if empty:
            state.upper = mid
        else:
            state.lower = mid
            last_nonempty = triple
            s_hint = triple.subspace
        state.last_triple = triple
        z = triple.midpoint
        trace.append(TraceRecord(
            iter=i,
            l=state.lower,
            u=state.upper,
            diameter=triple.diameter,
            kkt_residual=triple.kkt_residual,
            z=z,
            grad_norm=float(np.linalg.norm(f.gradient(z))),
            ratio=0.5,
        ))
    triple = last_nonempty if last_nonempty is not None else state.last_triple
    return (state.lower, state.upper), triple, trace


def _model_pair(f, S, l, U):
    """Widest pair of the quadratic model of f on S at level l, or None.

    S is based at the maximiser y of f on S, with frame F.  Along the
    eigenvector d of the least negative eigenvalue lambda of F^T H(y) F the
    model's slice reaches ``y ± t F d``, ``t = sqrt(2 (f(y) - l) / |lambda|)``.
    None when the model has no such pair (``lambda >= 0`` or ``f(y) <= l``),
    when either point lies outside U (a clipped slice is not the model's),
    or when the Hessian fails to evaluate.
    """
    y, frame = S.base, S.frame.columns
    try:
        gap = f.value(y) - l
        h = f.hessian(y)
        evals, evecs = np.linalg.eigh(frame.T @ h @ frame)
    except (DomainViolation, NonFiniteValue, np.linalg.LinAlgError):
        return None
    if evals[-1] >= 0.0 or gap <= 0.0:
        return None
    step = np.sqrt(2.0 * gap / -evals[-1]) * (frame @ evecs[:, -1])
    pair = (y + step, y - step)
    return pair if all(U.contains(p) for p in pair) else None


@dataclass
class StationarityReport:
    iters: list
    grad_norms: list
    pair_gaps: list
    kkt_residuals: list
    converged: bool
    not_converging: bool


def stationarity_diagnostic(f, trace, tol=1e-4):
    """Smooth-case stationarity check over a recorded run.

    Reports the gradient norm at each recorded midpoint, the pair gap and
    the KKT residual; flags ``converged`` when the final gradient norm is
    below ``tol`` and ``not_converging`` when the pair gap fails to shrink
    to less than 0.9 of its initial value while staying above ``tol``.
    """
    records = list(trace)
    if not records:
        raise ValueError("trace is empty")
    grad_norms = [r.grad_norm for r in records]
    gaps = [r.diameter for r in records]
    converged = grad_norms[-1] < tol
    not_converging = (
        len(records) >= 3 and gaps[-1] > 0.9 * gaps[0] and gaps[-1] > tol
    )
    return StationarityReport(
        iters=[r.iter for r in records],
        grad_norms=grad_norms,
        pair_gaps=gaps,
        kkt_residuals=[r.kkt_residual for r in records],
        converged=converged,
        not_converging=not_converging,
    )
