"""Dense trust-region Newton minimizer for small restricted problems.

Minimizes a smooth function inside a hard ball constraint (the trust region
of the enclosing saddle search, mapped into local coordinates).  The model
trust radius adapts inside that ball.  Dimensions here are desk scale, so
the subproblem is solved exactly through an eigendecomposition.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["trust_region_minimize", "MinimizeResult"]


def _subproblem(g, w, q, delta):
    """argmin g.s + 1/2 s.H.s subject to |s| <= delta (exact, dense).

    ``w, q`` is the eigendecomposition of H (ascending eigenvalues).
    """
    gq = q.T @ g
    if w[0] > 0.0:
        s = -(gq / w)
        if np.linalg.norm(s) <= delta:
            return q @ s, True
    # boundary solution: |s(nu)| = delta with s(nu) = -gq/(w+nu)
    nu_lo = max(0.0, -w[0]) + 1e-14 * max(1.0, abs(w[0]))

    def snorm(nu):
        return np.linalg.norm(gq / (w + nu))

    if snorm(nu_lo) <= delta:
        # hard case: step along the most negative eigenvector to the boundary
        s = -(gq / (w + nu_lo))
        v = q[:, 0]
        a = 1.0
        b = 2.0 * float(s @ (q.T @ v))
        c = float(s @ s) - delta * delta
        disc = max(b * b - 4.0 * a * c, 0.0)
        t = (-b + np.sqrt(disc)) / (2.0 * a)
        return q @ s + t * v, False
    nu_hi = nu_lo + max(1.0, np.linalg.norm(gq) / delta)
    while snorm(nu_hi) > delta:
        nu_hi *= 2.0
        if nu_hi > 1e300:  # pragma: no cover - pathological scaling
            break
    for _ in range(200):
        nu = 0.5 * (nu_lo + nu_hi)
        if snorm(nu) > delta:
            nu_lo = nu
        else:
            nu_hi = nu
        if nu_hi - nu_lo <= 1e-14 * max(1.0, nu_hi):
            break
    s = -(gq / (w + nu_hi))
    return q @ s, False


def _clip_to_ball(w, center, radius):
    d = w - center
    nd = np.linalg.norm(d)
    if nd <= radius:
        return w, False
    return center + (radius / nd) * d, True


@dataclass
class MinimizeResult:
    w: np.ndarray
    value: float
    grad_norm: float
    status: str  # "converged" | "boundary" | "max_iter"
    outward_slope: float = 0.0  # descent rate through the ball boundary
    min_curvature: float = float("nan")  # smallest Hessian eigenvalue at w


def trust_region_minimize(
    value,
    gradient,
    hessian,
    w0,
    ball_center,
    ball_radius,
    max_iter=200,
    stop_below=None,
):
    """Minimize inside the hard ball |w - ball_center| <= ball_radius.

    Converges at a gradient norm (tangential on the ball boundary) of at
    most 1e-11 (1 + |f(w0)|).

    ``stop_below``: optional early exit once the value drops below this
    threshold (used by feasibility probes that only need any point past a
    level, not the actual minimizer).

    The result status is "boundary" when the iterate is pinned to the ball
    with the objective still descending outward; the caller decides whether
    that constitutes an unbounded restriction.

    Each iterate's gradient and Hessian are evaluated, and the Hessian
    decomposed, once, for both the convergence test and every step tried
    from it.  ``min_curvature`` is the smallest Hessian eigenvalue at
    the returned ``w``.  The tangential-boundary and ``max_iter`` exits
    evaluate that Hessian anew, except in a ``stop_below`` run, which looks
    for a point and reads no curvature; there it is nan, as on the
    ``stop_below`` and "boundary" exits.
    """
    w = np.asarray(w0, dtype=float).copy()
    center = np.asarray(ball_center, dtype=float)
    w, _ = _clip_to_ball(w, center, ball_radius)
    fw = value(w)
    delta = 0.25 * ball_radius
    scale = 1.0 + abs(fw)

    def curvature_at(w):
        if stop_below is not None:
            return float("nan")
        return float(np.linalg.eigvalsh(hessian(w))[0])

    moved = True
    for _ in range(max_iter):
        if stop_below is not None and fw < stop_below:
            return MinimizeResult(w, fw, np.linalg.norm(gradient(w)), "converged")
        if moved:
            # a rejected step leaves w, and so everything evaluated at it, as it was
            moved = False
            g = gradient(w)
            gn = np.linalg.norm(g)
            on_boundary = np.linalg.norm(w - center) >= ball_radius * (1.0 - 1e-12)
            if on_boundary:
                outward = (w - center) / max(np.linalg.norm(w - center), 1e-300)
                slope = float(g @ outward)
                g_tan = g - slope * outward
                if slope < -1e-10 * scale:
                    # wants to leave the ball and keeps descending
                    return MinimizeResult(w, fw, gn, "boundary", outward_slope=slope)
                if np.linalg.norm(g_tan) <= 1e-11 * scale:
                    return MinimizeResult(w, fw, gn, "converged", min_curvature=curvature_at(w))
            h = hessian(w)
            evals, evecs = np.linalg.eigh(h)
            evmin = float(evals[0])
            if gn <= 1e-11 * scale and evmin >= -1e-9 * scale and not on_boundary:
                return MinimizeResult(w, fw, gn, "converged", min_curvature=evmin)
        s, _interior = _subproblem(g, evals, evecs, delta)
        cand, clipped = _clip_to_ball(w + s, center, ball_radius)
        step = cand - w
        pred = -(float(g @ step) + 0.5 * float(step @ h @ step))
        fc = value(cand)
        actual = fw - fc
        if pred <= 0.0:
            ratio = 1.0 if actual > 0.0 else -1.0
        else:
            ratio = actual / pred
        if actual > 0.0 and ratio > 1e-4:
            w, fw = cand, fc
            moved = True
            if ratio > 0.75 and not clipped:
                delta = min(2.0 * delta, ball_radius)
        else:
            delta *= 0.25
            if delta < 1e-16 * ball_radius:
                return MinimizeResult(w, fw, gn, "converged", min_curvature=evmin)
    g = gradient(w)
    return MinimizeResult(w, fw, np.linalg.norm(g), "max_iter", min_curvature=curvature_at(w))
