"""Geometry of affine slices of level sets.

The central object is the slice S ∩ {f >= l} ∩ U of a superlevel set by an
affine subspace S inside a trust region U.  This module provides

* :func:`inner_max_diameter` -- the widest pair of points on a slice,
  computed by alternating two-point ascent with multi-start seeding and a
  Newton polish of the active-set optimality system,
* :func:`closest_point_on_slice` -- nearest point of a sublevel set on an
  affine subspace, a public utility that no driver calls (the local
  driver's eigenspace estimate is a Rayleigh-Ritz step instead),
* :func:`opposite_gradient_residual` -- the checkable first-order optimality
  certificate for a widest pair (anti-parallel gradients),
* :func:`brute_force_diameter` -- a dense-grid oracle for cross-validation
  at slice dimension <= 3,
* small exact helpers used by the test corpus.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSignature,
    DomainViolation,
    NonFiniteValue,
    NonUniqueWarning,
    SliceEmpty,
    ZeroGradient,
)
from .kernels import max_separation_pair
from .linalg import Frame, orthonormalize
from .newton import _clip_to_ball, trust_region_minimize

__all__ = [
    "AffineSubspace",
    "TrustRegion",
    "OptimizingTriple",
    "KKTCertificate",
    "inner_max_diameter",
    "closest_point_on_slice",
    "opposite_gradient_residual",
    "isosceles_min_segment",
    "isosceles_segment_length",
    "quadratic_minmax_exact",
    "brute_force_diameter",
]


@dataclass(frozen=True)
class AffineSubspace:
    """Affine set {base + V w} with an orthonormal frame V."""

    base: np.ndarray
    frame: Frame

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        object.__setattr__(self, "base", base)
        if base.shape != (self.frame.ambient_dim,):
            raise ValueError("base point dimension does not match frame")

    @classmethod
    def from_span(cls, base, vectors):
        """Subspace through ``base`` spanned by the given (n, k) columns."""
        return cls(np.asarray(base, dtype=float), orthonormalize(np.asarray(vectors, dtype=float)))

    @property
    def dim(self):
        return self.frame.frame_dim

    @property
    def ambient_dim(self):
        return self.frame.ambient_dim

    def to_local(self, x):
        return self.frame.columns.T @ (np.asarray(x, dtype=float) - self.base)

    def from_local(self, w):
        return self.base + self.frame.columns @ np.asarray(w, dtype=float)

    def project(self, x):
        return self.from_local(self.to_local(x))

    def contains(self, x, tol=1e-8):
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.project(x))) <= tol


@dataclass(frozen=True)
class TrustRegion:
    """Closed ball confining all slice computations."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError("trust region radius must be positive and finite")

    def contains(self, x, tol=0.0):
        return float(np.linalg.norm(np.asarray(x, float) - self.center)) <= self.radius + tol

    def boundary_distance(self, x):
        return self.radius - float(np.linalg.norm(np.asarray(x, float) - self.center))


@dataclass(frozen=True)
class OptimizingTriple:
    """Subspace plus the separation-realizing pair on its slice."""

    subspace: AffineSubspace
    x: np.ndarray
    y: np.ndarray
    diameter: float
    empty: bool = False
    converged: bool = True
    boundary_hit: bool = False
    non_unique: bool = False
    kkt_residual: float = field(default=float("nan"))

    @property
    def midpoint(self):
        return 0.5 * (self.x + self.y)


@dataclass(frozen=True)
class KKTCertificate:
    """Multipliers and residual of the widest-pair stationarity system."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    residual: float


class _SliceProblem:
    """Local coordinates of S ∩ U: phi(w) = f(base + V w) on a k-ball."""

    def __init__(self, fn, subspace, region):
        self.fn = fn
        self.subspace = subspace
        self.v = subspace.frame.columns
        self.base = subspace.base
        d = region.center - self.base
        wc = self.v.T @ d
        perp = d - self.v @ wc
        rad2 = region.radius**2 - float(perp @ perp)
        if rad2 <= 0.0:
            raise ValueError("subspace does not intersect the trust region")
        self.wc = wc
        self.rloc = float(np.sqrt(rad2))

    def phi(self, w):
        return self.fn.value(self.base + self.v @ w)

    def gphi(self, w):
        return self.v.T @ self.fn.gradient(self.base + self.v @ w)

    def hphi(self, w):
        return self.v.T @ self.fn.hessian(self.base + self.v @ w) @ self.v

    def ambient(self, w):
        return self.base + self.v @ w

    def clip(self, w):
        return _clip_to_ball(w, self.wc, self.rloc)[0]


def _pull_to_level(sp, w, l, feas_tol, v=None):
    """Move ``w`` onto phi >= l via Newton steps along the gradient.

    ``v`` is phi(w) - l when the caller has it; otherwise ``w`` is tested
    first as the seeding's ray bisection tests points, so that a seed on
    the edge of the slack counts as feasible.  Stops after 80 steps, or
    once 4 steps in a row fail to halve the best deficit seen: near the
    critical value the slack can lie below what phi resolves.
    """
    if v is None:
        value = sp.phi(w)
        if value >= l - feas_tol:
            return w
        v = value - l
    best, stalls = -v, 0
    for _ in range(80):
        if v >= -feas_tol:
            return w
        g = sp.gphi(w)
        g2 = float(g @ g)
        if g2 < 1e-300:
            return None
        w = sp.clip(w - (v / g2) * g)
        v = sp.phi(w) - l
        stalls = 0 if -v <= 0.5 * best else stalls + 1
        best = min(best, -v)
        if stalls >= 4:
            break
    return None if v < -feas_tol else w


def _newton(system, x, start, tol):
    """Newton's method on ``system(x) -> (residual, Jacobian thunk)`` from ``x``.

    ``start`` is ``system(x)``, which the caller forms from the gradients it
    already holds.  Stops once the best max-norm residual is at most
    ``tol``, after 3 steps in a row that do not improve it, or after 40
    steps; returns the best iterate and its residual.  A singular Jacobian
    falls back to lstsq.
    """
    fvec, jac = start
    best_x, best_f = x, fvec
    best_res = float(np.max(np.abs(fvec)))
    worse = 0
    for _ in range(40):
        if best_res <= tol or worse >= 3:
            break
        a = jac()
        try:
            delta = np.linalg.solve(a, -fvec)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(a, -fvec, rcond=None)[0]
        x = x + delta
        fvec, jac = system(x)
        res = float(np.max(np.abs(fvec)))
        if res < best_res:
            best_x, best_f, best_res, worse = x, fvec, res, 0
        else:
            worse += 1
    return best_x, best_f


def _bisect_crossing(inside, lo, hi):
    """Shrink ``[lo, hi]`` around the crossing of ``inside`` (true at lo,
    false at hi) to a width of 1e-13 (1 + hi), in at most 60 halvings."""
    for _ in range(60):
        if hi - lo <= 1e-13 * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _ray_span(sp, anchor, u):
    """Largest t >= 0 with anchor + t*u still inside the local ball."""
    d = anchor - sp.wc
    b = 2.0 * float(u @ d)
    c = float(d @ d) - sp.rloc**2
    disc = max(b * b - 4.0 * c, 0.0)
    return max((-b + np.sqrt(disc)) / 2.0, 0.0)


def _farthest_feasible_on_ray(sp, l, anchor, u, feas_tol):
    """Farthest point with phi >= l along anchor + t*u, refined by bisection.

    Samples mix a uniform and a geometric grid so that slices many orders of
    magnitude smaller than the ball are still detected.
    """
    tmax = _ray_span(sp, anchor, u)
    if tmax <= 0.0:
        return anchor.copy()
    ts = np.unique(np.concatenate([
        np.linspace(0.0, tmax, 17),
        np.geomspace(1e-9 * tmax, tmax, 17),
    ]))
    idx = None
    for i in range(ts.size - 1, -1, -1):
        if sp.phi(anchor + ts[i] * u) >= l - feas_tol:
            idx = i
            break
    if idx is None or ts[idx] == 0.0:
        return anchor.copy()
    if idx == ts.size - 1:
        return anchor + ts[idx] * u
    lo, _ = _bisect_crossing(
        lambda t: sp.phi(anchor + t * u) >= l - feas_tol, ts[idx], ts[idx + 1]
    )
    return anchor + lo * u


def _off_axis_ray(k, j):
    """Fixed unit direction number j of R^k, off every coordinate axis."""
    u = np.sin((j + 1) * 0.75488 * np.arange(1, k + 1) + 0.5)
    return u / np.linalg.norm(u)


def _find_feasible(sp, l, feas_tol):
    """Any point of the slice, or None when phi stays below l on the ball."""
    if sp.phi(sp.wc) >= l - feas_tol:
        return sp.wc.copy()
    k = sp.wc.size
    seeds = [sp.wc.copy()]
    seeds += [sp.clip(sp.wc + 0.5 * sp.rloc * _off_axis_ray(k, j)) for j in range(2)]
    for w0 in seeds:
        res = trust_region_minimize(
            lambda w: -sp.phi(w),
            lambda w: -sp.gphi(w),
            lambda w: -sp.hphi(w),
            w0,
            sp.wc,
            sp.rloc,
            stop_below=-(l - feas_tol),
            max_iter=80,
        )
        if -res.value >= l - feas_tol:
            return res.w
    return None


def _improve_point(sp, l, p, q, feas_tol, step, max_steps=50, max_backtracks=12):
    """Push p away from q along the slice; returns (p, step)."""
    for _ in range(max_steps):
        d = p - q
        nd = float(np.linalg.norm(d))
        if nd < 1e-300:
            d = np.zeros_like(p)
            d[0] = 1.0
            nd = 1.0
        dirn = d / nd
        g = sp.gphi(p)
        slack = sp.phi(p) - l
        cand_dir = dirn
        g2 = float(g @ g)
        # slide along the level boundary when a straight step would exit it
        if g2 > 0.0 and slack < abs(float(g @ dirn)) * step + 10.0 * feas_tol:
            dtan = dirn - (float(dirn @ g) / g2) * g
            ndt = float(np.linalg.norm(dtan))
            if ndt > 1e-12:
                cand_dir = dtan / ndt
        improved = False
        t = step
        for bt in range(max_backtracks):
            cand = sp.clip(p + t * cand_dir)
            v = sp.phi(cand) - l
            if v < -feas_tol:
                # pulling back to the level boundary lands near the same spot
                # for every overshooting step; only do it once
                cand = _pull_to_level(sp, cand, l, feas_tol, v) if bt == 0 else None
            if cand is not None:
                sep = float(np.linalg.norm(cand - q))
                if sep > nd + 1e-16 * (1.0 + nd):
                    p = cand
                    step = min(t * 2.0, 0.5 * sp.rloc)
                    improved = True
                    break
            t *= 0.25
        if not improved:
            step = max(t, 1e-17 * (1.0 + sp.rloc))
            break
    return p, step


def _ascend_pair(sp, l, p, q, feas_tol, ascent_tol):
    sep = float(np.linalg.norm(p - q))
    step = 0.25 * sp.rloc
    converged = False
    for _ in range(120):
        p, step_p = _improve_point(sp, l, p, q, feas_tol, step)
        q, step_q = _improve_point(sp, l, q, p, feas_tol, step)
        step = max(step_p, step_q)
        new_sep = float(np.linalg.norm(p - q))
        if new_sep - sep <= ascent_tol * (1.0 + new_sep):
            converged = True
            sep = new_sep
            break
        sep = new_sep
    return p, q, sep, converged


def _multiplier(g, d):
    """Least-squares mu in d + mu g = 0; None where the gradient g vanishes."""
    g2 = float(g @ g)
    return None if g2 < 1e-300 else -float(d @ g) / g2


def _polish_pair(sp, l, p, q, polish_tol):
    """Newton refinement of the stationarity system for the widest pair.

    Both level constraints are taken active; skipped when either point is
    pinned to the ball boundary instead.  Returns the refined (p, q,
    certified), or None when the polish fails, including when a Newton
    iterate leaves the objective's domain or makes it non-finite, or narrows
    (p, q) by more than 1e-6 (1 + |p - q|): Newton can land on the system's
    root p = q.  ``certified`` holds on a line slice (k = 1) whose residual
    met ``polish_tol`` with both multipliers positive, which makes the pair
    a strict local maximum (see :func:`inner_max_diameter`).
    """
    k = p.size
    ball_slack = 1e-9 * sp.rloc
    for w in (p, q):
        if sp.rloc - float(np.linalg.norm(w - sp.wc)) <= ball_slack:
            return None

    gp, gq = sp.gphi(p), sp.gphi(q)
    mu_p, mu_q = _multiplier(gp, p - q), _multiplier(gq, q - p)
    if mu_p is None or mu_q is None:
        return None

    def system(state, grads=None):
        p, q = state[:k], state[k : 2 * k]
        mu_p, mu_q = state[2 * k], state[2 * k + 1]
        gp, gq = (sp.gphi(p), sp.gphi(q)) if grads is None else grads
        fvec = np.concatenate([
            (p - q) + mu_p * gp,
            (q - p) + mu_q * gq,
            [sp.phi(p) - l, sp.phi(q) - l],
        ])

        def jacobian():
            jac = np.zeros((2 * k + 2, 2 * k + 2))
            eye = np.eye(k)
            jac[:k, :k] = eye + mu_p * sp.hphi(p)
            jac[:k, k : 2 * k] = -eye
            jac[:k, 2 * k] = gp
            jac[k : 2 * k, :k] = -eye
            jac[k : 2 * k, k : 2 * k] = eye + mu_q * sp.hphi(q)
            jac[k : 2 * k, 2 * k + 1] = gq
            jac[2 * k, :k] = gp
            jac[2 * k + 1, k : 2 * k] = gq
            return jac

        return fvec, jacobian

    sep = float(np.linalg.norm(p - q))
    state = np.concatenate([p, q, [mu_p, mu_q]])
    try:
        state, fvec = _newton(system, state, system(state, (gp, gq)), polish_tol)
    except (DomainViolation, NonFiniteValue):
        # a Newton iterate left the objective's domain; the ascent's pair stands
        return None
    p, q = state[:k], state[k : 2 * k]
    certified = (
        k == 1
        and float(np.max(np.abs(fvec))) <= polish_tol
        and min(state[2 * k], state[2 * k + 1]) > 0.0
    )
    # polished points must stay on the slice and inside the ball, and not narrow
    if min(fvec[2 * k], fvec[2 * k + 1]) < -1e-8 * (1.0 + abs(l)):
        return None
    if (
        float(np.linalg.norm(p - sp.wc)) > sp.rloc * (1.0 + 1e-9)
        or float(np.linalg.norm(q - sp.wc)) > sp.rloc * (1.0 + 1e-9)
    ):
        return None
    if float(np.linalg.norm(p - q)) < sep - 1e-6 * (1.0 + sep):
        return None
    return p, q, certified


def _canonical_pair(x, y):
    if tuple(x) > tuple(y):
        return y, x
    return x, y


def _pair_distance(x1, y1, x2, y2):
    a = max(np.linalg.norm(x1 - x2), np.linalg.norm(y1 - y2))
    b = max(np.linalg.norm(x1 - y2), np.linalg.norm(y1 - x2))
    return float(min(a, b))


def _empty_triple(sp):
    anchor = sp.ambient(sp.wc)
    return OptimizingTriple(
        subspace=sp.subspace, x=anchor, y=anchor, diameter=0.0, empty=True
    )


def inner_max_diameter(f, S, l, U, rng=None, warm_pair=None, forcing=None):
    """Widest pair of points on the slice S ∩ {f >= l} ∩ U.

    Alternating two-point ascent: each point in turn is pushed away from the
    other by projected steps that track the level boundary.  Returns a
    diameter-0 triple flagged ``empty`` when the slice contains no point.

    ``forcing=None`` is the exact solve: seeds along each frame axis once
    plus two fixed off-axis rays (k+2 starts), an ascent run until a sweep
    gains less than 1e-11 (relative), and a Newton polish of the
    stationarity system down to a residual of 1e-13 (1 + |l|).  A number is
    the local driver's solve.  A positive one is inexact: the first
    off-axis ray only, no polish, and the seed pair is pulled onto the level
    once; the slice radius rho is measured from the pulled pair's separation
    and the ascent is stalled at a progress threshold of order
    (forcing * rho^2)^2, which leaves a midpoint error of order
    forcing * rho^2, i.e. proportional to the level gap still to climb.
    Tolerances then track the slice rather than any assumed critical value.
    ``forcing=0`` seeds, ascends and polishes as the exact solve does.

    ``warm_pair`` restarts from a previous ambient pair and skips the
    seeding (used by the outer rotation search and, from one iteration to
    the next, by the local driver).  A warm pair that cannot be pulled onto
    the level is dropped and the slice solved cold.  The warm exact solve
    polishes the pulled pair first.  On a line slice (k = 1) a polish that
    meets its residual tolerance with both multipliers positive is
    certified and returned as it stands: with both level constraints active
    the tangent space is {0}, so the first-order conditions are sufficient
    for a strict local maximum.  Otherwise a two-step probe decides whether
    the full ascent runs.  For k >= 2 the probe stays: a KKT-inertia test in
    its place accepted pairs the probe still widened (up to 7e-3 on
    ``four-lines``, whose Hessian is a finite difference) and costs two
    Hessians per solve.  Only a solve started
    cold checks the slice for several widest pairs (``non_unique``, with a
    :class:`NonUniqueWarning`).

    The feasibility slack is 1e-12 times a scale: 1 + |l|, except in a warm
    solve of the local driver (``forcing`` a number), whose scale is the
    squared radius 0.25 |x - y|^2 of its warm pair (x, y), kept for the cold
    retry.

    The solve draws no random numbers; ``rng`` is accepted and not read.
    """
    scale = 1.0 + abs(l)
    if warm_pair is not None and forcing is not None:
        d = float(np.linalg.norm(np.asarray(warm_pair[0]) - np.asarray(warm_pair[1])))
        scale = max(0.25 * d * d, 1e-300)
    return _widest_pair(f, S, l, U, warm_pair, 1e-12 * scale, forcing, warm_pair is None)


def _widest_pair(f, S, l, U, warm_pair, feas_tol, forcing, detect_nonunique):
    sp = _SliceProblem(f, S, U)
    k = S.dim
    initial_feas_tol = feas_tol
    ascent_tol = 1e-11
    polish_tol = 1e-13 * (1.0 + abs(l))
    polish = not forcing

    starts = []
    if warm_pair is not None:
        p0 = sp.clip(S.to_local(warm_pair[0]))
        q0 = sp.clip(S.to_local(warm_pair[1]))
        starts.append((p0, q0))
    else:
        anchor = _find_feasible(sp, l, feas_tol)
        if anchor is None:
            return _empty_triple(sp)
        # a ray and its reverse give one seed pair; axis seeds are degenerate
        # on axis-symmetric slices, where they pin the pair to an exactly
        # symmetric configuration, so off-axis rays join them; the inexact
        # solve seeds from the first off-axis ray only
        dirs = [_off_axis_ray(k, j) for j in range(2 if polish else 1)]
        if polish:
            dirs = list(np.eye(k)) + dirs
        for u in dirs:
            p0 = _farthest_feasible_on_ray(sp, l, anchor, u, feas_tol)
            q0 = _farthest_feasible_on_ray(sp, l, anchor, -u, feas_tol)
            starts.append((p0, q0))

    if not polish:
        # pull the one seed pair once and re-derive the tolerances from it, so
        # they track the actual gap instead of the level's absolute size; the
        # main loop's pull continues from the pulled pair to the tighter slack
        p0, q0 = starts[0]
        p = _pull_to_level(sp, p0, l, feas_tol)
        q = _pull_to_level(sp, q0, l, feas_tol)
        starts = []
        if p is not None and q is not None:
            starts.append((p, q))
            d0 = float(np.linalg.norm(p - q))
            rho2 = max(0.25 * d0 * d0, 1e-300)
            feas_tol = 1e-12 * rho2
            ascent_tol = (forcing * rho2) ** 2 / (1.0 + d0)

    results = []
    for p0, q0 in starts:
        p = _pull_to_level(sp, p0, l, feas_tol)
        q = _pull_to_level(sp, q0, l, feas_tol)
        if p is None or q is None:
            continue
        if warm_pair is not None and polish:
            # a warm pair is usually already stationary: polish first.  On a
            # line a certified polish is a strict local maximum and stands;
            # otherwise fall back to the full ascent when a probe still finds
            # progress (see the docstring for why k >= 2 keeps the probe)
            polished = _polish_pair(sp, l, p, q, polish_tol)
            if polished is not None:
                pp, qq, certified = polished
                sep0 = float(np.linalg.norm(pp - qq))
                if certified:
                    results.append((sep0, pp, qq, True))
                    continue
                probe_step = 0.1 * sp.rloc
                p2, _ = _improve_point(
                    sp, l, pp, qq, feas_tol, probe_step, max_steps=2, max_backtracks=6
                )
                q2, _ = _improve_point(
                    sp, l, qq, p2, feas_tol, probe_step, max_steps=2, max_backtracks=6
                )
                sep2 = float(np.linalg.norm(p2 - q2))
                if sep2 - sep0 <= max(ascent_tol * (1.0 + sep0), polish_tol):
                    results.append((sep0, pp, qq, True))
                    continue
                p, q = p2, q2
        p, q, sep, converged = _ascend_pair(sp, l, p, q, feas_tol, ascent_tol)
        if polish:
            polished = _polish_pair(sp, l, p, q, polish_tol)
            if polished is not None:
                p, q, _ = polished
                sep = float(np.linalg.norm(p - q))
        results.append((sep, p, q, converged))

    if not results:
        if warm_pair is not None:
            return _widest_pair(f, S, l, U, None, initial_feas_tol, forcing, False)
        return _empty_triple(sp)

    best_sep = max(r[0] for r in results)
    contenders = [r for r in results if r[0] >= best_sep - 1e-9 * (1.0 + best_sep)]
    keyed = []
    for sep, p, q, conv in contenders:
        x, y = _canonical_pair(sp.ambient(p), sp.ambient(q))
        keyed.append((tuple(x), sep, x, y, conv))
    keyed.sort(key=lambda r: r[0])
    _, sep, x, y, converged = keyed[0]

    non_unique = False
    if detect_nonunique and best_sep > 1e-9:
        for other_sep, p, q, _ in results:
            if other_sep < best_sep - 1e-6:
                continue
            ox, oy = _canonical_pair(sp.ambient(p), sp.ambient(q))
            if _pair_distance(x, y, ox, oy) > 1e-4 * (1.0 + best_sep):
                non_unique = True
                warnings.warn(
                    "slice has multiple separation-realizing pairs",
                    NonUniqueWarning,
                    stacklevel=3,
                )
                break

    boundary_hit = (
        U.boundary_distance(x) <= 1e-6 or U.boundary_distance(y) <= 1e-6
    )
    kkt = float("nan")
    if sep > 1e-12:
        try:
            kkt = opposite_gradient_residual(f, x, y).residual
        except ZeroGradient:
            pass
    return OptimizingTriple(
        subspace=S,
        x=x,
        y=y,
        diameter=sep,
        empty=False,
        converged=converged,
        boundary_hit=boundary_hit,
        non_unique=non_unique,
        kkt_residual=kkt,
    )


def closest_point_on_slice(f, z, l, S, radius=None):
    """Closest point to ``z`` on S ∩ {f <= l}.

    ``z`` must lie on S.  The restriction to S is solved on the ball of
    ``radius`` around ``z`` (default 10 (1 + |z|)).  Seeds are the first
    level crossings, found by sampling and bisection, along both signs of
    every eigenvector of negative curvature of the restricted Hessian at
    ``z``; when none of these rays crosses the level, a trust-region descent
    from ``z`` supplies the one seed.  Each seed is polished by Newton on the
    closest-point stationarity system, and the nearest survivor is returned.
    No random numbers are drawn.  Raises :class:`SliceEmpty` when no
    sublevel point is found.  The level slack is 1e-12 max(|l|, 1e-300): it
    tracks the level itself, whatever its size.
    """
    z = np.asarray(z, dtype=float)
    if not S.contains(z, tol=1e-8):
        raise ValueError("query point does not lie on the subspace")
    if radius is None:
        radius = 10.0 * (1.0 + float(np.linalg.norm(z)))
    sp = _SliceProblem(f, S, TrustRegion(z, radius))
    psi, gpsi, hpsi, wz = sp.phi, sp.gphi, sp.hphi, sp.wc
    feas_tol = 1e-12 * max(abs(l), 1e-300)

    def above(w):
        return psi(w) > l + feas_tol

    if not above(wz):
        return z.copy()

    k = S.dim
    # a positive-curvature ray starts uphill, and the descent below covers
    # the case where no negative-curvature ray crosses; both signs, since
    # higher-order terms decide which crossing is nearer
    evals, evecs = np.linalg.eigh(hpsi(wz))
    dirs = [s * evecs[:, i] for i in range(k) if evals[i] < 0.0 for s in (1.0, -1.0)]

    def crossing_on_ray(u):
        prev = 0.0
        for t in np.geomspace(1e-6 * (1.0 + radius), radius, 40):
            if not above(wz + t * u):
                _, hi = _bisect_crossing(lambda r: above(wz + r * u), prev, t)
                return wz + hi * u
            prev = t
        return None

    seeds = [w for w in map(crossing_on_ray, dirs) if w is not None]
    if not seeds:
        res = trust_region_minimize(
            psi, gpsi, hpsi, wz, wz, sp.rloc, stop_below=l - feas_tol, max_iter=150
        )
        if res.value > l + feas_tol:
            raise SliceEmpty(
                f"no point with f <= {l} found on the subspace within radius {radius}"
            )
        seg = res.w - wz
        _, hi = _bisect_crossing(lambda r: above(wz + r * seg), 0.0, 1.0)
        seeds.append(wz + hi * seg)

    def system(state, g=None):
        w, mu = state[:k], state[k]
        g = gpsi(w) if g is None else g
        fvec = np.concatenate([(w - wz) + mu * g, [psi(w) - l]])

        def jacobian():
            jac = np.zeros((k + 1, k + 1))
            jac[:k, :k] = np.eye(k) + mu * hpsi(w)
            jac[:k, k] = g
            jac[k, :k] = g
            return jac

        return fvec, jacobian

    def polish(w):
        g = gpsi(w)
        mu = _multiplier(g, w - wz)
        if mu is None:
            return w
        state = np.concatenate([w, [mu]])
        return _newton(system, state, system(state, g), feas_tol)[0][:k]

    best_w = None
    best_d = np.inf
    for w in seeds:
        w = polish(w)
        if psi(w) > l + 1e-8 * (1.0 + abs(l)):
            continue
        d = float(np.linalg.norm(w - wz))
        if d < best_d:
            best_d, best_w = d, w
    if best_w is None:
        raise SliceEmpty("sublevel seeds did not survive polishing")
    return S.from_local(best_w)


def opposite_gradient_residual(f, x, y):
    """Certificate that the widest-pair gradients are anti-parallel.

    residual = |unit(grad f(x)) - unit(y-x)| + |unit(grad f(y)) - unit(x-y)|,
    zero exactly when grad f(x) is a positive multiple of y - x and
    grad f(y) a positive multiple of x - y.  Multipliers of the stationarity
    system are recovered by projection onto the pair direction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        raise ValueError("certificate requires two distinct points")
    gx = f.gradient(x)
    gy = f.gradient(y)
    ngx = float(np.linalg.norm(gx))
    ngy = float(np.linalg.norm(gy))
    if ngx < 1e-12 or ngy < 1e-12:
        raise ZeroGradient("gradient too small for the opposite-direction certificate")
    u = d / nd
    residual = float(np.linalg.norm(gx / ngx - u) + np.linalg.norm(gy / ngy + u))
    ax = float(gx @ u)
    lambda1 = 2.0 * nd / ax if ax > 1e-300 else 0.0
    perp_x = gx - ax * u
    lambda3 = lambda1 * float(np.linalg.norm(perp_x))
    ay = float(gy @ (-u))
    lambda2 = 2.0 * nd / ay if ay > 1e-300 else 0.0
    perp_y = gy - float(gy @ u) * u
    lambda4 = lambda2 * float(np.linalg.norm(perp_y))
    return KKTCertificate(lambda1, lambda2, lambda3, lambda4, residual)


def isosceles_segment_length(alpha, d, theta):
    """Length of the segment cut by the two rays for inclination theta."""
    return d * (np.sin(alpha) / np.sin(theta) + np.sin(alpha) / np.sin(np.pi - 2.0 * alpha - theta))


def isosceles_min_segment(alpha, d):
    """Inclination minimizing the cut segment: the isosceles configuration.

    For rays at half-angle ``alpha`` from a pivot at distance ``d``, the
    shortest chord through the pivot is attained at theta = pi/2 - alpha,
    independent of d.
    """
    if not (0.0 < alpha < np.pi / 2.0):
        raise ValueError("alpha must lie in (0, pi/2)")
    if d <= 0.0:
        raise ValueError("pivot distance must be positive")
    return np.pi / 2.0 - alpha


def quadratic_minmax_exact(a, l):
    """Closed-form optimizing triple for f(x) = sum_j a_j x_j^2 at level l < 0.

    Requires strictly descending coefficients with the positive block first
    and exactly the trailing block negative.  The optimal subspace is the
    span of the negative-coefficient axes, the pair sits on the axis of the
    least-negative coefficient, and the diameter is 2*sqrt(l / a_{n-m+1}).
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if np.any(a == 0.0) or np.any(np.diff(a) >= 0.0):
        raise BadSignature("coefficients must be strictly descending and nonzero")
    m = int(np.sum(a < 0.0))
    if m == 0:
        raise BadSignature("at least one negative coefficient is required")
    if np.any(a[: n - m] <= 0.0):
        raise BadSignature("positive coefficients must precede negative ones")
    if l >= 0.0:
        raise ValueError("level must be negative")
    lead = n - m  # index of a_{n-m+1} in 0-based terms
    r = float(np.sqrt(l / a[lead]))
    x = np.zeros(n)
    x[lead] = r
    eye = np.eye(n)
    S = AffineSubspace(np.zeros(n), Frame(eye[:, lead:]))
    return OptimizingTriple(subspace=S, x=x, y=-x, diameter=2.0 * r)


def brute_force_diameter(f, S, l, U, grid_resolution=64):
    """Dense-grid oracle for the slice diameter (slice dimension <= 3).

    Maps a regular grid on the local ball to ambient points in one product,
    evaluates them all in one ``f.values`` call, keeps those with f >= l,
    and finds their widest pair on its convex hull
    (:mod:`saddlekit.kernels`).  The result is within
    O(diam(U) / grid_resolution) of the true diameter.
    """
    if S.dim > 3:
        raise ValueError("brute force oracle is limited to slice dimension <= 3")
    if grid_resolution < 32:
        raise ValueError("grid resolution must be at least 32")
    sp = _SliceProblem(f, S, U)
    axes = [
        np.linspace(sp.wc[i] - sp.rloc, sp.wc[i] + sp.rloc, grid_resolution)
        for i in range(S.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    inside = np.linalg.norm(pts - sp.wc, axis=1) <= sp.rloc * (1.0 + 1e-12)
    pts = pts[inside]
    feas_tol = 1e-12 * (1.0 + abs(l))
    vals = f.values(sp.base + pts @ sp.v.T)
    pts = pts[vals >= l - feas_tol]
    if pts.shape[0] == 0:
        return _empty_triple(sp)
    if pts.shape[0] == 1:
        x = sp.ambient(pts[0])
        return OptimizingTriple(subspace=S, x=x, y=x.copy(), diameter=0.0)
    i, j, dist = max_separation_pair(pts)
    x, y = _canonical_pair(sp.ambient(pts[i]), sp.ambient(pts[j]))
    return OptimizingTriple(subspace=S, x=x, y=y, diameter=float(dist))
