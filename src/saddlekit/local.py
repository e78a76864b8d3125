"""Superlinearly convergent local driver.

Each iteration solves the slice problem at the current lower bound l_i on
one subspace, estimates the negative eigenspace through the midpoint of the
widest pair (the pair direction plus one Rayleigh-Ritz step on the Hessian
there), and raises the bound to the minimum of the objective on the
orthogonal affine space.  The next iteration's subspace is the eigenspace
estimate rebased at that minimiser ``z + V w*``: the base point itself
corrects any offset in the positive directions, so no rotation or
translation search runs inside the loop.  Near a nondegenerate saddle the
restriction is convex when the eigenspace estimate is right, so a failure
of that minimization (:class:`Unbounded`) is a meaningful signal that the
subspace was wrong, not a solver bug.

Subproblems are solved inexactly on purpose: the pair ascent stalls once its
progress falls below ``(forcing * rho^2)**2`` where ``rho`` is the measured
slice radius, leaving a midpoint error of order ``forcing * rho^2``, i.e.
proportional to the level gap still to climb.  The level errors then shrink
quadratically, which is what the rate measurement classifies as
Q-superlinear.  ``forcing=0`` requests exact (fully polished) subproblems.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DomainViolation,
    InsufficientData,
    LowerBoundViolated,
    NonFiniteValue,
    SliceEmpty,
    Unbounded,
)
from .geometry import AffineSubspace, _SliceProblem, inner_max_diameter
# unused here, but perfbench's span table patches closest_point_on_slice by this name
from .geometry import closest_point_on_slice  # noqa: F401
from .linalg import Frame, complete_frame, unit
from .newton import trust_region_minimize
from .outer import default_initial_subspace, hessian_eigenspace
# unused here, but perfbench's span table patches outer_min_subspace by this name
from .outer import outer_min_subspace  # noqa: F401
from .trace import SolverTrace, TraceRecord

__all__ = [
    "LocalState",
    "RateEstimate",
    "LocalResult",
    "fast_local_solve",
    "estimate_negative_eigenspace",
    "orthogonal_space_lower_bound",
    "measure_convergence_rate",
    "classify_gaps",
]


@dataclass(frozen=True)
class LocalState:
    iter: int
    level: float
    midpoint: np.ndarray
    eigen_subspace: AffineSubspace
    triple: object


@dataclass(frozen=True)
class RateEstimate:
    ratios: np.ndarray
    classification: str  # "Superlinear" | "Linear" | "Stalled"
    reference: float

    @property
    def mean_ratio(self):
        return float(np.mean(self.ratios)) if self.ratios.size else float("nan")

    @property
    def final_ratio(self):
        return float(self.ratios[-1]) if self.ratios.size else float("nan")


@dataclass
class LocalResult:
    point_estimate: np.ndarray
    value_estimate: float
    trace: SolverTrace
    rate: Optional[RateEstimate]
    converged: bool
    iterations: int
    states: list


def orthogonal_space_lower_bound(f, z, S, U):
    """Lower bound of f over the affine space through z orthogonal to S, in U.

    The space has dimension n - dim(S) and lineality orthogonal to the
    lineality of S.  Minimization is trust-region Newton started at z; when
    the restricted Hessian is positive definite at the final iterate the
    returned value is the certified strong-convexity bound
    value - |grad|^2 / (2 lambda_min), so a finite gradient tolerance cannot
    report a value above the true restricted minimum.  Raises
    :class:`Unbounded` when the descent pins to the boundary of U with the
    objective still falling outward.
    """
    return _orthogonal_space_min(f, z, S, U)[0]


def _restricted_min(f, T, U, sign=1.0):
    """Minimise ``sign * f`` on T ∩ U by trust-region Newton from the base of T.

    Returns ``(bound, point, certified)``: the value at the final iterate,
    lowered by ``|grad|^2 / (2 lambda_min)`` when the restricted Hessian of
    ``sign * f`` is positive definite there (``lambda_min`` is the
    minimiser's reported ``min_curvature``); the iterate in ambient
    coordinates; and whether the bound is certified, i.e. that Hessian is
    positive definite and the minimiser converged inside the ball.  Raises
    :class:`Unbounded` when the descent pins to the boundary of U with the
    objective still falling outward.
    """
    sp = _SliceProblem(f, T, U)
    res = trust_region_minimize(
        lambda w: sign * sp.phi(w),
        lambda w: sign * sp.gphi(w),
        lambda w: sign * sp.hphi(w),
        np.zeros(T.dim),
        sp.wc,
        sp.rloc,
    )
    if res.status == "boundary":
        raise Unbounded(
            "restricted objective keeps descending through the trust-region "
            f"boundary (outward slope {res.outward_slope:.3e})"
        )
    bound = float(res.value)
    evmin = res.min_curvature
    if evmin > 0.0:
        bound -= res.grad_norm**2 / (2.0 * evmin)
    interior = float(np.linalg.norm(res.w - sp.wc)) < sp.rloc * (1.0 - 1e-12)
    certified = evmin > 0.0 and interior and res.status == "converged"
    return float(bound), sp.ambient(res.w), certified


def _orthogonal_space_min(f, z, S, U):
    """Lower bound, minimiser ``z + V w*`` and certificate of the orthogonal space.

    Same minimization as :func:`orthogonal_space_lower_bound`, which returns
    only the bound; the local driver also needs the point, the base of its
    next subspace, and :func:`_certified_bracket` the certificate flag of
    :func:`_restricted_min`.
    """
    z = np.asarray(z, dtype=float)
    if S.dim == f.dim:
        # the orthogonal space is the point z itself
        return f.value(z), z, True
    v = complete_frame(S.frame).columns[:, S.dim:]
    return _restricted_min(f, AffineSubspace(z, Frame(v)), U)


def _certified_bracket(f, U, m, S):
    """Certified bracket ``(lb, ub, S_cert)`` of the critical value, or None.

    Where f is convex along the orthogonal space of an m-dimensional
    subspace and concave along the subspace, the saddle-function minimax
    (Rockafellar, *Convex Analysis*, 1970, Part VII) gives
    ``min f on S-perp <= l* <= max f on S``.  Up to 3 alternating steps
    from ``S`` tighten both sides: minimise f on the orthogonal space
    through the base of S, maximise f on the translate ``S_cert`` of S
    through that minimiser, and rebase S on the Hessian eigenspace of the
    m smallest eigenvalues at the maximiser.  The alternation stops once
    the two sides meet within the slack ``1e-12 (1 + |ub|)``, which widens
    the returned bracket on both sides.  The bounds are corrected as in
    :func:`orthogonal_space_lower_bound`: ``lb`` is the minimum less
    ``|g|^2 / (2 lambda_min)``, ``ub`` the maximum plus
    ``|g|^2 / (2 |lambda_max|)``.  A level above ``ub`` leaves the slice of
    ``S_cert`` empty; below ``lb`` it leaves every slice nonempty.  The
    returned ``S_cert`` is based at its maximiser, so ``S_cert.base`` is the
    point where f attains the (uncorrected) maximum on ``S_cert``.

    Returns None when a certificate fails: an optimiser that stops on the
    ball boundary or does not converge, a restricted Hessian that is not
    positive definite (minimum) or negative definite (maximum), or an
    :class:`Unbounded`, :class:`DomainViolation`, :class:`NonFiniteValue`
    or ``LinAlgError`` on the way.
    """
    try:
        for _ in range(3):
            lb, z, min_ok = _orthogonal_space_min(f, S.base, S, U)
            s_cert = AffineSubspace(z, S.frame)
            neg_ub, y, max_ok = _restricted_min(f, s_cert, U, sign=-1.0)
            if not (min_ok and max_ok):
                return None
            ub = -neg_ub
            slack = 1e-12 * (1.0 + abs(ub))
            if ub - lb <= slack:
                break
            S = hessian_eigenspace(f, y, m)
    except (Unbounded, DomainViolation, NonFiniteValue, np.linalg.LinAlgError):
        return None
    return lb - slack, ub + slack, AffineSubspace(y, s_cert.frame)


def estimate_negative_eigenspace(f, triple, m):
    """Negative-eigenspace estimate built from the widest pair.

    The first direction is the pair direction ``unit(x - y)``.  The other
    ``m - 1`` come from one Rayleigh-Ritz step at the pair midpoint ``z``:
    the eigenvectors of the ``m - 1`` smallest eigenvalues of the Hessian
    restricted to the complement of the pair direction.  Index 1 evaluates
    no Hessian.  A deterministic function of its arguments.  Raises
    :class:`SliceEmpty` when fewer than ``m - 1`` of those eigenvalues are
    negative.
    """
    if triple.empty or triple.diameter <= 0.0:
        raise ValueError("eigenspace estimation needs a converged pair with nonzero diameter")
    z = triple.midpoint
    pair = unit(triple.x - triple.y)[:, None]
    if m == 1:
        return AffineSubspace(z, Frame(pair))
    perp = complete_frame(Frame(pair)).columns[:, 1:]
    h = f.hessian(z)
    evals, evecs = np.linalg.eigh(perp.T @ h @ perp)
    if evals[m - 2] >= 0.0:
        raise SliceEmpty("too few negative curvature directions off the pair direction")
    return AffineSubspace(z, Frame(np.hstack([pair, perp @ evecs[:, : m - 1]])))


def fast_local_solve(
    f,
    U,
    m,
    l0,
    max_iter=30,
    tol=1e-9,
    naive_subspace=False,
    S0=None,
    forcing=0.3,
    rng=None,
    critical_value=None,
):
    """Run the local level-raising iteration from the lower bound ``l0``.

    Returns a :class:`LocalResult`.  The first slice is taken on ``S0``, or
    on the Hessian eigenspace at the trust centre.  ``naive_subspace`` skips
    the eigenspace estimation and feeds the slice's own subspace straight to
    the orthogonal-space minimization, which reproduces the documented
    failure on problems like ``failure-3d``.  ``critical_value``, when known,
    is stored on the trace and is the reference of the rate measurement.
    Raises :class:`Unbounded` or :class:`LowerBoundViolated` when the
    iteration leaves its basin, and :class:`SliceEmpty` when the first slice
    is empty (``l0`` above the critical value).  The solve draws no random numbers;
    ``rng`` is accepted and not read.
    """
    if not (1 <= m <= f.dim):
        raise ValueError(f"morse index must satisfy 1 <= m <= {f.dim}")
    if S0 is not None and S0.dim != m:
        raise ValueError("initial subspace dimension does not match the index")
    # the naive path and forcing 0 solve exact subproblems (ascent and polish)
    inner_forcing = None if naive_subspace else forcing
    warm_pair = None
    l = float(l0)
    s_hint = S0 if S0 is not None else default_initial_subspace(f, U, m)
    trace = SolverTrace(critical_value=critical_value)
    states = []
    prev_gap = None
    converged = False
    z = U.center.copy()
    iterations = 0
    for i in range(max_iter):
        iterations = i + 1
        triple = inner_max_diameter(f, s_hint, l, U, warm_pair=warm_pair, forcing=inner_forcing)
        if triple.empty and i == 0:
            raise SliceEmpty(f"the first slice at level {l!r} is empty")
        z = triple.midpoint
        if triple.empty or triple.diameter <= 64.0 * np.finfo(float).eps * np.max(np.abs(z)):
            # the slice is empty, or a few ulps of the midpoint's coordinates
            # wide so that its pair carries no direction: the level has reached
            # the critical value within resolution, and the midpoint (the
            # degenerate slice's anchor) is the best point estimate
            converged = True
            break
        if naive_subspace:
            s_est = triple.subspace
        else:
            # the next slice starts from this pair, whose squared radius
            # scales its feasibility slack
            warm_pair = (triple.x, triple.y)
            s_est = estimate_negative_eigenspace(f, triple, m)
        l_next, z_min, _ = _orthogonal_space_min(f, z, s_est, U)
        if l_next < l - 1e-9 * (1.0 + abs(l)):
            raise LowerBoundViolated(
                f"level dropped from {l!r} to {l_next!r}; the iterate left the basin"
            )
        l_next = max(l_next, l)
        gap = abs(l_next - l)
        ratio = (gap / prev_gap) if prev_gap not in (None, 0.0) else None
        trace.append(TraceRecord(
            iter=i,
            l=l_next,
            u=None,
            diameter=triple.diameter,
            kkt_residual=triple.kkt_residual,
            z=z,
            grad_norm=float(np.linalg.norm(f.gradient(z))),
            ratio=ratio,
        ))
        states.append(LocalState(i, l_next, z, s_est, triple))
        # rebasing at the minimiser moves the next slice onto the saddle's
        # positive directions; the frame is the eigenspace estimate
        s_hint = AffineSubspace(z_min, s_est.frame)
        if gap <= tol * (1.0 + abs(l)):
            l = l_next
            converged = True
            break
        prev_gap = gap
        l = l_next
    if converged and not naive_subspace:
        z = _refine_point_estimate(f, U, z)
    rate = None
    if len(trace) >= 4:
        rate = measure_convergence_rate(trace)
    return LocalResult(
        point_estimate=z,
        value_estimate=l,
        trace=trace,
        rate=rate,
        converged=converged,
        iterations=iterations,
        states=states,
    )


def _refine_point_estimate(f, U, z):
    """One guarded Newton step on grad f = 0 from the final midpoint.

    The level iteration can converge in value while the midpoint still lags
    (it is only re-examined when a new pair is solved).  Near a
    nondegenerate saddle the Hessian (analytic, or the finite-difference
    fallback) is invertible, so one Newton step on the gradient finishes the
    point.  The step is kept only when its target lies in ``U`` and lowers
    the gradient norm.  A singular or non-finite Hessian, or a target outside
    the objective's domain, keeps ``z``.
    """
    try:
        g = f.gradient(z)
        z_new = z - np.linalg.solve(f.hessian(z), g)
        if U.contains(z_new) and np.linalg.norm(f.gradient(z_new)) < np.linalg.norm(g):
            return z_new
    except (np.linalg.LinAlgError, NonFiniteValue, DomainViolation):
        pass
    return z


def classify_gaps(gaps):
    """Rate classification of a positive gap sequence.

    Superlinear: at least three ratios, the last three strictly decreasing,
    final below 0.1.  Linear: all ratios bounded by 0.95.  Stalled otherwise.
    """
    gaps = np.asarray(gaps, dtype=float)
    keep = []
    for g in gaps:
        if not np.isfinite(g) or g <= 0.0:
            break
        keep.append(g)
    gaps = np.asarray(keep)
    if gaps.size < 2:
        return np.array([]), "Stalled"
    ratios = gaps[1:] / gaps[:-1]
    if (
        ratios.size >= 3
        and ratios[-1] < ratios[-2] < ratios[-3]
        and ratios[-1] < 0.1
    ):
        return ratios, "Superlinear"
    if np.all(ratios <= 0.95):
        return ratios, "Linear"
    return ratios, "Stalled"


def measure_convergence_rate(trace, true_value=None):
    """Value-gap ratios and rate classification for a recorded run.

    Bracketing traces (every record has an upper bound) are measured on the
    bracket widths.  Level traces are measured on |l_i - ref|.  The reference
    is, in this order: ``true_value`` when given; the trace's stored
    ``critical_value`` when set; otherwise an Aitken extrapolation of the
    last three levels, whose last gap is then dropped.  A final record whose
    level equals the one before it exactly is the stop record of a run whose
    bound stopped rising; it made no progress, so it is not a rate sample
    and is dropped before the gaps are formed.  Requires at least four
    records.
    """
    if len(trace) < 4:
        raise InsufficientData(
            f"rate measurement needs at least 4 records, got {len(trace)}"
        )
    if trace.has_brackets():
        ratios, label = classify_gaps(trace.widths())
        return RateEstimate(ratios=ratios, classification=label, reference=float("nan"))
    levels = trace.levels()
    if levels[-1] == levels[-2]:
        levels = levels[:-1]
    if true_value is None:
        true_value = trace.critical_value
    if true_value is not None:
        ref = float(true_value)
        gaps = np.abs(levels - ref)
    else:
        d1 = levels[-1] - levels[-2]
        d0 = levels[-2] - levels[-3]
        denom = d1 - d0
        if abs(denom) > 1e-300:
            ref = float(levels[-1] - d1 * d1 / denom)
        else:
            ref = float(levels[-1])
        # the last level effectively defines the extrapolated limit, so it
        # cannot measure its own error; drop its gap
        gaps = np.abs(levels[:-1] - ref)
    ratios, label = classify_gaps(gaps)
    return RateEstimate(ratios=ratios, classification=label, reference=ref)
