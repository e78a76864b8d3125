"""Superlinearly convergent local driver.

Each iteration solves the slice problem at the current lower bound l_i on
one subspace, estimates the negative eigenspace through the midpoint of the
widest pair, and raises the bound to the minimum of the objective on the
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
from .geometry import AffineSubspace, closest_point_on_slice, inner_max_diameter
from .linalg import Frame, complete_frame, unit
from .newton import trust_region_minimize
# unused here, but perfbench's span table patches outer_min_subspace by this name
from .outer import default_initial_subspace, outer_min_subspace  # noqa: F401
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


def _orthogonal_space_min(f, z, S, U):
    """Certified lower bound and minimiser ``z + V w*`` of the orthogonal space.

    Same minimization as :func:`orthogonal_space_lower_bound`, which returns
    only the bound; the local driver also needs the point, the base of its
    next subspace.
    """
    z = np.asarray(z, dtype=float)
    v = complete_frame(S.frame).columns[:, S.dim:]

    def val(w):
        return f.value(z + v @ w)

    def grad(w):
        return v.T @ f.gradient(z + v @ w)

    def hess(w):
        return v.T @ f.hessian(z + v @ w) @ v

    d = U.center - z
    wc = v.T @ d
    perp = d - v @ wc
    rad2 = U.radius**2 - float(perp @ perp)
    if rad2 <= 0.0:
        raise ValueError("orthogonal space does not intersect the trust region")
    rloc = float(np.sqrt(rad2))
    res = trust_region_minimize(val, grad, hess, np.zeros(v.shape[1]), wc, rloc)
    if res.status == "boundary":
        raise Unbounded(
            "restricted objective keeps descending through the trust-region "
            f"boundary (outward slope {res.outward_slope:.3e})"
        )
    value = float(res.value)
    evmin = float(np.linalg.eigvalsh(hess(res.w))[0])
    if evmin > 0.0:
        value -= res.grad_norm**2 / (2.0 * evmin)
    return value, z + v @ res.w


def estimate_negative_eigenspace(f, triple, l, m, radius=None, rng=None, prev_frame=None):
    """Negative-eigenspace estimate built from the widest pair.

    Starts from the pair direction, then repeatedly finds the closest point
    of the sublevel set on the orthogonal complement through the midpoint;
    each such direction approximates the eigenvector of the next negative
    eigenvalue (ordered by distance from zero).  ``prev_frame`` seeds the
    closest-point searches with the previous iteration's estimate.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if triple.empty or triple.diameter <= 0.0:
        raise ValueError("eigenspace estimation needs a converged pair with nonzero diameter")
    z = triple.midpoint
    cols = unit(triple.x - triple.y)[:, None]
    for _ in range(1, m):
        perp = complete_frame(Frame(cols)).columns[:, cols.shape[1]:]
        s_perp = AffineSubspace(z, Frame(perp))
        hints = None
        if prev_frame is not None:
            hints = [prev_frame.columns[:, j] for j in range(prev_frame.frame_dim)]
        p = closest_point_on_slice(
            f, z, l, s_perp,
            radius=radius, rng=rng, hint_directions=hints,
            feas_scale=max(abs(l), 1e-300),
        )
        d = p - z
        dist = float(np.linalg.norm(d))
        d = d - cols @ (cols.T @ d)
        nd = float(np.linalg.norm(d))
        if dist == 0.0 or nd < 1e-8 * dist:
            raise SliceEmpty("closest sublevel point is degenerate with the current span")
        cols = np.hstack([cols, (d / nd)[:, None]])
    if cols.shape[1] != m:  # pragma: no cover - loop construction guarantees this
        raise RuntimeError("eigenspace estimate has wrong dimension")
    return AffineSubspace(z, Frame(cols))


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
    iteration leaves its basin.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not (1 <= m <= f.dim):
        raise ValueError(f"morse index must satisfy 1 <= m <= {f.dim}")
    if S0 is not None and S0.dim != m:
        raise ValueError("initial subspace dimension does not match the index")
    # the naive path and forcing 0 solve exact subproblems (ascent and polish)
    inner_kwargs = {}
    if forcing > 0.0 and not naive_subspace:
        inner_kwargs = dict(auto_forcing=forcing, polish=False, axis_seeds=False, n_random_starts=1)
    l = float(l0)
    s_hint = S0 if S0 is not None else default_initial_subspace(f, U, m)
    prev_est = None
    trace = SolverTrace(critical_value=critical_value)
    states = []
    prev_gap = None
    converged = False
    z = U.center.copy()
    iterations = 0
    for i in range(max_iter):
        iterations = i + 1
        triple = inner_max_diameter(f, s_hint, l, U, rng=rng, **inner_kwargs)
        z = triple.midpoint
        if triple.empty or triple.diameter <= 0.0:
            # level has reached the critical value within resolution; the
            # degenerate slice's anchor is the best point estimate
            converged = True
            break
        if naive_subspace:
            s_est = triple.subspace
        else:
            # the next slice starts from this pair, with its feasibility
            # slack scaled to this slice's squared radius
            inner_kwargs["warm_pair"] = (triple.x, triple.y)
            inner_kwargs["feas_scale"] = max(0.25 * triple.diameter**2, 1e-300)
            try:
                s_est = estimate_negative_eigenspace(
                    f, triple, l, m, radius=2.0 * U.radius, rng=rng, prev_frame=prev_est
                )
            except SliceEmpty:
                if i > 0 and abs(l) <= 1e-12 * (1.0 + abs(l0)):
                    # midpoint sits at the critical point to machine accuracy
                    converged = True
                    break
                raise
        prev_est = s_est.frame
        l_next, z_min = _orthogonal_space_min(f, z, s_est, U)
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
    records = list(trace)
    if len(records) < 4:
        raise InsufficientData(
            f"rate measurement needs at least 4 records, got {len(records)}"
        )
    if all(r.u is not None for r in records):
        gaps = [r.u - r.l for r in records]
        ratios, label = classify_gaps(gaps)
        return RateEstimate(ratios=ratios, classification=label, reference=float("nan"))
    levels = np.array([r.l for r in records])
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
