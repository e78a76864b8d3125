"""Outer minimization over m-dimensional affine subspaces.

The slice diameter is minimized by coordinate search over two move families:
plane rotations mixing each frame direction with each complement direction,
and base translations along the complement directions (translations inside
the subspace change nothing).  Both step sizes halve whenever a full sweep
fails to improve.  Between sweeps the base point moves to the midpoint of
the current widest pair, so later moves pivot around the pair rather than
the original center.

The initial subspace is the span of the eigenvectors belonging to the m
smallest eigenvalues of the Hessian at the trust-region center (the last m
coordinate axes when the Hessian is unavailable).
"""

from dataclasses import replace

import numpy as np

from .errors import NonFiniteValue
from .geometry import AffineSubspace, inner_max_diameter
from .linalg import Frame, complete_frame

__all__ = ["outer_min_subspace"]


def hessian_eigenspace(f, x, m):
    """Subspace through x spanned by the Hessian eigenvectors of the m smallest eigenvalues."""
    # ascending order: the first m columns belong to the m smallest eigenvalues
    return AffineSubspace(x, Frame(np.linalg.eigh(f.hessian(x))[1][:, :m]))


def default_initial_subspace(f, U, m):
    """Negative-eigenspace estimate of the Hessian at the trust center."""
    try:
        return hessian_eigenspace(f, U.center, m)
    except (NonFiniteValue, np.linalg.LinAlgError):
        return AffineSubspace(U.center, Frame(np.eye(f.dim)[:, f.dim - m:]))


def _rotated(v, comp, i, j, theta):
    """Mix frame column i with complement column j by angle theta."""
    vr = v.copy()
    cr = comp.copy()
    c, s = np.cos(theta), np.sin(theta)
    vr[:, i] = c * v[:, i] + s * comp[:, j]
    cr[:, j] = -s * v[:, i] + c * comp[:, j]
    return vr, cr


def outer_min_subspace(
    f,
    l,
    U,
    m,
    S0=None,
    rot_step0=np.pi / 16.0,
    rot_step_min=1e-7,
):
    """Locally minimal slice diameter over subspace rotations and shifts.

    Starts from ``S0``, or from the Hessian eigenspace at the trust centre,
    and returns the best :class:`OptimizingTriple` found.  Each inner solve
    after the first is exact and warm-started from the best pair.  A move
    counts as progress only when it lowers the diameter by more than
    1e-12 (1 + d), d the initial diameter.  The rotation step starts at
    ``rot_step0`` and the translation step at an eighth of the trust radius;
    both halve after a sweep without progress, and the search stops once the
    rotation step falls below ``rot_step_min``, or after 400 sweeps with the
    triple flagged not ``converged``.  A diameter-0 result (empty or
    degenerate slice) is returned as soon as it appears, since the objective
    cannot drop further.  The search draws no random numbers.
    """
    if not (1 <= m <= f.dim):
        raise ValueError(f"morse index must satisfy 1 <= m <= {f.dim}")
    n = f.dim

    S = default_initial_subspace(f, U, m) if S0 is None else S0
    if S.dim != m:
        raise ValueError("initial subspace dimension does not match the index")

    best = inner_max_diameter(f, S, l, U)
    if best.empty or best.diameter == 0.0:
        return best

    imp_tol = 1e-12 * (1.0 + best.diameter)
    step = rot_step0
    trans_step = U.radius / 8.0
    sweeps = 0
    converged = True
    while step >= rot_step_min:
        sweeps += 1
        if sweeps > 400:
            converged = False
            break
        base = best.midpoint
        v = best.subspace.frame.columns
        comp = complete_frame(best.subspace.frame).columns[:, m:]
        # rotate frame column i into complement column j, then shift along j (i None)
        moves = [(i, j, s * step) for i in range(m) for j in range(n - m) for s in (1.0, -1.0)]
        moves += [(None, j, s * trans_step) for j in range(n - m) for s in (1.0, -1.0)]
        improved = False
        for i, j, t in moves:
            if i is None:
                b, vr, cr = base + t * comp[:, j], v, comp
            else:
                b, (vr, cr) = base, _rotated(v, comp, i, j, t)
            try:
                s_try = AffineSubspace(b, Frame(vr))
                trial = inner_max_diameter(f, s_try, l, U, warm_pair=(best.x, best.y))
            except ValueError:  # a shifted subspace can miss the region
                continue
            if trial.empty or trial.diameter == 0.0:
                return trial
            if trial.diameter < best.diameter - imp_tol:
                best, base, v, comp = trial, b, vr, cr
                improved = True
        if not improved:
            step *= 0.5
            trans_step *= 0.5

    if not converged and best.converged:
        best = replace(best, converged=False)
    return best

