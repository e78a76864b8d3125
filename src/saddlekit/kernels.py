"""The widest pair of a point set: the pair scan behind the grid oracle.

``|x - q|^2`` is strictly convex in ``x``, so the point farthest from any
``q`` is an extreme point and every widest pair lies on the convex hull
(Qhull: Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996).  For ``k >= 2`` and
more than ``k + 1`` points only the hull vertices and Qhull's coplanar
points are scanned.  1-D sets, tiny sets and sets Qhull rejects as flat get
the full blocked scan.  Both paths round alike and break ties toward the
lowest indices, so they return the same ``(i, j, dist)``.
"""

import numpy as np

# no compiled kernel exists; the benchmark's environment line reads the flag
HAVE_COMPILED = False

__all__ = ["max_separation_pair", "HAVE_COMPILED"]


def max_separation_pair(points):
    """Indices and distance of the farthest-apart pair among ``points``.

    ``points`` is an (N, k) array.  Returns ``(i, j, dist)`` with ``i < j``,
    lexicographically lowest among equally far pairs, or ``(-1, -1, 0.0)``
    when fewer than two points are given.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    n, k = pts.shape
    if k >= 2 and n > k + 1:
        from scipy.spatial import ConvexHull, QhullError

        # Qhull keeps one copy of a repeated point, not always the first, so
        # the hull is of the distinct points and every copy is a candidate
        uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
        try:
            hull = ConvexHull(uniq)
        except QhullError:
            pass
        else:
            extreme = np.union1d(hull.vertices, hull.coplanar[:, 0])
            # ascending order keeps the lowest-index tie-breaking of the full scan
            cand = np.flatnonzero(np.isin(inverse.reshape(-1), extreme))
            i, j, dist = _full_scan(pts[cand])
            return int(cand[i]), int(cand[j]), dist
    return _full_scan(pts)


def _full_scan(pts, block=512):
    """Blocked scan over all pairs; the full N x N matrix is never formed."""
    n = pts.shape[0]
    if n < 2:
        return -1, -1, 0.0
    sq = np.einsum("ij,ij->i", pts, pts)
    # a copy, not a view: numpy hands pts @ pts.T to BLAS syrk, which rounds
    # some entries unlike gemm, and a pair's distance would depend on the set
    pts_t = pts.T.copy()
    best = -1.0
    bi = bj = -1
    for start in range(0, n, block):
        stop = min(start + block, n)
        chunk = pts[start:stop]
        # |p - q|^2 = |p|^2 + |q|^2 - 2 p.q, rows restricted to j > i below
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (chunk @ pts_t)
        cols = np.arange(n)[None, :]
        rows = np.arange(start, stop)[:, None]
        d2[cols <= rows] = -np.inf
        flat = int(np.argmax(d2))
        r, c = divmod(flat, n)
        if d2[r, c] > best:
            best = float(d2[r, c])
            bi, bj = start + r, c
    if best < 0.0:
        return -1, -1, 0.0
    return bi, bj, float(np.sqrt(max(best, 0.0)))
