"""Small dense linear-algebra substrate.

QR factorization, symmetric eigendecomposition and Gram-Schmidt completion
of orthonormal frames.  Everything here is a pure function on small dense
arrays (n expected well below a few hundred), safe to call concurrently.

Conventions fixed across the toolkit:

* eigenvalues are always returned in descending order,
* eigenvectors are sign-normalized so the largest-magnitude component of each
  column is positive (makes tests deterministic),
* QR is sign-normalized so the diagonal of R is nonnegative.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric, RankDeficient

__all__ = [
    "Frame",
    "qr_decompose",
    "sym_eigen",
    "complete_frame",
    "orthonormalize",
    "unit",
]


def unit(v):
    """Unit vector along ``v``; raises on the zero vector."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame: an (n, k) matrix with orthonormal columns."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("frame columns must form a 2-d array")
        object.__setattr__(self, "columns", cols)
        n, k = cols.shape
        if not (1 <= k <= n):
            raise ValueError(f"frame must be tall: got shape {cols.shape}")
        err = self.orthonormality_error()
        if err > 1e-8:
            raise ValueError(f"columns are not orthonormal (error {err:.3e})")

    @property
    def ambient_dim(self):
        return self.columns.shape[0]

    @property
    def frame_dim(self):
        return self.columns.shape[1]

    def orthonormality_error(self):
        """max |V^T V - I|, the testable orthonormality defect."""
        v = self.columns
        g = v.T @ v
        return float(np.max(np.abs(g - np.eye(v.shape[1]))))


def qr_decompose(m):
    """Reduced QR factorization with nonnegative diagonal of R.

    Returns ``(Frame(Q), R)`` with ``Q @ R == m`` to round-off.  Raises
    :class:`RankDeficient` when the smallest singular value is below
    ``1e-12`` times the largest.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient(
            f"matrix of shape {m.shape} is rank deficient "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
        )
    q, r = np.linalg.qr(m, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    r = r * signs[:, None]
    return Frame(q), r


def orthonormalize(m):
    """Orthonormal basis of the column span of ``m`` (a Frame)."""
    q, _ = qr_decompose(m)
    return q


def sym_eigen(m, tol=1e-10):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, Frame)`` with eigenvalues sorted descending and
    the eigenvector sign convention described in the module docstring.
    Raises :class:`NotSymmetric` when ``|m - m.T|`` exceeds ``tol``
    relative to the matrix scale.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > tol * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0.0:
            v[:, j] = -v[:, j]
    return w, Frame(v)


def complete_frame(frame):
    """Complete an orthonormal (n, k) frame to a full (n, n) frame.

    The first k columns of the result are the input columns bit-for-bit.
    New columns are built by projecting elementary vectors against the
    current frame and normalizing, moving to the next elementary vector
    whenever the projection residual norm falls below 1e-8.  Since the
    residuals of all n elementary vectors cannot simultaneously be small,
    this always makes progress.  The columns are filled into one
    preallocated (n, n) matrix.
    """
    v = frame.columns
    n, k = v.shape
    if k == n:
        return frame
    out = np.empty((n, n))
    out[:, :k] = v
    for slot in range(k, n):
        work = out[:, :slot]
        if slot < 4:
            # BLAS takes a different kernel for the transposed product of a
            # strided view this narrow; a contiguous copy keeps the columns
            # bit-for-bit what they were when the basis was re-stacked for
            # every new column
            work = np.ascontiguousarray(work)
        for offset in range(n):
            idx = (slot + offset) % n
            e = np.zeros(n)
            e[idx] = 1.0
            # work.T @ e is row idx of work, exactly
            r = e - work @ work[idx]
            rn = np.linalg.norm(r)
            if rn < 1e-8:
                continue
            r /= rn
            # second projection pass keeps orthogonality near round-off
            r -= work @ (work.T @ r)
            r /= np.linalg.norm(r)
            out[:, slot] = r
            break
        else:  # pragma: no cover - impossible for k < n
            raise RuntimeError("frame completion failed to make progress")
    return Frame(out)
