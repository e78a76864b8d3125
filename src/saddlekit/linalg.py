"""Small dense linear-algebra substrate.

QR factorization, symmetric eigendecomposition and completion of
orthonormal frames by Householder QR.  Everything here is a pure function
on small dense arrays (n expected well below a few hundred), safe to call
concurrently.

Conventions of :func:`sym_eigen` and :func:`qr_decompose` (not of the
solvers, which call numpy's ``eigh`` and take its ascending order):

* ``sym_eigen`` returns eigenvalues in descending order, with eigenvectors
  sign-normalized so the largest-magnitude component of each column is
  positive (makes tests deterministic),
* ``qr_decompose`` is sign-normalized so the diagonal of R is nonnegative.
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
    The other n - k are the trailing columns of the complete Householder QR
    factorization of the input (Golub & Van Loan, *Matrix Computations*,
    §5.2): since the leading k columns of that Q span the input's columns,
    the trailing ones span their orthogonal complement.
    """
    v = frame.columns
    n, k = v.shape
    if k == n:
        return frame
    q = np.linalg.qr(v, mode="complete")[0]
    return Frame(np.hstack([v, q[:, k:]]))
