"""Dense small-matrix kernels used by the retractions.

All kernels are pure functions on numpy arrays (row-major, float64) and
reject non-finite input.  Matrices here are small: d x r iterates and
r x r (or 2r x 2r) Gram blocks.
"""

import numpy as np

from .errors import NonFiniteInput, RankDeficient

__all__ = [
    "check_finite",
    "qr_positive",
    "polar_project",
    "expm",
    "skew",
]


def check_finite(A, name):
    """Raise NonFiniteInput if A holds NaN or Inf."""
    if not np.isfinite(A).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return A


def qr_positive(A):
    """Thin QR factorization with positive diagonal of R.

    Returns (Q, R) with A = Q R, Q orthonormal columns, R upper triangular
    with strictly positive diagonal.  The sign convention makes the
    factorization unique, which the QR retraction needs to be a smooth map.
    """
    A = np.asarray(A, dtype=float)
    check_finite(A, "qr input")
    Q, R = np.linalg.qr(A)
    diag = np.diagonal(R).copy()
    if np.any(np.abs(diag) <= 1e-12 * max(np.linalg.norm(A), 1e-300)):
        raise RankDeficient("input to qr_positive is (numerically) rank deficient")
    signs = np.sign(diag)
    return Q * signs, R * signs[:, None]


def polar_project(A):
    """Nearest matrix with orthonormal columns: U V^T from the compact SVD.

    Equals A (A^T A)^{-1/2} whenever A has full column rank.
    """
    A = np.asarray(A, dtype=float)
    check_finite(A, "polar input")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficient("input to polar_project is (numerically) rank deficient")
    return U @ Vt


def expm(A):
    """Exponential of the skew part S = (A - A^T)/2 of a square matrix.

    iS is Hermitian, iS = V diag(lam) V^H, so exp(S) = V diag(e^{-i lam}) V^H:
    orthogonal up to the rounding of one unitary V, with no squaring step to
    build up error.  A's symmetric part is ignored.  The result is a
    C-contiguous copy of the product's real part, not its strided view, so
    a product that takes it as an operand reads contiguous memory.
    """
    check_finite(A, "expm input")
    lam, V = np.linalg.eigh(1j * skew(A))
    return np.ascontiguousarray(((V * np.exp(-1j * lam)) @ V.conj().T).real)


def skew(A):
    """Skew part (A - A^T)/2 of a square matrix."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A - A.T)

