"""Dense small-matrix kernels used by the retractions.

All kernels are pure functions on numpy arrays (row-major, float64) and
reject non-finite input.  Matrices here are small: d x r iterates and
r x r (or 2r x 2r) Gram blocks.  Every kernel calls numpy only, so the
solver loop runs on the one BLAS that numpy links.
"""

import numpy as np

from .errors import NonFiniteInput, RankDeficient

__all__ = [
    "check_finite",
    "qr_positive",
    "polar_project",
    "expm",
    "skew",
    "sym",
]


def check_finite(A, name="matrix"):
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


# Scaling and squaring with diagonal Pade approximants (Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM
# J. Matrix Anal. Appl. 2005): theta_m is the largest 1-norm for which the
# degree-m approximant is accurate to unit roundoff, b the coefficients of
# its numerator p(A) = sum b_k A^k; the denominator is p(-A).
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                            1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152
_B_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _pade_odd_even(A, I, b):
    """U = odd and V = even part of the degree-m numerator, m = len(b) - 1 <= 9."""
    A2 = A @ A
    P = A2
    u = b[1] * I + b[3] * A2
    v = b[0] * I + b[2] * A2
    for k in range(4, len(b), 2):
        P = P @ A2
        u += b[k + 1] * P
        v += b[k] * P
    return A @ u, v


def _pade13_odd_even(A, I):
    """U and V of the degree-13 numerator, from A^2, A^4 and A^6 alone."""
    b = _B_13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    u = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I
    v = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    return A @ u, v


def expm(A):
    """Matrix exponential of a square matrix by scaling and squaring.

    Uses the lowest Pade degree (3, 5, 7, 9 or 13) whose error bound holds
    at the 1-norm of A; above theta_13, A is scaled by 2^-s (exact) and the
    result squared s times.  Written in numpy rather than calling scipy:
    scipy bundles a second BLAS, and each of its calls right after one of
    numpy's threaded GEMMs in the solver loop waits for that library's
    thread pool, which took milliseconds for a block that needs tens of
    microseconds.
    """
    A = np.asarray(A, dtype=float)
    check_finite(A, "expm input")
    I = np.eye(A.shape[0])
    norm = np.abs(A).sum(axis=0).max(initial=0.0)
    for theta, b in _PADE:
        if norm <= theta:
            U, V = _pade_odd_even(A, I, b)
            return np.linalg.solve(V - U, V + U)
    s = max(0, int(np.ceil(np.log2(norm / _THETA_13))))
    U, V = _pade13_odd_even(np.ldexp(A, -s), I)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def skew(A):
    """Skew part (A - A^T)/2 of a square matrix."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A - A.T)


def sym(A):
    """Symmetric part (A + A^T)/2 of a square matrix."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + A.T)
