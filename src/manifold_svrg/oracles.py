"""Independent validation oracles.

Nothing here shares code with the modules it validates beyond plain numpy
arithmetic: the QR oracle is modified Gram-Schmidt, the exponential oracle
is a scaled Taylor series, derivatives come from Richardson-extrapolated
central differences, and stochastic-gradient moments come from exhaustive
enumeration of ordered batches.
"""

import itertools

import numpy as np

from .errors import TooLarge

__all__ = [
    "fd_derivative",
    "gram_schmidt_qr",
    "taylor_expm",
    "brute_force_expectation",
    "dense_pca_eig",
]


FD_STEP = 1e-6  # h of fd_derivative


def fd_derivative(curve):
    """Richardson-extrapolated derivative of a matrix-valued curve at 0.

    Central differences at h = FD_STEP and h/2 are combined as
    (4 D(h/2) - D(h)) / 3, separating truncation from roundoff near the
    1e-5 validation floor.
    """
    h = FD_STEP
    d1 = (curve(h) - curve(-h)) / (2.0 * h)
    d2 = (curve(h / 2) - curve(-h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def gram_schmidt_qr(A):
    """Column-by-column modified Gram-Schmidt QR with positive diagonal."""
    A = np.array(A, dtype=float)
    d, r = A.shape
    Q = np.zeros((d, r))
    R = np.zeros((r, r))
    for j in range(r):
        v = A[:, j].copy()
        for i in range(j):
            R[i, j] = Q[:, i] @ v
            v -= R[i, j] * Q[:, i]
        R[j, j] = np.linalg.norm(v)
        if R[j, j] == 0.0:
            raise ZeroDivisionError("rank-deficient column in Gram-Schmidt oracle")
        Q[:, j] = v / R[j, j]
    return Q, R


def taylor_expm(A, terms=60, max_norm=0.5):
    """Matrix exponential by a scaled, squared Taylor series."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    norm = np.linalg.norm(A, 1)
    squarings = 0
    while norm / (2 ** squarings) > max_norm:
        squarings += 1
    B = A / (2 ** squarings)
    out = np.eye(m)
    term = np.eye(m)
    for k in range(1, terms + 1):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def brute_force_expectation(grad_fn, n, batch_size, limit=1_000_000):
    """Exact first and second central moments over all ordered batches.

    grad_fn(batch) maps a tuple of component indices (0-based, sampled with
    replacement, so ordered tuples with repeats) to a matrix.  Returns the
    mean matrix and the mean squared Frobenius deviation from it.
    """
    total = n ** batch_size
    if total > limit:
        raise TooLarge(f"{total} ordered batches exceed the enumeration guard {limit}")
    batches = list(itertools.product(range(n), repeat=batch_size))
    mean = sum(grad_fn(b) for b in batches) / total
    second = sum(np.linalg.norm(grad_fn(b) - mean) ** 2 for b in batches) / total
    return mean, second


def dense_pca_eig(centered, scale):
    """Spectrum and eigenvectors of scale * centered @ centered.T, descending.

    Backs the optimum oracle for the covariance-trace objective; centered is
    the d x n matrix of mean-removed data columns.
    """
    cov = scale * (centered @ centered.T)
    w, V = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]
