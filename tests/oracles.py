"""Validation oracles shared by the tests.

The first five share no code with the modules they validate beyond plain
numpy arithmetic: the QR oracle is modified Gram-Schmidt, the exponential
oracle is a scaled Taylor series, the Cayley oracle is Wen & Yin's
Woodbury form with its 2r x 2r solve, derivatives come from Richardson-
extrapolated central differences, and stochastic-gradient moments come from
exhaustive enumeration of ordered batches.  estimate_l1_l2 samples the
package's own retractions to measure their deviation constants, and
pca_top_subspace factors a PCA instance's stored covariance with the full
dense eigensolver, and pca_data draws pca_generate's raw data in one piece.

The rest state what the analysis and the retractions' contracts say, for
the tests to hold the package to: the tangent-space projection that makes
test directions, the direction each kind steps along, each retraction's
declared R'(0), the telescoped recursion lemma behind Theorem 1, and the
Lojasiewicz ratio probe.
"""

import enum
import itertools

import numpy as np

from manifold_svrg.manifold import d_rho_array
from manifold_svrg.optimizers import gamma_fn
from manifold_svrg.retractions import GRADIENT_KINDS, RetractionKind, retract_array

FD_STEP = 1e-6              # h of fd_derivative
TAYLOR_TERMS = 60           # terms of taylor_expm's series
TAYLOR_MAX_NORM = 0.5       # 1-norm taylor_expm scales its argument below
ENUMERATION_LIMIT = 10 ** 6  # most ordered batches brute_force_expectation visits

# the retractions that take a tangent direction, in RetractionKind order
FREE_KINDS = tuple(kind for kind in RetractionKind if kind not in GRADIENT_KINDS)


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


def taylor_expm(A):
    """Matrix exponential by a scaled, squared Taylor series."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    norm = np.linalg.norm(A, 1)
    squarings = 0
    while norm / (2 ** squarings) > TAYLOR_MAX_NORM:
        squarings += 1
    B = A / (2 ** squarings)
    out = np.eye(m)
    term = np.eye(m)
    for k in range(1, TAYLOR_TERMS + 1):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def cayley_woodbury(X, E, t):
    """The Cayley transform (I + t/2 W)^{-1} (I - t/2 W) X of Wen & Yin.

    W = X P^T - P X^T with P = E - X X^T E / 2 has rank 2r, and W X = -E
    for a tangent E.  W = U V^T for U = [-P, X] and V = [X, P], so by the
    Woodbury identity the step is X - t U (I + t/2 V^T U)^{-1} V^T X: one
    2r x 2r solve.  Its condition number grows like (t ||E||)^2 along
    near-vertical directions, so it loses feasibility once t ||E|| is in
    the thousands.
    """
    r = X.shape[1]
    PE = E - 0.5 * X @ (X.T @ E)
    U = np.hstack([-PE, X])
    V = np.hstack([X, PE])
    M = np.eye(2 * r) + (0.5 * t) * (V.T @ U)
    W = np.linalg.solve(M, V.T @ X)
    return X - t * (U @ W)


def brute_force_expectation(grad_fn, n, batch_size):
    """Exact first and second central moments over all ordered batches.

    grad_fn(batch) maps a tuple of component indices (0-based, sampled with
    replacement, so ordered tuples with repeats) to a matrix.  Returns the
    mean matrix and the mean squared Frobenius deviation from it.  Raises
    ValueError past ENUMERATION_LIMIT batches.
    """
    total = n ** batch_size
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"{total} ordered batches exceed the enumeration guard "
                         f"{ENUMERATION_LIMIT}")
    batches = list(itertools.product(range(n), repeat=batch_size))
    mean = sum(grad_fn(b) for b in batches) / total
    second = sum(np.linalg.norm(grad_fn(b) - mean) ** 2 for b in batches) / total
    return mean, second


def estimate_l1_l2(kind, trials, seed):
    """Empirical suprema of the two retraction-deviation ratios.

    Samples random (X, direction, t in (0, 10]) at d = 50, r = 5 and returns

        L1_hat = sup ||R(t) - X|| / (t ||R'(0)||)
        L2_hat = sup ||R(t) - X - t R'(0)|| / (t^2 ||R'(0)||^2)

    For the polar and QR retractions these never exceed (1, 1/2) and
    (1 + sqrt(2)/2, sqrt(10)/2).  kind="line" measures the Euclidean
    straight-line baseline (L1 = 1, L2 = 0).
    """
    rng = np.random.default_rng(seed)
    l1 = 0.0
    l2 = 0.0
    for _ in range(trials):
        X, _ = np.linalg.qr(rng.standard_normal((50, 5)))
        Z = rng.standard_normal((50, 5))
        t = rng.uniform(1e-3, 10.0)
        if kind == "line":
            E = Z
            Rt = X + t * E
            deriv = E
        else:
            direction = direction_for(kind, X, Z)
            deriv = declared_derivative(kind, X, direction)
            Rt = retract_array(kind, X, direction, t)
        nd = np.linalg.norm(deriv)
        if nd < 1e-12:
            continue
        l1 = max(l1, np.linalg.norm(Rt - X) / (t * nd))
        l2 = max(l2, np.linalg.norm(Rt - X - t * deriv) / (t * t * nd * nd))
    return l1, l2


def pca_top_subspace(inst):
    """Optimal value and a maximizing subspace of a PcaInstance from eigh.

    The value is minus the sum of the r largest eigenvalues of the stored
    covariance C = (1/n) B B^T, and the subspace their eigenvectors, in
    descending order.
    """
    w, V = np.linalg.eigh(inst.C)
    top = np.argsort(w)[::-1][: inst.r]
    return -float(np.sum(w[top])), V[:, top]


def pca_data(d, n, seed):
    """pca_generate's data before centring, from one (d, n) draw.

    Row i scaled by i^0.618, normalized by the max entry: the reference for
    pca_generate's blocked draw, and raw data for tests that need a d x n A.
    """
    rng = np.random.default_rng(seed)
    scale = np.arange(1, d + 1, dtype=float) ** 0.618
    A = rng.standard_normal((d, n))
    A *= scale[:, None]
    A /= max(A.max(), -A.min())
    return A


def sym(A):
    """Symmetric part (A + A^T)/2 of a square matrix."""
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + A.T)


class TangentSpace(enum.Enum):
    STIEFEL = "stiefel"
    GRASSMANN = "grassmann"


def tangent_project_array(X, Z, space):
    """Orthogonal projection of an arbitrary matrix onto the tangent space.

    Stiefel: Z - X sym(X^T Z).  Grassmann horizontal: (I - X X^T) Z.
    Idempotent; used to canonicalize probes in tests and finite differences.
    """
    if space is TangentSpace.STIEFEL:
        return Z - X @ sym(X.T @ Z)
    return Z - X @ (X.T @ Z)


def declared_derivative(kind, X, direction):
    """The analytic R'(0) for a given kind and direction array.

    Free retractions return the direction itself; the gradient-coupled maps
    return -d_{1/4}(X, g) (gp) and -2 d_0(X, g) (gr).
    """
    if kind is RetractionKind.GP:
        return -d_rho_array(X, direction, 0.25)
    if kind is RetractionKind.GR:
        return -2.0 * d_rho_array(X, direction, 0.0)
    return direction


def direction_for(kind, X, Z):
    """The direction a kind steps along, made from the draw Z: gp and gr
    take Z as drawn (a Euclidean gradient), exp2 its horizontal part and
    every other kind its Stiefel tangent part."""
    if kind in GRADIENT_KINDS:
        return Z
    space = TangentSpace.GRASSMANN if kind is RetractionKind.EXP2 else TangentSpace.STIEFEL
    return tangent_project_array(X, Z, space)


def recursion_lemma_check(a_seq, b, c, d, a_coef, f0=0.0):
    """Numeric check of the telescoped decrease bound.

    Builds the recursions with equality,

        f_{k+1} = f_k - c a_k + d b_k,   b_{k+1} = (1 + b) b_k + a_coef a_k,

    from b_0 = 0 over K = len(a_seq) steps, and tests f_K <= f_0 - sum_k
    Delta_k a_k with Delta_k = c - a_coef d Gamma(b, K - k).  Returns
    (holds, f_K, bound).
    """
    a_seq = np.asarray(a_seq, dtype=float)
    K = len(a_seq)
    fk = f0
    bk = 0.0
    for k in range(K):
        fk_next = fk - c * a_seq[k] + d * bk
        bk = (1.0 + b) * bk + a_coef * a_seq[k]
        fk = fk_next
    bound = f0 - sum((c - a_coef * d * gamma_fn(b, K - k)) * a_seq[k]
                     for k in range(K))
    return fk <= bound + 1e-9 * max(1.0, abs(bound)), fk, bound


def loj_ratio_probe(f_values, grad_norms, f_limit):
    """Ratios |f - f_limit|^(1/2) / ||grad f||, NaN where ||grad f|| < 1e-12.

    A bounded tail is consistent with a local gradient-dominance inequality;
    no constant is asserted because none is computable from a single run.
    """
    f_values = np.asarray(f_values, dtype=float)
    grad_norms = np.asarray(grad_norms, dtype=float)
    out = np.full(len(f_values), np.nan)
    ok = grad_norms >= 1e-12
    out[ok] = np.sqrt(np.abs(f_values[ok] - f_limit)) / grad_norms[ok]
    return out
