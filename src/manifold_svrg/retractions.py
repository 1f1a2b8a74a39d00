"""Seven retraction maps onto the Stiefel / Grassmann manifold.

Five free-direction retractions (geodesic, QR, polar, Cayley, subspace)
accept an arbitrary tangent direction.  The two gradient-coupled maps take
the Euclidean gradient g itself and work on the step X - t g: gradient
projection takes its polar factor, and gradient reflection reflects X
through its column space, with the orthogonal projector built from the
step's thin SVD.  Their derivatives at t = 0 are -d_rho(X, g) with
rho = 1/4 and -2 d_0(X, g) respectively.  retract_array serves every kind
through one table.  t is nonnegative in the optimizers; descent is encoded
in the direction sign.
"""

import enum

import numpy as np

from .errors import SingularStep
from .linalg import check_finite, expm, polar_project, qr_positive
from .manifold import d_rho_array

__all__ = [
    "RetractionKind",
    "FREE_KINDS",
    "GRADIENT_KINDS",
    "phi_half_t",
    "retract_array",
    "retract_gp_array",
    "retract_gr_array",
    "declared_derivative",
    "estimate_l1_l2",
]


class RetractionKind(enum.Enum):
    EXP1 = "exp"     # Stiefel geodesic via the block exponential
    QR = "qr"        # QR factorization of X + tE
    PD = "pd"        # polar decomposition of X + tE
    WY = "wy"        # Cayley-type low-rank update
    JD = "jd"        # subspace update with the phi weight
    GP = "gp"        # polar projection of a Euclidean gradient step
    GR = "gr"        # reflection through a Euclidean gradient step's column space
    EXP2 = "exp2"    # Grassmann geodesic via the compact SVD

    @classmethod
    def from_name(cls, name):
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown retraction {name!r}")


FREE_KINDS = (RetractionKind.EXP1, RetractionKind.QR, RetractionKind.PD,
              RetractionKind.WY, RetractionKind.JD, RetractionKind.EXP2)
GRADIENT_KINDS = (RetractionKind.GP, RetractionKind.GR)


def phi_half_t(t):
    """The jd weight phi(t) = t/2: phi(0) = 0, phi'(0) = 1/2, and jd equals wy."""
    return 0.5 * t


def _retract_exp1(X, E, t):
    r = X.shape[1]
    A = X.T @ E
    # a vertical direction makes D = (I - XX^T)E rank deficient and the
    # block exponential degenerates gracefully with zero rows in R.  Q and
    # R take no sign fix: flipping Q's columns and R's rows conjugates blk
    # by a diagonal sign matrix S, expm(S blk S) = S expm(blk) S bit for
    # bit (negation is exact and pivoting sees only magnitudes), and the
    # product with [X Q] cancels S
    Q, R = np.linalg.qr(E - X @ A)
    blk = np.zeros((2 * r, 2 * r))
    blk[:r, :r] = A
    blk[:r, r:] = -R.T
    blk[r:, :r] = R
    M = expm(t * blk)
    return np.hstack([X, Q]) @ M[:, :r]


def _retract_qr(X, E, t):
    return qr_positive(X + t * E)[0]


def _retract_pd(X, E, t):
    return polar_project(X + t * E)


def _retract_wy(X, E, t):
    r = X.shape[1]
    PE = E - 0.5 * X @ (X.T @ E)
    U = np.hstack([-PE, X])
    V = np.hstack([X, PE])
    M = np.eye(2 * r) + (0.5 * t) * (V.T @ U)
    try:
        W = np.linalg.solve(M, V.T @ X)
    except np.linalg.LinAlgError as exc:
        raise SingularStep("wy inner solve is singular; tangent is corrupted") from exc
    return X - t * (U @ W)


def _retract_jd(X, E, t):
    r = X.shape[1]
    XtE = X.T @ E
    D = E - X @ XtE
    J = np.eye(r) + (0.25 * t * t) * (D.T @ D) - phi_half_t(t) * XtE
    try:
        Ji = np.linalg.inv(J)
    except np.linalg.LinAlgError as exc:
        raise SingularStep("jd inner solve is singular; tangent is corrupted") from exc
    return (2.0 * X + t * D) @ Ji - X


def _retract_exp2(X, E, t):
    if not np.any(E):
        return X.copy()  # continuous limit: SVD of zero is ambiguous
    U, s, Vt = np.linalg.svd(E, full_matrices=False)
    return (X @ Vt.T * np.cos(s * t) + U * np.sin(s * t)) @ Vt


def retract_gp_array(X, eucl_dir, t):
    """Polar projection of the Euclidean gradient step X - t g."""
    return polar_project(X - t * eucl_dir)


def retract_gr_array(X, eucl_dir, t):
    """Reflection 2 U_k U_k^T X - X through the column space of X - t g.

    U_k holds the left singular vectors of X - t g whose singular values
    exceed 1e-12 times the largest, so U_k U_k^T is the orthogonal projector
    onto the step's numerical column space.  Taken from the thin SVD rather
    than a Gram-matrix inverse, it does not square the step's condition
    number.
    """
    U, s, _ = np.linalg.svd(check_finite(X - t * eucl_dir, "gr step"),
                            full_matrices=False)
    Uk = U[:, s > 1e-12 * s[0]]
    return 2.0 * Uk @ (Uk.T @ X) - X


_RETRACTIONS = {
    RetractionKind.EXP1: _retract_exp1,
    RetractionKind.QR: _retract_qr,
    RetractionKind.PD: _retract_pd,
    RetractionKind.WY: _retract_wy,
    RetractionKind.JD: _retract_jd,
    RetractionKind.GP: retract_gp_array,
    RetractionKind.GR: retract_gr_array,
    RetractionKind.EXP2: _retract_exp2,
}


def retract_array(kind, X, E, t):
    """Retraction on raw arrays: a feasible point with R(0) = X.

    E is a tangent direction for the free kinds, where R'(0) = E, and the
    Euclidean gradient for gp and gr, where R'(0) is declared_derivative.
    Raises RankDeficient when the qr, pd or gp step X + tE loses column
    rank, and SingularStep when the wy or jd inner solve is singular.

    Domain of wy: its inner 2r x 2r solve is conditioned like (t ||E||)^2
    along near-vertical directions E = X Omega, so it loses feasibility once
    t ||E|| is in the thousands (worst over unit vertical directions: about
    2e-11 at t ||E|| = 1e3, 1e-8 at 2e4).  The feasibility property covers
    t <= 1e3 with ||E|| <= 1.
    """
    return _RETRACTIONS[kind](X, E, t)


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


def estimate_l1_l2(kind, trials, seed=0):
    """Empirical suprema of the two retraction-deviation ratios.

    Samples random (X, direction, t in (0, 10]) at d = 50, r = 5 and returns

        L1_hat = sup ||R(t) - X|| / (t ||R'(0)||)
        L2_hat = sup ||R(t) - X - t R'(0)|| / (t^2 ||R'(0)||^2)

    For the polar and QR retractions these never exceed (1, 1/2) and
    (1 + sqrt(2)/2, sqrt(10)/2).  kind="line" measures the Euclidean
    straight-line baseline (L1 = 1, L2 = 0), used as an oracle in tests.
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
            if kind in GRADIENT_KINDS:
                direction = Z
            elif kind is RetractionKind.EXP2:
                direction = Z - X @ (X.T @ Z)
            else:
                direction = Z - 0.5 * X @ (X.T @ Z + Z.T @ X)
            deriv = declared_derivative(kind, X, direction)
            Rt = retract_array(kind, X, direction, t)
        nd = np.linalg.norm(deriv)
        if nd < 1e-12:
            continue
        l1 = max(l1, np.linalg.norm(Rt - X) / (t * nd))
        l2 = max(l2, np.linalg.norm(Rt - X - t * deriv) / (t * t * nd * nd))
    return l1, l2
