"""Seven retraction maps onto the Stiefel / Grassmann manifold.

Five free-direction maps (Stiefel geodesic, QR, polar, jd, and the
Grassmann geodesic exp2) accept a tangent direction; the polar one relies
on it to take the polar factor of X + tE from an r x r eigensolve rather
than an SVD.  exp2 needs a horizontal direction, so the optimizers run it
at rho = 0 only.  wy is a second spelling of jd: the Cayley transform of
Wen & Yin (Math. Program. 2013) is the update of Jiang & Dai (Math.
Program. 2015) with the weight phi(t) = t/2, and RetractionKind("wy") is
RetractionKind.JD.  The two gradient-coupled maps take the Euclidean
gradient g itself and work on the step X - t g: gradient projection takes
its polar factor, and gradient reflection reflects X through its column
space, with the orthogonal projector built from the step's thin SVD.
Their derivatives at t = 0 are -d_rho(X, g) with rho = 1/4 and -2 d_0(X, g)
respectively.  retract_array serves every kind through one table.  t is
nonnegative in the optimizers; descent is encoded in the direction sign.
"""

import enum

import numpy as np

from .errors import RankDeficient, SingularStep
from .linalg import check_finite, expm, polar_project, qr_positive

__all__ = [
    "RetractionKind",
    "RETRACTION_NAMES",
    "GRADIENT_KINDS",
    "retract_array",
    "retract_gp_array",
    "retract_gr_array",
]


class RetractionKind(enum.Enum):
    EXP1 = "exp"     # Stiefel geodesic via the block exponential
    QR = "qr"        # QR factorization of X + tE
    PD = "pd"        # polar decomposition of X + tE
    JD = "jd"        # Jiang-Dai update with phi(t) = t/2; "wy" spells it too
    GP = "gp"        # polar projection of a Euclidean gradient step
    GR = "gr"        # reflection through a Euclidean gradient step's column space
    EXP2 = "exp2"    # Grassmann geodesic via the compact SVD

    @classmethod
    def from_name(cls, name):
        return cls(name)

    @classmethod
    def _missing_(cls, name):
        if isinstance(name, str) and name in _ALIASES:
            return _ALIASES[name]
        raise ValueError(f"unknown retraction {name!r}")


# names that decode to a kind besides its value: the Cayley transform of
# Wen & Yin is the Jiang-Dai update with phi(t) = t/2
_ALIASES = {"wy": RetractionKind.JD}
RETRACTION_NAMES = tuple(kind.value for kind in RetractionKind) + tuple(_ALIASES)

GRADIENT_KINDS = (RetractionKind.GP, RetractionKind.GR)


def _retract_exp1(X, E, t):
    r = X.shape[1]
    A = X.T @ E
    # a vertical direction makes D = (I - XX^T)E rank deficient and the
    # block exponential degenerates gracefully with zero rows in R.  Q and
    # R take no sign fix: flipping Q's columns and R's rows conjugates blk
    # by a diagonal sign matrix S, expm(S blk S) = S expm(blk) S, and the
    # product with [X Q] cancels S (bit for bit in the eigensolve, unproved:
    # test_exp1_needs_no_qr_sign_fix checks it).  expm reads blk's skew part
    # only, so a direction off the tangent space still lands on the manifold
    Q, R = np.linalg.qr(E - X @ A)
    blk = np.zeros((2 * r, 2 * r))
    blk[:r, :r] = A
    blk[:r, r:] = -R.T
    blk[r:, :r] = R
    M = expm(t * blk)
    return np.hstack([X, Q]) @ M[:, :r]


def _retract_qr(X, E, t):
    return qr_positive(X + t * E)[0]


# pd ends with one Newton-Schulz step once the condition number of the
# step's Gram matrix passes this bound: its orthonormality error grows like
# eps times that number (below 5e-14 up to the bound)
_PD_NS_BOUND = 1e2


def _retract_pd(X, E, t):
    # A (A^T A)^{-1/2} for A = X + tE.  The Gram matrix squares A's
    # condition number, which a tangent E bounds (see retract_array).  It is
    # the Gram of A itself, not I + t^2 E^T E, so that X's own drift off the
    # manifold is removed rather than carried along, and amplified, by a
    # long step.  Newton-Schulz, Y (3I - Y^T Y) / 2, squares the
    # orthonormality error
    A = check_finite(X + t * E, "pd step")
    lam, V = np.linalg.eigh(A.T @ A)
    if lam[0] <= 1e-12 * lam[-1]:
        raise RankDeficient("pd step X + tE is (numerically) rank deficient")
    Y = A @ ((V * lam ** -0.5) @ V.T)
    if lam[-1] > _PD_NS_BOUND * lam[0]:
        Y = Y @ (1.5 * np.eye(X.shape[1]) - 0.5 * (Y.T @ Y))
    return Y


def _retract_jd(X, E, t):
    r = X.shape[1]
    XtE = X.T @ E
    D = E - X @ XtE
    J = np.eye(r) + (0.25 * t * t) * (D.T @ D) - (0.5 * t) * XtE
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
    RetractionKind.JD: _retract_jd,
    RetractionKind.GP: retract_gp_array,
    RetractionKind.GR: retract_gr_array,
    RetractionKind.EXP2: _retract_exp2,
}


def retract_array(kind, X, E, t):
    """Retraction on raw arrays: a feasible point with R(0) = X.

    E is a tangent direction for the free kinds, where R'(0) = E, and the
    Euclidean gradient g for gp and gr, where R'(0) is -d_{1/4}(X, g) and
    -2 d_0(X, g) respectively.  Raises RankDeficient when the qr, pd or gp
    step loses column rank, and SingularStep when the r x r solve of jd
    is singular.  Only the qr and gp steps can lose rank along the
    directions the optimizers take.

    Domain of pd: E must be tangent, X^T E + E^T X = 0, as every optimizer
    direction -d_rho(X, G) is.  Then (X + tE)^T (X + tE) = I + t^2 E^T E:
    sigma_min(X + tE) >= 1, so the step cannot lose rank (pd raises
    RankDeficient only for a direction far from tangent, or past
    t ||E||_2 = 1e6), and the Gram matrix pd solves has condition number at
    most 1 + (t ||E||_2)^2.  Worst over unit tangents, ||Y^T Y - I|| stays
    below 1e-13 up to t ||E||_2 = 1e4 and is about 3e-11 at 1e5.
    """
    return _RETRACTIONS[kind](X, E, t)

