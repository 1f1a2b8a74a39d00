"""Stiefel / Grassmann points, tangent directions, metric and Riemannian gradient.

The metric on the Stiefel tangent space is <E1, E2>_X = <E1, P E2> with
P = I - (1 - 1/(4 rho)) X X^T for rho > 0.  rho = 0 selects the Grassmann
horizontal space with the plain Euclidean inner product (a branch, not a
limit).  The direction operator

    d_rho(X, Y) = (I - X X^T) Y + 4 rho X skew(X^T Y)

turns a Euclidean gradient into the Riemannian gradient under that metric.
Everything past StiefelPoint, the boundary validator, works on raw arrays.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import check_finite, skew, sym

FEAS_TOL = 1e-10

__all__ = [
    "TangentSpace",
    "StiefelPoint",
    "nu_of_rho",
    "gamma_of_rho",
    "inner_x",
    "feasibility_error",
    "d_rho_array",
    "tangent_project_array",
]


class TangentSpace(enum.Enum):
    STIEFEL = "stiefel"
    GRASSMANN = "grassmann"


def feasibility_error(X):
    """Frobenius distance of X^T X from the identity."""
    X = np.asarray(X)
    r = X.shape[1]
    return float(np.linalg.norm(X.T @ X - np.eye(r)))


@dataclass(frozen=True)
class StiefelPoint:
    """A d x r matrix with orthonormal columns.

    A Grassmann point is represented by the same object; the tangent space
    chosen downstream decides which quotient is in play.
    """

    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        check_finite(X, "Stiefel point")
        if X.ndim != 2 or X.shape[0] < X.shape[1]:
            raise ValueError(f"expected a tall d x r matrix, got shape {X.shape}")
        err = feasibility_error(X)
        if err > FEAS_TOL:
            raise ValueError(f"columns are not orthonormal: ||X^T X - I|| = {err:g}")
        object.__setattr__(self, "X", X)

    @property
    def shape(self):
        return self.X.shape


def nu_of_rho(rho):
    """Lower norm-equivalence constant nu = min(1, 1/(4 rho)); nu = 1 at rho = 0."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0:
        return 1.0
    return min(1.0, 1.0 / (4.0 * rho))


def gamma_of_rho(rho):
    """Upper norm-equivalence constant max(1, 1/(4 rho)); gamma = 1 at rho = 0.

    For a tangent E = X Omega + X_perp K the metric energy is
    ||Omega||^2/(4 rho) + ||K||^2, so the constant exceeds 1 whenever
    rho < 1/4 (the commonly quoted gamma = 1 only covers rho >= 1/4).
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0:
        return 1.0
    return max(1.0, 1.0 / (4.0 * rho))


def d_rho_array(X, Y, rho):
    """(I - X X^T) Y + 4 rho X skew(X^T Y) on raw arrays (hot path)."""
    XtY = X.T @ Y
    if rho == 0.0:
        return Y - X @ XtY
    return Y - X @ XtY + (4.0 * rho) * (X @ skew(XtY))


def inner_x(X, E1, E2, rho):
    """Metric inner product <E1, P E2> at X; Euclidean for rho = 0."""
    base = float(np.sum(E1 * E2))
    if rho == 0.0:
        return base
    coeff = 1.0 - 1.0 / (4.0 * rho)
    return base - coeff * float(np.sum((X.T @ E1) * (X.T @ E2)))


def tangent_project_array(X, Z, space):
    """Orthogonal projection of an arbitrary matrix onto the tangent space.

    Stiefel: Z - X sym(X^T Z).  Grassmann horizontal: (I - X X^T) Z.
    Idempotent; used to canonicalize probes in tests and finite differences.
    """
    if space is TangentSpace.STIEFEL:
        return Z - X @ sym(X.T @ Z)
    return Z - X @ (X.T @ Z)
