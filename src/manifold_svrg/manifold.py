"""Stiefel / Grassmann points, the metric's constant nu, and the Riemannian gradient.

The metric on the Stiefel tangent space is <E1, E2>_X = <E1, P E2> with
P = I - (1 - 1/(4 rho)) X X^T for rho > 0.  rho = 0 selects the Grassmann
horizontal space with the plain Euclidean inner product (a branch, not a
limit).  The direction operator

    d_rho(X, Y) = (I - X X^T) Y + 4 rho X skew(X^T Y)

turns a Euclidean gradient into the Riemannian gradient under that metric.
Everything past StiefelPoint, the boundary validator, works on raw arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_real
from .linalg import check_finite, skew

# largest ||X^T X - I|| a StiefelPoint accepts; the optimizers re-orthonormalize
# an iterate past it, so the point a run returns always passes
FEAS_TOL = 1e-10

__all__ = [
    "StiefelPoint",
    "nu_of_rho",
    "feasibility_error",
    "d_rho_array",
]


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
    """Lower norm-equivalence constant nu = min(1, 1/(4 rho)), a float; rho is
    a real number in [0, inf), and nu = 1 at rho = 0."""
    rho = check_real("rho", rho, 0)
    return 1.0 if rho <= 0.25 else 1.0 / (4.0 * rho)


def d_rho_array(X, Y, rho):
    """(I - X X^T) Y + 4 rho X skew(X^T Y) on raw arrays (hot path)."""
    XtY = X.T @ Y
    if rho == 0.0:
        return Y - X @ XtY
    return Y - X @ XtY + (4.0 * rho) * (X @ skew(XtY))
