import math

import numpy as np
import pytest

from manifold_svrg.linalg import qr_positive
from manifold_svrg.manifold import StiefelPoint, d_rho_array, feasibility_error, nu_of_rho
from manifold_svrg.problems import pca_generate
from oracles import TangentSpace, pca_top_subspace, sym, tangent_project_array

rng = np.random.default_rng(7)


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


def inner_x(X, E1, E2, rho):
    """Metric inner product <E1, P E2> at X; Euclidean for rho = 0."""
    base = float(np.sum(E1 * E2))
    if rho == 0.0:
        return base
    coeff = 1.0 - 1.0 / (4.0 * rho)
    return base - coeff * float(np.sum((X.T @ E1) * (X.T @ E2)))


def random_point(d=8, r=3):
    return qr_positive(rng.standard_normal((d, r)))[0]


def tangent(X, space=TangentSpace.STIEFEL):
    return tangent_project_array(X, rng.standard_normal(X.shape), space)


class TestPointAndTangentTypes:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            StiefelPoint(rng.standard_normal((6, 2)))

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.eye(3)[:2])

    def test_horizontal_stricter_than_tangent(self):
        # a Stiefel tangent E has X^T E skew; the horizontal space also
        # needs X^T E = 0, which a generic tangent misses
        X = random_point()
        E = tangent(X)
        assert np.linalg.norm(X.T @ E + E.T @ X) <= 1e-12
        assert np.linalg.norm(X.T @ E) > 1e-8


def test_nu_of_rho():
    assert nu_of_rho(0.0) == 1.0
    assert nu_of_rho(0.25) == 1.0
    assert nu_of_rho(1.0) == 0.25
    assert nu_of_rho(0.1) == 1.0
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            nu_of_rho(bad)
    # computed in double precision from the value a float32 holds
    nu = nu_of_rho(np.float32(0.3))
    assert type(nu) is float and nu == 1.0 / (4.0 * float(np.float32(0.3)))


def test_metric_params_invariant():
    for rho in (0.0, 0.125, 0.25, 1.0, 5.0):
        nu, gamma = nu_of_rho(rho), gamma_of_rho(rho)
        assert 0.0 < nu <= 1.0 <= gamma
        if rho == 0.0 or rho >= 0.25:
            assert gamma == 1.0


class TestDRho:
    def test_symmetric_cancellation(self):
        X = random_point()
        S = sym(rng.standard_normal((3, 3)))
        Y = X @ S + (np.eye(8) - X @ X.T) @ rng.standard_normal((8, 3))
        for rho in (0.0, 0.25, 1.0):
            got = d_rho_array(X, Y, rho)
            want = Y - X @ (X.T @ Y)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_hand_computed_2x1(self):
        X = np.array([[1.0], [0.0]])
        Y = np.array([[2.0], [3.0]])
        got = d_rho_array(X, Y, 0.25)
        np.testing.assert_allclose(got, [[0.0], [3.0]], atol=1e-15)

    def test_quarter_rho_is_tangent_projection(self):
        X = random_point()
        Y = rng.standard_normal(X.shape)
        got = d_rho_array(X, Y, 0.25)
        want = Y - X @ sym(X.T @ Y)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_output_space_invariants(self):
        # rho > 0 lands in the Stiefel tangent space (X^T E skew), rho = 0
        # in the Grassmann horizontal space (X^T E = 0)
        X = random_point()
        for rho in (0.0, 0.125, 0.25, 2.0):
            E = d_rho_array(X, rng.standard_normal(X.shape), rho)
            XtE = X.T @ E
            assert np.linalg.norm(XtE + XtE.T) <= 1e-12
            if rho == 0.0:
                assert np.linalg.norm(XtE) <= 1e-12


class TestRiemannianGrad:
    def test_zero_gradient(self):
        X = random_point()
        assert np.linalg.norm(d_rho_array(X, np.zeros(X.shape), 0.5)) == 0.0

    def test_pca_stationary_at_eigenspace(self):
        inst = pca_generate(12, 30, 3, seed=5)
        _, X_star = pca_top_subspace(inst)
        _, egrad = inst.full_value_egrad(X_star)
        assert np.linalg.norm(d_rho_array(X_star, egrad, 0.0)) <= 1e-10

    def test_rho_invariance_under_symmetry(self):
        # X^T egrad symmetric for the quadratic objective, so the skew term
        # vanishes and every rho gives the same gradient
        inst = pca_generate(10, 20, 2, seed=2)
        X = random_point(10, 2)
        _, egrad = inst.full_value_egrad(X)
        g0 = d_rho_array(X, egrad, 0.0)
        g1 = d_rho_array(X, egrad, 0.25)
        np.testing.assert_allclose(g0, g1, atol=1e-12)

    def test_defining_identity(self):
        # <grad f, E>_X = <egrad, E> for tangent E
        X = random_point()
        egrad = rng.standard_normal(X.shape)
        for rho in (0.125, 0.25, 1.0):
            g = d_rho_array(X, egrad, rho)
            for _ in range(50):
                E = tangent(X)
                lhs = inner_x(X, g, E, rho)
                rhs = float(np.sum(egrad * E))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_linearity_in_egrad(self):
        X = random_point()
        egrad = rng.standard_normal(X.shape)
        g1 = d_rho_array(X, egrad, 0.5)
        g2 = d_rho_array(X, 3.0 * egrad, 0.5)
        np.testing.assert_allclose(g2, 3.0 * g1, rtol=1e-13, atol=1e-15)


class TestInnerX:
    def test_quarter_rho_euclidean(self):
        X = random_point()
        E1, E2 = tangent(X), tangent(X)
        got = inner_x(X, E1, E2, 0.25)
        assert abs(got - np.sum(E1 * E2)) <= 1e-12

    def test_norm_equivalence(self):
        for _ in range(250):
            X = random_point()
            for rho in (0.0, 0.125, 0.25, 1.0):
                space = TangentSpace.GRASSMANN if rho == 0.0 else TangentSpace.STIEFEL
                E = tangent(X, space)
                q = inner_x(X, E, E, rho)
                n2 = np.linalg.norm(E) ** 2
                nu = nu_of_rho(rho)
                gamma = gamma_of_rho(rho)
                assert nu * n2 - 1e-10 <= q <= gamma * n2 + 1e-10

    def test_grassmann_euclidean(self):
        X = random_point()
        E = tangent(X, TangentSpace.GRASSMANN)
        assert inner_x(X, E, E, 0.0) == pytest.approx(np.linalg.norm(E) ** 2, abs=1e-13)


class TestTangentProject:
    def test_fixed_point(self):
        X = random_point()
        E = tangent(X)
        E2 = tangent_project_array(X, E, TangentSpace.STIEFEL)
        np.testing.assert_allclose(E, E2, atol=1e-12)

    def test_base_point_projects_to_zero(self):
        X = random_point()
        for space in TangentSpace:
            assert np.linalg.norm(tangent_project_array(X, X, space)) <= 1e-12

    def test_invariant_holds(self):
        X = random_point()
        for _ in range(20):
            Z = rng.standard_normal(X.shape)
            E = tangent_project_array(X, Z, TangentSpace.STIEFEL)
            assert np.linalg.norm(X.T @ E + E.T @ X) <= 1e-12
            H = tangent_project_array(X, Z, TangentSpace.GRASSMANN)
            assert np.linalg.norm(X.T @ H) <= 1e-12


def test_feasibility_error_zero_on_point():
    X = random_point()
    assert feasibility_error(X) <= 1e-14
