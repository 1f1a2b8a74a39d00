import numpy as np
import pytest

from manifold_svrg.linalg import qr_positive
from manifold_svrg.manifold import (TangentSpace, feasibility_error,
                                    tangent_project_array)
from manifold_svrg.oracles import FiniteDiffSpec, fd_retraction_derivative
from manifold_svrg.retractions import (FREE_KINDS, GRADIENT_KINDS,
                                       RetractionKind, declared_derivative,
                                       estimate_l1_l2, phi_half_t,
                                       retract_array, retract_gp_array,
                                       retract_gr_array)

rng = np.random.default_rng(21)


def random_instance(d=10, r=3, space=TangentSpace.STIEFEL):
    X = qr_positive(rng.standard_normal((d, r)))[0]
    E = tangent_project_array(X, rng.standard_normal((d, r)), space)
    return X, E


def direction_for(kind, X):
    space = (TangentSpace.GRASSMANN if kind is RetractionKind.EXP2
             else TangentSpace.STIEFEL)
    return tangent_project_array(X, rng.standard_normal(X.shape), space)


def test_kind_from_name():
    assert RetractionKind.from_name("pd") is RetractionKind.PD
    assert RetractionKind.from_name("exp") is RetractionKind.EXP1
    with pytest.raises(ValueError):
        RetractionKind.from_name("nope")


def test_phi_first_order_invariant():
    h = 1e-8
    assert abs(phi_half_t(h) / h - 0.5) <= 1e-4
    assert phi_half_t(0.0) == 0.0


class TestFreeRetractions:
    @pytest.mark.parametrize("kind", FREE_KINDS)
    def test_zero_step_returns_x(self, kind):
        X = qr_positive(rng.standard_normal((10, 3)))[0]
        E = direction_for(kind, X)
        np.testing.assert_allclose(retract_array(kind, X, E, 0.0), X, atol=1e-13)

    @pytest.mark.parametrize("kind", FREE_KINDS)
    def test_feasibility_and_derivative(self, kind):
        for _ in range(10):
            X = qr_positive(rng.standard_normal((12, 4)))[0]
            E = direction_for(kind, X)
            for t in (0.01, 0.5, 2.0):
                Y = retract_array(kind, X, E, t)
                assert feasibility_error(Y) <= 1e-10
            deriv = fd_retraction_derivative(
                lambda t: retract_array(kind, X, E, t), FiniteDiffSpec())
            rel = np.linalg.norm(deriv - E) / np.linalg.norm(E)
            assert rel <= 1e-5

    def test_pd_hand_computed(self):
        X = np.array([[1.0], [0.0]])
        E = np.array([[0.0], [1.0]])
        Y = retract_array(RetractionKind.PD, X, E, 1.0)
        np.testing.assert_allclose(Y, np.array([[1.0], [1.0]]) / np.sqrt(2.0),
                                   atol=1e-14)

    def test_exp1_matches_exp2_on_horizontal(self):
        for _ in range(10):
            X, E = random_instance(space=TangentSpace.GRASSMANN)
            for t in (0.1, 1.0, 3.0):
                Y1 = retract_array(RetractionKind.EXP1, X, E, t)
                Y2 = retract_array(RetractionKind.EXP2, X, E, t)
                assert np.linalg.norm(Y1 - Y2) <= 1e-10

    def test_wy_equals_jd_with_half_phi(self):
        for _ in range(30):
            X, E = random_instance()
            t = rng.uniform(0.0, 5.0)
            Ywy = retract_array(RetractionKind.WY, X, E, t)
            Yjd = retract_array(RetractionKind.JD, X, E, t)
            assert np.linalg.norm(Ywy - Yjd) <= 1e-10

    def test_exp1_vertical_direction(self):
        # direction X*Omega makes D = (I - XX^T)E vanish; the block
        # exponential must degenerate gracefully
        X = qr_positive(rng.standard_normal((8, 3)))[0]
        Om = rng.standard_normal((3, 3))
        E = X @ (0.5 * (Om - Om.T))
        Y = retract_array(RetractionKind.EXP1, X, E, 0.7)
        assert feasibility_error(Y) <= 1e-10

    def test_exp2_zero_direction(self):
        X = qr_positive(rng.standard_normal((6, 2)))[0]
        np.testing.assert_array_equal(retract_array(RetractionKind.EXP2, X,
                                                    np.zeros((6, 2)), 1.0), X)

    def test_grassmann_moves_the_subspace(self):
        # principal angle between span(R(t)) and span(X) strictly positive
        X, E = random_instance(space=TangentSpace.GRASSMANN)
        E /= np.linalg.norm(E)
        for t in (0.1, 1.0):
            Y = retract_array(RetractionKind.EXP2, X, E, t)
            s = np.linalg.svd(X.T @ Y, compute_uv=False)
            assert s.min() < 1.0 - 1e-8


class TestGradientCoupledRetractions:
    def test_retract_array_takes_the_euclidean_gradient(self):
        # retract_array serves all eight kinds; for gp and gr the direction
        # is the Euclidean gradient itself
        X, _ = random_instance()
        g = rng.standard_normal(X.shape)
        for kind, fn in ((RetractionKind.GP, retract_gp_array),
                         (RetractionKind.GR, retract_gr_array)):
            np.testing.assert_array_equal(retract_array(kind, X, g, 0.1), fn(X, g, 0.1))

    def test_gp_zero_step(self):
        X, _ = random_instance()
        np.testing.assert_allclose(retract_gp_array(X, rng.standard_normal(X.shape), 0.0),
                                   X, atol=1e-13)

    def test_gp_scaling_invariance(self):
        # stepping along X itself just rescales, and polar undoes scaling
        X, _ = random_instance()
        np.testing.assert_allclose(retract_gp_array(X, X, 0.5), X, atol=1e-12)

    def test_gr_zero_step(self):
        X, _ = random_instance()
        np.testing.assert_allclose(retract_gr_array(X, rng.standard_normal(X.shape), 0.0),
                                   X, atol=1e-12)

    @pytest.mark.parametrize("kind", GRADIENT_KINDS)
    def test_derivative_matches_declared(self, kind):
        for _ in range(10):
            X, _ = random_instance(12, 4)
            g = rng.standard_normal((12, 4))
            deriv = fd_retraction_derivative(lambda t: retract_array(kind, X, g, t),
                                             FiniteDiffSpec())
            want = declared_derivative(kind, X, g)
            assert np.linalg.norm(deriv - want) <= 1e-5 * np.linalg.norm(want)

    def test_gr_symmetric_case_doubles_projection(self):
        # X^T g symmetric kills the skew terms: gr derivative is exactly
        # twice gp's
        X, _ = random_instance(12, 4)
        S = rng.standard_normal((4, 4))
        g = X @ (0.5 * (S + S.T)) + (np.eye(12) - X @ X.T) @ rng.standard_normal((12, 4))
        d_gp = declared_derivative(RetractionKind.GP, X, g)
        d_gr = declared_derivative(RetractionKind.GR, X, g)
        np.testing.assert_allclose(d_gr, 2.0 * d_gp, atol=1e-12)
        want = -2.0 * (g - X @ (X.T @ g))
        np.testing.assert_allclose(d_gr, want, atol=1e-12)


class TestBoundConstants:
    def test_line_baseline(self):
        l1, l2 = estimate_l1_l2("line", trials=200, seed=3)
        assert abs(l1 - 1.0) <= 1e-10
        assert l2 <= 1e-10

    def test_pd_small_sample(self):
        l1, l2 = estimate_l1_l2(RetractionKind.PD, trials=500, seed=3)
        assert l1 <= 1.0 + 1e-8
        assert l2 <= 0.5 + 1e-8

    def test_qr_small_sample(self):
        l1, l2 = estimate_l1_l2(RetractionKind.QR, trials=500, seed=3)
        assert l1 <= 1.0 + np.sqrt(2.0) / 2.0 + 1e-8
        assert l2 <= np.sqrt(10.0) / 2.0 + 1e-8
