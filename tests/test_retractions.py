import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manifold_svrg.errors import RankDeficient, SingularStep
from manifold_svrg.linalg import expm, qr_positive, skew
from manifold_svrg.manifold import (TangentSpace, feasibility_error,
                                    tangent_project_array)
from manifold_svrg.oracles import fd_derivative
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


def _exp1_sign_fixed(X, E, t):
    # the geodesic with R's diagonal made nonnegative before the block
    # exponential, as the retraction once computed it
    r = X.shape[1]
    Q, R = np.linalg.qr(E - X @ (X.T @ E))
    signs = np.sign(np.diagonal(R))
    signs = np.where(signs == 0, 1.0, signs)
    Q, R = Q * signs, R * signs[:, None]
    blk = np.zeros((2 * r, 2 * r))
    blk[:r, :r] = X.T @ E
    blk[:r, r:] = -R.T
    blk[r:, :r] = R
    return np.hstack([X, Q]) @ expm(t * blk)[:, :r]


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
            deriv = fd_derivative(lambda t: retract_array(kind, X, E, t))
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

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 30), data=st.data(),
           shape=st.sampled_from(["generic", "vertical", "partly vertical"]),
           t=st.floats(1e-6, 10.0))
    def test_exp1_needs_no_qr_sign_fix(self, seed, d, data, shape, t):
        # QR's signs conjugate the block exponential by a sign matrix that
        # the product with [X Q] cancels exactly, so the retraction equals
        # the version that fixes R's diagonal positive, bit for bit
        r = data.draw(st.integers(1, d))
        local = np.random.default_rng(seed)
        X = qr_positive(local.standard_normal((d, r)))[0]
        E = X @ skew(local.standard_normal((r, r)))
        if shape != "vertical":
            K = (np.eye(d) - X @ X.T) @ local.standard_normal((d, r))
            if shape == "partly vertical":
                K[:, local.integers(r)] = 0.0
            E += K
        np.testing.assert_array_equal(retract_array(RetractionKind.EXP1, X, E, t),
                                      _exp1_sign_fixed(X, E, t))

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


@st.composite
def extreme_steps(draw):
    """(X, Z, t): t up to 1e3 and a Stiefel tangent Z = X Omega + K, of norm
    1e-3 to 1, whose normal part K is generic, (nearly) vanishing or of rank
    one."""
    local = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = qr_positive(local.standard_normal((9, 3)))[0]
    K = (np.eye(9) - X @ X.T) @ local.standard_normal((9, 3))
    shape = draw(st.sampled_from(["generic", "near-vertical", "rank-deficient"]))
    if shape == "near-vertical":
        K *= draw(st.sampled_from([0.0, 1e-14, 1e-8]))
    elif shape == "rank-deficient":
        K = np.outer(K[:, 0], draw(st.sampled_from([[1.0, 0.0, 0.0], [1.0, -1.0, 2.0]])))
    Z = X @ skew(local.standard_normal((3, 3))) + K
    Z *= 10.0 ** draw(st.floats(-3.0, 0.0)) / np.linalg.norm(Z)
    return X, Z, 10.0 ** draw(st.floats(-8.0, 3.0))


def _vertical_step():
    # a unit vertical direction X Omega at t = 1e3: the gr step X - t Z has
    # condition number about 1e3, its Gram matrix about 1e6
    local = np.random.default_rng(0)
    X = qr_positive(local.standard_normal((9, 3)))[0]
    Z = X @ skew(local.standard_normal((3, 3)))
    return X, Z / np.linalg.norm(Z), 1e3


class TestExtremeSteps:
    @pytest.mark.parametrize("kind", list(RetractionKind), ids=lambda k: k.value)
    @settings(max_examples=150, deadline=None)
    @given(case=extreme_steps(), along_x=st.sampled_from([0.0, 1.0]))
    @example(case=_vertical_step(), along_x=0.0)
    def test_feasible_or_documented_error(self, kind, case, along_x):
        # a retraction either lands on the manifold or raises its documented
        # error; t = 1 with along_x = 1 cancels X in the gp / gr step X - t g
        X, Z, t = case
        if kind is RetractionKind.EXP2:
            Z = Z - X @ (X.T @ Z)       # its horizontal part
        elif kind in GRADIENT_KINDS:
            Z = Z + along_x * X         # a Euclidean gradient need not be tangent
        try:
            Y = retract_array(kind, X, Z, t)
        except (RankDeficient, SingularStep):
            return
        assert feasibility_error(Y) <= 1e-10


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

    def test_gr_matches_gram_formula(self):
        # on a well-conditioned step the projector equals Xb (Xb^T Xb)^{-1} Xb^T
        for _ in range(10):
            X, _ = random_instance()
            g = rng.standard_normal(X.shape)
            Xb = X - 0.3 * g
            want = 2.0 * Xb @ np.linalg.solve(Xb.T @ Xb, Xb.T @ X) - X
            np.testing.assert_allclose(retract_gr_array(X, g, 0.3), want, atol=1e-12)

    def test_gr_rank_deficient_step(self):
        # t = 1 with g = X e_0 e_0^T zeroes the first column of X - t g; the
        # reflection keeps the other two columns and negates the first
        X, _ = random_instance()
        g = np.zeros_like(X)
        g[:, 0] = X[:, 0]
        want = X.copy()
        want[:, 0] *= -1.0
        np.testing.assert_allclose(retract_gr_array(X, g, 1.0), want, atol=1e-13)

    @pytest.mark.parametrize("kind", GRADIENT_KINDS)
    def test_derivative_matches_declared(self, kind):
        for _ in range(10):
            X, _ = random_instance(12, 4)
            g = rng.standard_normal((12, 4))
            deriv = fd_derivative(lambda t: retract_array(kind, X, g, t))
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
