import numpy as np
import pytest
import scipy.linalg

from manifold_svrg.problems import PcaInstance
from oracles import (brute_force_expectation, cayley_woodbury, fd_derivative,
                     gram_schmidt_qr, pca_top_subspace, taylor_expm)

rng = np.random.default_rng(99)


class TestFiniteDiff:
    def test_linear_curve_exact(self):
        E = rng.standard_normal((4, 2))
        X = rng.standard_normal((4, 2))
        got = fd_derivative(lambda t: X + t * E)
        np.testing.assert_allclose(got, E, atol=1e-9)

    def test_cubic_curve(self):
        # Richardson kills the h^2 term, so a cubic is near machine precision
        A, B, C = (rng.standard_normal((3, 3)) for _ in range(3))
        got = fd_derivative(lambda t: A + t * B + t ** 3 * C)
        np.testing.assert_allclose(got, B, atol=1e-10)


class TestGramSchmidt:
    def test_reconstruction(self):
        A = rng.standard_normal((9, 4))
        Q, R = gram_schmidt_qr(A)
        np.testing.assert_allclose(Q @ R, A, atol=1e-12)
        np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
        assert np.all(np.diagonal(R) > 0)

    def test_rank_deficient_raises(self):
        with pytest.raises(ZeroDivisionError):
            gram_schmidt_qr(np.ones((4, 2)))


class TestTaylorExpm:
    def test_zero(self):
        np.testing.assert_allclose(taylor_expm(np.zeros((2, 2))), np.eye(2))

    def test_vs_scipy(self):
        for scale in (0.1, 1.0, 8.0):
            A = scale * rng.standard_normal((5, 5))
            want = scipy.linalg.expm(A)
            got = taylor_expm(A)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestBruteForce:
    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="enumeration guard"):
            brute_force_expectation(lambda b: np.zeros((1, 1)), n=100, batch_size=4)

    def test_mean_of_single_draws(self):
        mats = [rng.standard_normal((2, 2)) for _ in range(4)]
        mean, second = brute_force_expectation(lambda b: mats[b[0]], n=4, batch_size=1)
        np.testing.assert_allclose(mean, sum(mats) / 4, atol=1e-14)
        want_second = np.mean([np.linalg.norm(m - sum(mats) / 4) ** 2 for m in mats])
        assert second == pytest.approx(want_second, rel=1e-12)

    def test_constant_function_zero_variance(self):
        const = rng.standard_normal((3, 2))
        mean, second = brute_force_expectation(lambda b: const, n=5, batch_size=2)
        np.testing.assert_allclose(mean, const, atol=1e-14)
        assert second <= 1e-28


class TestDensePcaEig:
    """pca_top_subspace: the dense eigensolver behind the reference PCA subspaces."""

    def test_diagonal_covariance(self):
        # columns +-3 e1, +-1 e2, +-2 e3 have mean zero and covariance
        # diag(18, 2, 8) / 6; the top two directions are e1, then e3
        A = np.hstack([np.diag([3.0, 1.0, 2.0]), -np.diag([3.0, 1.0, 2.0])])
        f_star, V = pca_top_subspace(PcaInstance(A, 2))
        assert f_star == pytest.approx(-(18.0 + 8.0) / 6.0, rel=1e-14)
        np.testing.assert_allclose(np.abs(V), np.eye(3)[:, [0, 2]], atol=1e-14)

    def test_reconstruction(self):
        # f* is minus the r largest squared singular values of B over n,
        # and the subspace attains it
        A = rng.standard_normal((6, 10))
        inst = PcaInstance(A, 3)
        f_star, V = pca_top_subspace(inst)
        s = np.linalg.svd(A - A.mean(axis=1, keepdims=True), compute_uv=False)
        assert f_star == pytest.approx(-np.sum(s[:3] ** 2) / 10, rel=1e-12)
        assert inst.value(V) == pytest.approx(f_star, rel=1e-12)

    def test_orthonormal_eigenvectors(self):
        _, V = pca_top_subspace(PcaInstance(rng.standard_normal((7, 5)), 4))
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-12)

    def test_descending_order(self):
        # each column's explained variance is no larger than the one before
        inst = PcaInstance(rng.standard_normal((6, 20)), 6)
        _, V = pca_top_subspace(inst)
        explained = [-inst.value(V[:, [j]]) for j in range(6)]
        assert np.all(np.diff(explained) <= 1e-12)


class TestCayleyWoodbury:
    def test_vs_dense_cayley(self):
        # the d x d Cayley transform (I + t/2 W)^{-1} (I - t/2 W) X with
        # W = X P^T - P X^T, solved densely
        local = np.random.default_rng(7)
        for t in (0.1, 1.0, 5.0):
            X = np.linalg.qr(local.standard_normal((8, 3)))[0]
            Z = local.standard_normal((8, 3))
            E = Z - 0.5 * X @ (X.T @ Z + Z.T @ X)
            P = E - 0.5 * X @ (X.T @ E)
            W = X @ P.T - P @ X.T
            want = np.linalg.solve(np.eye(8) + 0.5 * t * W, X - 0.5 * t * W @ X)
            np.testing.assert_allclose(cayley_woodbury(X, E, t), want, atol=1e-12)
