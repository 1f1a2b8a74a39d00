import numpy as np
import pytest
import scipy.linalg

from manifold_svrg.errors import TooLarge
from manifold_svrg.oracles import (brute_force_expectation, dense_pca_eig,
                                   fd_derivative, gram_schmidt_qr, taylor_expm)

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
        with pytest.raises(TooLarge):
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
    def test_diagonal_covariance(self):
        # centered matrix chosen so B B^T is diagonal
        B = np.diag([3.0, 1.0, 2.0])
        w, V = dense_pca_eig(B, 1.0)
        np.testing.assert_allclose(w, [9.0, 4.0, 1.0], atol=1e-12)

    def test_reconstruction(self):
        B = rng.standard_normal((6, 10))
        w, V = dense_pca_eig(B, 0.1)
        cov = 0.1 * B @ B.T
        recon = (V * w) @ V.T
        assert np.linalg.norm(recon - cov) <= 1e-10 * np.linalg.norm(cov)

    def test_orthonormal_eigenvectors(self):
        B = rng.standard_normal((7, 5))
        _, V = dense_pca_eig(B, 1.0)
        np.testing.assert_allclose(V.T @ V, np.eye(7), atol=1e-12)

    def test_descending_order(self):
        B = rng.standard_normal((6, 20))
        w, _ = dense_pca_eig(B, 1.0)
        assert np.all(np.diff(w) <= 0)
