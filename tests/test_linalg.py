import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg  # test-only oracle: the package itself imports no scipy
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import manifold_svrg
from manifold_svrg.errors import NonFiniteInput, RankDeficient
from manifold_svrg.linalg import expm, polar_project, qr_positive, skew
from oracles import gram_schmidt_qr, sym, taylor_expm

rng = np.random.default_rng(42)


class TestQrPositive:
    def test_identity(self):
        Q, R = qr_positive(np.eye(3))
        assert np.array_equal(Q, np.eye(3))
        assert np.array_equal(R, np.eye(3))

    def test_sign_convention_forced(self):
        A = rng.standard_normal((5, 3))
        Q0, _ = qr_positive(A)
        A_flip = A.copy()
        A_flip[:, 0] *= -1.0
        Q1, R1 = qr_positive(A_flip)
        # R11 must stay positive, so Q's first column flips with the input
        assert R1[0, 0] > 0
        np.testing.assert_allclose(Q1[:, 0], -Q0[:, 0], atol=1e-12)

    def test_against_gram_schmidt_oracle(self):
        A = rng.standard_normal((6, 3))
        Q, R = qr_positive(A)
        Qo, Ro = gram_schmidt_qr(A)
        np.testing.assert_allclose(Q, Qo, atol=1e-10)
        np.testing.assert_allclose(R, Ro, atol=1e-10)

    def test_reconstruction_and_orthonormality(self):
        for _ in range(20):
            A = rng.standard_normal((8, 4))
            Q, R = qr_positive(A)
            assert np.linalg.norm(A - Q @ R) <= 1e-12 * np.linalg.norm(A)
            assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-12
            assert np.all(np.diagonal(R) > 0)
            assert np.allclose(R, np.triu(R))

    def test_rank_deficient_raises(self):
        A = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            qr_positive(A)

    def test_nonfinite_rejected(self):
        A = np.full((3, 2), np.nan)
        with pytest.raises(NonFiniteInput):
            qr_positive(A)


class TestPolarProject:
    def test_idempotent_on_orthonormal(self):
        X, _ = qr_positive(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(polar_project(X), X, atol=1e-12)

    def test_axis_aligned(self):
        A = np.vstack([np.diag([2.0, 3.0]), np.zeros((2, 2))])
        expect = np.vstack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(polar_project(A), expect, atol=1e-14)

    def test_matches_inv_sqrt_formula(self):
        A = rng.standard_normal((8, 3))
        via_svd = polar_project(A)
        # A (A^T A)^{-1/2} with the inverse square root from eigh
        w, V = np.linalg.eigh(A.T @ A)
        via_gram = A @ ((V / np.sqrt(w)) @ V.T)
        np.testing.assert_allclose(via_svd, via_gram, atol=1e-10)

    def test_nearest_orthonormal_factorization(self):
        # polar(A) times the SPD factor reconstructs A
        for _ in range(100):
            A = rng.standard_normal((7, 3))
            P = polar_project(A)
            S = A.T @ A
            w, V = np.linalg.eigh(0.5 * (S + S.T))
            sqrtS = (V * np.sqrt(w)) @ V.T
            assert np.linalg.norm(A - P @ sqrtS) <= 1e-10 * np.linalg.norm(A)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            polar_project(np.ones((5, 2)))


@st.composite
def expm_inputs(draw, max_log_norm=1.0):
    """A skew matrix, 1x1 up to the 10x10 block of r = 5, scaled to a 1-norm
    drawn log-uniformly from 1e-18 to 10**max_log_norm (or zero)."""
    n = draw(st.integers(1, 10))
    A = draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    A = A - A.T
    norm = _one_norm(A)
    if norm == 0.0:
        return A
    return (A / norm) * 10.0 ** draw(st.floats(-18.0, max_log_norm))


def _one_norm(A):
    return np.abs(A).sum(axis=0).max(initial=0.0)


class TestExpm:
    def test_zero(self):
        # a contiguous array of its own, not the strided real part of a complex one
        E = expm(np.zeros((3, 3)))
        np.testing.assert_allclose(E, np.eye(3), atol=1e-15)
        assert E.flags.c_contiguous and E.flags.owndata

    def test_planar_rotation(self):
        th = np.pi / 2
        A = np.array([[0.0, -th], [th, 0.0]])
        np.testing.assert_allclose(expm(A), [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    def test_inverse_identity(self):
        for _ in range(10):
            A = rng.standard_normal((5, 5))
            A *= 5.0 / max(np.linalg.norm(A), 1.0)
            np.testing.assert_allclose(expm(A) @ expm(-A), np.eye(5), atol=1e-10)

    def test_reads_only_the_skew_part(self):
        # the symmetric part of a general matrix is dropped, bit for bit
        for _ in range(10):
            A = rng.standard_normal((6, 6))
            np.testing.assert_array_equal(expm(A), expm(skew(A)))

    # scipy's Pade expm and the Taylor series both serve as oracles on
    # exactly skew inputs, the exponentials of which this expm computes
    @settings(max_examples=300, deadline=None)
    @given(expm_inputs())
    @example(np.zeros((10, 10)))
    @example(skew(np.full((10, 10), 1e-18) - np.tril(np.full((10, 10), 2e-18))))
    @example(skew(np.arange(100.0).reshape(10, 10)) / 45.0)   # 1-norm 4.5
    @example(skew(np.arange(100.0).reshape(10, 10)) / 22.5)   # 1-norm 9
    @example(skew(np.arange(100.0).reshape(10, 10)))          # 1-norm 202.5
    def test_matches_scipy(self, A):
        got = expm(A)
        for want in (scipy.linalg.expm(A), taylor_expm(A)):
            assert _one_norm(got - want) <= 1e-12 * _one_norm(want)

    @settings(max_examples=300, deadline=None)
    @given(expm_inputs(max_log_norm=3.0))
    @example(skew(np.arange(100.0).reshape(10, 10)))      # 1-norm 202.5
    def test_skew_gives_orthogonal(self, A):
        Q = expm(A)
        assert np.linalg.norm(Q.T @ Q - np.eye(len(A))) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            expm(np.array([[np.inf]]))


def test_package_imports_no_scipy():
    # scipy bundles a second BLAS; the package runs on numpy's alone
    code = ("import sys, manifold_svrg, manifold_svrg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(manifold_svrg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_skew_symmetric_input():
    S = sym(rng.standard_normal((4, 4)))
    assert np.linalg.norm(skew(S)) == 0.0


def test_skew_direct():
    np.testing.assert_allclose(skew(np.array([[1.0, 2.0], [3.0, 4.0]])),
                               [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)


def test_skew_antisymmetry():
    A = rng.standard_normal((5, 5))
    K = skew(A)
    assert np.array_equal(K + K.T, np.zeros((5, 5)))


def test_sym_plus_skew_recovers():
    A = rng.standard_normal((4, 4))
    np.testing.assert_allclose(sym(A) + skew(A), A, atol=1e-15)
