import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from manifold_svrg.errors import InvalidObservation, NonFiniteInput, TooManySamples
from manifold_svrg.linalg import qr_positive
from manifold_svrg.problems import (McInstance, PcaInstance, ProblemConstants, mc_generate,
                                    mc_load_observations, mc_save_observations,
                                    pca_generate, pca_load)
from oracles import fd_derivative, mc_gradient_rows, mc_scatter, pca_data, pca_top_subspace

rng = np.random.default_rng(13)


def random_stiefel(d, r):
    return qr_positive(rng.standard_normal((d, r)))[0]


def pca_component_value(inst, X, i):
    """f_i(X) = -||X^T b_i||^2 from the instance's centered column b_i."""
    g = inst.B[:, i] @ X
    return -float(g @ g)


def mc_from_columns(d, r, rows, vals, **kw):
    """McInstance of len(rows) columns from per-column row and value lists."""
    cols = [np.full(len(ri), j) for j, ri in enumerate(rows)]
    return McInstance(d, len(rows), r, np.concatenate(rows), np.concatenate(cols),
                      np.concatenate(vals), **kw)


@st.composite
def mc_cases(draw):
    """A small completion instance, two points and a batch.

    Columns hold 0..r-1 observations (rank deficient, empty included) or at
    least r+2; exactly r or r+1 rows of a random X can be ill conditioned
    enough that two correct solvers disagree in the 8th digit.
    """
    r = draw(st.integers(1, 3))
    d = draw(st.integers(r + 2, 12))
    lengths = draw(st.lists(st.one_of(st.integers(0, r - 1), st.integers(r + 2, d)),
                            min_size=1, max_size=8))
    assume(sum(lengths) > 0)
    n = len(lengths)
    local = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [local.permutation(d)[:m] for m in lengths]
    vals = [local.standard_normal(m) for m in lengths]
    X0, Xk = (qr_positive(local.standard_normal((d, r)))[0] for _ in range(2))
    idx = local.integers(n, size=draw(st.integers(1, 2 * n)))
    return mc_from_columns(d, r, rows, vals), X0, Xk, idx


def lstsq_components(inst, X):
    """Reference f_i(X) and grad f_i(X) of every column from np.linalg.lstsq."""
    fs, gs = [], []
    for rows, v in zip(inst.rows, inst.vals):
        a = np.linalg.lstsq(X[rows], v, rcond=None)[0]  # minimum norm when rank deficient
        resid = X[rows] @ a - v
        g = np.zeros_like(X)
        g[rows] = 2.0 * np.outer(resid, a)
        fs.append(resid @ resid)
        gs.append(g)
    return np.array(fs), np.array(gs)


def assert_matches_lstsq(inst, X0, Xk, idx):
    """Value, full gradient, batch difference and component gradient against lstsq."""
    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-11 * (1.0 + np.linalg.norm(want))

    f0, g0 = lstsq_components(inst, X0)
    gk = lstsq_components(inst, Xk)[1]
    f, egrad = inst.full_value_egrad(X0)
    close(f, f0.mean())
    close(egrad, g0.mean(axis=0))
    close(inst.batch_egrad_diff(Xk, X0, idx), (gk[idx] - g0[idx]).mean(axis=0))
    close(inst.batch_egrad_diff(X0, Xk, idx), (g0[idx] - gk[idx]).mean(axis=0))
    for i in range(inst.n):
        close(inst.component_egrad(Xk, i), gk[i])


class TestPcaGenerate:
    def test_normalization(self):
        A = pca_data(1, 50, seed=0)
        assert np.abs(A).max() == 1.0
        assert np.all(np.abs(A) <= 1.0)

    def test_determinism(self):
        assert np.array_equal(pca_data(20, 30, seed=4), pca_data(20, 30, seed=4))

    def test_row_scaling_profile(self):
        # later rows carry the i^0.618 weight, so their variance grows
        A = pca_data(100, 2000, seed=1)
        v = (A ** 2).mean(axis=1)
        assert v[-1] > v[0]

    @pytest.mark.parametrize("n", [1, 2, 50, 2048])
    @pytest.mark.parametrize("d", [1, 5, 63, 64, 65, 2 * 64 + 3])
    def test_blocked_draw_is_the_one_shot_draw(self, d, n):
        # drawn a block of rows at a time into column-major memory and
        # centred there: the bits of the instance built from one (d, n)
        # draw; at n = 2048 the block is 64 rows, which d straddles.  One
        # column centres to zero: both refuse it, the generator before it draws
        r = min(d, 3)
        if n == 1:
            for make in (pca_generate, lambda d, n, r, seed: PcaInstance(pca_data(d, n, seed), r)):
                with pytest.raises(ValueError, match=re.escape("n = 1 outside [2, inf)")):
                    make(d, n, r, seed=7)
            return
        got, want = pca_generate(d, n, r, seed=7), PcaInstance(pca_data(d, n, seed=7), r)
        assert got.B.flags.f_contiguous
        for name in ("B", "C", "_col_sq"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.constants() == want.constants()
        assert got.optimum() == want.optimum()

    def test_one_row_blocks_when_a_row_exceeds_the_block(self):
        # n > 2^17: the draw and the ingest stage one row at a time, with
        # the bits of the one-shot draw and of whole-array centring
        d, n = 3, 2 ** 17 + 1
        A = pca_data(d, n, seed=7)
        got = pca_generate(d, n, 2, seed=7)
        B = A - A.mean(axis=1, keepdims=True)
        assert np.array_equal(got.B, B)
        assert np.array_equal(got._col_sq, np.sum(B ** 2, axis=0))
        assert np.array_equal(got.C, PcaInstance(A, 2).C)

    @pytest.mark.parametrize("d, n, r, message", [
        (0, 5, 1, "d must be an integer of at least 1, got 0"),
        (-2, 5, 1, "d must be an integer of at least 1, got -2"),
        (5, 0, 1, "n must be an integer of at least 1, got 0"),
        (5, 5, 0, "r must be an integer of at least 1, got 0"),
        (5, 5, 6, "r = 6 outside [1, d = 5]"),
        # a fractional rank is refused, not truncated to r = 2
        (6, 10, 2.9, "r must be an integer of at least 1, got 2.9"),
        # one column centres to zero: no run could take a step on it
        (6, 1, 2, "n = 1 outside [2, inf): a single column centres to zero")],
        ids=["0-5-1-d = 0", "-2-5-1-d = -2", "5-0-1-n = 0", "5-5-0-r = 0", "5-5-6-r = 6",
             "6-10-2.9-r = 2.9", "6-1-2-n = 1"])
    def test_bad_shape_rejected_before_drawing(self, d, n, r, message, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the shape")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(message)):
            pca_generate(d, n, r, seed=0)

    def test_peak_memory_is_the_instance(self):
        # the draw is the instance's B: no second d x n array is ever alive
        # (generating A and then constructing from it peaked at 2.44x), and
        # the staging block is at most 1 MB or one row, so at d <= 64 it is
        # no second copy either (a 64-row block peaked at 2.06x at d = 16);
        # at d = 256 a 1 MB block is 12% of B and C
        for d, n, bound in ((256, 4096, 1.3), (16, 200_000, 1.2)):
            tracemalloc.start()
            try:
                pca_generate(d, n, 8, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * (d * n + d * d) * 8, (d, n)


class TestPcaInstance:
    def setup_method(self):
        self.inst = pca_generate(15, 40, 3, seed=9)

    def test_finite_sum_consistency(self):
        X = random_stiefel(15, 3)
        f, egrad = self.inst.full_value_egrad(X)
        comp_f = np.mean([pca_component_value(self.inst, X, i) for i in range(40)])
        comp_g = np.mean([self.inst.component_egrad(X, i) for i in range(40)], axis=0)
        assert abs(f - comp_f) <= 1e-10
        np.testing.assert_allclose(egrad, comp_g, atol=1e-10)

    def test_component_grad_zero_column(self):
        A = np.ones((4, 3))
        A[:, 0] = [1.0, 2.0, 0.0, 1.0]
        inst = PcaInstance(A, r=1)
        X = random_stiefel(4, 1)
        # columns 1 and 2 equal the mean-removed zero? column 1 == column 2,
        # so their centered versions coincide; pick one with B_i = 0
        zero_cols = [i for i in range(3) if np.allclose(inst.B[:, i], 0)]
        for i in zero_cols:
            assert np.linalg.norm(inst.component_egrad(X, i)) == 0.0

    def test_hand_computed_component(self):
        # B_i = e1, X = e1 in R^2: grad = -2 e1 (e1^T e1) = -2 e1; the
        # columns +-e1 have mean zero, so centering keeps them
        inst = PcaInstance(np.array([[1.0, -1.0], [0.0, 0.0]]), r=1)
        X = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(inst.component_egrad(X, 0), [[-2.0], [0.0]])

    def test_batch_diff_matches_generic(self):
        X0 = random_stiefel(15, 3)
        Xk = random_stiefel(15, 3)
        idx = rng.integers(40, size=7)
        fused = self.inst.batch_egrad_diff(Xk, X0, idx)
        generic = np.mean([self.inst.component_egrad(Xk, i) - self.inst.component_egrad(X0, i)
                           for i in idx], axis=0)
        np.testing.assert_allclose(fused, generic, atol=1e-12)

    def test_data_is_one_column_major_array(self):
        # B.T is a contiguous B^T; the instance keeps B as its only d x n
        # array and the covariance C as its only d x d one
        inst = pca_generate(15, 40, 3, seed=9)
        assert inst.B.flags.f_contiguous
        held = [v for v in vars(inst).values() if isinstance(v, np.ndarray)]
        assert [v is inst.B for v in held if v.shape == (15, 40)] == [True]
        assert [v is inst.C for v in held if v.shape == (15, 15)] == [True]

    @settings(deadline=None, max_examples=100)
    @given(d=st.sampled_from([1, 63, 64, 65, 130, 200]),
           n=st.integers(2, 300) | st.integers(1900, 2200), seed=st.integers(0, 2 ** 32 - 1))
    def test_column_norms_summed_row_by_row(self, d, n, seed):
        # the one blocked pass gives the bits of whole-array centring, of
        # np.sum over a row-major B (row by row, so L keeps its bits) and of
        # the covariance product; at n in [1900, 2200] the ingest block is
        # 59-68 rows, which d straddles, and the data is left unchanged
        local = np.random.default_rng(seed)
        A = local.standard_normal((d, n)) + local.standard_normal((d, 1))
        A_before = A.copy()
        inst = PcaInstance(A, r=1)
        B = np.subtract(A_before, A_before.mean(axis=1, keepdims=True), order="F")
        B_rows = np.ascontiguousarray(B)
        assert np.array_equal(inst.B, B)
        assert inst.B.flags.f_contiguous
        assert np.array_equal(inst._col_sq, np.sum(B_rows ** 2, axis=0))
        assert np.array_equal(inst.C, (B @ B.T) * (1.0 / n))
        assert np.array_equal(A, A_before)

    @pytest.mark.parametrize("layout", ["row-major", "column-major", "transposed view"])
    def test_data_never_written(self, layout):
        # the public constructor reads A into a fresh B, whatever A's
        # layout, and B's bits do not depend on that layout; at n = 2048
        # the ingest block is 64 rows, so d crosses two block edges
        A = pca_data(2 * 64 + 3, 2048, seed=2)
        want = PcaInstance(A.copy(), r=2).B
        if layout == "column-major":
            A = np.asfortranarray(A)
        elif layout == "transposed view":
            M = np.ascontiguousarray(A.T)
            A = M.T
        before = A.copy()
        inst = PcaInstance(A, r=2)
        assert np.array_equal(A, before)
        assert np.array_equal(inst.B, want)
        assert not np.shares_memory(inst.B, A)

    @settings(deadline=None, max_examples=200)
    @given(d=st.integers(1, 80), n=st.integers(2, 300), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_batch_diff_row_gather_exact(self, d, n, seed, data):
        # gathering rows of the column-major B^T gives the same bits as
        # gathering columns of a row-major B; the batch may repeat indices
        r = data.draw(st.integers(1, min(d, 6)))
        b = data.draw(st.integers(1, min(n, 100) + 5))
        local = np.random.default_rng(seed)
        inst = PcaInstance(local.standard_normal((d, n)), r)
        idx = local.integers(n, size=b)
        Xk, X0 = local.standard_normal((2, d, r))
        C = np.ascontiguousarray(inst.B)
        want = (-2.0 / b) * (C[:, idx] @ (C[:, idx].T @ (Xk - X0)))
        assert np.array_equal(inst.batch_egrad_diff(Xk, X0, idx), want)

    @settings(deadline=None, max_examples=200)
    @given(d=st.integers(1, 60), n=st.integers(2, 300), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_covariance_full_gradient(self, d, n, seed, data):
        # the covariance oracle against the two products -(2/n) B (B^T X).
        # f cancels on small centered data, so the bound is the rounding of
        # both paths, relative to |B|^2 |X|^2 / n rather than to f
        r = data.draw(st.integers(1, min(d, 6)))
        local = np.random.default_rng(seed)
        inst = PcaInstance(local.standard_normal((d, n)), r)
        X = local.standard_normal((d, r))
        f, egrad = inst.full_value_egrad(X)
        G = inst.B.T @ X
        want_f, want = -float(np.sum(G ** 2)) / n, (-2.0 / n) * (inst.B @ G)
        tol = 4.0 * (n + d * r) * np.finfo(float).eps * np.linalg.norm(inst.B) ** 2 / n
        nX = np.linalg.norm(X)
        assert np.linalg.norm(egrad - want) <= tol * nX
        assert abs(f - want_f) <= tol * nX ** 2
        assert f == inst.value(X)

    def test_optimum_solves_the_covariance(self):
        # the reference subspace factors the stored C, which is (1/n) B B^T
        # bit for bit, and optimum() takes the eigenvalues of the same C
        B, n = self.inst.B, self.inst.n
        w, V = np.linalg.eigh((1.0 / n) * (B @ B.T))
        top = np.argsort(w)[::-1][:3]
        f_star, X_star = pca_top_subspace(self.inst)
        assert f_star == -float(np.sum(w[top]))
        assert np.array_equal(X_star, V[:, top])
        assert self.inst.optimum() == pytest.approx(f_star, rel=1e-14)

    def test_optimum_takes_no_eigenvectors(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("optimum() called eigh")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert self.inst.optimum() < 0.0

    @pytest.mark.parametrize("d, n, r", [(200, 2000, 5), (1000, 10000, 10)])
    def test_optimum_is_the_top_eigenvalue_sum(self, d, n, r):
        # at the pca-desk and pca-rgd shapes: eigvalsh's f* against the
        # full eigh's eigenvalues, which may differ in the last bits
        inst = pca_generate(d, n, r, seed=0)
        w = np.linalg.eigh(inst.C)[0]
        want = -float(np.sum(np.sort(w)[::-1][:r]))
        assert abs(inst.optimum() - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("d, n, r", [(200, 2000, 5), (1000, 10000, 10)])
    def test_value_is_full_gradient_f(self, d, n, r):
        # at the pca-desk and pca-rgd shapes: the trace's f column comes from
        # full_value_egrad and the benchmark's result check from value
        inst = pca_generate(d, n, r, seed=0)
        local = np.random.default_rng(3)
        for _ in range(20):
            X = qr_positive(local.standard_normal((d, r)))[0]
            assert inst.value(X) == inst.full_value_egrad(X)[0]

    def test_gradient_symmetry(self):
        X = random_stiefel(15, 3)
        _, egrad = self.inst.full_value_egrad(X)
        M = X.T @ egrad
        np.testing.assert_allclose(M, M.T, atol=1e-12)

    def test_component_grad_is_fd_derivative(self):
        X = random_stiefel(15, 3)
        i = 11
        g = self.inst.component_egrad(X, i)
        probe = rng.standard_normal((15, 3))
        val = fd_derivative(
            lambda t: np.array([[pca_component_value(self.inst, X + t * probe, i)]]))
        assert abs(val[0, 0] - np.sum(g * probe)) <= 1e-6 * max(1.0, abs(val[0, 0]))

    def test_optimum(self):
        f_star, X_star = pca_top_subspace(self.inst)
        f_at = self.inst.value(X_star)
        assert abs(f_at - f_star) <= 1e-12
        # any other feasible point can only be worse for the minimization
        assert self.inst.value(random_stiefel(15, 3)) >= f_star - 1e-12

    def test_constants_analytic(self):
        consts = self.inst.constants()
        assert consts.C == pytest.approx(consts.L * math.sqrt(3))
        # Lipschitz ratio never exceeds the analytic L over sampled pairs
        worst = 0.0
        for _ in range(200):
            X, Y = random_stiefel(15, 3), random_stiefel(15, 3)
            i = int(rng.integers(40))
            num = np.linalg.norm(self.inst.component_egrad(X, i) -
                                 self.inst.component_egrad(Y, i))
            worst = max(worst, num / np.linalg.norm(X - Y))
        assert worst <= consts.L + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        # d = 2 * 64 + 3 and n = 2048, so 64-row ingest blocks: the bad
        # entry in the first, a middle and the tail block
        for row in (2, 64 + 17, 2 * 64 + 2):
            A = pca_data(2 * 64 + 3, 2048, seed=0)
            A[row, 3] = bad
            with pytest.raises(NonFiniteInput):
                PcaInstance(A, r=2)

    def test_overflowing_row_sum_rejected(self):
        # finite entries whose row sum overflows would centre to -Inf
        A = pca_data(4, 8, seed=0)
        A[1] = 1e308
        with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):
            PcaInstance(A, r=2)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (3, 0), (0, 4)])
    def test_malformed_data_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            PcaInstance(np.ones(shape), r=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.uint8, np.bool_])
    def test_real_dtype_cast_by_block(self, dtype):
        # an array of any real dtype is cast as it is staged, with the bits
        # of the instance of its whole float64 cast, and is not written.  Cast
        # to bool, every entry would be True: constant rows, which are refused,
        # so the bools are the entries' signs
        A = pca_data(131, 2048, seed=3) * 200
        A = A > 0 if dtype is np.bool_ else A.astype(dtype)
        before = A.copy()
        got, want = PcaInstance(A, r=2), PcaInstance(A.astype(float), r=2)
        for name in ("B", "C", "_col_sq"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(A, before)

    def test_complex_data_converts_whole_as_before(self):
        # only a real-numeric array is staged uncast; complex data still
        # goes through numpy's float conversion, with its warning
        A = pca_data(4, 8, seed=0) + 0j
        with pytest.warns(np.exceptions.ComplexWarning):
            inst = PcaInstance(A, r=1)
        assert np.array_equal(inst.B, PcaInstance(A.real.copy(), r=1).B)

    @pytest.mark.parametrize("r", [0, 7, 2.5])
    def test_rank_outside_dimension_rejected(self, r):
        with pytest.raises(ValueError):
            PcaInstance(pca_data(6, 8, seed=0), r=r)

    @pytest.mark.parametrize("A, message", [
        (np.ones((6, 8)), "data matrix has no variance: each row is constant, so the centred "
                          "data is zero"),
        (np.arange(6.0)[:, None] * np.ones(8), "data matrix has no variance"),
        (np.ones((6, 8), dtype=np.float32), "data matrix has no variance"),
        # one column centres to zero whatever its values
        (np.arange(6.0)[:, None], "n = 1 outside [2, inf): a single column centres to zero")],
        ids=["ones", "constant-rows", "float32", "one-column"])
    def test_data_without_variance_rejected(self, A, message, tmp_path):
        # centred to B = 0, whose L = 0 no run can use: refused where the
        # data enters, by the constructor and the loader
        np.save(tmp_path / "a.npy", A)
        np.savetxt(tmp_path / "a.csv", A, delimiter=",")
        for make in (lambda: PcaInstance(A, r=2), lambda: pca_load(tmp_path / "a.npy", r=2),
                     lambda: pca_load(tmp_path / "a.csv", r=2)):
            with pytest.raises(ValueError, match=re.escape(message)):
                make()

    def test_single_unit_column_L(self):
        # the centered columns are +-e1, each of unit norm
        inst = PcaInstance(np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]), r=1)
        assert inst.constants().L == 2.0


class TestProblemConstants:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ProblemConstants(L=0.0, C=1.0)


class TestMcGenerate:
    def test_observation_count_exact(self):
        inst = mc_generate(40, 30, 3, cond=10.0, seed=2)
        assert inst.num_observed == (30 + 40 - 3) * 9

    def test_determinism(self):
        a = mc_generate(20, 15, 2, 10.0, seed=5)
        b = mc_generate(20, 15, 2, 10.0, seed=5)
        np.testing.assert_array_equal(a.M_true, b.M_true)
        for ra, rb in zip(a.rows, b.rows):
            np.testing.assert_array_equal(ra, rb)

    def test_rank_one_unit_cond(self):
        inst = mc_generate(20, 15, 1, cond=1.0, seed=1)
        s = np.linalg.svd(inst.M_true, compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s[1:] <= 1e-12)

    def test_condition_number(self):
        inst = mc_generate(40, 30, 4, cond=10.0, seed=3)
        s = np.linalg.svd(inst.M_true, compute_uv=False)[:4]
        assert s[0] / s[3] == pytest.approx(10.0, rel=1e-10)

    def test_too_many_samples(self):
        with pytest.raises(TooManySamples):
            mc_generate(10, 10, 5, 10.0, seed=0)

    @pytest.mark.parametrize("d, n, r, cond, message", [
        (0, 5, 1, 10.0, "d must be an integer of at least 1, got 0"),
        (5, 0, 1, 10.0, "n must be an integer of at least 1, got 0"),
        (5, 5, 0, 10.0, "r must be an integer of at least 1, got 0"),
        (20, 30, 2.5, 10.0, "r must be an integer of at least 1, got 2.5"),
        (6, 2, 3, 10.0, "r = 3 outside [1, min(d, n) = 2]"),
        (2, 6, 3, 10.0, "r = 3 outside [1, d = 2]"),
        *((5, 5, 2, cond, f"cond must be a real number in [1, inf), got {cond}")
          for cond in (-3.0, 0.0, 0.5, math.nan, math.inf))],
        ids=["0-5-1-10.0-d = 0", "5-0-1-10.0-n = 0", "5-5-0-10.0-r = 0", "20-30-2.5-10.0-r = 2.5",
             "6-2-3-10.0-r = 3", "2-6-3-10.0-r = 3", "5-5-2--3.0-cond = -3.0",
             "5-5-2-0.0-cond = 0.0", "5-5-2-0.5-cond = 0.5", "5-5-2-nan-cond = nan",
             "5-5-2-inf-cond = inf"])
    def test_bad_input_rejected_before_drawing(self, d, n, r, cond, message, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking the input")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_generate(d, n, r, cond, seed=0)


class TestMcInstance:
    def setup_method(self):
        self.inst = mc_generate(30, 25, 3, cond=10.0, seed=8)

    @pytest.mark.parametrize("d, r, message", [
        (2, 0, "r must be an integer of at least 1, got 0"),
        (2, 3, "r = 3 outside [1, d = 2]"),
        # a fractional size is refused, not truncated to d = 4
        (4.7, 1, "d must be an integer of at least 1, got 4.7")], ids=["2-0", "2-3", "4.7-1"])
    def test_rank_outside_dimension_rejected(self, d, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_from_columns(d, r, [[0, 1]], [[1.0, 2.0]])

    def test_full_observation_exact_fit(self):
        # every row observed and M_i in span(X): residual and gradient vanish
        X = random_stiefel(6, 2)
        a = rng.standard_normal(2)
        vals = [X @ a]
        inst = mc_from_columns(6, 2, [np.arange(6)], vals)
        assert lstsq_components(inst, X)[0][0] <= 1e-24
        assert np.linalg.norm(inst.component_egrad(X, 0)) <= 1e-11

    def test_full_observation_projection_identity(self):
        # all rows observed: a* = X^T M_i and f_i = ||(I - XX^T) M_i||^2
        X = random_stiefel(6, 2)
        m = rng.standard_normal(6)
        inst = mc_from_columns(6, 2, [np.arange(6)], [m])
        np.testing.assert_allclose(inst.fitted_matrix(X)[:, 0], X @ (X.T @ m), atol=1e-12)
        want = np.linalg.norm(m - X @ (X.T @ m)) ** 2
        assert lstsq_components(inst, X)[0][0] == pytest.approx(want, rel=1e-12)

    def test_component_grad_vs_finite_differences(self):
        X = random_stiefel(30, 3)
        for i in (0, 7, 19):
            g = self.inst.component_egrad(X, i)
            probe = rng.standard_normal((30, 3))
            val = fd_derivative(
                lambda t: np.array([[lstsq_components(self.inst, X + t * probe)[0][i]]]))
            assert abs(val[0, 0] - np.sum(g * probe)) <= 1e-5 * max(1.0, abs(val[0, 0]))

    def test_finite_sum_consistency(self):
        X = random_stiefel(30, 3)
        f, egrad = self.inst.full_value_egrad(X)
        fs = lstsq_components(self.inst, X)[0]
        gs = [self.inst.component_egrad(X, i) for i in range(25)]
        assert abs(f - np.mean(fs)) <= 1e-10
        np.testing.assert_allclose(egrad, np.mean(gs, axis=0), atol=1e-10)

    def test_value_nonnegative_and_zero_at_truth(self):
        X = random_stiefel(30, 3)
        assert self.inst.value(X) >= 0.0
        U = np.linalg.svd(self.inst.M_true, full_matrices=False)[0][:, :3]
        assert self.inst.value(U) <= 1e-24

    # derandomized: about one short column in 1e5 is conditioned badly
    # enough that the roundoff of both solvers exceeds the tolerance
    @settings(deadline=None, derandomize=True)
    @given(mc_cases())
    def test_oracles_match_lstsq(self, case):
        # padded stacked fits, unpadded component fits and the minimum-norm
        # branch all agree with per-column lstsq
        assert_matches_lstsq(*case)

    def test_singular_gram_takes_minimum_norm_fit(self):
        # every column has r = 2 or more rows, yet X = [e1, e2] vanishes on
        # column 1's rows, so its normal equations are exactly singular
        X = np.eye(5)[:, :2]
        inst = mc_from_columns(5, 2, [[0, 1, 3], [2, 3, 4]],
                               [[1.0, -2.0, 0.5], [3.0, 1.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(X[[2, 3, 4]].T @ X[[2, 3, 4]], np.zeros(2))
        assert_matches_lstsq(inst, X, random_stiefel(5, 2), np.array([1, 0, 1]))
        assert lstsq_components(inst, X)[0][1] == 11.0

    def test_singular_column_leaves_other_fits_alone(self):
        # X0 vanishes on column 0's rows 2, 3 and 4: only that column takes
        # the minimum-norm fit, so the anchor's fit of columns 1 and 2 is
        # their refit's bits (a pseudo-inverse of the whole stack moved
        # them by up to 2e-15)
        X0 = np.zeros((6, 2))
        X0[[0, 1, 5]] = random_stiefel(3, 2)
        Xk = random_stiefel(6, 2)
        inst = mc_from_columns(6, 2, [[2, 3, 4], [0, 1, 3, 5], [5, 0, 2, 1]],
                               [[1.0, -2.0, 0.5], [3.0, 1.0, -1.0, 0.25], [0.7, -0.3, 2.0, 1.1]])
        a_with = inst._fit(X0, np.arange(3))[0]
        a_without = inst._fit(X0, np.array([1, 2]))[0]
        assert np.array_equal(a_with[1:], a_without)
        _, _, diff = inst.anchored(X0)
        idx = np.array([1, 2])
        assert np.array_equal(diff(Xk, idx), inst.batch_egrad_diff(Xk, X0, idx))
        assert_matches_lstsq(inst, X0, Xk, np.array([0, 2, 1]))

    def test_short_column_leaves_other_fits_alone(self):
        # only the short column takes the minimum-norm branch: the full-rank
        # columns' coefficients are the same bits with or without it
        X = random_stiefel(30, 3)
        short = self.inst.rows[5][:2]
        rows = list(self.inst.rows)
        vals = list(self.inst.vals)
        rows[5], vals[5] = short, self.inst.vals[5][:2]
        cut = mc_from_columns(30, 3, rows, vals)
        idx = np.array([0, 5, 9, 17])
        a_with = cut._fit(X, idx)[0]
        a_without = cut._fit(X, idx[idx != 5])[0]
        assert np.array_equal(a_with[[0, 2, 3]], a_without)
        want = np.linalg.lstsq(X[short], vals[5], rcond=None)[0]
        np.testing.assert_allclose(a_with[1, :, 0], want, atol=1e-12)

    @pytest.mark.parametrize("row", [-1, 6])
    def test_row_index_outside_matrix_rejected(self, row):
        # -1 would alias the last row of X and 6 = d the padding sentinel
        with pytest.raises(InvalidObservation, match="column 1"):
            mc_from_columns(6, 1, [[0, 1], [2, row]], [[1.0, 2.0], [3.0, 4.0]])
        # named in the first column that holds a bad row, whatever the entry order
        with pytest.raises(InvalidObservation, match=re.escape(f"column 1: row index {row} ")):
            McInstance(6, 3, 1, rows=[9, 0, row], cols=[2, 0, 1], vals=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("rows, column", [([[0.9, 2.5], [1]], 0), ([[0, 1], [np.nan]], 1),
                                              ([[0, 1], np.array([2.5])], 1)],
                             ids=["list", "nan", "array"])
    def test_fractional_row_index_rejected(self, rows, column):
        # casting would keep rows [0, 2] of [0.9, 2.5]
        with pytest.raises(InvalidObservation, match=f"column {column}: .* is not an integer"):
            mc_from_columns(4, 1, rows, [[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize("bad", [[True, False], ["0", "1"], [0, None]],
                             ids=["bool", "str", "object"])
    def test_non_numeric_index_rejected(self, bad):
        # a bool is no index (True would read as 1), and a str or object one
        # would fail inside numpy; either is refused as no integer
        # the index is shown as Python reprs its value, so a str is quoted
        with pytest.raises(InvalidObservation,
                           match=re.escape(f"entry 0: column index {bad[0]!r} is not an integer")):
            McInstance(2, 2, 1, [0, 1], bad, [1.0, 2.0])
        # column 0 holds entry 1
        with pytest.raises(InvalidObservation,
                           match=re.escape(f"column 0: row index {bad[1]!r} is not an integer")):
            McInstance(2, 2, 1, bad, [1, 0], [1.0, 2.0])

    def test_integer_rows_accepted_as_lists_arrays_and_empty_columns(self):
        # integer-valued floats are integers; column 1 has no entry
        for rows, cols in (([0, 2, 1, 3], [0, 2, 0, 2]),
                           (np.array([0.0, 2.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0, 2.0]))):
            inst = McInstance(4, 3, 1, rows, cols, vals=[1.0, 3.0, 2.0, 4.0])
            assert [ri.tolist() for ri in inst.rows] == [[0, 1], [], [2, 3]]
            assert [vi.tolist() for vi in inst.vals] == [[1.0, 2.0], [], [3.0, 4.0]]
            assert all(ri.dtype == np.intp for ri in inst.rows)

    @pytest.mark.parametrize("col, why", [(-1, "outside [0, 2)"), (2, "outside [0, 2)"),
                                          (0.5, "is not an integer"),
                                          (np.nan, "is not an integer")])
    def test_column_index_rejected(self, col, why):
        # -1 would alias the last column; entry 2 is the first bad one
        with pytest.raises(InvalidObservation,
                           match=re.escape(f"entry 2: column index {np.float64(col)} {why}")):
            McInstance(6, 2, 1, rows=[0, 1, 2, 3], cols=[0.0, 1.0, col, col],
                       vals=[1.0, 2.0, 3.0, 4.0])

    def test_column_keeps_the_order_given(self, tmp_path):
        # column 1's rows arrive 4, 2, 1, interleaved with column 0's
        inst = McInstance(5, 2, 1, rows=[4, 0, 2, 3, 1], cols=[1, 0, 1, 0, 1],
                          vals=[0.5, 1.5, -2.0, 3.0, 7.0])
        want_rows, want_vals = [[0, 3], [4, 2, 1]], [[1.5, 3.0], [0.5, -2.0, 7.0]]
        path = tmp_path / "order.txt"
        mc_save_observations(inst, path)
        for got in (inst, mc_load_observations(path, r=1)):
            assert [ri.tolist() for ri in got.rows] == want_rows
            assert [vi.tolist() for vi in got.vals] == want_vals
        with pytest.raises(ValueError, match="read-only"):
            inst.rows[1][0] = 3   # the fits and scatters would not follow

    def test_repeated_row_rejected(self):
        # the fit would count the repeated entry twice, f_i observes it once
        with pytest.raises(InvalidObservation, match="column 1: row index 3 is repeated"):
            mc_from_columns(6, 1, [[0, 1], [3, 1, 3]], [[1.0, 2.0], [3.0, 4.0, 5.0]])
        # (3, 1) given twice, with column 0's entry between
        with pytest.raises(InvalidObservation, match="column 1: row index 3 is repeated"):
            McInstance(6, 2, 1, rows=[3, 0, 3], cols=[1, 0, 1], vals=[1.0, 2.0, 3.0])

    def test_value_count_mismatch_rejected(self):
        for rows, cols, vals in (([0, 1, 2], [0, 0, 0], [1.0, 2.0]),
                                 ([0, 1], [0, 0, 0], [1.0, 2.0]),
                                 ([[0, 1]], [[0, 0]], [[1.0, 2.0]])):
            with pytest.raises(ValueError, match="1-D and of one length"):
                McInstance(6, 1, 1, rows, cols, vals)

    def test_non_finite_value_rejected(self):
        with pytest.raises(NonFiniteInput):
            mc_from_columns(6, 1, [[0, 1]], [[1.0, np.nan]])

    @pytest.mark.parametrize("shape", [(6, 1), (1, 2), (2, 6)])
    def test_truth_of_another_shape_rejected(self, shape):
        # a (d, 1) or (1, n) truth would broadcast in fitted_matrix(X) - M_true
        with pytest.raises(ValueError, match=re.escape(f"M_true has shape {shape}")):
            mc_from_columns(6, 1, [[0, 1], [2]], [[1.0, 2.0], [3.0]], M_true=np.ones(shape))

    def test_non_finite_truth_rejected(self):
        M = np.ones((6, 2))
        M[4, 1] = np.inf
        with pytest.raises(NonFiniteInput, match="M_true"):
            mc_from_columns(6, 1, [[0, 1], [2]], [[1.0, 2.0], [3.0]], M_true=M)

    def test_sampled_constants_cover_ratios(self):
        consts = self.inst.constants()
        assert consts.L > 0 and consts.C > 0
        # the 2x headroom puts the estimate above each sampled ratio
        r2 = np.random.default_rng(1)
        X = qr_positive(r2.standard_normal((30, 3)))[0]
        g = self.inst.component_egrad(X, 0)
        assert np.linalg.norm(g) <= consts.C

    def test_constants_sampled_once(self):
        calls = []
        egrad = self.inst.component_egrad
        self.inst.component_egrad = lambda X, i: calls.append(i) or egrad(X, i)
        first = self.inst.constants()
        assert len(calls) == 100
        assert self.inst.constants() == first
        assert len(calls) == 100   # the second call samples nothing

    def test_fitted_matrix_recovers_truth_at_truth(self):
        U = np.linalg.svd(self.inst.M_true, full_matrices=False)[0][:, :3]
        rec = self.inst.fitted_matrix(U)
        assert np.linalg.norm(rec - self.inst.M_true) <= 1e-10


def mc_with_short_column():
    # column 5 keeps 2 < r observations, so its fits take the minimum-norm branch
    full = mc_generate(30, 25, 3, cond=10.0, seed=8)
    rows, vals = list(full.rows), list(full.vals)
    rows[5], vals[5] = rows[5][:2], vals[5][:2]
    return mc_from_columns(30, 3, rows, vals)


MC_FIXTURES = {"mc": lambda: mc_generate(30, 25, 3, cond=10.0, seed=8),
               "mc-short": mc_with_short_column}
FAMILIES = pytest.mark.parametrize("make", [lambda: pca_generate(15, 40, 3, seed=9),
                                            *MC_FIXTURES.values()], ids=["pca", *MC_FIXTURES])


@FAMILIES
def test_oracles_leave_the_instance_alone(make):
    # after its lazily solved constants and optimum, an instance is fixed:
    # no oracle, anchored and its difference included, writes, adds or
    # drops an attribute
    inst = make()
    inst.constants()
    if isinstance(inst, PcaInstance):
        inst.optimum()

    def state():
        return {name: pickle.dumps(value) for name, value in vars(inst).items()}

    before = state()
    X0, Xk = random_stiefel(inst.d, inst.r), random_stiefel(inst.d, inst.r)
    idx = np.array([5, 0, 5, 7, 12, 5])
    inst.value(Xk)
    inst.full_value_egrad(X0)
    inst.batch_egrad_diff(Xk, X0, idx)
    _, _, diff = inst.anchored(X0)
    diff(Xk, idx)
    inst.component_egrad(Xk, 5)
    if isinstance(inst, McInstance):
        inst.fitted_matrix(Xk)
    assert state() == before


@FAMILIES
def test_anchored_is_the_general_oracle_at_its_anchor(make):
    # the anchor's value, gradient and batch difference are the general
    # oracles' bits, repeated indices included; MC's difference gathers the
    # anchor's rows from its full fit where batch_egrad_diff refits them.
    # A later anchor leaves an earlier anchor's difference alone
    inst = make()
    X0, Xk = random_stiefel(inst.d, inst.r), random_stiefel(inst.d, inst.r)
    f, egrad, diff = inst.anchored(X0)
    inst.anchored(Xk)
    want_f, want_egrad = inst.full_value_egrad(X0)
    assert f == want_f and np.array_equal(egrad, want_egrad)
    for idx in ([4, 4, 17, 0, 4, 24, 17], [5, 5], rng.integers(25, size=6)):
        idx = np.asarray(idx)
        assert np.array_equal(diff(Xk, idx), inst.batch_egrad_diff(Xk, X0, idx))
        assert np.array_equal(diff(X0, idx), inst.batch_egrad_diff(X0, X0, idx))


@pytest.mark.parametrize("make", MC_FIXTURES.values(), ids=MC_FIXTURES)
def test_mc_fit_hands_the_scatter_its_row_index(make):
    # a batch is gathered once: the fit returns the padded row index it took,
    # which the scatter sums over, and short-column flags exist, to be
    # gathered, only on an instance with a column of fewer than r entries.
    # A component's fit takes its column's own slots, the shortest column's
    # here
    inst = make()
    i = int(np.argmin(inst._lengths))
    X = random_stiefel(inst.d, inst.r)
    for args, want in (((np.array([4, 4, 17, 0, 24]),), inst._pad_rows[[4, 4, 17, 0, 24]]),
                       (([i], inst._lengths[i]), inst._pad_rows[[i], :inst._lengths[i]])):
        a, resid, grad, rows = inst._fit(X, *args)
        assert np.array_equal(rows, want)
        assert grad.shape == (inst.r, *rows.shape) and resid.shape == (*rows.shape, 1)
    assert (inst._short is None) == bool(np.all(inst._lengths >= inst.r))
    assert np.array_equal(inst._fit(X)[3], inst._pad_rows)


@pytest.mark.parametrize("make", MC_FIXTURES.values(), ids=MC_FIXTURES)
def test_mc_gradients_are_the_reference_scatter(make):
    # the full gradient, anchored's difference and batch_egrad_diff add each
    # row of X's terms in batch order, observation by observation: the bits
    # of np.add.at, with repeated columns adding up.  A component gradient is
    # its column's own slots scattered alike, signed zeros included
    inst = make()
    X0, Xk = random_stiefel(inst.d, inst.r), random_stiefel(inst.d, inst.r)
    every = np.arange(inst.n)
    for i in every:
        want = mc_scatter(inst, [i], mc_gradient_rows(inst, X0, [i], inst._lengths[i]))
        assert inst.component_egrad(X0, i).tobytes() == want.tobytes(), i
    want = mc_scatter(inst, every, mc_gradient_rows(inst, X0, every)) / inst.n
    assert np.array_equal(inst.full_value_egrad(X0)[1], want)
    _, _, diff = inst.anchored(X0)
    for idx in ([4, 4, 17, 0, 4, 24, 17], [5, 5], [5, 0, 5, 7, 12, 5], every[::-1]):
        idx = np.asarray(idx)
        rows = mc_gradient_rows(inst, Xk, idx) - mc_gradient_rows(inst, X0, idx)
        want = mc_scatter(inst, idx, rows) / len(idx)
        assert np.array_equal(diff(Xk, idx), want)
        assert np.array_equal(inst.batch_egrad_diff(Xk, X0, idx), want)


@pytest.mark.parametrize("d, n, r", [(200, 400, 5), (300, 3000, 8)],
                         ids=["mc-desk", "300-3000-8"])
def test_mc_memory_is_the_observations_and_one_anchor(d, n, r):
    # the instance keeps its observations once, padded per column, with no
    # array of n m_max r entries (a slot table r times the padded row index
    # was one), and anchored peaks at its anchor's n m_max r gradient rows
    # and one fit's smaller temporaries: the slot gather and copies of the
    # index arrays took it to 2.21x those rows at the mc-desk shape and
    # 2.13x at (300, 3000, 8)
    inst = mc_generate(d, n, r, cond=10.0, seed=0)
    entries = n * inst._pad_rows.shape[1] * r
    sizes = {k: v.size for k, v in vars(inst).items() if isinstance(v, np.ndarray)}
    assert max(sizes.values()) < entries, sizes
    X = random_stiefel(d, r)
    tracemalloc.start()
    try:
        inst.anchored(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * entries * 8, peak / (entries * 8)


@st.composite
def mc_observations(draw):
    """Observation lists of any order and any finite values, empty columns included."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    rows = [draw(st.permutations(range(d)))[: draw(st.integers(0, d))] for _ in range(n)]
    vals = [draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=len(ri), max_size=len(ri))) for ri in rows]
    assume(any(rows))
    return mc_from_columns(d, 1, [np.array(ri, dtype=int) for ri in rows], vals)


@st.composite
def bad_index_files(draw):
    """(lines, lineno, dims): valid 'i j value' lines, comments and blank
    lines, with one bad index on line lineno.  The bad index is below 1,
    beyond the explicit d or n in dims, or a repeat of an earlier (i, j)."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(1, d), st.integers(1, n)),
                          unique=True, max_size=8))
    lines = [f"{i} {j} {draw(st.floats(allow_nan=False, allow_infinity=False))!r}"
             for i, j in cells]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c"])))
    dims = {k: v for k, v in (("d", d), ("n", n)) if draw(st.booleans())}
    kind = draw(st.sampled_from(["row<1", "col<1", "row>d", "col>n"]
                                + (["repeat"] if cells else [])))
    at = draw(st.integers(0, len(lines)))
    if kind == "row<1":
        i, j = draw(st.integers(-2, 0)), draw(st.integers(1, n))
    elif kind == "col<1":
        i, j = draw(st.integers(1, d)), draw(st.integers(-2, 0))
    elif kind == "row>d":
        i, j = d + draw(st.integers(1, 3)), draw(st.integers(1, n))
        dims["d"] = d
    elif kind == "col>n":
        i, j = draw(st.integers(1, d)), n + draw(st.integers(1, 3))
        dims["n"] = n
    else:
        first = draw(st.sampled_from([k for k, ln in enumerate(lines)
                                      if ln and not ln.startswith("#")]))
        i, j = lines[first].split()[:2]
        at = draw(st.integers(first + 1, len(lines)))
    lines.insert(at, f"{i} {j} 1.0")
    return lines, at + 1, dims


class TestMcIO:
    @settings(deadline=None)
    @given(inst=mc_observations())
    def test_round_trip(self, tmp_path_factory, inst):
        # every row index and value comes back exactly, column by column in order
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        mc_save_observations(inst, path)
        back = mc_load_observations(path, r=1, d=inst.d, n=inst.n)
        for ours, theirs in ((inst.rows, back.rows), (inst.vals, back.vals)):
            assert len(theirs) == inst.n
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 1 0.5\n1 1 0.7\n")
        with pytest.raises(ValueError):
            mc_load_observations(path, r=1)

    def test_one_based_indices(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("# comment\n1 1 2.5\n3 2 -1.0\n")
        inst = mc_load_observations(path, r=1)
        assert inst.d == 3 and inst.n == 2
        assert inst.vals[0][0] == 2.5
        assert inst.rows[1][0] == 2

    @pytest.mark.parametrize("text, kw, line", [
        ("1 1 2.5\n0 2 1.0\n", {}, 2),                # 0-based row
        ("1 1 2.5\n3 0 1.0\n", {}, 2),                # 0-based column
        ("1 1 2.5\n\n5 2 1.0\n", dict(d=4, n=2), 3),  # row beyond d
        ("# c\n1 3 2.5\n", dict(d=4, n=2), 2),         # column beyond n
        ("1 1 2.5\n2 1\n", {}, 2),                    # missing value
        ("1 1 2.5\n1 1 0.7\n", {}, 2),                # duplicate entry
    ], ids=["row0", "col0", "row>d", "col>n", "short", "duplicate"])
    def test_bad_line_rejected_by_number(self, tmp_path, text, kw, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidObservation, match=f"bad.txt:{line}:"):
            mc_load_observations(path, r=1, **kw)

    @settings(deadline=None)
    @given(case=bad_index_files())
    def test_bad_index_rejected_by_line(self, tmp_path_factory, case):
        lines, lineno, dims = case
        path = tmp_path_factory.getbasetemp() / "bad_index.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidObservation, match=re.escape(f"{path}:{lineno}:")):
            mc_load_observations(path, r=1, **dims)

    def test_non_finite_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1 1 2.5\n2 1 nan\n")
        with pytest.raises(NonFiniteInput, match="nan.txt:2:"):
            mc_load_observations(path, r=1)

    def test_pca_load_csv_and_npy(self, tmp_path):
        A = pca_data(6, 8, seed=0)
        np.save(tmp_path / "a.npy", A)
        np.savetxt(tmp_path / "a.csv", A, delimiter=",")
        i1 = pca_load(tmp_path / "a.npy", r=2)
        i2 = pca_load(tmp_path / "a.csv", r=2)
        # the instance keeps only the centered data
        B = PcaInstance(A, r=2).B
        np.testing.assert_array_equal(i1.B, B)
        np.testing.assert_allclose(i2.B, B, atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pca_load_npy_is_the_in_memory_instance(self, tmp_path, order):
        # read block by block from the file map: the bits of the instance
        # built from the loaded array, whatever the file's layout
        A = np.asarray(pca_data(70, 40, seed=2), order=order)
        np.save(tmp_path / "a.npy", A)
        got, want = pca_load(tmp_path / "a.npy", r=3), PcaInstance(A, r=3)
        for name in ("B", "C", "_col_sq"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.optimum() == want.optimum()

    def test_pca_load_npy_peak_memory_is_the_instance(self, tmp_path):
        # the file is mapped, not read whole: no raw A next to B (reading it
        # into memory first peaked at 2.18x), and a float32 file is cast
        # block by block, not whole (a whole cast peaked at 3.06x at
        # d = 16), with the bits of the instance of its float64 cast
        for d, n, dtype, bound in ((256, 4096, np.float64, 1.3), (16, 200_000, np.float32, 1.2)):
            A = pca_data(d, n, seed=0).astype(dtype)
            np.save(tmp_path / "a.npy", A)
            tracemalloc.start()
            try:
                got = pca_load(tmp_path / "a.npy", r=8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * (d * n + d * d) * 8, (d, n)
            want = PcaInstance(A.astype(float), r=8)
            for name in ("B", "C", "_col_sq"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
