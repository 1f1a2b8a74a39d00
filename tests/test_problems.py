import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manifold_svrg.errors import InvalidObservation, NonFiniteInput, TooManySamples
from manifold_svrg.linalg import qr_positive
from manifold_svrg.oracles import FiniteDiffSpec, fd_derivative
from manifold_svrg.problems import (McInstance, PcaInstance, ProblemConstants,
                                    mc_generate, mc_load_observations,
                                    mc_save_observations, pca_generate, pca_load)

rng = np.random.default_rng(13)


def random_stiefel(d, r):
    return qr_positive(rng.standard_normal((d, r)))[0]


@st.composite
def mc_cases(draw):
    """A small completion instance without repeated rows, a point and a batch."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(r + 2, 12))
    n = draw(st.integers(1, 8))
    local = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [local.permutation(d)[: local.integers(r + 2, d + 1)] for _ in range(n)]
    vals = [local.standard_normal(len(ri)) for ri in rows]
    X = qr_positive(local.standard_normal((d, r)))[0]
    idx = local.integers(n, size=draw(st.integers(1, 2 * n)))
    return McInstance(d, n, r, rows, vals), X, idx


class TestPcaGenerate:
    def test_normalization(self):
        A = pca_generate(1, 50, seed=0)
        assert np.abs(A).max() == 1.0
        assert np.all(np.abs(A) <= 1.0)

    def test_determinism(self):
        assert np.array_equal(pca_generate(20, 30, seed=4), pca_generate(20, 30, seed=4))

    def test_row_scaling_profile(self):
        # later rows carry the i^0.618 weight, so their variance grows
        A = pca_generate(100, 2000, seed=1)
        v = (A ** 2).mean(axis=1)
        assert v[-1] > v[0]


class TestPcaInstance:
    def setup_method(self):
        self.inst = PcaInstance(pca_generate(15, 40, seed=9), r=3)

    def test_finite_sum_consistency(self):
        X = random_stiefel(15, 3)
        f, egrad = self.inst.full_value_egrad(X)
        comp_f = np.mean([self.inst.component_value(X, i) for i in range(40)])
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
        # B_i = e1, X = e1 in R^2: grad = -2 e1 (e1^T e1) = -2 e1
        inst = PcaInstance(np.zeros((2, 2)), r=1)
        inst.B = np.array([[1.0, 0.0], [0.0, 0.0]])
        X = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(inst.component_egrad(X, 0), [[-2.0], [0.0]])

    def test_batch_diff_matches_generic(self):
        X0 = random_stiefel(15, 3)
        Xk = random_stiefel(15, 3)
        idx = rng.integers(40, size=7)
        fused = self.inst.batch_egrad_diff(Xk, X0, idx)
        generic = self.inst.batch_egrad(Xk, idx) - self.inst.batch_egrad(X0, idx)
        np.testing.assert_allclose(fused, generic, atol=1e-12)

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
        val = fd_derivative(lambda t: np.array([[self.inst.component_value(X + t * probe, i)]]))
        assert abs(val[0, 0] - np.sum(g * probe)) <= 1e-6 * max(1.0, abs(val[0, 0]))

    def test_optimum(self):
        f_star, X_star = self.inst.optimum()
        f_at = self.inst.value(X_star)
        assert abs(f_at - f_star) <= 1e-12
        # any other feasible point can only be worse for the minimization
        assert self.inst.value(random_stiefel(15, 3)) >= f_star - 1e-12

    def test_constants_analytic(self):
        consts = self.inst.constants()
        assert consts.source == "analytic"
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
        A = pca_generate(6, 8, seed=0)
        A[2, 3] = bad
        with pytest.raises(NonFiniteInput):
            PcaInstance(A, r=2)

    @pytest.mark.parametrize("r", [0, 7])
    def test_rank_outside_dimension_rejected(self, r):
        with pytest.raises(ValueError):
            PcaInstance(pca_generate(6, 8, seed=0), r=r)

    def test_single_unit_column_L(self):
        inst = PcaInstance(np.zeros((3, 1)), r=1)
        inst.B = np.array([[1.0], [0.0], [0.0]])
        inst._col_sq = np.sum(inst.B ** 2, axis=0)
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


class TestMcInstance:
    def setup_method(self):
        self.inst = mc_generate(30, 25, 3, cond=10.0, seed=8)

    def test_full_observation_exact_fit(self):
        # every row observed and M_i in span(X): residual and gradient vanish
        X = random_stiefel(6, 2)
        a = rng.standard_normal(2)
        vals = [X @ a]
        inst = McInstance(6, 1, 2, rows=[np.arange(6)], vals=vals)
        f, g = inst.component_value_grad(X, 0)
        assert f <= 1e-24
        assert np.linalg.norm(g) <= 1e-11

    def test_full_observation_projection_identity(self):
        # all rows observed: a* = X^T M_i and f_i = ||(I - XX^T) M_i||^2
        X = random_stiefel(6, 2)
        m = rng.standard_normal(6)
        inst = McInstance(6, 1, 2, rows=[np.arange(6)], vals=[m])
        a, resid, _ = inst._fit_column(X, 0)
        np.testing.assert_allclose(a, X.T @ m, atol=1e-12)
        want = np.linalg.norm(m - X @ (X.T @ m)) ** 2
        assert inst.component_value(X, 0) == pytest.approx(want, rel=1e-12)

    def test_component_grad_vs_finite_differences(self):
        X = random_stiefel(30, 3)
        for i in (0, 7, 19):
            g = self.inst.component_egrad(X, i)
            probe = rng.standard_normal((30, 3))
            val = fd_derivative(
                lambda t: np.array([[self.inst.component_value(X + t * probe, i)]]),
                FiniteDiffSpec(h=1e-6))
            assert abs(val[0, 0] - np.sum(g * probe)) <= 1e-5 * max(1.0, abs(val[0, 0]))

    def test_finite_sum_consistency(self):
        X = random_stiefel(30, 3)
        f, egrad = self.inst.full_value_egrad(X)
        fs = [self.inst.component_value(X, i) for i in range(25)]
        gs = [self.inst.component_egrad(X, i) for i in range(25)]
        assert abs(f - np.mean(fs)) <= 1e-10
        np.testing.assert_allclose(egrad, np.mean(gs, axis=0), atol=1e-10)

    def test_value_nonnegative_and_zero_at_truth(self):
        X = random_stiefel(30, 3)
        assert self.inst.value(X) >= 0.0
        U = np.linalg.svd(self.inst.M_true, full_matrices=False)[0][:, :3]
        assert self.inst.value(U) <= 1e-24

    @settings(deadline=None)
    @given(mc_cases())
    def test_batched_paths_match_loop(self, case):
        # the stacked fits and the per-column loop agree on full and batch
        # gradients (and the value) to 1e-12 relative
        inst, X, idx = case
        assert inst._all_full_rank
        f_fast, full_fast = inst.full_value_egrad(X)
        batch_fast = inst.batch_egrad(X, idx)
        inst._all_full_rank = False
        f_slow, full_slow = inst.full_value_egrad(X)
        batch_slow = inst.batch_egrad(X, idx)
        assert abs(f_fast - f_slow) <= 1e-12 * abs(f_slow)
        for fast, slow in ((full_fast, full_slow), (batch_fast, batch_slow)):
            assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)

    def test_anchor_cache_matches_fresh_instance(self):
        X0, Xk = random_stiefel(30, 3), random_stiefel(30, 3)
        idx = np.array([4, 4, 17, 0, 4, 24, 17])
        fresh = mc_generate(30, 25, 3, cond=10.0, seed=8)
        self.inst.full_value_egrad(X0)
        assert np.array_equal(self.inst.batch_egrad_diff(Xk, X0, idx),
                              fresh.batch_egrad_diff(Xk, X0, idx))

    def test_anchor_cache_misses_after_in_place_change(self):
        X0, Xk = random_stiefel(30, 3), random_stiefel(30, 3)
        idx = rng.integers(25, size=6)
        self.inst.full_value_egrad(X0)
        stale = self.inst.batch_egrad_diff(Xk, X0, idx)
        X0[:] = random_stiefel(30, 3)
        fresh = mc_generate(30, 25, 3, cond=10.0, seed=8)
        got = self.inst.batch_egrad_diff(Xk, X0, idx)
        assert np.array_equal(got, fresh.batch_egrad_diff(Xk, X0, idx))
        assert not np.array_equal(got, stale)

    @pytest.mark.parametrize("row", [-1, 6])
    def test_row_index_outside_matrix_rejected(self, row):
        # -1 would alias the last row of X and 6 = d the padding sentinel
        with pytest.raises(InvalidObservation, match="column 1"):
            McInstance(6, 2, 1, rows=[[0, 1], [2, row]], vals=[[1.0, 2.0], [3.0, 4.0]])

    def test_repeated_row_rejected(self):
        # the stacked path would sum both entries, the per-column path keep one
        with pytest.raises(InvalidObservation, match="column 1: row index 3 is repeated"):
            McInstance(6, 2, 1, rows=[[0, 1], [3, 1, 3]], vals=[[1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_value_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column 0"):
            McInstance(6, 1, 1, rows=[[0, 1, 2]], vals=[[1.0, 2.0]])

    def test_non_finite_value_rejected(self):
        with pytest.raises(NonFiniteInput):
            McInstance(6, 1, 1, rows=[[0, 1]], vals=[[1.0, np.nan]])

    def test_sampled_constants_cover_ratios(self):
        consts = self.inst.constants(probes=20, seed=1)
        assert consts.source == "sampled"
        assert consts.L > 0 and consts.C > 0
        # the 2x headroom puts the estimate above each sampled ratio
        r2 = np.random.default_rng(1)
        X = qr_positive(r2.standard_normal((30, 3)))[0]
        g = self.inst.component_egrad(X, 0)
        assert np.linalg.norm(g) <= consts.C

    def test_fitted_matrix_recovers_truth_at_truth(self):
        U = np.linalg.svd(self.inst.M_true, full_matrices=False)[0][:, :3]
        rec = self.inst.fitted_matrix(U)
        assert np.linalg.norm(rec - self.inst.M_true) <= 1e-10


class TestMcIO:
    def test_round_trip(self, tmp_path):
        inst = mc_generate(12, 9, 2, 10.0, seed=3)
        path = tmp_path / "obs.txt"
        mc_save_observations(inst, path)
        back = mc_load_observations(path, r=2, d=12, n=9)
        assert back.num_observed == inst.num_observed
        for a, b in zip(inst.rows, back.rows):
            np.testing.assert_array_equal(np.sort(a), np.sort(b))
        X = random_stiefel(12, 2)
        assert back.value(X) == pytest.approx(inst.value(X), rel=1e-12)

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

    def test_non_finite_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1 1 2.5\n2 1 nan\n")
        with pytest.raises(NonFiniteInput, match="nan.txt:2:"):
            mc_load_observations(path, r=1)

    def test_pca_load_csv_and_npy(self, tmp_path):
        A = pca_generate(6, 8, seed=0)
        np.save(tmp_path / "a.npy", A)
        np.savetxt(tmp_path / "a.csv", A, delimiter=",")
        i1 = pca_load(tmp_path / "a.npy", r=2)
        i2 = pca_load(tmp_path / "a.csv", r=2)
        np.testing.assert_array_equal(i1.A, A)
        np.testing.assert_allclose(i2.A, A, atol=1e-12)
