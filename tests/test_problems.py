import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from manifold_svrg.errors import InvalidObservation, NonFiniteInput, TooManySamples
from manifold_svrg.linalg import qr_positive
from manifold_svrg.oracles import fd_derivative
from manifold_svrg.problems import (McInstance, PcaInstance, ProblemConstants,
                                    mc_generate, mc_load_observations,
                                    mc_save_observations, pca_generate, pca_load)

rng = np.random.default_rng(13)


def random_stiefel(d, r):
    return qr_positive(rng.standard_normal((d, r)))[0]


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
    return McInstance(d, n, r, rows, vals), X0, Xk, idx


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
    """Value, full gradient, batch difference and component oracles against lstsq."""
    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-11 * (1.0 + np.linalg.norm(want))

    f0, g0 = lstsq_components(inst, X0)
    fk, gk = lstsq_components(inst, Xk)
    f, egrad = inst.full_value_egrad(X0)  # also sets the anchor cache at X0
    close(f, f0.mean())
    close(egrad, g0.mean(axis=0))
    close(inst.batch_egrad_diff(Xk, X0, idx), (gk[idx] - g0[idx]).mean(axis=0))
    close(inst.batch_egrad_diff(X0, Xk, idx), (g0[idx] - gk[idx]).mean(axis=0))
    for i in range(inst.n):
        fi, gi = inst.component_value_grad(Xk, i)
        close(fi, fk[i])
        close(gi, gk[i])


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
        generic = np.mean([self.inst.component_egrad(Xk, i) - self.inst.component_egrad(X0, i)
                           for i in idx], axis=0)
        np.testing.assert_allclose(fused, generic, atol=1e-12)

    def test_data_is_one_column_major_array(self):
        # B.T is a contiguous B^T, and B is the only d x n array kept
        inst = PcaInstance(pca_generate(15, 40, seed=9), r=3)
        assert inst.B.flags.f_contiguous
        held = [v for v in vars(inst).values() if isinstance(v, np.ndarray) and v.size == 15 * 40]
        assert len(held) == 1

    @settings(deadline=None, max_examples=200)
    @given(d=st.integers(1, 80), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
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
        np.testing.assert_allclose(inst.fitted_matrix(X)[:, 0], X @ (X.T @ m), atol=1e-12)
        want = np.linalg.norm(m - X @ (X.T @ m)) ** 2
        assert inst.component_value(X, 0) == pytest.approx(want, rel=1e-12)

    def test_component_grad_vs_finite_differences(self):
        X = random_stiefel(30, 3)
        for i in (0, 7, 19):
            g = self.inst.component_egrad(X, i)
            probe = rng.standard_normal((30, 3))
            val = fd_derivative(
                lambda t: np.array([[self.inst.component_value(X + t * probe, i)]]))
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
        inst = McInstance(5, 2, 2, rows=[[0, 1, 3], [2, 3, 4]],
                          vals=[[1.0, -2.0, 0.5], [3.0, 1.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(X[[2, 3, 4]].T @ X[[2, 3, 4]], np.zeros(2))
        assert_matches_lstsq(inst, X, random_stiefel(5, 2), np.array([1, 0, 1]))
        assert inst.component_value(X, 1) == 11.0

    def test_short_column_leaves_other_fits_alone(self):
        # only the short column takes the minimum-norm branch: the full-rank
        # columns' coefficients are the same bits with or without it
        X = random_stiefel(30, 3)
        short = self.inst.rows[5][:2]
        rows = list(self.inst.rows)
        vals = list(self.inst.vals)
        rows[5], vals[5] = short, self.inst.vals[5][:2]
        cut = McInstance(30, 25, 3, rows, vals)
        idx = np.array([0, 5, 9, 17])
        a_with, _ = cut._fit_padded(X, idx)
        a_without, _ = cut._fit_padded(X, idx[idx != 5])
        assert np.array_equal(a_with[[0, 2, 3]], a_without)
        want = np.linalg.lstsq(X[short], vals[5], rcond=None)[0]
        np.testing.assert_allclose(a_with[1, :, 0], want, atol=1e-12)

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
        # the fit would count the repeated entry twice, f_i observes it once
        with pytest.raises(InvalidObservation, match="column 1: row index 3 is repeated"):
            McInstance(6, 2, 1, rows=[[0, 1], [3, 1, 3]], vals=[[1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_value_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column 0"):
            McInstance(6, 1, 1, rows=[[0, 1, 2]], vals=[[1.0, 2.0]])

    def test_non_finite_value_rejected(self):
        with pytest.raises(NonFiniteInput):
            McInstance(6, 1, 1, rows=[[0, 1]], vals=[[1.0, np.nan]])

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


@st.composite
def mc_observations(draw):
    """Observation lists of any order and any finite values, empty columns included."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    rows = [draw(st.permutations(range(d)))[: draw(st.integers(0, d))] for _ in range(n)]
    vals = [draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=len(ri), max_size=len(ri))) for ri in rows]
    assume(any(rows))
    return McInstance(d, n, 1, rows, vals)


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
        A = pca_generate(6, 8, seed=0)
        np.save(tmp_path / "a.npy", A)
        np.savetxt(tmp_path / "a.csv", A, delimiter=",")
        i1 = pca_load(tmp_path / "a.npy", r=2)
        i2 = pca_load(tmp_path / "a.csv", r=2)
        # the instance keeps only the centered data
        B = PcaInstance(A, r=2).B
        np.testing.assert_array_equal(i1.B, B)
        np.testing.assert_allclose(i2.B, B, atol=1e-12)
