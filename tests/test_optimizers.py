import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manifold_svrg.errors import NoFeasibleC, NonFiniteValue
from manifold_svrg.linalg import qr_positive
from manifold_svrg.manifold import (StiefelPoint, d_rho_array, feasibility_error,
                                    nu_of_rho)
from manifold_svrg.oracles import brute_force_expectation, fd_derivative
from manifold_svrg.optimizers import (BB, Fixed, OutputMode, SvrgConfig,
                                      Theorem1, bb_step, gamma_fn,
                                      loj_ratio_probe, recursion_lemma_check,
                                      run_rgd, run_s_sgd, run_s_svrg,
                                      select_output, theorem1_schedule,
                                      warm_start, _step)
from manifold_svrg.problems import PcaInstance, mc_generate, pca_generate
from manifold_svrg.retractions import (GRADIENT_KINDS, RetractionKind,
                                       declared_derivative)

rng = np.random.default_rng(31)


def small_pca(d=10, n=6, r=2, seed=0):
    return PcaInstance(pca_generate(d, n, seed), r)


def random_point(d, r):
    return StiefelPoint(qr_positive(rng.standard_normal((d, r)))[0])


class TestSvrgGradient:
    def test_anchor_identity_exact(self):
        # at X_k = X_anchor the batch correction cancels exactly
        inst = small_pca()
        X = random_point(10, 2).X
        _, full = inst.full_value_egrad(X)
        for batch in ([0], [3, 5], [1, 1, 4]):
            G = full + inst.batch_egrad_diff(X, X, np.asarray(batch))
            np.testing.assert_array_equal(d_rho_array(X, G, 0.25),
                                          d_rho_array(X, full, 0.25))

    @pytest.mark.parametrize("rho", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("bs", [1, 2])
    def test_unbiased_and_variance_bounded(self, rho, bs):
        inst = small_pca()
        L = inst.constants().L
        nu = nu_of_rho(rho)
        Xa = random_point(10, 2)
        Xk = StiefelPoint(qr_positive(Xa.X + 0.1 * rng.standard_normal((10, 2)))[0])
        _, full = inst.full_value_egrad(Xa.X)

        def grad_fn(batch):
            G = full + inst.batch_egrad_diff(Xk.X, Xa.X, np.asarray(batch))
            return d_rho_array(Xk.X, G, rho)

        mean, second = brute_force_expectation(grad_fn, n=6, batch_size=bs)
        want = d_rho_array(Xk.X, inst.full_value_egrad(Xk.X)[1], rho)
        assert np.linalg.norm(mean - want) <= 1e-12
        bound = (L ** 2 / (nu ** 2 * bs)) * np.linalg.norm(Xk.X - Xa.X) ** 2
        assert second <= bound + 1e-12


class TestStep:
    @pytest.mark.parametrize("kind", list(RetractionKind), ids=lambda k: k.value)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rho=st.sampled_from([0.0, 0.25, 1.0]))
    def test_first_order_descent(self, kind, seed, rho):
        # the one step leaves X along its declared derivative: -d_rho(X, G)
        # for the free kinds, the gp / gr maps' own for those; every one is
        # a descent direction, <G, R'(0)> <= 0
        if kind is RetractionKind.EXP2:
            rho = 0.0  # the Grassmann geodesic needs a horizontal direction
        local = np.random.default_rng(seed)
        X = qr_positive(local.standard_normal((9, 3)))[0]
        G = local.standard_normal((9, 3))
        got = fd_derivative(lambda t: _step(kind, X, G, t, rho))
        want = (declared_derivative(kind, X, G) if kind in GRADIENT_KINDS
                else -d_rho_array(X, G, rho))
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
        assert np.sum(G * want) <= 1e-12 * np.linalg.norm(G) ** 2
        assert feasibility_error(_step(kind, X, G, 0.3, rho)) <= 1e-10


class TestBBStep:
    def test_identical_differences(self):
        S = rng.standard_normal((5, 2))
        assert bb_step(S, np.zeros_like(S), S, np.zeros_like(S), K=4,
                       double=False) == pytest.approx(0.25)

    def test_quadratic_curvature_two(self):
        S = rng.standard_normal((5, 2))
        got = bb_step(S, np.zeros_like(S), 2.0 * S, np.zeros_like(S), K=1,
                      double=False)
        assert got == pytest.approx(0.5)

    def test_clamped_to_tau_max(self):
        S = rng.standard_normal((4, 2))
        Y = 1e-12 * S
        got = bb_step(S, np.zeros_like(S), Y, np.zeros_like(S), K=1, double=False)
        assert got == 1e8

    def test_zero_denominator_fallback(self):
        S = rng.standard_normal((4, 2))
        Y = np.zeros_like(S)
        got = bb_step(S, np.zeros_like(S), Y, np.zeros_like(S), K=2, double=False)
        assert got == 1e8 / 2

    def test_grassmann_doubling_before_safeguard(self):
        S = rng.standard_normal((4, 2))
        st = bb_step(S, np.zeros_like(S), 2.0 * S, np.zeros_like(S), K=1, double=False)
        gr = bb_step(S, np.zeros_like(S), 2.0 * S, np.zeros_like(S), K=1, double=True)
        assert gr == pytest.approx(2.0 * st)


class TestSchedule:
    def test_direct_arithmetic(self):
        s = theorem1_schedule(1000, 0.0, 1.0, L=2.0, C=2.0, L1=1.0, L2=0.5,
                              r=5, nu=1.0)
        assert s.K == 10  # ceil(1000^(1/3))
        assert s.batch == 100  # ceil(K^2)
        assert s.L_tilde == pytest.approx(1.0 + 2.0 * math.sqrt(5))
        assert s.L_hat == pytest.approx(2.0 * 0.5 * 2.0 + 2.0)

    def test_gamma_values(self):
        assert gamma_fn(1.0, 3) == 3.0
        assert gamma_fn(7.3, 1) == 0.0
        assert gamma_fn(0.5, 2) == pytest.approx(1.0)

    def test_c_satisfies_side_condition(self):
        s = theorem1_schedule(1000, 0.0, 1.0, L=2.0, C=2.0, L1=1.0, L2=0.5,
                              r=5, nu=1.0)
        ratio = s.L_hat / (math.sqrt(s.L_tilde) * 2.0)
        lhs = ratio * math.exp(s.c ** 2 + 2.0 * s.c) * s.c
        assert lhs <= 1.0
        assert 0.0 < s.c < 1.0

    def test_delta_floor_and_monotone(self):
        r2 = np.random.default_rng(5)
        for _ in range(50):
            L = float(r2.uniform(0.5, 5.0))
            C = float(r2.uniform(0.5, 5.0))
            L1 = float(r2.uniform(0.5, 2.0))
            L2 = float(r2.uniform(0.1, 1.0))
            rr = int(r2.integers(1, 10))
            nu = float(r2.uniform(0.25, 1.0))
            L_tilde = L1 * L1 + 4 * L2 * math.sqrt(rr)
            L_hat = 2 * L2 * C + L1 * L1 * L
            if L_hat / (math.sqrt(L_tilde) * L) > 1.0:
                continue
            s = theorem1_schedule(500, 0.0, 1.0, L, C, L1, L2, rr, nu)
            assert np.all(s.Delta >= nu * s.tau / 2.0 - 1e-12)
            assert np.all(np.diff(s.Delta) >= -1e-15)

    def test_probability_row(self):
        s = theorem1_schedule(1000, 0.5, 2.0, L=1.0, C=1.0, L1=1.0, L2=0.0,
                              r=4, nu=1.0)
        assert s.p[-1] == 0.0
        assert s.p.sum() == pytest.approx(1.0)

    def test_no_feasible_c(self):
        # enormous L_hat relative to sqrt(L_tilde) L leaves no root
        with pytest.raises(NoFeasibleC):
            theorem1_schedule(1000, 0.0, 1.0, L=1e-6, C=1e9, L1=1.0, L2=0.5,
                              r=5, nu=1.0)

    def test_mu_range_enforced(self):
        with pytest.raises(ValueError):
            Theorem1(0.7, 1.0)
        with pytest.raises(ValueError):
            theorem1_schedule(100, 0.9, 1.0, 1, 1, 1, 0.5, 2, 1.0)


class TestSelectOutput:
    def test_last_iterate_bypasses(self):
        items = [object() for _ in range(4)]
        got = select_output(items, None, OutputMode.LAST_ITERATE,
                            np.random.default_rng(0))
        assert got is items[-1]

    def test_degenerate_mass(self):
        items = list(range(5))
        p = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        got = select_output(items, p, OutputMode.SAMPLED, np.random.default_rng(0))
        assert got == 3

    def test_uniform_frequencies(self):
        K = 5
        p = np.full(K, 1.0 / K)
        r2 = np.random.default_rng(17)
        counts = np.zeros(K)
        draws = 100_000
        for _ in range(draws):
            counts[select_output(list(range(K)), p, OutputMode.SAMPLED, r2)] += 1
        sd = math.sqrt(draws * (1 / K) * (1 - 1 / K))
        assert np.all(np.abs(counts - draws / K) <= 3.0 * sd)


class TestMinibatchDraw:
    # run_s_svrg draws an epoch's K batches at once; this pins that numpy's
    # generator gives the indices and the following state of K draws of one
    # batch each, so the traces do not depend on how the draw is split
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10 ** 6),
           K=st.integers(1, 60), batch=st.integers(1, 120))
    def test_one_draw_equals_k_draws(self, seed, n, K, batch):
        whole = np.random.default_rng(seed)
        steps = np.random.default_rng(seed)
        rows = whole.integers(n, size=(K, batch))
        for row in rows:
            np.testing.assert_array_equal(row, steps.integers(n, size=batch))
        assert whole.integers(2 ** 40) == steps.integers(2 ** 40)


class TestRunSvrg:
    def test_zero_step_stationary(self):
        inst = small_pca(12, 20, 2, seed=3)
        cfg = SvrgConfig(step_mode=Fixed(0.0), K=3, batch=2, max_epochs=5,
                         grad_tol=0.0, seed=1, r=2)
        X0 = random_point(12, 2)
        X, tr = run_s_svrg(inst, cfg, X0=X0)
        np.testing.assert_array_equal(X.X, X0.X)
        assert np.ptp(tr.grad_norm) == 0.0

    def test_full_batch_k1_equals_rgd(self):
        inst = small_pca(12, 20, 2, seed=3)
        cfg = SvrgConfig(step_mode=Fixed(0.05), K=1, batch=20, max_epochs=10,
                         grad_tol=0.0, seed=2, r=2)
        X0 = random_point(12, 2)
        Xa, ta = run_s_svrg(inst, cfg, X0=X0)
        Xb, tb = run_rgd(inst, replace(cfg, K=7, batch=3), X0=X0)
        np.testing.assert_array_equal(Xa.X, Xb.X)
        assert ta.f == tb.f

    def test_determinism_bit_identical(self):
        inst = small_pca(15, 30, 2, seed=4)
        cfg = SvrgConfig(step_mode=BB(), K=10, batch=3, max_epochs=15,
                         grad_tol=1e-10, seed=9, r=2)
        X0 = random_point(15, 2)
        Xa, ta = run_s_svrg(inst, cfg, X0=X0)
        Xb, tb = run_s_svrg(inst, cfg, X0=X0)
        assert np.array_equal(Xa.X, Xb.X)
        assert ta.f == tb.f and ta.grad_norm == tb.grad_norm
        assert ta.step_size == tb.step_size

    def test_ifo_accounting_no_early_stop(self):
        inst = small_pca(12, 20, 2, seed=3)
        S, K, B = 4, 5, 3
        cfg = SvrgConfig(step_mode=Fixed(0.01), K=K, batch=B, max_epochs=S,
                         grad_tol=0.0, seed=1, r=2)
        _, tr = run_s_svrg(inst, cfg, X0=random_point(12, 2))
        assert tr.status == "MaxEpochs"
        # last record is at the start of epoch S-1, before its inner loop
        assert tr.ifo_calls[-1] == (S - 1) * (20 + 2 * K * B) + 20
        assert tr.ro_calls[-1] == (S - 1) * K

    @pytest.mark.parametrize("make", [lambda: small_pca(12, 20, 2, seed=3),
                                      lambda: mc_generate(12, 20, 2, 10.0, seed=3)],
                             ids=["pca", "mc"])
    def test_anchor_correction_skipped(self, make):
        # the first inner step of an epoch sits at the anchor, where the
        # correction is exactly zero and is not evaluated
        S, K = 3, 4
        cfg = SvrgConfig(step_mode=Fixed(0.01), K=K, batch=3, max_epochs=S,
                         grad_tol=0.0, seed=1, r=2)
        X0 = random_point(12, 2)
        counted = make()
        calls = []
        diff = counted.batch_egrad_diff
        counted.batch_egrad_diff = lambda *a: calls.append(1) or diff(*a)

        _, plain = run_s_svrg(make(), cfg, X0=X0)
        _, tr = run_s_svrg(counted, cfg, X0=X0)
        assert tr.status == "MaxEpochs" and len(calls) == S * (K - 1)
        for col in ("epoch", "f", "grad_norm", "step_size", "ifo_calls", "ro_calls"):
            assert getattr(tr, col) == getattr(plain, col)

        calls.clear()
        _, tr = run_rgd(counted, cfg, X0=X0)
        _, plain = run_rgd(make(), cfg, X0=X0)
        assert calls == []
        assert tr.f == plain.f and tr.ifo_calls == plain.ifo_calls

    def test_divergence_detected(self):
        # a compact manifold keeps f finite under any step, so the guard is
        # exercised with an objective that goes non-finite
        inst = small_pca(12, 20, 2, seed=3)

        class Poisoned:
            def __init__(self, base):
                self.base = base
                self.n, self.d = base.n, base.d
                self.calls = 0

            def full_value_egrad(self, X):
                self.calls += 1
                f, g = self.base.full_value_egrad(X)
                return (np.nan, g) if self.calls > 1 else (f, g)

            def batch_egrad_diff(self, Xk, X0, idx):
                return self.base.batch_egrad_diff(Xk, X0, idx)

        cfg = SvrgConfig(step_mode=Fixed(0.01), K=2, batch=2, max_epochs=5,
                         grad_tol=0.0, seed=0, r=2)
        with pytest.raises(NonFiniteValue):
            run_s_svrg(Poisoned(inst), cfg, X0=random_point(12, 2))

    def test_converges_on_desk_pca(self):
        inst = small_pca(20, 100, 2, seed=6)
        cfg = SvrgConfig(retraction=RetractionKind.PD, step_mode=BB(), K=20,
                         batch=10, max_epochs=200, grad_tol=1e-6, seed=5, r=2)
        X, tr = run_s_svrg(inst, cfg, X0=warm_start(inst, cfg))
        assert tr.status == "GradTol"
        f_star, _ = inst.optimum()
        assert abs(tr.f[-1] - f_star) <= 1e-8 * abs(f_star)

    def test_sampled_output_mode_runs(self):
        inst = small_pca(12, 20, 2, seed=3)
        cfg = SvrgConfig(step_mode=Fixed(0.05), K=4, batch=2, max_epochs=6,
                         grad_tol=0.0, seed=3, r=2,
                         output_mode=OutputMode.SAMPLED)
        X, tr = run_s_svrg(inst, cfg, X0=random_point(12, 2))
        assert feasibility_error(X.X) <= 1e-10

    def test_theorem1_mode_runs(self):
        inst = small_pca(12, 50, 2, seed=3)
        cfg = SvrgConfig(step_mode=Theorem1(0.0, 1.0), max_epochs=5,
                         grad_tol=0.0, seed=3, r=2)
        X, tr = run_s_svrg(inst, cfg, X0=random_point(12, 2))
        assert len(tr.f) == 5
        assert tr.f[-1] <= tr.f[0] + 1e-12


@pytest.mark.parametrize("solve", [
    run_s_svrg, run_rgd, lambda inst, cfg, X0: run_s_sgd(inst, cfg, N=5, X0=X0)],
    ids=["s-svrg", "rgd", "s-sgd"])
def test_start_point_validated(solve):
    # X0 is checked for orthonormality and for shape (d, r) on entry, as an
    # array or a StiefelPoint, and the solver returns a StiefelPoint
    inst = PcaInstance(pca_generate(10, 20, 0), 2)
    cfg = SvrgConfig(step_mode=Fixed(0.01), K=2, batch=2, max_epochs=2, r=2)
    with pytest.raises(ValueError, match="orthonormal"):
        solve(inst, cfg, X0=5.0 * random_point(10, 2).X)
    for shape in ((12, 2), (10, 3)):
        with pytest.raises(ValueError, match="X0 has shape"):
            solve(inst, cfg, X0=random_point(*shape))
    for X0 in (random_point(10, 2), random_point(10, 2).X):
        X, _ = solve(inst, cfg, X0=X0)
        assert isinstance(X, StiefelPoint) and X.shape == (10, 2)


class TestRunSgd:
    def test_n1_returns_start(self):
        inst = small_pca(10, 8, 2, seed=1)
        cfg = SvrgConfig(seed=123, r=2)
        X0 = random_point(10, 2)
        # j_bar is drawn from {0}; the output must be the start point
        X, _ = run_s_sgd(inst, cfg, N=1, X0=X0, tau=0.01)
        np.testing.assert_array_equal(X.X, X0.X)

    def test_takes_n_minus_one_steps(self):
        # the output index is drawn from {0, ..., N-1}, so X_N is never
        # needed: N - 1 component gradients, one per step
        inst = small_pca(10, 8, 2, seed=1)
        drawn = []
        egrad = inst.component_egrad
        inst.component_egrad = lambda X, i: drawn.append(i) or egrad(X, i)
        run_s_sgd(inst, SvrgConfig(seed=3, r=2), N=7, X0=random_point(10, 2), tau=0.01)
        assert len(drawn) == 6

    def test_single_component_is_deterministic_gd(self):
        # identical centered columns make every component gradient equal the
        # full gradient; centering must be bypassed to keep B nonzero
        inst = PcaInstance(np.zeros((10, 2)), r=2)
        b = np.random.default_rng(2).standard_normal((10, 1))
        inst.B = np.hstack([b, b])
        inst._col_sq = np.sum(inst.B ** 2, axis=0)
        cfg = SvrgConfig(seed=4, r=2)
        X0 = random_point(10, 2)
        X1, t1 = run_s_sgd(inst, cfg, N=30, X0=X0, tau=0.05, record_every=1)
        X2, t2 = run_rgd(inst, replace(cfg, step_mode=Fixed(0.05), max_epochs=30,
                                       grad_tol=0.0), X0=X0)
        np.testing.assert_allclose(t1.f, t2.f, rtol=1e-12)

    def test_theory_step_rule_applied(self):
        inst = small_pca(15, 40, 2, seed=5)
        cfg = SvrgConfig(seed=6, r=2)
        _, tr = run_s_sgd(inst, cfg, N=50, X0=random_point(15, 2))
        assert len(set(tr.step_size)) == 1  # constant step throughout
        assert tr.step_size[0] > 0

    def test_plateaus_above_svrg(self):
        # variance floor: single-sample SGD stalls where SVRG keeps going
        inst = small_pca(20, 100, 2, seed=6)
        cfg = SvrgConfig(retraction=RetractionKind.PD, K=20, batch=10,
                         max_epochs=60, grad_tol=1e-10, seed=8, r=2,
                         step_mode=BB())
        X0 = warm_start(inst, cfg)
        _, tr_svrg = run_s_svrg(inst, cfg, X0=X0)
        _, tr_sgd = run_s_sgd(inst, cfg, N=1200, X0=X0)
        assert min(tr_svrg.grad_norm) < min(tr_sgd.grad_norm)


class TestWarmStart:
    def test_deterministic_and_feasible(self):
        inst = small_pca(15, 30, 2, seed=4)
        cfg = SvrgConfig(seed=11, K=10, r=2)
        a = warm_start(inst, cfg)
        b = warm_start(inst, cfg)
        assert np.array_equal(a.X, b.X)
        assert feasibility_error(a.X) <= 1e-10

    def test_usually_improves_over_raw(self):
        inst = small_pca(20, 60, 3, seed=9)
        wins = 0
        for seed in range(50):
            cfg = SvrgConfig(seed=seed, K=30, r=3)
            r2 = np.random.default_rng(np.random.SeedSequence((seed, 3)))
            raw = qr_positive(r2.standard_normal((20, 3)))[0]
            warm = warm_start(inst, cfg)
            wins += inst.value(warm.X) <= inst.value(raw)
        assert wins >= 40


class TestRecursionLemma:
    def test_zero_sequence_equality(self):
        ok, fk, bound = recursion_lemma_check(np.zeros(6), b=0.3, c=1.0,
                                              d=0.1, a_coef=0.2, f0=2.0)
        assert ok and fk == bound == 2.0

    def test_k2_hand_case(self):
        # a = (1, 1), all constants 1: f_2 = f_0 - c a_0 + d b_1 - c a_1
        # with b_1 = a_coef a_0; bound uses Gamma(1, 2) = 1, Gamma(1, 1) = 0
        ok, fk, bound = recursion_lemma_check([1.0, 1.0], b=1.0, c=1.0,
                                              d=1.0, a_coef=1.0)
        assert fk == -1.0
        assert bound == -1.0  # equality when the recursions hold with equality
        assert ok

    def test_randomized_never_violated(self):
        r2 = np.random.default_rng(23)
        for _ in range(1000):
            K = int(r2.integers(1, 51))
            a_seq = r2.uniform(0.0, 2.0, size=K)
            ok, _, _ = recursion_lemma_check(
                a_seq, b=float(r2.uniform(0.0, 1.0)), c=float(r2.uniform(0.1, 3.0)),
                d=float(r2.uniform(0.0, 1.0)), a_coef=float(r2.uniform(0.0, 1.0)),
                f0=float(r2.uniform(-5, 5)))
            assert ok


class TestLojProbe:
    def test_exact_limit_zero(self):
        out = loj_ratio_probe([2.0, 2.0], [0.5, 1.0], f_limit=2.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_small_gradient_masked(self):
        out = loj_ratio_probe([1.0], [1e-15], f_limit=0.0)
        assert np.isnan(out[0])

    def test_values(self):
        out = loj_ratio_probe([5.0], [2.0], f_limit=1.0)
        assert out[0] == pytest.approx(1.0)
