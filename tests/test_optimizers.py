import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manifold_svrg import optimizers
from manifold_svrg.errors import NoFeasibleC, NonFiniteValue
from manifold_svrg.harness import run_experiment
from manifold_svrg.linalg import qr_positive
from manifold_svrg.manifold import (FEAS_TOL, StiefelPoint, d_rho_array, feasibility_error,
                                    nu_of_rho)
from manifold_svrg.optimizers import (BB, Fixed, RunTrace, SvrgConfig, Theorem1, bb_step,
                                      gamma_fn, run_rgd, run_s_sgd, run_s_svrg,
                                      theorem1_schedule, warm_start, _step)
from manifold_svrg.problems import PcaInstance, ProblemConstants, mc_generate, pca_generate
from manifold_svrg.retractions import GRADIENT_KINDS, RETRACTION_NAMES, RetractionKind
from oracles import (brute_force_expectation, declared_derivative, fd_derivative,
                     loj_ratio_probe, pca_data, recursion_lemma_check)
from test_acceptance import DESK_MC

rng = np.random.default_rng(31)


def small_pca(d=10, n=6, r=2, seed=0):
    return pca_generate(d, n, r, seed)


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

    @pytest.mark.parametrize("make, rho, bs", [
        *(pytest.param(small_pca, rho, bs, id=f"{bs}-{rho}")
          for bs in (1, 2) for rho in (0.0, 0.25, 1.0)),
        *(pytest.param(lambda: mc_generate(10, 6, 2, 10.0, seed=3), 0.0, bs,
                       id=f"mc-{bs}-0.0") for bs in (1, 2))])
    def test_unbiased_and_variance_bounded(self, make, rho, bs):
        inst = make()
        Xa = random_point(10, 2)
        Xk = StiefelPoint(qr_positive(Xa.X + 0.1 * rng.standard_normal((10, 2)))[0])
        _, full = inst.full_value_egrad(Xa.X)

        def grad_fn(batch):
            G = full + inst.batch_egrad_diff(Xk.X, Xa.X, np.asarray(batch))
            return d_rho_array(Xk.X, G, rho)

        mean, second = brute_force_expectation(grad_fn, n=6, batch_size=bs)
        want = d_rho_array(Xk.X, inst.full_value_egrad(Xk.X)[1], rho)
        assert np.linalg.norm(mean - want) <= 1e-12
        # MC's L is sampled rather than certified; it still bounds the
        # variance here, with a wide margin
        L = inst.constants().L
        bound = (L ** 2 / (nu_of_rho(rho) ** 2 * bs)) * np.linalg.norm(Xk.X - Xa.X) ** 2
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
        assert bb_step(S, np.zeros_like(S), S, np.zeros_like(S), K=4) == pytest.approx(0.25)

    def test_quadratic_curvature_two(self):
        S = rng.standard_normal((5, 2))
        got = bb_step(S, np.zeros_like(S), 2.0 * S, np.zeros_like(S), K=1)
        assert got == pytest.approx(0.5)

    def test_clamped_to_tau_max(self):
        S = rng.standard_normal((4, 2))
        Y = 1e-12 * S
        got = bb_step(S, np.zeros_like(S), Y, np.zeros_like(S), K=1)
        assert got == 1e8

    def test_zero_denominator_fallback(self):
        S = rng.standard_normal((4, 2))
        Y = np.zeros_like(S)
        got = bb_step(S, np.zeros_like(S), Y, np.zeros_like(S), K=2)
        assert got == 1e8 / 2

    def test_rgd_plain_bb_converges_on_desk_mc(self):
        # rgd's one step per epoch is the plain long BB step, the same rule
        # on completion as on PCA; on criterion 9's cell run 0 reaches the
        # tolerance well inside 400 epochs
        spec = replace(DESK_MC, method="rgd", max_epochs=400, runs=1)
        _, (result,) = run_experiment(spec)
        assert result.status == "GradTol"


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
        assert len(s.p) == s.K  # one weight per candidate output X_0..X_{K-1}
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

    @pytest.mark.parametrize("rule, args", [
        (Fixed, (-0.1,)), (Fixed, (math.nan,)), (Fixed, (math.inf,)),
        (Theorem1, (math.nan, 1.0)), (Theorem1, (0.1, 0.0)),
        (Theorem1, (0.1, math.nan)), (Theorem1, (0.1, math.inf))])
    def test_step_rule_values_validated(self, rule, args):
        # a NaN or infinite value would fail every run at its first step
        with pytest.raises(ValueError):
            rule(*args)

    @pytest.mark.parametrize("bad", [dict(step_mode=0.1), dict(rho=math.nan),
                                     dict(rho=math.inf), dict(grad_tol=math.nan),
                                     dict(grad_tol=-1.0),
                                     # counts and the seed are integers
                                     dict(seed=-1), dict(seed=1.5), dict(seed=2.0),
                                     dict(K=2.5), dict(batch=2.0), dict(max_epochs=2.5),
                                     dict(K=0), dict(batch=0), dict(max_epochs=0),
                                     # a bool is no count
                                     dict(K=True), dict(batch=True), dict(max_epochs=True),
                                     dict(seed=False),
                                     # the rank is a count too
                                     dict(r=0), dict(r=-1), dict(r=2.5), dict(r=True)])
    def test_config_values_validated(self, bad):
        # an unknown step mode has no step rule; a NaN rho fails every run at
        # its first step, and a NaN grad_tol never stops one.  A negative
        # seed fails numpy's SeedSequence and a fractional count the loop's
        # range(); each is refused here, naming the field
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name} "):
            SvrgConfig(**bad)

    def test_unknown_step_mode_names_the_rules(self):
        with pytest.raises(ValueError,
                           match=re.escape("step_mode = 0.1 is not Fixed, BB or Theorem1")):
            SvrgConfig(step_mode=0.1)

    def test_exp2_needs_rho_zero(self):
        # exp2, the Grassmann geodesic, retracts only a horizontal direction;
        # -d_rho(X, G) has a vertical part at rho > 0 and the step leaves
        # the manifold
        local = np.random.default_rng(4)
        X = qr_positive(local.standard_normal((9, 3)))[0]
        G = local.standard_normal((9, 3))
        assert feasibility_error(_step(RetractionKind.EXP2, X, G, 0.3, 0.5)) > 1e-3
        for exp2 in (RetractionKind.EXP2, "exp2"):
            SvrgConfig(retraction=exp2, rho=0.0)
            with pytest.raises(ValueError, match="^exp2 needs rho = 0, got rho = 0.5$"):
                SvrgConfig(retraction=exp2, rho=0.5)

    @pytest.mark.parametrize("name", RETRACTION_NAMES)
    def test_retraction_decoded_by_name(self, name):
        # a name is decoded where it enters, not at the first step
        assert SvrgConfig(retraction=name).retraction is RetractionKind(name)
        with pytest.raises(ValueError, match=f"^unknown retraction '{name}x'$"):
            SvrgConfig(retraction=name + "x")
        # an unhashable value is no name either
        with pytest.raises(ValueError, match=re.escape(f"unknown retraction ['{name}']")):
            SvrgConfig(retraction=[name])

    def test_numpy_integers_accepted(self):
        cfg = SvrgConfig(K=np.int64(3), batch=np.int32(2), max_epochs=np.int64(4),
                         seed=np.uint32(7), r=np.int64(2))
        counts = (cfg.K, cfg.batch, cfg.max_epochs, cfg.seed, cfg.r)
        assert counts == (3, 2, 4, 7, 2) and {type(c) for c in counts} == {int}


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
        # the last row is at the returned point, after S epochs and one more
        # full gradient
        assert tr.epoch[-1] == S
        assert tr.ifo_calls[-1] == S * (20 + 2 * K * B) + 20
        assert tr.ro_calls[-1] == S * K

    def test_rgd_charged_for_its_full_gradients(self):
        # an rgd step sits at the anchor and evaluates nothing past the full
        # gradient, whatever the config's K and batch: n IFO calls and one
        # RO call per iteration
        inst = small_pca(12, 20, 2, seed=3)
        cfg = SvrgConfig(step_mode=Fixed(0.01), K=5, batch=3, max_epochs=4,
                         grad_tol=0.0, seed=1, r=2)
        _, tr = run_rgd(inst, cfg, X0=random_point(12, 2))
        assert tr.ifo_calls == [(s + 1) * 20 for s in range(5)]
        assert tr.ro_calls == list(range(5))

    @pytest.mark.parametrize("make", [lambda: small_pca(12, 20, 2, seed=3),
                                      lambda: mc_generate(12, 20, 2, 10.0, seed=3)],
                             ids=["pca", "mc"])
    def test_anchor_correction_skipped(self, make):
        # the first inner step of an epoch sits at the anchor, where the
        # correction is exactly zero and is not evaluated: each epoch calls
        # the batch difference its anchor returns K - 1 times
        S, K = 3, 4
        cfg = SvrgConfig(step_mode=Fixed(0.01), K=K, batch=3, max_epochs=S,
                         grad_tol=0.0, seed=1, r=2)
        X0 = random_point(12, 2)
        counted = make()
        calls = []
        anchored = counted.anchored

        def counted_anchored(X):
            f, egrad, diff = anchored(X)
            return f, egrad, lambda *a: calls.append(1) or diff(*a)

        counted.anchored = counted_anchored

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

    @pytest.mark.parametrize("make, kind", [
        (lambda: small_pca(12, 20, 2, seed=3), RetractionKind.PD),
        (lambda: mc_generate(12, 20, 2, 10.0, seed=3), RetractionKind.JD)], ids=["pca", "mc"])
    def test_anchored_runs_as_the_general_oracles(self, make, kind):
        # the loop's per-epoch anchor against the oracles the method is
        # stated with, the full gradient and a batch difference that refits
        # the anchor: the same trace and final point, bit for bit
        cfg = SvrgConfig(retraction=kind, step_mode=BB(), K=6, batch=3, max_epochs=15,
                         grad_tol=0.0, seed=2, r=2)
        general = make()
        general.anchored = lambda X: (*general.full_value_egrad(X),
                                      lambda Xk, idx: general.batch_egrad_diff(Xk, X, idx))
        X0 = random_point(12, 2)
        X, tr = run_s_svrg(make(), cfg, X0=X0)
        X_ref, ref = run_s_svrg(general, cfg, X0=X0)
        for col in ("epoch", "f", "grad_norm", "step_size", "ifo_calls", "ro_calls"):
            assert getattr(tr, col) == getattr(ref, col), col
        assert np.array_equal(X.X, X_ref.X)

    def test_holds_one_anchor_at_a_time(self):
        # an epoch's batch difference, and with it MC's n m_max r anchor
        # rows, is gone before the next epoch's anchor is fitted
        inst = mc_generate(12, 20, 2, 10.0, seed=3)
        cfg = SvrgConfig(retraction=RetractionKind.JD, step_mode=BB(), K=4, batch=3,
                         max_epochs=5, grad_tol=0.0, seed=2, r=2)
        refs, alive = [], []
        anchored = inst.anchored

        def watched(X):
            alive.append(sum(ref() is not None for ref in refs))
            f, egrad, diff = anchored(X)
            refs.append(weakref.ref(diff))
            return f, egrad, diff

        inst.anchored = watched
        _, tr = run_s_svrg(inst, cfg, X0=random_point(12, 2))
        assert tr.status == "MaxEpochs" and alive == [0] * 6

    def test_divergence_detected(self):
        # a compact manifold keeps f finite under any step, so the guard is
        # exercised with an objective that goes non-finite
        inst = small_pca(12, 20, 2, seed=3)

        class Poisoned:
            def __init__(self, base):
                self.base = base
                self.n, self.d, self.r = base.n, base.d, base.r
                self.calls = 0

            def anchored(self, X):
                self.calls += 1
                f, g, diff = self.base.anchored(X)
                return (np.nan, g, diff) if self.calls > 1 else (f, g, diff)

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
        f_star = inst.optimum()
        assert abs(tr.f[-1] - f_star) <= 1e-8 * abs(f_star)

    def test_theorem1_rejects_a_one_step_schedule(self):
        # kappa n = 0.5 <= 1 gives K = 1 and p = [1]: every epoch would
        # return its anchor X_0 while charging a step, so the run would
        # never move
        inst = small_pca(12, 50, 2, seed=3)
        cfg = SvrgConfig(step_mode=Theorem1(0.0, 0.01), max_epochs=4,
                         grad_tol=0.0, seed=3, r=2)
        with pytest.raises(ValueError, match=r"kappa n = 0\.5 gives K = 1"):
            run_s_svrg(inst, cfg, X0=random_point(12, 2))

    def test_theorem1_mode_runs(self):
        inst = small_pca(12, 50, 2, seed=3)
        cfg = SvrgConfig(step_mode=Theorem1(0.0, 1.0), max_epochs=5,
                         grad_tol=0.0, seed=3, r=2)
        X, tr = run_s_svrg(inst, cfg, X0=random_point(12, 2))
        assert len(tr.f) == 6  # five epoch starts and the returned point
        assert tr.f[-1] <= tr.f[0] + 1e-12


def reference_theorem1_run(problem, config, X0):
    """run_s_svrg under Theorem1 with every epoch's K steps taken.

    Each epoch keeps X_0, ..., X_K and draws its output from them with p
    padded by p[K] = 0, so X_K is computed but never returned.
    """
    mode, rho = config.step_mode, config.rho
    consts = problem.constants()
    s = theorem1_schedule(problem.n, mode.mu, mode.kappa, consts.L, consts.C,
                          L1=1.0, L2=0.5, r=config.r, nu=nu_of_rho(rho))
    p = np.append(s.p, 0.0)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, optimizers._STREAM_SVRG)))
    X = X0.X.copy()
    rows, events = [], []
    ifo = ro = 0
    for e in range(config.max_epochs + 1):
        f0, egrad0 = problem.full_value_egrad(X)
        ifo += problem.n
        gnorm = float(np.linalg.norm(d_rho_array(X, egrad0, rho)))
        rows.append((e, f0, gnorm, s.tau, ifo, ro))
        if gnorm <= config.grad_tol or e == config.max_epochs:
            break
        iterates = [X]
        for idx in rng.integers(problem.n, size=(s.K, s.batch)):
            Xk = iterates[-1]
            G = egrad0 if Xk is X else egrad0 + problem.batch_egrad_diff(Xk, X, idx)
            iterates.append(_step(config.retraction, Xk, G, s.tau, rho))
            ifo += 2 * s.batch
            ro += 1
        X = iterates[int(rng.choice(s.K + 1, p=p / p.sum()))]
        if feasibility_error(X) > FEAS_TOL:
            X = qr_positive(X)[0]
            events.append(("reorthonormalized", e))
    return X, rows, events


class TestTheorem1Epoch:
    # a Theorem1 epoch returns X_k, k drawn with p ~ Delta, and takes only
    # the k steps that reach it
    @pytest.mark.parametrize("kind, rho", [("pd", 0.0), ("exp", 0.0), ("gp", 0.0),
                                           ("qr", 0.5)])
    def test_matches_the_all_steps_loop(self, kind, rho):
        inst = small_pca(30, 300, 3, seed=1)
        cfg = SvrgConfig(retraction=RetractionKind(kind), rho=rho,
                         step_mode=Theorem1(0.5, 1.0), max_epochs=6, grad_tol=0.0,
                         seed=2, r=3)
        X0 = random_point(30, 3)
        X, tr = run_s_svrg(inst, cfg, X0=X0)
        X_ref, rows, events = reference_theorem1_run(inst, cfg, X0)
        assert np.array_equal(X.X, X_ref)
        got = list(zip(tr.epoch, tr.f, tr.grad_norm, tr.step_size, tr.ifo_calls,
                       tr.ro_calls))
        assert got == rows
        assert tr.events == events

    def test_steps_stop_at_the_drawn_iterate(self, monkeypatch):
        inst = small_pca(30, 300, 3, seed=1)
        cfg = SvrgConfig(step_mode=Theorem1(0.5, 1.0), max_epochs=6, grad_tol=0.0,
                         seed=2, r=3)
        # the retraction count at each epoch's anchor
        retractions, at_anchor = [0], []
        retract, anchored = optimizers.retract_array, inst.anchored

        def counted_retract(*args):
            retractions[0] += 1
            return retract(*args)

        def counted_anchored(X):
            at_anchor.append(retractions[0])
            return anchored(X)

        monkeypatch.setattr(optimizers, "retract_array", counted_retract)
        inst.anchored = counted_anchored
        _, tr = run_s_svrg(inst, cfg, X0=random_point(30, 3))

        # replay the run's generator: each epoch draws its K batches, then k
        consts = inst.constants()
        s = theorem1_schedule(inst.n, 0.5, 1.0, consts.L, consts.C, L1=1.0, L2=0.5,
                              r=cfg.r, nu=nu_of_rho(cfg.rho))
        replay = np.random.default_rng(np.random.SeedSequence((2, optimizers._STREAM_SVRG)))
        drawn = []
        for _ in range(6):
            replay.integers(inst.n, size=(s.K, s.batch))
            drawn.append(int(replay.choice(s.K, p=s.p)))
        # an epoch takes exactly k retractions
        assert list(np.diff(at_anchor)) == drawn
        assert sum(drawn) < 6 * s.K
        # RO stays nominal: all K steps of each epoch are charged
        assert tr.ro_calls == [e * s.K for e in range(7)]

    def test_keeps_one_iterate(self):
        # K = 100 steps at d = 400, r = 10: holding all K + 1 iterates of
        # 32 KB each peaked at about 3.3 MB
        inst = small_pca(400, 100, 10, seed=0)
        cfg = SvrgConfig(step_mode=Theorem1(0.5, 10.0), max_epochs=2, grad_tol=0.0,
                         seed=1, r=10)
        consts = inst.constants()
        assert theorem1_schedule(100, 0.5, 10.0, consts.L, consts.C, 1.0, 0.5, 10, 1.0).K >= 100
        X0 = random_point(400, 10)
        tracemalloc.start()
        try:
            run_s_svrg(inst, cfg, X0=X0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


@pytest.mark.parametrize("solve", [run_rgd, run_s_sgd], ids=["rgd", "s-sgd"])
def test_rgd_rejects_theorem1(solve):
    # the schedule sizes an inner loop and a batch that rgd and s-sgd do
    # not have
    cfg = SvrgConfig(step_mode=Theorem1(0.0, 1.0), r=2)
    with pytest.raises(ValueError, match="Theorem1"):
        solve(small_pca(12, 50, 2, seed=3), cfg, X0=random_point(12, 2))


@pytest.mark.parametrize("solve", [run_s_svrg, run_rgd, run_s_sgd],
                         ids=["s-svrg", "rgd", "s-sgd"])
def test_start_point_validated(solve):
    # X0 is checked for orthonormality and for shape (d, r) on entry, as an
    # array or a StiefelPoint, and the solver returns a StiefelPoint
    inst = pca_generate(10, 20, 2, 0)
    cfg = SvrgConfig(step_mode=Fixed(0.01), K=2, batch=2, max_epochs=2, r=2)
    with pytest.raises(ValueError, match="orthonormal"):
        solve(inst, cfg, X0=5.0 * random_point(10, 2).X)
    for shape in ((12, 2), (10, 3)):
        with pytest.raises(ValueError, match="X0 has shape"):
            solve(inst, cfg, X0=random_point(*shape))
    for X0 in (random_point(10, 2), random_point(10, 2).X):
        X, _ = solve(inst, cfg, X0=X0)
        assert isinstance(X, StiefelPoint) and X.shape == (10, 2)


@pytest.mark.parametrize("solve", [
    run_s_svrg, run_s_sgd, warm_start],
    ids=["s-svrg", "s-sgd", "warm-start"])
@pytest.mark.parametrize("make", [lambda: pca_generate(10, 20, 2, 0),
                                  lambda: mc_generate(10, 20, 2, 10.0, seed=3)],
                         ids=["pca", "mc"])
def test_rank_mismatch_rejected(make, solve):
    # a config whose r is not the problem's is refused on entry, naming
    # both ranks, before any oracle call
    inst = make()
    calls = []
    for name in ("anchored", "full_value_egrad", "component_egrad", "batch_egrad_diff",
                 "constants"):
        oracle = getattr(inst, name)
        setattr(inst, name, lambda *a, oracle=oracle, name=name:
                calls.append(name) or oracle(*a))
    cfg = SvrgConfig(step_mode=Fixed(0.01), K=2, batch=2, max_epochs=2, r=3)
    X0 = () if solve is warm_start else (random_point(10, 2),)
    with pytest.raises(ValueError, match="r = 3 does not match the problem's r = 2"):
        solve(inst, cfg, *X0)
    assert calls == []


@pytest.mark.parametrize("solve", [run_s_svrg, run_rgd, run_s_sgd],
                         ids=["s-svrg", "rgd", "s-sgd"])
def test_runner_requires_x0(solve):
    # warm_start is the one place a start is drawn; a runner only checks one
    with pytest.raises(TypeError, match="X0"):
        solve(small_pca(), SvrgConfig(r=2))


def test_trace_columns_filled_by_the_run():
    trace = RunTrace()
    assert (trace.status, trace.epoch) == ("MaxEpochs", [])
    for given in (dict(epoch=[1]), dict(status="GradTol")):
        with pytest.raises(TypeError):
            RunTrace(**given)


class HalvedPca(PcaInstance):
    """The PCA objective times 1/2: every oracle a run calls, halved."""

    def full_value_egrad(self, X):
        f, egrad = super().full_value_egrad(X)
        return 0.5 * f, 0.5 * egrad

    def component_egrad(self, X, i):
        return 0.5 * super().component_egrad(X, i)

    def batch_egrad_diff(self, Xk, X0, idx):
        return 0.5 * super().batch_egrad_diff(Xk, X0, idx)

    def constants(self):
        c = super().constants()
        return ProblemConstants(L=0.5 * c.L, C=0.5 * c.C)


@pytest.mark.parametrize("kind", list(RetractionKind), ids=lambda k: k.value)
def test_halved_objective_is_halved_step(kind):
    # criterion 8's cell fails at its step 1.2 and passes at 0.6, or at 1.2
    # on f/2: those two are one run.  Halving is exact in floating point,
    # each step is linear in the gradient, and warm_start's step 1/(2L)
    # doubles as L halves, so the iterates agree bit for bit while f and
    # grad_norm are exactly half
    A = pca_data(30, 200, seed=4)
    plain, half = PcaInstance(A, 3), HalvedPca(A, 3)
    cfg = SvrgConfig(retraction=kind, step_mode=Fixed(0.6), K=10, batch=5,
                     max_epochs=2, grad_tol=0.0, seed=4, r=3)
    cfg_half = replace(cfg, step_mode=Fixed(1.2))
    X0, X0_half = warm_start(plain, cfg), warm_start(half, cfg_half)
    assert np.array_equal(X0_half.X, X0.X)
    X, tr = run_s_svrg(plain, cfg, X0=X0)
    X_half, tr_half = run_s_svrg(half, cfg_half, X0=X0_half)
    assert np.array_equal(X_half.X, X.X)
    assert tr_half.f == [0.5 * f for f in tr.f]
    assert tr_half.grad_norm == [0.5 * g for g in tr.grad_norm]


class TestRunSgd:
    def test_n1_returns_start(self):
        inst = small_pca(10, 8, 2, seed=1)
        cfg = SvrgConfig(step_mode=Fixed(0.01), K=1, max_epochs=1, seed=123, r=2)
        X0 = random_point(10, 2)
        # N = 1: j_bar is drawn from {0}; the output must be the start point
        X, _ = run_s_sgd(inst, cfg, X0=X0)
        np.testing.assert_array_equal(X.X, X0.X)

    def test_takes_n_minus_one_steps(self):
        # the output index is drawn from {0, ..., N-1}, so X_N is never
        # needed: N - 1 component gradients, one per step
        inst = small_pca(10, 8, 2, seed=1)
        drawn = []
        egrad = inst.component_egrad
        inst.component_egrad = lambda X, i: drawn.append(i) or egrad(X, i)
        cfg = SvrgConfig(step_mode=Fixed(0.01), K=7, max_epochs=1, seed=3, r=2)
        run_s_sgd(inst, cfg, X0=random_point(10, 2))
        assert len(drawn) == 6

    def test_single_component_is_deterministic_gd(self):
        # the centered columns b and -b give every component gradient
        # -2 b b^T X, which is the full gradient
        b = np.random.default_rng(2).standard_normal((10, 1))
        inst = PcaInstance(np.hstack([b, -b]), r=2)
        cfg = SvrgConfig(step_mode=Fixed(0.05), K=30, max_epochs=1, seed=4, r=2)
        X0 = random_point(10, 2)
        # X_0, ..., X_29 each way: s-sgd records N = 30 iterates and then
        # the one it returns, and rgd the starts of its 29 epochs and the
        # point it returns
        X1, t1 = run_s_sgd(inst, cfg, X0=X0)
        X2, t2 = run_rgd(inst, replace(cfg, max_epochs=29, grad_tol=0.0), X0=X0)
        assert len(t1.f) == len(t2.f) + 1
        np.testing.assert_allclose(t1.f[:-1], t2.f, rtol=1e-12)
        assert t1.f[-1] == inst.value(X1.X)

    def test_last_row_is_the_returned_point(self):
        # N = 200 records X_0, X_2, ..., X_198 and then the returned X_j_bar
        # as step N, after N - 1 steps
        inst = pca_generate(30, 60, 3, 0)
        cfg = SvrgConfig(step_mode=Fixed(0.05), K=200, max_epochs=1, seed=0, r=3)
        X, tr = run_s_sgd(inst, cfg, X0=random_point(30, 3))
        assert tr.epoch[-2:] == [198, 200]
        assert tr.ifo_calls[-1] == tr.ro_calls[-1] == 199
        f, egrad = inst.full_value_egrad(X.X)
        assert tr.f[-1] == f
        assert tr.grad_norm[-1] == float(np.linalg.norm(d_rho_array(X.X, egrad, 0.0)))

    def test_plateaus_above_svrg(self):
        # variance floor: single-sample SGD stalls where SVRG keeps going
        inst = small_pca(20, 100, 2, seed=6)
        cfg = SvrgConfig(retraction=RetractionKind.PD, K=20, batch=10,
                         max_epochs=60, grad_tol=1e-10, seed=8, r=2,
                         step_mode=BB())
        X0 = warm_start(inst, cfg)
        _, tr_svrg = run_s_svrg(inst, cfg, X0=X0)
        # N = K * max_epochs = 1200 steps of a fixed size
        _, tr_sgd = run_s_sgd(inst, replace(cfg, step_mode=Fixed(0.0235)), X0=X0)
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

    def test_keeps_one_iterate(self):
        # K = 500 steps at d = 400, r = 10: holding all K + 1 iterates of
        # 32 KB each peaked at about 16 MB
        inst = small_pca(400, 100, 10, seed=0)
        cfg = SvrgConfig(seed=1, K=500, r=10)
        tracemalloc.start()
        try:
            warm_start(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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
