"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Criterion 8 is the full-scale spot check; it only runs when the environment
variable PAPER_SCALE=1 is set, because it needs tens of seconds per run on
capable hardware.  Criterion 7 gates convergence quality in its place.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from manifold_svrg.harness import (ExperimentSpec, build_config, build_problem,
                                   reference_value, run_experiment)
from manifold_svrg.linalg import qr_positive
from manifold_svrg.manifold import d_rho_array, nu_of_rho
from manifold_svrg.optimizers import Fixed, run_s_sgd, SvrgConfig, theorem1_schedule
from manifold_svrg.problems import pca_generate
from manifold_svrg.retractions import GRADIENT_KINDS, RetractionKind, retract_array
from oracles import (FREE_KINDS, TangentSpace, brute_force_expectation, cayley_woodbury,
                     declared_derivative, direction_for, estimate_l1_l2, fd_derivative,
                     loj_ratio_probe, recursion_lemma_check, tangent_project_array)

rng = np.random.default_rng(2024)

# the desk gate cells: criterion 7 runs DESK_PCA under each of
# DESK_RETRACTIONS and criterion 9 runs DESK_MC (tests/run_digests.py
# replays both)
DESK_RETRACTIONS = ("exp", "qr", "pd", "wy", "jd", "gp", "gr")
DESK_PCA = ExperimentSpec(problem="pca", method="s-svrg-bb", retraction="pd",
                          d=200, n=2000, r=5, step="bb", batch_frac=0.05,
                          inner_k="50", max_epochs=200, grad_tol=1e-6, runs=20, seed=0)
DESK_MC = ExperimentSpec(problem="mc", method="s-svrg-bb", retraction="jd",
                         d=200, n=400, r=5, rho=0.0, step="bb",
                         batch_frac=0.05, inner_k="200", max_epochs=250,
                         grad_tol=3e-9, runs=20, seed=0, cond=10.0)


def report(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_retraction_axioms(capfd):
    d, r = 50, 5
    worst_zero = worst_feas = worst_deriv = 0.0
    for kind in FREE_KINDS + GRADIENT_KINDS:
        for _ in range(500):
            X = qr_positive(rng.standard_normal((d, r)))[0]
            direction = direction_for(kind, X, rng.standard_normal((d, r)))
            worst_zero = max(worst_zero,
                             float(np.linalg.norm(retract_array(kind, X, direction, 0.0) - X)))
            for t in (0.01, 0.1, 1.0, 10.0):
                Y = retract_array(kind, X, direction, t)
                worst_feas = max(worst_feas,
                                 float(np.linalg.norm(Y.T @ Y - np.eye(r))))
            want = declared_derivative(kind, X, direction)
            got = fd_derivative(lambda t: retract_array(kind, X, direction, t))
            worst_deriv = max(worst_deriv,
                              float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    ok = worst_zero <= 1e-12 and worst_feas <= 1e-10 and worst_deriv <= 1e-5
    report(capfd, 1, ok,
           f"7 kinds x 500 samples: |R(0)-X|<={worst_zero:.1e}, "
           f"feasibility<={worst_feas:.1e}, derivative rel err<={worst_deriv:.1e}")


def test_criterion_2_bound_constants(capfd):
    l1_pd, l2_pd = estimate_l1_l2(RetractionKind.PD, trials=10_000, seed=5)
    l1_qr, l2_qr = estimate_l1_l2(RetractionKind.QR, trials=10_000, seed=6)
    slack = 1e-8
    ok = (l1_pd <= 1.0 + slack and l2_pd <= 0.5 + slack
          and l1_qr <= 1.0 + math.sqrt(2.0) / 2.0 + slack
          and l2_qr <= math.sqrt(10.0) / 2.0 + slack)
    report(capfd, 2, ok,
           f"pd (L1,L2)=({l1_pd:.4f},{l2_pd:.4f})<=(1,0.5); "
           f"qr=({l1_qr:.4f},{l2_qr:.4f})<=(1.707,1.581) over 1e4 trials")


def test_criterion_3_wy_jd_equivalence(capfd):
    # wy and jd run one r x r recipe; the reference is Wen & Yin's Woodbury
    # form of the Cayley transform, with its own 2r x 2r solve
    worst = 0.0
    for _ in range(200):
        X = qr_positive(rng.standard_normal((30, 4)))[0]
        E = tangent_project_array(X, rng.standard_normal((30, 4)),
                                  TangentSpace.STIEFEL)
        t = rng.uniform(0.0, 5.0)
        Ywy = cayley_woodbury(X, E, t)
        Yjd = retract_array(RetractionKind.JD, X, E, t)
        worst = max(worst, float(np.linalg.norm(Ywy - Yjd)))
    ok = worst <= 1e-10
    report(capfd, 3, ok, f"max |wy - jd| = {worst:.1e} over 200 samples")


def test_criterion_4_variance_reduction_brute_force(capfd):
    d, r, n = 10, 2, 6
    inst = pca_generate(d, n, r, seed=11)
    L = inst.constants().L
    worst_mean = 0.0
    worst_margin = -np.inf
    local = np.random.default_rng(12)
    for batch_size in (1, 2):
        for rho in (0.0, 0.25, 1.0):
            nu = nu_of_rho(rho)
            for _ in range(20):
                X0 = qr_positive(local.standard_normal((d, r)))[0]
                Xk = qr_positive(X0 + 0.2 * local.standard_normal((d, r)))[0]
                _, full0 = inst.full_value_egrad(X0)
                grad_k = d_rho_array(Xk, inst.full_value_egrad(Xk)[1], rho)
                mean, second = brute_force_expectation(
                    lambda b: d_rho_array(
                        Xk, full0 + inst.batch_egrad_diff(Xk, X0, np.asarray(b)),
                        rho),
                    n=n, batch_size=batch_size)
                worst_mean = max(worst_mean,
                                 float(np.linalg.norm(mean - grad_k)))
                bound = (L * L / (nu * nu * batch_size)
                         * float(np.linalg.norm(Xk - X0)) ** 2)
                worst_margin = max(worst_margin, second - bound)
    ok = worst_mean <= 1e-12 and worst_margin <= 1e-12
    report(capfd, 4, ok,
           f"unbiasedness <= {worst_mean:.1e}; variance-bound slack "
           f"<= {worst_margin:.1e} over |B| in {{1,2}}, rho in {{0,1/4,1}}")


def test_criterion_5_recursion_lemma(capfd):
    local = np.random.default_rng(21)
    violations = 0
    for _ in range(1000):
        K = int(local.integers(1, 51))
        holds, _, _ = recursion_lemma_check(
            a_seq=local.uniform(0.0, 2.0, size=K),
            b=float(local.uniform(0.0, 0.5)),
            c=float(local.uniform(0.1, 2.0)),
            d=float(local.uniform(0.0, 1.0)),
            a_coef=float(local.uniform(0.0, 1.0)),
            f0=float(local.uniform(-1.0, 1.0)))
        violations += 0 if holds else 1
    # K = 2 closed form: f_2 = f_0 - c(a_0 + a_1) + d * a_coef * a_0 and the
    # bound coefficients are (c - a_coef d, c), so the bound is tight
    b, c, d, a_coef, a0, a1, f0 = 0.3, 1.1, 0.4, 0.7, 0.9, 0.5, 2.0
    holds2, f2, bound2 = recursion_lemma_check([a0, a1], b, c, d, a_coef, f0=f0)
    closed = f0 - c * (a0 + a1) + d * a_coef * a0
    exact = (holds2 and math.isclose(f2, closed, rel_tol=1e-12)
             and math.isclose(bound2, closed, rel_tol=1e-12)
             and f2 == bound2)  # the K=2 bound is tight
    ok = violations == 0 and exact
    report(capfd, 5, ok,
           f"{violations}/1000 random violations; K=2 closed form "
           f"{'matches' if exact else 'mismatch'}")


def test_criterion_6_schedule(capfd):
    sched = theorem1_schedule(1000, 0.0, 1.0, L=2.0, C=2.0, L1=1.0, L2=0.5,
                              r=5, nu=1.0)
    shape_ok = sched.K == 10 and sched.batch == 100
    ratio = sched.L_hat / (math.sqrt(sched.L_tilde) * 2.0)
    slack = abs(ratio * math.exp(sched.c ** 2 + 2.0 * sched.c) * sched.c - 1.0)
    c_ok = slack <= 1e-6
    local = np.random.default_rng(31)
    delta_ok = True
    checked = 0
    while checked < 50:
        L = float(local.uniform(0.5, 4.0))
        L1 = float(local.uniform(0.5, 2.0))
        L2 = float(local.uniform(0.1, 1.0))
        r = int(local.integers(2, 12))
        nu = float(local.uniform(0.3, 1.0))
        root = math.sqrt(L1 * L1 + 4.0 * L2 * math.sqrt(r)) * L
        # keep the constant ratio at most 1 by capping C
        c_max = (root - L1 * L1 * L) / (2.0 * L2)
        if c_max <= 0.0:
            continue
        C = float(local.uniform(0.1, 1.0)) * c_max
        s = theorem1_schedule(int(local.integers(100, 5000)),
                              float(local.uniform(0.0, 0.5)),
                              float(local.uniform(0.5, 2.0)),
                              L=L, C=C, L1=L1, L2=L2, r=r, nu=nu)
        if not np.all(s.Delta >= nu * s.tau / 2.0 - 1e-15):
            delta_ok = False
        checked += 1
    ok = shape_ok and c_ok and delta_ok
    report(capfd, 6, ok,
           f"(n,mu,kappa)=(1000,0,1): K={sched.K}, |B|={sched.batch}; "
           f"c-equation slack {slack:.1e}; Delta >= nu*tau/2 on 50 random sets: "
           f"{delta_ok}")


# --------------------------------------------------------------------------
# desk-scale convergence runs, shared by criteria 7 and 11

@pytest.fixture(scope="module")
def desk_pca_runs():
    # wy is a spelling of jd, so its cell is jd's runs filed under wy; what
    # makes that equal to running it is checked first: the same config at
    # every run seed, and a one-run wy cell that repeats jd's run 0 bit for bit
    problem = build_problem(DESK_PCA)
    wy, jd = (replace(DESK_PCA, retraction=name) for name in ("wy", "jd"))
    for run_id in range(DESK_PCA.runs):
        assert build_config(wy, wy.seed + run_id) == build_config(jd, jd.seed + run_id)
    cells = {name: run_experiment(replace(DESK_PCA, retraction=name), problem)
             for name in DESK_RETRACTIONS if name != "wy"}
    row, results = cells["jd"]
    _, (wy_run,) = run_experiment(replace(wy, runs=1), problem)
    assert (wy_run.epochs, wy_run.final_f) == (results[0].epochs, results[0].final_f)
    assert np.array_equal(wy_run.X.X, results[0].X.X)
    cells["wy"] = (replace(row, retraction="wy"), results)
    return reference_value(DESK_PCA, problem), {name: cells[name] for name in DESK_RETRACTIONS}


def _tail_fit(f_values, f_star, window=20):
    err = np.abs(np.asarray(f_values) - f_star) / abs(f_star)
    err = err[err > 1e-17][-window:]
    if len(err) < 4:
        return -1.0, 1.0  # flat at machine precision counts as converged
    x = np.arange(len(err), dtype=float)
    y = np.log10(err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


@pytest.mark.gate
def test_criterion_7_desk_pca(capfd, desk_pca_runs):
    f_star, cells = desk_pca_runs
    fails = []
    worst_err = 0.0
    worst_r2 = 1.0
    for retr, (row, results) in cells.items():
        if row.successes != row.runs:
            fails.append(f"{retr}: {row.successes}/{row.runs} converged")
        worst_err = max(worst_err, row.err_bar)
        if row.err_bar > 1e-8:
            fails.append(f"{retr}: mean rel err {row.err_bar:.1e}")
        for res in results:
            slope, r2 = _tail_fit(res.trace.f, f_star)
            worst_r2 = min(worst_r2, r2)
            if not (slope < 0.0 and r2 >= 0.9):
                fails.append(f"{retr} run {res.run_id}: slope={slope:.2f} R2={r2:.2f}")
    ok = not fails
    report(capfd, 7, ok,
           f"7 retractions x 20 seeds all converge; mean rel err <= "
           f"{worst_err:.1e}; tail log-linear fit min R2 = {worst_r2:.2f}"
           + ("" if ok else f"; failures: {fails[:4]}"))


@pytest.mark.gate
def test_criterion_8_paper_scale_pca(capfd):
    if os.environ.get("PAPER_SCALE") != "1":
        with capfd.disabled():
            print("\ncriterion  8: SKIP  full-scale spot check (set PAPER_SCALE=1 "
                  "to run; criterion 7 gates instead)")
        pytest.skip("full-scale run gated by PAPER_SCALE=1")
    spec = ExperimentSpec(problem="pca", method="s-svrg", retraction="pd",
                          d=1000, n=10000, r=10, rho=0.0, step="fixed:1.2",
                          batch_frac=0.01, inner_k="auto", max_epochs=200,
                          grad_tol=1e-6, runs=3, seed=0)
    row, _ = run_experiment(spec)
    ok = row.successes == row.runs and 30.0 <= row.epoch_avg <= 90.0
    report(capfd, 8, ok,
           f"full-scale pd fixed-step: mean epochs {row.epoch_avg:.1f} in [30, 90]")


@pytest.mark.gate
def test_criterion_9_desk_mc(capfd):
    spec = DESK_MC
    problem = build_problem(spec)
    assert problem.num_observed == (spec.n + spec.d - spec.r) * spec.r ** 2
    m_norm = float(np.linalg.norm(problem.M_true))
    good = 0
    floor_hits = 0
    recovery = []
    _, results = run_experiment(spec, problem)
    epochs = [res.epochs for res in results]
    for res in results:
        if res.status != "GradTol" or res.final_f > 1e-10:
            continue
        floor_hits += 1
        rel = float(np.linalg.norm(problem.fitted_matrix(res.X.X) - problem.M_true)) / m_norm
        recovery.append(rel)
        if rel <= 1e-4:
            good += 1
    ok = good >= 18
    # the per-run epochs, which a change that moves MC bits reports
    spread = (f"epochs min/median/max/sum {min(epochs)}/{np.median(epochs):g}/"
              f"{max(epochs)}/{sum(epochs)}")
    detail = (f"mc jd: {floor_hits}/20 reached f <= 1e-10; {good}/20 with "
              f"recovery <= 1e-4 (max {max(recovery):.1e}); {spread}" if recovery else
              f"mc jd: no run reached the objective floor; {spread}")
    report(capfd, 9, ok, detail)


def test_criterion_10_determinism(capfd, tmp_path):
    spec = ExperimentSpec(problem="pca", method="s-svrg-bb", retraction="qr",
                          d=30, n=60, r=3, step="bb", batch_frac=0.25,
                          inner_k="10", max_epochs=50, grad_tol=1e-8,
                          runs=2, seed=17, out=str(tmp_path / "a"))
    run_experiment(spec)
    run_experiment(replace(spec, out=str(tmp_path / "b")))
    identical = True
    for name in ("trace_run000.csv", "trace_run001.csv"):
        ta = (tmp_path / "a" / name).read_text().splitlines()
        tb = (tmp_path / "b" / name).read_text().splitlines()
        for la, lb in zip(ta, tb):
            if la.startswith("#"):
                continue
            # wall-clock (last column) is excluded from the guarantee
            if la.rsplit(",", 1)[0] != lb.rsplit(",", 1)[0]:
                identical = False
        if len(ta) != len(tb):
            identical = False
    report(capfd, 10, identical,
           "re-run with same seed reproduces every numeric trace column "
           "bit-identically (wall-clock excluded)")


@pytest.mark.gate
def test_criterion_11_lojasiewicz_probe(capfd, desk_pca_runs):
    f_star, cells = desk_pca_runs
    worst = 0.0
    bad = []
    for retr, (_, results) in cells.items():
        for res in results:
            ratios = loj_ratio_probe(res.trace.f[-20:], res.trace.grad_norm[-20:],
                                     f_star)
            valid = ratios[~np.isnan(ratios)]
            if len(valid) == 0 or not np.all(np.isfinite(valid)):
                bad.append(f"{retr} run {res.run_id}")
                continue
            worst = max(worst, float(valid.max()))
    ok = not bad and np.isfinite(worst) and worst < 1e8
    report(capfd, 11, ok,
           f"|f-f*|^(1/2)/|grad| finite on every seed's last 20 epochs; "
           f"max ratio {worst:.3g}" + ("" if ok else f"; bad: {bad[:4]}"))


def test_sgd_sibling_decreasing_trend():
    # non-gating companion to criterion 7: the plain stochastic method
    # trends downward on the same problem even though it plateaus early
    inst = pca_generate(200, 2000, 5, seed=0)
    # N = K * max_epochs = 2000 steps of a fixed size
    cfg = SvrgConfig(retraction=RetractionKind.QR, step_mode=Fixed(0.0075), seed=0, r=5)
    X0 = qr_positive(np.random.default_rng(3).standard_normal((200, 5)))[0]
    _, trace = run_s_sgd(inst, cfg, X0=X0)
    assert trace.f[-1] < trace.f[0]
    assert np.mean(trace.f[-3:]) < np.mean(trace.f[:3])
