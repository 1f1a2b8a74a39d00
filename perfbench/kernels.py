"""Isolated, warmed per-call timings of the in-loop kernels.

Each kernel is called alone in a tight loop at the workload's shapes, so
its time can be set beside the traced in-loop mean of the same layer: the
gap between the two is what the surrounding loop (cache state, BLAS
thread wake-up) adds.
"""

import statistics
import time

import numpy as np

from manifold_svrg import retractions
from manifold_svrg.harness import build_config
from manifold_svrg.linalg import expm, qr_positive
from manifold_svrg.manifold import d_rho_array
from manifold_svrg.retractions import (RetractionKind, retract_array,
                                       retract_gp_array, retract_gr_array)

from spans import RETRACTION_KINDS

WARMUP = 2
BLOCKS = 5
BLOCK_S = 0.02
STEP = 0.05     # ||t E|| of the timed step


def per_call_us(fn, *args):
    """Median over blocks of the mean per-call time, in microseconds."""
    for _ in range(WARMUP):
        fn(*args)
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        dt = time.perf_counter() - t0
        if dt >= BLOCK_S:
            break
        n = max(2 * n, int(n * BLOCK_S / max(dt, 1e-9)) + 1)
    samples = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def _retraction(kind):
    if kind is RetractionKind.GP:
        return lambda X, E, G, t: retract_gp_array(X, G, t)
    if kind is RetractionKind.GR:
        return lambda X, E, G, t: retract_gr_array(X, G, t)
    return lambda X, E, G, t: retract_array(kind, X, E, t)


def _expm_input(X, E, t):
    """The block the exp retraction hands to expm for this step.

    Replayed rather than rebuilt: its near-zero X^T E entries (about 1e-18
    when rho = 0) decide how long expm takes.
    """
    seen = []
    original = retractions.expm
    retractions.expm = lambda A: seen.append(A) or original(A)
    try:
        retract_array(RetractionKind.EXP1, X, E, t)
    finally:
        retractions.expm = original
    return seen[0]


def kernel_us(problem, spec, seed):
    """kernel.<layer>.us for every retraction, expm, d_rho and the two oracles."""
    cfg = build_config(spec, spec.seed)
    rng = np.random.default_rng(seed)
    X0 = qr_positive(rng.standard_normal((problem.d, cfg.r)))[0]
    _, G = problem.full_value_egrad(X0)
    E = -d_rho_array(X0, G, cfg.rho)
    t = STEP / float(np.linalg.norm(E))
    batch = problem.n if spec.method == "rgd" else cfg.batch
    idx = rng.integers(problem.n, size=batch)
    Xk = retract_array(RetractionKind.PD, X0, E, t)

    out = {}
    for name in RETRACTION_KINDS:
        fn = _retraction(RetractionKind.from_name(name))
        out[f"kernel.retractions.{name}.us"] = per_call_us(fn, X0, E, G, t)
    out["kernel.linalg.expm.us"] = per_call_us(expm, _expm_input(X0, E, t))
    out["kernel.manifold.d_rho.us"] = per_call_us(d_rho_array, X0, G, cfg.rho)
    out["kernel.problems.full_grad.us"] = per_call_us(problem.full_value_egrad, X0)
    out["kernel.problems.batch_diff.us"] = per_call_us(problem.batch_egrad_diff, Xk, X0, idx)
    return out
