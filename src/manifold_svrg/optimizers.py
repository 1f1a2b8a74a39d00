"""Stochastic Riemannian optimizers without vector transport.

Three methods share one mechanical core, _step: take a Euclidean gradient
estimate G, map it through d_rho into the tangent space, and retract along
-tau * G^R.  The variance-reduced method anchors minibatch gradients to a
full gradient recomputed once per epoch, the plain stochastic method uses
single components with a constant step, and the BB variant replaces the
fixed step with a safeguarded spectral estimate divided by the inner
iteration count.  For the gradient-projection and gradient-reflection
retractions the Euclidean estimate feeds the retraction directly and G^R
is never formed.
"""

import enum
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoFeasibleC, NonFiniteValue
from .linalg import qr_positive
from .manifold import StiefelPoint, d_rho_array, feasibility_error, nu_of_rho
# retract_gp_array and retract_gr_array are reached through retract_array;
# they stay importable here because perfbench/spans.py wraps the names
# this module exposes
from .retractions import (GRADIENT_KINDS, RetractionKind,  # noqa: F401
                          retract_array, retract_gp_array, retract_gr_array)

__all__ = [
    "Fixed",
    "BB",
    "Theorem1",
    "OutputMode",
    "SvrgConfig",
    "Schedule",
    "RunTrace",
    "run_s_svrg",
    "run_s_sgd",
    "run_rgd",
    "bb_step",
    "theorem1_schedule",
    "gamma_fn",
    "select_output",
    "warm_start",
    "recursion_lemma_check",
    "loj_ratio_probe",
    "DRIFT_TOL",
]

DRIFT_TOL = 1e-10

# stream namespaces keep optimizer draws disjoint from data-generator draws
# (both are keyed by the same user seed)
_STREAM_SVRG = 1
_STREAM_SGD = 2
_STREAM_WARM = 3

# the BB safeguard and first-epoch estimate (see BB)
_BB_TAU_MIN = 1e-8
_BB_TAU_MAX = 1e8
_BB_TAU_INIT = 1.0


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class Fixed:
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("step size must be nonnegative")


@dataclass(frozen=True)
class BB:
    """Safeguarded long BB step divided by the inner iteration count.

    The raw estimate is clipped to [1e-8, 1e8]; the first epoch, which has
    no difference pair yet, takes 1 / K.
    """


@dataclass(frozen=True)
class Theorem1:
    """Analysis-driven schedule; mu trades inner count against batch size."""

    mu: float
    kappa: float

    def __post_init__(self):
        if not (0.0 <= self.mu <= 2.0 / 3.0):
            raise ValueError("mu must lie in [0, 2/3]")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


class OutputMode(enum.Enum):
    LAST_ITERATE = "last"
    SAMPLED = "sampled"           # categorical over inner iterates, p ~ Delta


@dataclass(frozen=True)
class SvrgConfig:
    retraction: RetractionKind = RetractionKind.PD
    rho: float = 0.0
    step_mode: object = Fixed(0.1)
    K: int = 10
    batch: int = 1
    max_epochs: int = 200
    grad_tol: float = 1e-6
    output_mode: OutputMode = OutputMode.LAST_ITERATE
    seed: int = 0
    r: int = 5
    bb_double: bool = False  # Grassmann completion doubles the raw BB value

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.batch < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")


@dataclass
class RunTrace:
    """Per-epoch records plus counters; wall seconds carry no guarantees."""

    epoch: list = field(default_factory=list)
    f: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    step_size: list = field(default_factory=list)
    ifo_calls: list = field(default_factory=list)
    ro_calls: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    status: str = "MaxEpochs"
    events: list = field(default_factory=list)

    def record(self, s, fval, gnorm, tau, ifo, ro, t0):
        self.epoch.append(s)
        self.f.append(fval)
        self.grad_norm.append(gnorm)
        self.step_size.append(tau)
        self.ifo_calls.append(ifo)
        self.ro_calls.append(ro)
        self.seconds.append(time.perf_counter() - t0)

    @property
    def epochs_run(self):
        return self.epoch[-1] if self.epoch else 0


# ---------------------------------------------------------------------------
# schedule machinery

def gamma_fn(z, i):
    """Gamma(z, i) = ((1+z)^(i-1) - 1)/z, the geometric accumulation factor."""
    if i < 1:
        raise ValueError("i must be at least 1")
    if z == 0.0:
        return float(i - 1)
    return (math.pow(1.0 + z, i - 1) - 1.0) / z


@dataclass(frozen=True)
class Schedule:
    K: int
    batch: int
    beta: float
    tau: float
    c: float
    Delta: np.ndarray
    p: np.ndarray
    L_tilde: float
    L_hat: float

    def __post_init__(self):
        if abs(float(self.p.sum()) - 1.0) > 1e-12:
            raise ValueError("sampling probabilities must sum to 1")


def _solve_c(ratio, tol=1e-14):
    """Largest c in (0, 1) with ratio * exp(c^2 + 2c) * c <= 1, by bisection."""
    def g(c):
        return ratio * math.exp(c * c + 2.0 * c) * c - 1.0

    if g(1e-8) > 0.0:
        raise NoFeasibleC(f"constant ratio {ratio:g} admits no step constant c")
    hi = 1.0 - 1e-12
    if g(hi) <= 0.0:
        return hi
    lo = 1e-8
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def theorem1_schedule(n, mu, kappa, L, C, L1, L2, r, nu):
    """Inner count, batch size, and step from the convergence analysis.

    K = ceil((kappa n)^(1/(3(1-mu)))), batch = ceil(K^(2-3mu)),
    beta = sqrt(L_tilde) L / nu * K^(mu-1), tau = c nu / (sqrt(L_tilde) L) * K^(-mu),
    with c the largest feasible root of the exponential side condition.
    Raises NoFeasibleC when the constants leave no feasible c or when the
    resulting per-step decrease table is not positive (step too large for
    the theory; clipping would hide the inconsistency).
    """
    if not (0.0 <= mu <= 2.0 / 3.0):
        raise ValueError("mu must lie in [0, 2/3]")
    K = math.ceil((kappa * n) ** (1.0 / (3.0 * (1.0 - mu))))
    batch = math.ceil(K ** (2.0 - 3.0 * mu))
    L_tilde = L1 * L1 + 4.0 * L2 * math.sqrt(r)
    L_hat = 2.0 * L2 * C + L1 * L1 * L
    root = math.sqrt(L_tilde) * L
    c = _solve_c(L_hat / root)
    beta = (root / nu) * K ** (mu - 1.0)
    tau = (c * nu / root) * K ** (-mu)

    var_term = L_tilde * L * L * tau * tau / (nu * nu * batch)
    z = 2.0 * beta * tau + var_term
    amp = 1.0 + 2.0 / (L_tilde * beta * tau)
    Delta = np.empty(K)
    for k in range(K):
        gk = gamma_fn(z, K - k)
        Delta[k] = tau * (nu - 0.5 * L_hat * tau * (1.0 + amp * var_term * gk))
    if np.any(Delta <= 0.0):
        raise NoFeasibleC("decrease table has nonpositive entries; constants inconsistent")
    p = np.zeros(K + 1)
    p[:K] = Delta / Delta.sum()
    return Schedule(K=K, batch=batch, beta=beta, tau=tau, c=c,
                    Delta=Delta, p=p, L_tilde=L_tilde, L_hat=L_hat)


def select_output(iterates, p_sk, mode, rng):
    """Pick the epoch's representative iterate (the last one, or a draw)."""
    if mode is OutputMode.LAST_ITERATE:
        return iterates[-1]
    p = np.asarray(p_sk, dtype=float)
    if len(p) != len(iterates):
        raise ValueError("need one probability per stored iterate")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    k = int(rng.choice(len(p), p=p / p.sum()))
    return iterates[k]


# ---------------------------------------------------------------------------
# gradient estimators and steps

def bb_step(X_s, X_prev, grad_s, grad_prev, K, double):
    """Safeguarded long BB estimate over outer iterates, divided by K.

    double (Grassmann runs) doubles the raw estimate before safeguarding; a
    vanishing curvature pairing falls back to the upper safeguard.
    """
    S = X_s - X_prev
    Y = grad_s - grad_prev
    sy = abs(float(np.sum(S * Y)))
    if sy <= 1e-300:
        tau_lbb = _BB_TAU_MAX
    else:
        tau_lbb = float(np.sum(S * S)) / sy
        if double:
            tau_lbb *= 2.0
    return max(_BB_TAU_MIN, min(tau_lbb, _BB_TAU_MAX)) / K


def _step(kind, X, G, tau, rho):
    """One retraction-only update of X along the Euclidean gradient estimate G.

    gp and gr retract along G itself; every other kind retracts along the
    descent direction -d_rho(X, G).  No vector transport is involved.
    """
    E = G if kind in GRADIENT_KINDS else -d_rho_array(X, G, rho)
    return retract_array(kind, X, E, tau)


def _inner_step(problem, kind, X, X0, egrad0, idx, tau, rho):
    # one variance-reduced update; returns the new iterate array
    if tau == 0.0:
        return X  # exact stationarity, no retraction roundoff
    # at the anchor itself (each epoch's first step, every step of rgd) the
    # batch correction is exactly zero, so its oracle calls are skipped; the
    # caller still charges them to the IFO count
    G = egrad0 if X is X0 else egrad0 + problem.batch_egrad_diff(X, X0, idx)
    return _step(kind, X, G, tau, rho)


def _single_sample_path(problem, config, X, tau, N, rng, events):
    """Yield X_0 = X, ..., X_N of N single-sample steps with a constant tau.

    Step j draws one component i uniformly and sets X_{j+1} to the step
    along grad f_i(X_j), re-orthonormalized (and logged in events) once it
    drifts off the manifold.
    """
    yield X
    for j in range(N):
        i = int(rng.integers(problem.n))
        X = _step(config.retraction, X, problem.component_egrad(X, i), tau, config.rho)
        if feasibility_error(X) > DRIFT_TOL:
            X = qr_positive(X)[0]
            events.append(("reorthonormalized", j))
        yield X


def _start_point(problem, config, X0, rng):
    """The start array: a validated copy of X0, or a random draw from rng."""
    if X0 is None:
        return qr_positive(rng.standard_normal((problem.d, config.r)))[0]
    if not isinstance(X0, StiefelPoint):
        X0 = StiefelPoint(X0)
    if X0.shape != (problem.d, config.r):
        raise ValueError(f"X0 has shape {X0.shape}, expected ({problem.d}, {config.r})")
    return X0.X.copy()


# ---------------------------------------------------------------------------
# the three methods

def run_s_svrg(problem, config: SvrgConfig, X0=None):
    """Epoch-anchored variance-reduced descent (the main method).

    Per epoch: full Euclidean gradient at the anchor, a step size from the
    configured mode, then K minibatch steps sampled with replacement.  The
    trace records the state at each epoch start; the loop stops once the
    Riemannian gradient norm at an anchor falls below grad_tol or after
    max_epochs epochs.  IFO counts n per full gradient and 2|batch| per
    inner step, also for the first step of an epoch, whose zero correction
    is never evaluated; RO counts one per retraction.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SVRG)))
    X = _start_point(problem, config, X0, rng)
    n = problem.n
    kind = config.retraction
    rho = config.rho
    mode = config.step_mode

    K, batch = config.K, config.batch
    schedule = None
    if isinstance(mode, Theorem1):
        consts = problem.constants()
        schedule = theorem1_schedule(n, mode.mu, mode.kappa, consts.L, consts.C,
                                     L1=1.0, L2=0.5, r=config.r, nu=nu_of_rho(rho))
        K, batch = schedule.K, schedule.batch

    trace = RunTrace()
    ifo = 0
    ro = 0
    X_prev = None
    grad_prev = None
    sample_inner = config.output_mode is not OutputMode.LAST_ITERATE

    for s in range(config.max_epochs):
        f0, egrad0 = problem.full_value_egrad(X)
        ifo += n
        grad0 = d_rho_array(X, egrad0, rho)
        gnorm = float(np.linalg.norm(grad0))
        if not (np.isfinite(f0) and np.isfinite(gnorm)):
            raise NonFiniteValue(f"objective or gradient diverged at epoch {s}")

        if isinstance(mode, Fixed):
            tau = mode.tau
        elif isinstance(mode, BB):
            if X_prev is None:
                tau = _BB_TAU_INIT / K
            else:
                tau = bb_step(X, X_prev, grad0, grad_prev, K, config.bb_double)
        else:
            tau = schedule.tau

        trace.record(s, f0, gnorm, tau, ifo, ro, t0)
        if gnorm <= config.grad_tol:
            trace.status = "GradTol"
            break

        X_prev, grad_prev = X, grad0
        anchor = X
        inner = [X] if sample_inner else None
        # one draw for the epoch's K batches: numpy's PCG64 generator gives
        # the same indices, and the same state after them, as K draws of
        # one batch each (TestMinibatchDraw pins this)
        for idx in rng.integers(n, size=(K, batch)):
            X = _inner_step(problem, kind, X, anchor, egrad0, idx, tau, rho)
            ifo += 2 * batch
            ro += 1
            if sample_inner:
                inner.append(X)

        if sample_inner:
            if schedule is not None:
                p = schedule.p
            else:
                # no decrease table outside the analysis mode: uniform over
                # the K fresh iterates, never the anchor slot
                p = np.zeros(K + 1)
                p[1:] = 1.0 / K
            X = select_output(inner, p, config.output_mode, rng)

        if feasibility_error(X) > DRIFT_TOL:
            X = qr_positive(X)[0]
            trace.events.append(("reorthonormalized", s))

    return StiefelPoint(X), trace


def run_s_sgd(problem, config: SvrgConfig, N, X0=None, tau=None, record_every=None):
    """Single-sample stochastic descent with a constant theory step.

    tau defaults to min(nu / L_hat, 1 / (sigma sqrt(N))), where sigma is the
    largest deviation of 100 single-sample Riemannian gradients from the
    full one at the start point.  Returns the iterate at an index drawn
    uniformly from {0, ..., N-1} up front, which is the estimator the
    analysis speaks about.
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SGD)))
    X = _start_point(problem, config, X0, rng)
    n = problem.n
    rho = config.rho

    j_bar = int(rng.integers(N))
    ifo = 0
    trace = RunTrace()
    trace.status = "Completed"

    if tau is None:
        consts = problem.constants()
        L_hat = 2.0 * 0.5 * consts.C + 1.0 * consts.L  # polar-style (L1, L2) = (1, 1/2)
        _, egrad_full = problem.full_value_egrad(X)
        g_full = d_rho_array(X, egrad_full, rho)
        ifo += n
        sigma = 1e-300
        for _ in range(100):
            i = int(rng.integers(n))
            gi = d_rho_array(X, problem.component_egrad(X, i), rho)
            ifo += 1
            sigma = max(sigma, float(np.linalg.norm(gi - g_full)))
        tau = min(nu_of_rho(rho) / L_hat, 1.0 / (sigma * math.sqrt(N)))

    if record_every is None:
        record_every = max(1, N // 100)

    # X_0 ... X_{N-1}: step j costs one IFO and one RO call
    path = _single_sample_path(problem, config, X, tau, N - 1, rng, trace.events)
    for j, X in enumerate(path):
        if j == j_bar:
            X_out = X
        if j % record_every == 0:
            f, egrad = problem.full_value_egrad(X)
            gn = float(np.linalg.norm(d_rho_array(X, egrad, rho)))
            if not (np.isfinite(f) and np.isfinite(gn)):
                raise NonFiniteValue(f"objective or gradient diverged at step {j}")
            trace.record(j, f, gn, tau, ifo + j, j, t0)
    return StiefelPoint(X_out), trace


def run_rgd(problem, config: SvrgConfig, X0=None):
    """Deterministic full-gradient baseline under the same retraction."""
    cfg = replace(config, K=1, batch=problem.n)
    return run_s_svrg(problem, cfg, X0=X0)


def warm_start(problem, config: SvrgConfig) -> StiefelPoint:
    """Seeded random orthonormal start refined by K single-sample steps.

    The same seed yields the same start for every method, so paired
    comparisons share initial conditions.  The refinement step is 1/(2L),
    small relative to the component curvature.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_WARM)))
    X = _start_point(problem, config, None, rng)
    tau = 0.5 / problem.constants().L
    *_, X = _single_sample_path(problem, config, X, tau, config.K, rng, [])
    return StiefelPoint(X)


def recursion_lemma_check(a_seq, b, c, d, a_coef, f0=0.0):
    """Numeric check of the telescoped decrease bound.

    Builds the recursions with equality,

        f_{k+1} = f_k - c a_k + d b_k,   b_{k+1} = (1 + b) b_k + a_coef a_k,

    from b_0 = 0 over K = len(a_seq) steps, and tests f_K <= f_0 - sum_k
    Delta_k a_k with Delta_k = c - a_coef d Gamma(b, K - k).  Returns
    (holds, f_K, bound).
    """
    a_seq = np.asarray(a_seq, dtype=float)
    K = len(a_seq)
    fk = f0
    bk = 0.0
    for k in range(K):
        fk_next = fk - c * a_seq[k] + d * bk
        bk = (1.0 + b) * bk + a_coef * a_seq[k]
        fk = fk_next
    bound = f0 - sum((c - a_coef * d * gamma_fn(b, K - k)) * a_seq[k]
                     for k in range(K))
    return fk <= bound + 1e-9 * max(1.0, abs(bound)), fk, bound


def loj_ratio_probe(f_values, grad_norms, f_limit):
    """Ratios |f - f_limit|^(1/2) / ||grad f||, NaN where ||grad f|| < 1e-12.

    A bounded tail is consistent with a local gradient-dominance inequality;
    no constant is asserted because none is computable from a single run.
    """
    f_values = np.asarray(f_values, dtype=float)
    grad_norms = np.asarray(grad_norms, dtype=float)
    out = np.full(len(f_values), np.nan)
    ok = grad_norms >= 1e-12
    out[ok] = np.sqrt(np.abs(f_values[ok] - f_limit)) / grad_norms[ok]
    return out
