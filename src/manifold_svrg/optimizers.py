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

import math
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import NoFeasibleC, NonFiniteValue, check_count, check_real
from .linalg import qr_positive
from .manifold import FEAS_TOL, StiefelPoint, d_rho_array, feasibility_error, nu_of_rho
# retract_gp_array and retract_gr_array are reached through retract_array;
# they stay importable here because perfbench/spans.py wraps the names
# this module exposes
from .retractions import (GRADIENT_KINDS, RetractionKind,  # noqa: F401
                          retract_array, retract_gp_array, retract_gr_array)

__all__ = [
    "Fixed",
    "BB",
    "Theorem1",
    "SvrgConfig",
    "Schedule",
    "RunTrace",
    "run_s_svrg",
    "run_s_sgd",
    "run_rgd",
    "bb_step",
    "theorem1_schedule",
    "gamma_fn",
    "warm_start",
]

# stream namespaces keep optimizer draws disjoint from data-generator draws
# (both are keyed by the same user seed)
_STREAM_SVRG = 1
_STREAM_SGD = 2
_STREAM_WARM = 3

# the BB safeguard and first-epoch estimate (see BB)
_BB_TAU_MIN = 1e-8
_BB_TAU_MAX = 1e8
_BB_TAU_INIT = 1.0

# the pd retraction's bound constants (L1, L2), which Theorem1's schedule reads
_PD_L1, _PD_L2 = 1.0, 0.5


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class Fixed:
    """A constant step tau, a real number in [0, inf), stored as a float."""

    tau: float

    def __post_init__(self):
        object.__setattr__(self, "tau", check_real("tau", self.tau, 0))


@dataclass(frozen=True)
class BB:
    """Safeguarded long BB step divided by the inner iteration count.

    The SVRG-BB step of Tan, Ma, Dai & Qian (NeurIPS 2016): the long BB
    estimate over outer iterates, clipped to [1e-8, 1e8], over K.  The
    first epoch, which has no difference pair yet, takes 1 / K.  rgd's
    epoch is one step, so its K = 1 step is the plain long BB step.
    """


@dataclass(frozen=True)
class Theorem1:
    """Analysis-driven schedule; mu trades inner count against batch size.
    mu, a real number in [0, 2/3], and kappa, one in (0, inf), are stored as floats."""

    mu: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mu", check_real("mu", self.mu, 0, 2.0 / 3.0))
        object.__setattr__(self, "kappa", check_real("kappa", self.kappa, 0, open_low=True))


# each step rule's name and class: the rules a config takes
STEP_RULES = {"fixed": Fixed, "bb": BB, "thm1": Theorem1}


@dataclass(frozen=True)
class SvrgConfig:
    """One run's settings; every method takes them as run(problem, config, X0).

    run_s_svrg reads every field.  run_rgd ignores K and batch: its epoch
    is one full-gradient step.  run_s_sgd takes a Fixed step only, runs for
    N = K * max_epochs single-sample iterates and ignores batch and
    grad_tol.  warm_start takes K refinement steps.  retraction is a
    RetractionKind or any name in RETRACTION_NAMES, stored as the kind it
    decodes to; rho and grad_tol are real numbers in [0, inf), stored as
    floats; K, batch, max_epochs and r are integers of at least 1 and seed
    one of at least 0, stored as ints.
    """

    retraction: RetractionKind = RetractionKind.PD
    rho: float = 0.0
    step_mode: object = Fixed(0.1)
    K: int = 10
    batch: int = 1
    max_epochs: int = 200
    grad_tol: float = 1e-6
    seed: int = 0
    r: int = 5

    def __post_init__(self):
        object.__setattr__(self, "retraction", RetractionKind(self.retraction))
        for name in ("rho", "grad_tol"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0))
        for name, low in (("K", 1), ("batch", 1), ("max_epochs", 1), ("seed", 0), ("r", 1)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
        if self.retraction is RetractionKind.EXP2 and self.rho > 0:
            # the Grassmann geodesic retracts only a horizontal direction,
            # and -d_rho(X, G) has a vertical part when rho > 0
            raise ValueError(f"exp2 needs rho = 0, got rho = {self.rho}")
        if type(self.step_mode) not in STEP_RULES.values():
            *rest, last = (rule.__name__ for rule in STEP_RULES.values())
            raise ValueError(f"step_mode = {self.step_mode!r} is not {', '.join(rest)} or {last}")


@dataclass
class RunTrace:
    """Per-epoch records, counters and the stop status, all filled by the run;
    seconds carry no guarantees."""

    status: str = field(init=False, default="MaxEpochs")
    epoch: list = field(init=False, default_factory=list)
    f: list = field(init=False, default_factory=list)
    grad_norm: list = field(init=False, default_factory=list)
    step_size: list = field(init=False, default_factory=list)
    ifo_calls: list = field(init=False, default_factory=list)
    ro_calls: list = field(init=False, default_factory=list)
    seconds: list = field(init=False, default_factory=list)
    events: list = field(init=False, default_factory=list)

    def record(self, s, fval, gnorm, tau, ifo, ro, t0):
        self.epoch.append(s)
        self.f.append(fval)
        self.grad_norm.append(gnorm)
        self.step_size.append(tau)
        self.ifo_calls.append(ifo)
        self.ro_calls.append(ro)
        self.seconds.append(time.perf_counter() - t0)


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
    p ~ Delta weights the epoch's K candidate outputs X_0, ..., X_{K-1}.
    Raises ValueError when kappa n <= 1 gives K = 1, whose one candidate is
    the anchor, so that no epoch would move.  Raises NoFeasibleC when the
    constants leave no feasible c or when the resulting per-step decrease
    table is not positive (step too large for the theory; clipping would
    hide the inconsistency).
    """
    mu, kappa = astuple(Theorem1(mu, kappa))  # Theorem1's checks; the values as floats
    K = math.ceil((kappa * n) ** (1.0 / (3.0 * (1.0 - mu))))
    if K < 2:
        raise ValueError(f"kappa n = {kappa * n:g} gives K = {K}: every epoch would "
                         "return its anchor")
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
    p = Delta / Delta.sum()
    return Schedule(K=K, batch=batch, beta=beta, tau=tau, c=c,
                    Delta=Delta, p=p, L_tilde=L_tilde, L_hat=L_hat)


# ---------------------------------------------------------------------------
# gradient estimators and steps

def bb_step(X_s, X_prev, grad_s, grad_prev, K):
    """Safeguarded long BB estimate over outer iterates, divided by K.

    tau = <S, S> / |<S, Y>| / K with S = X_s - X_prev and Y = grad_s -
    grad_prev, SVRG-BB's step (Tan, Ma, Dai & Qian, NeurIPS 2016); the
    estimate is clipped to [1e-8, 1e8] before the division, and a vanishing
    curvature pairing falls back to the upper safeguard.
    """
    S = X_s - X_prev
    Y = grad_s - grad_prev
    sy = abs(float(np.sum(S * Y)))
    if sy <= 1e-300:
        tau_lbb = _BB_TAU_MAX
    else:
        tau_lbb = float(np.sum(S * S)) / sy
    return max(_BB_TAU_MIN, min(tau_lbb, _BB_TAU_MAX)) / K


def _step(kind, X, G, tau, rho):
    """One retraction-only update of X along the Euclidean gradient estimate G.

    gp and gr retract along G itself; every other kind retracts along the
    descent direction -d_rho(X, G).  No vector transport is involved.
    """
    E = G if kind in GRADIENT_KINDS else -d_rho_array(X, G, rho)
    return retract_array(kind, X, E, tau)


def _reorthonormalize(X, events, at):
    """X, or its Q factor once X drifts off the manifold, logged in events
    as ("reorthonormalized", at)."""
    if feasibility_error(X) > FEAS_TOL:
        X = qr_positive(X)[0]
        events.append(("reorthonormalized", at))
    return X


def _check_finite(f, gnorm, where):
    # a diverged run stops at the first non-finite f or gradient norm it records
    if not (np.isfinite(f) and np.isfinite(gnorm)):
        raise NonFiniteValue(f"objective or gradient diverged at {where}")


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
        X = _reorthonormalize(X, events, j)
        yield X


def _check_rank(problem, config):
    if config.r != problem.r:
        raise ValueError(f"config rank r = {config.r} does not match the problem's "
                         f"r = {problem.r}")


def _start_point(problem, config, X0):
    """The start array: a copy of X0, checked for rank, orthonormality and shape."""
    _check_rank(problem, config)
    X0 = X0 if isinstance(X0, StiefelPoint) else StiefelPoint(X0)
    if X0.shape != (problem.d, config.r):
        raise ValueError(f"X0 has shape {X0.shape}, expected ({problem.d}, {config.r})")
    return X0.X.copy()


# ---------------------------------------------------------------------------
# the three methods

def run_s_svrg(problem, config: SvrgConfig, X0):
    """Epoch-anchored variance-reduced descent (the main method).

    Per epoch: full Euclidean gradient at the anchor, a step size from the
    configured mode, then K minibatch steps sampled with replacement.  The
    step rule picks the epoch's output: Theorem1 draws one of the epoch's
    iterates X_0, ..., X_{K-1} with the schedule's p ~ Delta, the iterate
    its guarantee speaks about, and the epoch stops there; Fixed and BB
    keep the last one, X_K.  The trace
    records the state at each epoch start; the loop stops once the
    Riemannian gradient norm at an anchor falls below grad_tol, or after
    max_epochs epochs with one more full gradient, so that the last row
    describes the returned point.  Every step is one _step along the
    anchor's gradient plus the batch difference; the epoch's first step is
    at the anchor, where that difference is exactly zero, so it steps along
    the anchor's gradient and evaluates no batch.  IFO counts n per full
    gradient and 2|batch| per inner step, RO one per step: all K steps of
    an epoch are charged, also the first, and under Theorem1 those past the
    drawn iterate, which are never taken.
    """
    return _run_anchored(problem, config, X0, config.K, config.batch)


def _run_anchored(problem, config, X0, K, batch):
    # run_s_svrg's epoch loop, and run_rgd's with K = 1 and an empty batch:
    # its one step is at the anchor, where the correction is exactly zero
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SVRG)))
    X = _start_point(problem, config, X0)
    n = problem.n
    rho = config.rho
    mode = config.step_mode

    # one step for the whole run, except BB's, re-estimated after the first epoch
    tau = mode.tau if isinstance(mode, Fixed) else _BB_TAU_INIT / K
    schedule = None
    if isinstance(mode, Theorem1):
        consts = problem.constants()
        schedule = theorem1_schedule(n, mode.mu, mode.kappa, consts.L, consts.C,
                                     L1=_PD_L1, L2=_PD_L2, r=config.r, nu=nu_of_rho(rho))
        K, batch, tau = schedule.K, schedule.batch, schedule.tau

    trace = RunTrace()
    ifo = ro = 0
    X_prev = grad_prev = None

    for s in range(config.max_epochs + 1):
        # the epoch's anchor: f, its gradient and the batch difference bound to it
        f0, egrad0, diff = problem.anchored(X)
        ifo += n
        grad0 = d_rho_array(X, egrad0, rho)
        gnorm = float(np.linalg.norm(grad0))
        _check_finite(f0, gnorm, f"epoch {s}")

        if isinstance(mode, BB) and X_prev is not None:
            tau = bb_step(X, X_prev, grad0, grad_prev, K)
        trace.record(s, f0, gnorm, tau, ifo, ro, t0)
        if gnorm <= config.grad_tol:
            trace.status = "GradTol"
            break
        if s == config.max_epochs:
            break  # the returned point's row; status stays MaxEpochs

        X_prev, grad_prev = X, grad0
        # one draw for the epoch's K batches: numpy's PCG64 generator gives
        # the same indices, and the same state after them, as K draws of one
        # batch each (TestMinibatchDraw pins this); an empty batch draws nothing
        batches = rng.integers(n, size=(K, batch))
        ifo += 2 * batch * K
        ro += K
        # Theorem1's output X_k: the steps past it are charged above, not taken
        out = K if schedule is None else int(rng.choice(K, p=schedule.p))
        # step k = 0 is at the anchor, where the batch correction is exactly
        # zero, so its oracle calls are skipped; tau = 0 takes no step at
        # all: exact stationarity, no retraction roundoff
        for k, idx in enumerate(batches[:out] if tau > 0 else ()):
            G = egrad0 + diff(X, idx) if k else egrad0
            X = _step(config.retraction, X, G, tau, rho)

        X = _reorthonormalize(X, trace.events, s)

    return StiefelPoint(X), trace


def run_s_sgd(problem, config: SvrgConfig, X0):
    """Single-sample stochastic descent with a constant step.

    The run's length is N = config.K * config.max_epochs, and its step the
    tau of a Fixed step_mode; any other rule raises ValueError.  Returns the
    iterate at an index drawn uniformly from {0, ..., N-1} up front, which
    is the estimator the analysis speaks about.  The trace records every
    max(1, N // 100)-th iterate X_j, then a last row, indexed N, at that
    returned point after all N - 1 steps.  Recording is not charged to the
    IFO count.
    """
    if not isinstance(config.step_mode, Fixed):
        raise ValueError(f"s-sgd takes a Fixed step only, got {config.step_mode!r}")
    t0 = time.perf_counter()
    N = config.K * config.max_epochs
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SGD)))
    X = _start_point(problem, config, X0)
    rho = config.rho
    tau = config.step_mode.tau

    j_bar = int(rng.integers(N))
    trace = RunTrace()
    every = max(1, N // 100)

    def record(j, X, steps):
        f, egrad = problem.full_value_egrad(X)
        gn = float(np.linalg.norm(d_rho_array(X, egrad, rho)))
        _check_finite(f, gn, f"step {j}")
        trace.record(j, f, gn, tau, steps, steps, t0)

    # X_0 ... X_{N-1}: step j costs one IFO and one RO call
    path = _single_sample_path(problem, config, X, tau, N - 1, rng, trace.events)
    for j, X in enumerate(path):
        if j == j_bar:
            X_out = X
        if j % every == 0:
            record(j, X, j)
    record(N, X_out, N - 1)  # the returned point's row
    trace.status = "Completed"
    return StiefelPoint(X_out), trace


def run_rgd(problem, config: SvrgConfig, X0):
    """Deterministic full-gradient baseline under the same retraction.

    run_s_svrg's epochs with one step each, along the anchor's full
    gradient: the BB step takes K = 1, and config.K and config.batch are
    not read.  That step evaluates nothing past the full gradient and draws
    nothing, so IFO counts n per full gradient and nothing else.  Theorem1
    raises ValueError.
    """
    if isinstance(config.step_mode, Theorem1):
        raise ValueError("rgd has no inner loop or batch for the Theorem1 rule to size")
    return _run_anchored(problem, config, X0, K=1, batch=0)


def warm_start(problem, config: SvrgConfig) -> StiefelPoint:
    """Seeded random orthonormal start refined by K single-sample steps.

    The start depends on the problem and on config's seed, K, retraction and
    rho, not on the method.  The refinement step is 1/(2L), small relative
    to the component curvature.
    """
    _check_rank(problem, config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_WARM)))
    X = qr_positive(rng.standard_normal((problem.d, problem.r)))[0]
    tau = 0.5 / problem.constants().L
    for X in _single_sample_path(problem, config, X, tau, config.K, rng, []):
        pass  # keeps the last iterate alone, not all K + 1
    return StiefelPoint(X)

