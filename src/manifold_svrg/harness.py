"""Multi-seed experiment harness: runs, summary tables, trace CSVs.

An experiment is one (problem, method, retraction, step rule) cell run from
`runs` warm-started seeds over the same data instance.  Each run writes a
trace CSV with a reproducibility header; the cell aggregates into a
summary row shaped like the tables in benchmark reports (epoch min/avg/max/
std, mean final gradient norm, mean relative error, mean seconds).
"""

import csv
import hashlib
import io
import math
import os
import statistics
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .errors import NoConvergentTau, check_count, check_real
from .optimizers import (BB, STEP_RULES, Fixed, SvrgConfig, Theorem1, run_rgd, run_s_sgd,
                         run_s_svrg, warm_start)
from .problems import (McInstance, PcaInstance, check_cond, mc_check, mc_generate,
                       pca_check, pca_generate)

GENERATOR = "numpy.random.PCG64"

__all__ = [
    "PROBLEMS",
    "METHOD_STEPS",
    "ExperimentSpec",
    "SummaryRow",
    "RunResult",
    "run_experiment",
    "grid_tune",
    "emit_table",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("run_id", "epoch", "f", "grad_norm", "step_size",
                 "ifo_calls", "ro_calls", "seconds")

# each problem kind's instance class, the checks of (d, n, r) its generator
# makes before it draws, and the generator, called with a spec
PROBLEMS = {"pca": (PcaInstance, pca_check, lambda s: pca_generate(s.d, s.n, s.r, s.seed)),
            "mc": (McInstance, mc_check, lambda s: mc_generate(s.d, s.n, s.r, s.cond, s.seed))}

# each method's runner, called as run(problem, config, X0), and the step
# rules it runs.  s-svrg-bb is s-svrg held to bb; rgd takes one
# full-gradient step per epoch; s-sgd takes K * max_epochs single-sample
# steps of one fixed size.  Only s-svrg has the inner loop and batch that
# thm1 sizes.  The rule also picks the output: a thm1 epoch stops at X_k,
# k < K drawn with p ~ Delta, the others return the last iterate
METHOD_STEPS = {"s-svrg": (run_s_svrg, (Fixed, BB, Theorem1)),
                "s-svrg-bb": (run_s_svrg, (BB,)),
                "rgd": (run_rgd, (Fixed, BB)),
                "s-sgd": (run_s_sgd, (Fixed,))}


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str = "pca"          # one of PROBLEMS
    method: str = "s-svrg-bb"     # a key of METHOD_STEPS
    retraction: str = "pd"        # a name in RETRACTION_NAMES, kept as spelled
    d: int = 200
    n: int = 2000
    r: int = 5
    rho: float = 0.0
    step: str = "bb"              # a rule of STEP_RULES, spelled as STEP_FORMS shows
    batch_frac: float = 0.01
    inner_k: str = "auto"         # iteration count or "auto" = 5 / batch_frac
    max_epochs: int = 200
    grad_tol: float = 1e-6
    runs: int = 20
    seed: int = 0
    cond: float = 10.0            # mc ground-truth condition number
    out: str = None               # directory for CSVs; None skips writing

    def __post_init__(self):
        # each field is stored as the one check that owns it returns it, so one
        # cell has one value and one hash; inner_k may also be given as a count
        store = partial(object.__setattr__, self)
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int:
                store(f.name, check_count(f.name, v, 0 if f.name == "seed" else 1))
            elif f.name == "inner_k" and not isinstance(v, str):
                store(f.name, str(check_count(f.name, v, 1)))
            elif f.type is str and not (isinstance(v, str) or v is None and f.name == "out"):
                raise ValueError(f"{f.name} must be a str, got {v!r}")
        if self.out == "":
            raise ValueError("out must be a directory path or None, got ''")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        # the generator's checks before it draws; cond, read by mc, for any problem
        store("cond", check_cond(self.cond))
        PROBLEMS[self.problem][1](self.d, self.n, self.r)
        store("batch_frac", check_real("batch_frac", self.batch_frac, 0, 1, open_low=True))
        if self.method not in METHOD_STEPS:
            raise ValueError(f"unknown method {self.method!r}")
        # decodes the retraction, step rule and inner count and checks rho and grad_tol
        cfg = build_config(self, self.seed)
        rules = METHOD_STEPS[self.method][1]
        if not isinstance(cfg.step_mode, rules):
            forms = [STEP_FORMS[name] for name, rule in STEP_RULES.items() if rule in rules]
            raise ValueError(f"{self.method} does not run step rule {self.step!r}; "
                             f"it runs {' or '.join(forms)}")
        store("rho", cfg.rho)
        store("grad_tol", cfg.grad_tol)
        store("step", _spell_step(cfg.step_mode))
        store("inner_k", self.inner_k if self.inner_k == "auto" else str(cfg.K))

    def config_hash(self):
        payload = repr(sorted((k, v) for k, v in asdict(self).items() if k != "out"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunResult:
    """One run of a cell; status, final f, final gradient and seconds are its
    trace's, or for a run that raised Failed:<ExcType>, NaN, NaN and 0.0."""

    run_id: int                # the run's seed is the spec's seed + run_id
    max_epochs: int            # the epochs a run counts unless it stops at GradTol
    trace: object              # the run's RunTrace, None for a run that raised
    X: object                  # the StiefelPoint the run returned, None for a run that raised
    error: str = None          # "<ExcType>: <message>" for a failed run

    final_f = property(lambda self: self.trace.f[-1] if self.trace else math.nan)
    final_grad = property(lambda self: self.trace.grad_norm[-1] if self.trace else math.nan)
    seconds = property(lambda self: self.trace.seconds[-1] if self.trace else 0.0)
    status = property(lambda self: self.trace.status if self.trace
                      else "Failed:" + self.error.split(":", 1)[0])
    epochs = property(lambda self: self.trace.epoch[-1] if self.status == "GradTol"
                      else self.max_epochs)


@dataclass(frozen=True)
class SummaryRow:
    problem: str
    method: str
    retraction: str
    tau_star: float            # nan unless grid-tuned or fixed
    runs: int
    successes: int
    epoch_min: int
    epoch_avg: float
    epoch_max: int
    epoch_std: float
    nrm_bar: float
    err_bar: float
    t_bar: float

    def __post_init__(self):
        if self.successes and not (self.epoch_min <= self.epoch_avg <= self.epoch_max):
            raise ValueError("epoch statistics out of order")


# a step rule of STEP_RULES is spelled as its name, then, if its class has
# fields, a colon and one value per field, comma-separated
def _spell(name, values):
    return f"{name}:{','.join(values)}" if values else name


# each rule's form, which messages and `bench --help` show
STEP_FORMS = {name: _spell(name, [f"<{f.name}>" for f in fields(rule)])
              for name, rule in STEP_RULES.items()}


def parse_step(step):
    """Decode a step-rule string into a step-mode object; a refusal names the step."""
    name, colon, args = step.partition(":")
    rule = STEP_RULES.get(name)
    try:
        values = [float(p) for p in args.split(",")] if colon else []
    except ValueError:
        values = None
    if rule is None or values is None or len(values) != len(fields(rule)):
        form = STEP_FORMS.get(name, " | ".join(STEP_FORMS.values()))
        raise ValueError(f"step = {step!r} is not of the form {form}")
    try:
        return rule(*values)
    except ValueError as exc:
        raise ValueError(f"step = {step!r}: {exc}") from None


def _spell_step(mode):
    """The one spelling parse_step decodes to mode: its name and its fields' reprs."""
    name = next(name for name, rule in STEP_RULES.items() if type(mode) is rule)
    return _spell(name, [repr(getattr(mode, f.name)) for f in fields(mode)])


def build_problem(spec: ExperimentSpec):
    return PROBLEMS[spec.problem][2](spec)


def resolve_inner_k(spec: ExperimentSpec):
    if spec.inner_k == "auto":
        return round(5.0 / spec.batch_frac)  # batch_frac <= 1, so at least 5
    if not (spec.inner_k.isdecimal() and int(spec.inner_k) >= 1):
        raise ValueError(f"inner_k = {spec.inner_k!r} is not a positive integer or 'auto'")
    return int(spec.inner_k)


def build_config(spec: ExperimentSpec, run_seed):
    return SvrgConfig(
        retraction=spec.retraction,
        rho=spec.rho,
        step_mode=parse_step(spec.step),
        K=resolve_inner_k(spec),
        batch=max(1, round(spec.batch_frac * spec.n)),
        max_epochs=spec.max_epochs,
        grad_tol=spec.grad_tol,
        seed=run_seed,
        r=spec.r,
    )


def reference_value(spec: ExperimentSpec, problem):
    """Target objective for the relative-error column.

    PCA's f* is exact, from the covariance's eigenvalues (PcaInstance.optimum,
    solved once per instance); completion of exact-rank data has optimum 0
    on the observed objective.
    """
    return problem.optimum() if isinstance(problem, PcaInstance) else 0.0


def _single_run(problem, spec, run_id):
    cfg = build_config(spec, spec.seed + run_id)
    X, trace = METHOD_STEPS[spec.method][0](problem, cfg, X0=warm_start(problem, cfg))
    return RunResult(run_id, cfg.max_epochs, trace, X), X


def _numerics():
    """numpy's version and the BLAS it links: the one library trace bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return f"numpy={np.__version__} blas={blas}"


def _write_csv(fh, spec, seed, columns, rows):
    """Every CSV the harness writes: five '#' reproducibility lines, then
    the column row and the rows, with floats in full (repr)."""
    fh.write(f"# generator={GENERATOR}\n# seed={seed}\n"
             f"# config_hash={spec.config_hash()}\n# version={__version__}\n"
             f"# {_numerics()}\n")
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def _write_trace(path, spec, result):
    tr = result.trace
    with open(path, "w", newline="") as fh:
        _write_csv(fh, spec, spec.seed + result.run_id, TRACE_COLUMNS,
                   zip([result.run_id] * len(tr.epoch), tr.epoch, tr.f, tr.grad_norm,
                       tr.step_size, tr.ifo_calls, tr.ro_calls,
                       [f"{t:.6f}" for t in tr.seconds]))


def _mean(values):
    """The mean over a cell's runs with a trace, as a float; NaN when none has one."""
    return float(np.mean(values)) if values else math.nan


def run_experiment(spec: ExperimentSpec, problem=None):
    """Execute all seeded runs of one experiment cell.

    problem, when given, must be of the spec's kind and shape (d, n, r).
    Returns (SummaryRow, list of RunResult).  Failed runs (optimizer
    errors) are kept in the result list with their status and message.  The
    out directory, if set, is made before any data is drawn.  A
    run succeeds when the point it returns has a recorded gradient norm of
    at most grad_tol, whatever its method; epoch statistics cover the
    successes only and the success count says how many, or every run
    when none succeeds.  Every float field of the row is a float, and the
    means over runs are NaN when no run has a trace.
    """
    if spec.out is not None:
        os.makedirs(spec.out, exist_ok=True)
    if problem is None:
        problem = build_problem(spec)
    if not isinstance(problem, PROBLEMS[spec.problem][0]):
        raise ValueError(f"spec.problem = {spec.problem!r} but the problem is a "
                         f"{type(problem).__name__}")
    for name in ("d", "n", "r"):
        if getattr(problem, name) != getattr(spec, name):
            raise ValueError(f"spec.{name} = {getattr(spec, name)} but the problem has "
                             f"{name} = {getattr(problem, name)}")
    f_star = reference_value(spec, problem)

    results = []
    for run_id in range(spec.runs):
        try:
            result, _ = _single_run(problem, spec, run_id)
        except Exception as exc:  # keep going; the row reports the failure
            result = RunResult(run_id, spec.max_epochs, None, None, f"{type(exc).__name__}: {exc}")
        results.append(result)
        if spec.out is not None and result.trace is not None:
            _write_trace(os.path.join(spec.out, f"trace_run{run_id:03d}.csv"),
                         spec, result)

    good = [r for r in results if r.final_grad <= spec.grad_tol]
    scored = [r for r in results if r.trace is not None]
    # a zero reference (exact-rank completion) makes the error absolute
    denom = abs(f_star) if abs(f_star) > 0 else 1.0
    epochs = [r.epochs for r in good] or [r.epochs for r in results]
    row = SummaryRow(
        problem=spec.problem,
        method=spec.method,
        retraction=spec.retraction,
        tau_star=getattr(parse_step(spec.step), "tau", math.nan),  # a fixed step's tau
        runs=spec.runs,
        successes=len(good),
        epoch_min=min(epochs),
        epoch_avg=statistics.fmean(epochs),
        epoch_max=max(epochs),
        epoch_std=statistics.pstdev(epochs),
        nrm_bar=_mean([r.final_grad for r in scored]),
        err_bar=_mean([abs(r.final_f - f_star) / denom for r in scored]),
        t_bar=_mean([r.seconds for r in scored]),
    )
    if spec.out is not None:
        with open(os.path.join(spec.out, "summary.csv"), "w", newline="") as fh:
            fh.write(emit_table(row, spec)[1])
    return row, results


def grid_tune(spec: ExperimentSpec, tau_grid):
    """Pick the fixed step minimizing average epochs with every run converged.

    Ties break toward the smaller step.  Raises NoConvergentTau when no
    grid point converges all of its runs.  It writes no files, so a spec
    with out set is refused.
    """
    if not tau_grid:
        raise ValueError("empty step grid")
    if spec.out is not None:
        raise ValueError(f"out = {spec.out!r}, but grid_tune writes no files")
    # a method without fixed steps fails here, before any data is generated
    cells = [replace(spec, step=f"fixed:{tau}") for tau in sorted(tau_grid)]
    problem = build_problem(spec)
    rows = [run_experiment(cell, problem=problem)[0] for cell in cells]
    # min keeps the first of equals, so a tie goes to the smaller step
    best = min((row for row in rows if row.successes == row.runs),
               key=lambda row: row.epoch_avg, default=None)
    if best is None:
        raise NoConvergentTau(f"no step in {sorted(tau_grid)} converged all {spec.runs} runs")
    return best.tau_star, best


def emit_table(row, spec):
    """Render the summary row of spec's cell as aligned text plus CSV text.

    The error column uses one-significant-digit scientific notation; the
    CSV keeps every value in full (floats by repr) and opens with the
    trace files' '#' header for spec.  That text is what run_experiment
    writes as summary.csv.
    """
    headers = ("method", "retr", "tau*", "epoch(min/avg/max/std)", "nrm", "err", "t")
    tau = "-" if row.tau_star != row.tau_star else f"{row.tau_star:g}"
    cells = (row.method, row.retraction, tau,
             f"{row.epoch_min}/{row.epoch_avg:.1f}/{row.epoch_max}/{row.epoch_std:.1f}",
             f"{row.nrm_bar:.0e}", f"{row.err_bar:.0e}", f"{row.t_bar:.2f}")
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    text = "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n"
                   for line in (headers, cells))
    buf = io.StringIO()
    _write_csv(buf, spec, spec.seed, [f.name for f in fields(SummaryRow)], [astuple(row)])
    return text, buf.getvalue()
