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
import os
import statistics
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import __version__
from .errors import NoConvergentTau
from .optimizers import (BB, Fixed, OutputMode, SvrgConfig, Theorem1,
                         run_rgd, run_s_sgd, run_s_svrg, warm_start)
from .problems import McInstance, PcaInstance, mc_generate, pca_generate
from .retractions import RetractionKind

GENERATOR = "numpy.random.PCG64"

__all__ = [
    "ExperimentSpec",
    "SummaryRow",
    "RunResult",
    "run_experiment",
    "grid_tune",
    "emit_table",
    "parse_summary_csv",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("run_id", "epoch", "f", "grad_norm", "step_size",
                 "ifo_calls", "ro_calls", "seconds")


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str = "pca"          # pca | mc
    method: str = "s-svrg-bb"     # s-svrg | s-svrg-bb | s-sgd | rgd
    retraction: str = "pd"
    d: int = 200
    n: int = 2000
    r: int = 5
    rho: float = 0.0
    step: str = "bb"              # fixed:<tau> | bb | thm1:<mu>,<kappa>
    batch_frac: float = 0.01
    inner_k: str = "auto"         # iteration count or "auto" = 5 / batch_frac
    max_epochs: int = 200
    grad_tol: float = 1e-6
    runs: int = 20
    seed: int = 0
    cond: float = 10.0            # mc ground-truth condition number
    out: str = None               # directory for CSVs; None skips writing

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if min(self.d, self.n, self.r) < 1:
            raise ValueError(f"d, n and r must be at least 1, got {self.d}, {self.n}, {self.r}")
        if self.r > self.d:
            raise ValueError(f"r = {self.r} exceeds d = {self.d}")
        if not 0.0 < self.batch_frac <= 1.0:
            raise ValueError(f"batch_frac = {self.batch_frac} outside (0, 1]")
        if self.problem not in ("pca", "mc"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.method not in ("s-svrg", "s-svrg-bb", "s-sgd", "rgd"):
            raise ValueError(f"unknown method {self.method!r}")
        RetractionKind.from_name(self.retraction)
        parse_step(self.step)

    def config_hash(self):
        payload = repr(sorted((k, v) for k, v in asdict(self).items() if k != "out"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunResult:
    run_id: int
    seed: int
    status: str
    epochs: int
    final_f: float
    final_grad: float
    seconds: float
    trace: object
    error: str = None          # "<ExcType>: <message>" for a failed run


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


def parse_step(step):
    """Decode a step-rule string into a step-mode object."""
    if step == "bb":
        return BB()
    if step.startswith("fixed:"):
        return Fixed(float(step.split(":", 1)[1]))
    if step.startswith("thm1:"):
        mu, kappa = step.split(":", 1)[1].split(",")
        return Theorem1(float(mu), float(kappa))
    raise ValueError(f"unknown step rule {step!r}")


def build_problem(spec: ExperimentSpec):
    if spec.problem == "pca":
        return PcaInstance(pca_generate(spec.d, spec.n, spec.seed), spec.r)
    return mc_generate(spec.d, spec.n, spec.r, spec.cond, spec.seed)


def resolve_inner_k(spec: ExperimentSpec):
    if str(spec.inner_k) == "auto":
        return max(1, round(5.0 / spec.batch_frac))
    return int(spec.inner_k)


def build_config(spec: ExperimentSpec, run_seed):
    return SvrgConfig(
        retraction=RetractionKind.from_name(spec.retraction),
        rho=spec.rho,
        step_mode=parse_step(spec.step),
        K=resolve_inner_k(spec),
        batch=max(1, round(spec.batch_frac * spec.n)),
        max_epochs=spec.max_epochs,
        grad_tol=spec.grad_tol,
        seed=run_seed,
        r=spec.r,
        bb_double=(spec.problem == "mc"),
    )


def reference_value(spec: ExperimentSpec, problem):
    """Target objective for the relative-error column.

    PCA has an exact eigen-oracle optimum; completion of exact-rank data
    has optimum 0 on the observed objective.
    """
    if isinstance(problem, PcaInstance):
        return problem.optimum()[0]
    return 0.0


def _single_run(problem, spec, run_id):
    cfg = build_config(spec, spec.seed + run_id)
    X0 = warm_start(problem, cfg)
    if spec.method == "rgd":
        X, trace = run_rgd(problem, cfg, X0=X0)
    elif spec.method == "s-sgd":
        N = cfg.K * cfg.max_epochs
        X, trace = run_s_sgd(problem, cfg, N=N, X0=X0)
    else:
        if spec.method == "s-svrg-bb" and not isinstance(cfg.step_mode, BB):
            cfg = replace(cfg, step_mode=BB())
        if spec.method == "s-svrg" and isinstance(cfg.step_mode, BB):
            raise ValueError("s-svrg needs a fixed or thm1 step rule; use s-svrg-bb for bb")
        X, trace = run_s_svrg(problem, cfg, X0=X0)
    converged = trace.status == "GradTol"
    return RunResult(
        run_id=run_id,
        seed=cfg.seed,
        status=trace.status,
        epochs=(trace.epoch[-1] if trace.epoch else 0) if converged else cfg.max_epochs,
        final_f=trace.f[-1],
        final_grad=trace.grad_norm[-1],
        seconds=trace.seconds[-1],
        trace=trace,
    ), X


def _csv_header(spec, seed):
    """The four '#' reproducibility lines that open every CSV the harness writes."""
    return (f"# generator={GENERATOR}\n# seed={seed}\n"
            f"# config_hash={spec.config_hash()}\n# version={__version__}\n")


def _write_trace(path, spec, result):
    with open(path, "w", newline="") as fh:
        fh.write(_csv_header(spec, result.seed))
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        tr = result.trace
        for i in range(len(tr.epoch)):
            writer.writerow([result.run_id, tr.epoch[i], repr(tr.f[i]),
                             repr(tr.grad_norm[i]), repr(tr.step_size[i]),
                             tr.ifo_calls[i], tr.ro_calls[i], f"{tr.seconds[i]:.6f}"])


def run_experiment(spec: ExperimentSpec, problem=None):
    """Execute all seeded runs of one experiment cell.

    Returns (SummaryRow, list of RunResult).  Failed runs (optimizer
    errors) are kept in the result list with their status and message;
    epoch statistics cover converged runs only and the success count says
    how many.
    """
    if problem is None:
        problem = build_problem(spec)
    f_star = reference_value(spec, problem)
    if spec.out is not None:
        os.makedirs(spec.out, exist_ok=True)

    results = []
    for run_id in range(spec.runs):
        try:
            result, _ = _single_run(problem, spec, run_id)
        except Exception as exc:  # keep going; the row reports the failure
            result = RunResult(run_id=run_id, seed=spec.seed + run_id,
                               status=f"Failed:{type(exc).__name__}",
                               epochs=spec.max_epochs, final_f=float("nan"),
                               final_grad=float("nan"), seconds=0.0, trace=None,
                               error=f"{type(exc).__name__}: {exc}")
        results.append(result)
        if spec.out is not None and result.trace is not None:
            _write_trace(os.path.join(spec.out, f"trace_run{run_id:03d}.csv"),
                         spec, result)

    good = [r for r in results if r.status == "GradTol"]
    scored = [r for r in results if r.trace is not None]
    # a zero reference (exact-rank completion) makes the error absolute
    denom = abs(f_star) if abs(f_star) > 0 else 1.0
    epochs = [r.epochs for r in good] or [r.epochs for r in results]
    mode = parse_step(spec.step)
    row = SummaryRow(
        problem=spec.problem,
        method=spec.method,
        retraction=spec.retraction,
        tau_star=mode.tau if isinstance(mode, Fixed) else float("nan"),
        runs=spec.runs,
        successes=len(good),
        epoch_min=min(epochs),
        epoch_avg=statistics.mean(epochs),
        epoch_max=max(epochs),
        epoch_std=statistics.pstdev(epochs) if len(epochs) > 1 else 0.0,
        nrm_bar=float(np.mean([r.final_grad for r in scored])) if scored else float("nan"),
        err_bar=float(np.mean([abs(r.final_f - f_star) / denom for r in scored]))
        if scored else float("nan"),
        t_bar=float(np.mean([r.seconds for r in scored])) if scored else float("nan"),
    )
    if spec.out is not None:
        with open(os.path.join(spec.out, "summary.csv"), "w", newline="") as fh:
            fh.write(emit_table([row], spec)[1])
    return row, results


def grid_tune(spec: ExperimentSpec, tau_grid):
    """Pick the fixed step minimizing average epochs with every run converged.

    Ties break toward the smaller step.  Raises NoConvergentTau when no
    grid point converges all of its runs.
    """
    if not tau_grid:
        raise ValueError("empty step grid")
    problem = build_problem(spec)
    best = None
    for tau in sorted(tau_grid):
        cell = replace(spec, step=f"fixed:{tau}", method="s-svrg", out=None)
        row, _ = run_experiment(cell, problem=problem)
        if row.successes == row.runs:
            if best is None or row.epoch_avg < best[1].epoch_avg:
                best = (tau, row)
    if best is None:
        raise NoConvergentTau(f"no step in {sorted(tau_grid)} converged all {spec.runs} runs")
    return best


SUMMARY_FIELDS = ("problem", "method", "retraction", "tau_star", "runs",
                  "successes", "epoch_min", "epoch_avg", "epoch_max",
                  "epoch_std", "nrm_bar", "err_bar", "t_bar")


def emit_table(rows, spec=None):
    """Render summary rows as an aligned text table plus CSV text.

    The error column uses one-significant-digit scientific notation; the
    CSV keeps full precision and round-trips through parse_summary_csv.
    Given the spec, the CSV opens with the trace files' '#' header; that
    text is what run_experiment writes as summary.csv.
    """
    if not rows:
        raise ValueError("need at least one summary row")
    headers = ("method", "retr", "tau*", "epoch(min/avg/max/std)", "nrm", "err", "t")
    lines = []
    for row in rows:
        tau = "-" if row.tau_star != row.tau_star else f"{row.tau_star:g}"
        lines.append((
            row.method, row.retraction, tau,
            f"{row.epoch_min}/{row.epoch_avg:.1f}/{row.epoch_max}/{row.epoch_std:.1f}",
            f"{row.nrm_bar:.0e}", f"{row.err_bar:.0e}", f"{row.t_bar:.2f}",
        ))
    widths = [max(len(headers[j]), max(len(ln[j]) for ln in lines))
              for j in range(len(headers))]
    text = "  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n"
    for ln in lines:
        text += "  ".join(c.ljust(w) for c, w in zip(ln, widths)) + "\n"

    buf = io.StringIO()
    if spec is not None:
        buf.write(_csv_header(spec, spec.seed))
    writer = csv.writer(buf)
    writer.writerow(SUMMARY_FIELDS)
    for row in rows:
        d = asdict(row)
        writer.writerow([repr(d[k]) if isinstance(d[k], float) else d[k]
                         for k in SUMMARY_FIELDS])
    return text, buf.getvalue()


def parse_summary_csv(text):
    """Read summary rows back from CSV text (skipping '#' header lines)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    rows = []
    for rec in reader:
        rows.append(SummaryRow(
            problem=rec["problem"], method=rec["method"],
            retraction=rec["retraction"], tau_star=float(rec["tau_star"]),
            runs=int(rec["runs"]), successes=int(rec["successes"]),
            epoch_min=int(rec["epoch_min"]), epoch_avg=float(rec["epoch_avg"]),
            epoch_max=int(rec["epoch_max"]), epoch_std=float(rec["epoch_std"]),
            nrm_bar=float(rec["nrm_bar"]), err_bar=float(rec["err_bar"]),
            t_bar=float(rec["t_bar"]),
        ))
    return rows
