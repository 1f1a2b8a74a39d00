"""Command-line benchmark harness.

Subcommands: `bench run` executes a multi-seed experiment cell and writes
trace / summary CSVs, `bench tune` grid-searches a fixed step size, and
`bench verify` runs the built-in oracle and property checks.  A config
file (flat key=value lines, '#' comments) supplies defaults; explicit
flags override it.
"""

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from .errors import ManifoldSvrgError
from .harness import ExperimentSpec, emit_table, grid_tune, run_experiment


def read_config(path):
    """Flat key=value config; keys match the run flags with '-' or '_'."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _add_run_flags(p):
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--problem", choices=["pca", "mc"])
    p.add_argument("--method", choices=["s-svrg", "s-svrg-bb", "s-sgd", "rgd"])
    p.add_argument("--retraction",
                   choices=["exp", "qr", "pd", "wy", "jd", "gp", "gr", "exp2"])
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--step", help="fixed:<tau> | bb | thm1:<mu>,<kappa>")
    p.add_argument("--batch-frac", type=float, dest="batch_frac")
    p.add_argument("--inner-k", dest="inner_k",
                   help="inner iterations per epoch, or 'auto' = 5/batch-frac")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--grad-tol", type=float, dest="grad_tol")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cond", type=float)
    p.add_argument("--out")


_SPEC_TYPES = {f.name: f.type for f in fields(ExperimentSpec)}


def build_spec(args):
    values = {}
    if getattr(args, "config", None):
        values.update(read_config(args.config))
    for f in fields(ExperimentSpec):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    # config-file values arrive as strings; coerce by field default type
    defaults = ExperimentSpec()
    coerced = {}
    for key, val in values.items():
        if key not in _SPEC_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        template = getattr(defaults, key)
        if isinstance(val, str) and not isinstance(template, str):
            if isinstance(template, int):
                val = int(val)
            elif isinstance(template, float):
                val = float(val)
        coerced[key] = val
    return ExperimentSpec(**coerced)


def cmd_run(args):
    spec = build_spec(args)
    row, results = run_experiment(spec)
    text, _ = emit_table([row], spec)
    sys.stdout.write(text)
    failed = [r for r in results if r.status.startswith("Failed")]
    for r in failed:
        print(f"run {r.run_id}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def cmd_tune(args):
    spec = build_spec(args)
    grid = [float(x) for x in args.grid.split(",") if x.strip()]
    tau_star, row = grid_tune(spec, grid)
    print(f"tau_star={tau_star:g}")
    text, _ = emit_table([row], spec)
    sys.stdout.write(text)
    return 0


def cmd_verify(_args):
    """Fast oracle and invariant checks; one line per check."""
    from .manifold import TangentSpace, d_rho_array, tangent_project_array
    from .oracles import (FiniteDiffSpec, brute_force_expectation,
                          fd_retraction_derivative, gram_schmidt_qr, taylor_expm)
    from .linalg import expm, qr_positive
    from .optimizers import gamma_fn, recursion_lemma_check, theorem1_schedule
    from .problems import PcaInstance, pca_generate
    from .retractions import (FREE_KINDS, GRADIENT_KINDS, RetractionKind,
                              declared_derivative, retract_array)

    rng = np.random.default_rng(1)
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failures += 0 if ok else 1

    X = qr_positive(rng.standard_normal((30, 4)))[0]
    Z = rng.standard_normal((30, 4))
    E = tangent_project_array(X, Z, TangentSpace.STIEFEL)
    H = tangent_project_array(X, Z, TangentSpace.GRASSMANN)

    for kind in FREE_KINDS + GRADIENT_KINDS:
        # gp / gr take the Euclidean gradient Z, the free kinds a tangent direction
        direction = (Z if kind in GRADIENT_KINDS
                     else H if kind is RetractionKind.EXP2 else E)
        Y = retract_array(kind, X, direction, 0.3)
        feas = np.linalg.norm(Y.T @ Y - np.eye(4))
        deriv = fd_retraction_derivative(
            lambda t: retract_array(kind, X, direction, t), FiniteDiffSpec())
        want = declared_derivative(kind, X, direction)
        rel = np.linalg.norm(deriv - want) / np.linalg.norm(want)
        check(f"retraction {kind.value}: feasibility", feas < 1e-10, f"{feas:g}")
        check(f"retraction {kind.value}: derivative", rel < 1e-5, f"{rel:g}")

    M = rng.standard_normal((6, 6))
    check("expm vs Taylor oracle",
          np.linalg.norm(expm(M) - taylor_expm(M)) < 1e-10 * np.linalg.norm(expm(M)))
    A = rng.standard_normal((12, 5))
    Q1, R1 = qr_positive(A)
    Q2, R2 = gram_schmidt_qr(A)
    check("qr vs Gram-Schmidt oracle",
          np.linalg.norm(Q1 - Q2) < 1e-10 and np.linalg.norm(R1 - R2) < 1e-10)

    inst = PcaInstance(pca_generate(8, 5, seed=3), r=2)
    Xa = qr_positive(rng.standard_normal((8, 2)))[0]
    Xk = qr_positive(Xa + 0.05 * rng.standard_normal((8, 2)))[0]
    _, full = inst.full_value_egrad(Xa)
    mean, _ = brute_force_expectation(
        lambda b: d_rho_array(Xk, full + inst.batch_egrad_diff(Xk, Xa, np.array(b)), 0.25),
        n=5, batch_size=2)
    want = d_rho_array(Xk, inst.full_value_egrad(Xk)[1], 0.25)
    check("variance-reduced gradient unbiased (brute force)",
          np.linalg.norm(mean - want) < 1e-12)

    sched = theorem1_schedule(1000, 0.0, 1.0, L=2.0, C=2.0, L1=1.0, L2=0.5, r=5, nu=1.0)
    check("schedule arithmetic K, batch", sched.K == 10 and sched.batch == 100)
    check("schedule decrease table monotone", bool(np.all(np.diff(sched.Delta) >= 0)))
    check("Gamma(1, 3) = 3", gamma_fn(1.0, 3) == 3.0)
    ok, _, _ = recursion_lemma_check(rng.uniform(0, 1, size=10), b=0.1, c=1.0,
                                     d=0.05, a_coef=0.3)
    check("recursion bound", ok)

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench", description="stochastic Riemannian optimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment cell")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_tune = sub.add_parser("tune", help="grid-search a fixed step size")
    _add_run_flags(p_tune)
    p_tune.add_argument("--grid", required=True, help="comma-separated step sizes")
    p_tune.set_defaults(func=cmd_tune)

    p_verify = sub.add_parser("verify", help="run built-in oracle checks")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifoldSvrgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
