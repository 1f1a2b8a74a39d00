"""Command-line benchmark harness.

Subcommands: `bench run` executes a multi-seed experiment cell and writes
trace / summary CSVs, and `bench tune` grid-searches a fixed step size.  A
config file (flat key=value lines, '#' comments) supplies flags, which
argparse checks; explicit flags override it.  The numerical and property
checks are the test suite's: run `pytest`.
"""

import argparse
import sys
from dataclasses import fields

from .errors import ManifoldSvrgError
from .harness import (METHOD_STEPS, PROBLEMS, STEP_FORMS, ExperimentSpec, emit_table,
                      grid_tune, run_experiment)
from .retractions import RETRACTION_NAMES


def read_config(path):
    """Flat key=value config as --key=value flags.  A key is a spec field,
    with '-' or '_'; any other is refused here, as argparse takes abbreviations."""
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key.replace("-", "_") not in _SPEC_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            tokens.append(f"--{key.replace('_', '-')}={val}")
    return tokens


_SPEC_TYPES = {f.name: f.type for f in fields(ExperimentSpec)}
_CHOICES = {"problem": PROBLEMS, "method": METHOD_STEPS,
            "retraction": RETRACTION_NAMES}
_HELP = {"step": " | ".join(STEP_FORMS.values()),
         "inner_k": "inner iterations per epoch, or 'auto' = 5/batch-frac"}


def _add_run_flags(p):
    """--config, then one flag per ExperimentSpec field, typed as the field."""
    p.add_argument("--config", help="key=value config file; flags override")
    for name, kind in _SPEC_TYPES.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                       choices=_CHOICES.get(name), help=_HELP.get(name))


def build_spec(args):
    return ExperimentSpec(**{k: v for k, v in vars(args).items()
                             if k in _SPEC_TYPES and v is not None})


def cmd_run(args):
    spec = build_spec(args)
    row, results = run_experiment(spec)
    sys.stdout.write(emit_table(row, spec)[0])
    failed = [r for r in results if r.status.startswith("Failed")]
    for r in failed:
        print(f"run {r.run_id}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def cmd_tune(args):
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--grid {args.grid!r} is not of the form <tau>,<tau>,...") from None
    # grid_tune runs each of the grid's steps in place of the spec's, so
    # without --step the spec takes the grid's smallest, not the default bb,
    # which s-sgd does not run
    if args.step is None:
        args.step = f"fixed:{min(grid, default=0.0)}"
    spec = build_spec(args)
    tau_star, row = grid_tune(spec, grid)
    print(f"tau_star={tau_star:g}")
    sys.stdout.write(emit_table(row, spec)[0])
    return 0


def _parser():
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
    return parser


def _parse_args(argv):
    """argv with a config file's flags after the subcommand, where argv's own win."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv[:1] + read_config(args.config) + argv[1:])
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (ManifoldSvrgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
