"""Print one `cell run_id sha256` line per run, to check that two trees run the same.

Run from the repository root:

    PYTHONPATH=src python tests/run_digests.py > new.txt
    PYTHONPATH=<other tree>/src python tests/run_digests.py > old.txt
    diff old.txt new.txt

or, to compare with a git revision of this repository in one step,

    python tests/run_digests.py --against REV

which unpacks REV's `src/` with `git archive` into a temporary directory,
runs the same cells on it and on this tree's `src/`, one after the other,
each in a subprocess, and prints the lines that differ (`<` REV's, `>` this
tree's, `-` for a line one side lacks) and a count, e.g. `0 moved, 4 gone,
0 new (193 before, 189 after)`: a moved line is on both sides with
another digest, a gone one only REV's and a new one only this tree's.  It
exits 1 when a line differs.

Other arguments, if any, are cell-name prefixes: `run_digests.py c7-wy mc-`
replays only the cells whose names start with one of them.

The runs are criterion 7's 140 (the desk PCA cell under each retraction),
criterion 9's 20 (the desk MC cell), run 0 of the pca-rgd benchmark
workload, and two runs of one small pca and one small mc cell for every
(method, step rule) pair that ExperimentSpec accepts.  The digest covers
trace columns epoch, f, grad_norm, step_size, ifo_calls and ro_calls, the
events, the status and the final X; a run that raises digests its
"<ExcType>: <message>".  Only ExperimentSpec, build_problem and
_single_run are called, so any tree with those three can be checked;
digests agree only under the same numpy and BLAS.  A full pass took
60-75 s on 2 cores, nearly all of it criteria 7 and 9; `--against` makes
two passes, 2.5 minutes.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
# after PYTHONPATH, so that PYTHONPATH=<other tree>/src picks the package
sys.path.append(os.path.join(ROOT, "src"))

from manifold_svrg.harness import ExperimentSpec, _single_run, build_problem  # noqa: E402

from source_lines import unpacked  # noqa: E402
from test_acceptance import DESK_MC, DESK_PCA, DESK_RETRACTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METHODS = ("s-svrg", "s-svrg-bb", "rgd", "s-sgd")
STEPS = ("fixed:0.05", "bb", "thm1:0.5,1.0")
SMALL = {"pca": dict(problem="pca", retraction="qr", d=20, n=60, r=2, batch_frac=0.1),
         "mc": dict(problem="mc", retraction="jd", d=30, n=24, r=2, batch_frac=0.5)}


def digest(problem, spec, run_id):
    try:
        result, X = _single_run(problem, spec, run_id)
    except Exception as exc:
        return hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
    h = hashlib.sha256()
    tr = result.trace
    for col in ("epoch", "f", "grad_norm", "step_size", "ifo_calls", "ro_calls"):
        h.update(np.asarray(getattr(tr, col), dtype=float).tobytes())
    h.update(repr(tr.events).encode())
    h.update(result.status.encode())
    h.update(np.ascontiguousarray(X.X).tobytes())
    return h.hexdigest()


def cells():
    """(name, spec, run ids) of every cell, in print order."""
    for retr in DESK_RETRACTIONS:
        yield f"c7-{retr}", replace(DESK_PCA, retraction=retr), range(DESK_PCA.runs)
    yield "c9", DESK_MC, range(DESK_MC.runs)
    yield "bench-pca-rgd", WORKLOADS["pca-rgd"].specs[0], [0]
    for problem, shape in SMALL.items():
        for method in METHODS:
            for step in STEPS:
                try:
                    spec = ExperimentSpec(method=method, step=step, inner_k="10",
                                          max_epochs=20, grad_tol=1e-8, runs=2, seed=5,
                                          **shape)
                except ValueError as exc:
                    if "does not run step rule" in str(exc):
                        continue
                    raise
                yield f"{problem}-{method}-{step}", spec, range(spec.runs)


def main(prefixes):
    key = problem = None
    for name, spec, run_ids in cells():
        if prefixes and not name.startswith(tuple(prefixes)):
            continue
        # cells on one data instance are neighbours: build it once for them
        if (spec.problem, spec.d, spec.n, spec.r, spec.cond, spec.seed) != key:
            key = (spec.problem, spec.d, spec.n, spec.r, spec.cond, spec.seed)
            problem = build_problem(spec)
        for run_id in run_ids:
            print(name, run_id, digest(problem, spec, run_id), flush=True)


def _lines(src, prefixes):
    """This script's output with the package imported from the directory src."""
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, os.path.abspath(__file__), *prefixes], env=env,
                          stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()


def against(rev, prefixes):
    """Print the lines on which REV's src/ and this tree's differ and count
    them as moved, gone and new; 1 if any differ."""
    with unpacked(rev, "src") as tmp:
        old = _lines(os.path.join(tmp, "src"), prefixes)
    new = _lines(os.path.join(ROOT, "src"), prefixes)
    # "cell run_id" -> sha256, on each side
    old, new = (dict(line.rsplit(" ", 1) for line in side) for side in (old, new))
    keys = list(dict.fromkeys([*old, *new]))
    differ = [key for key in keys if old.get(key) != new.get(key)]
    for key in differ:
        print(f"< {key} {old.get(key, '-')}\n> {key} {new.get(key, '-')}")
    moved = sum(key in old and key in new for key in differ)
    print(f"{moved} moved, {len(old.keys() - new.keys())} gone, "
          f"{len(new.keys() - old.keys())} new ({len(old)} before, {len(new)} after)")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="one sha256 per run of the gate cells")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the git revision REV's src/")
    parser.add_argument("prefixes", nargs="*", help="replay only cells with these prefixes")
    args = parser.parse_args()
    sys.exit(against(args.against, args.prefixes) if args.against else main(args.prefixes))
