"""manifold-svrg benchmark: solver workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pca-desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One invocation sets the workload's problem up several times, then runs one
pass of its runs back to back in this process (a closed loop, no fan-out),
checks every run against the acceptance thresholds and prints one JSON
line last: end-to-end metrics with --trace 0, per-layer metrics from a
traced pass with --trace 1.  Details, the span file format and what each
layer metric should move are in perfbench/README.md.

The benchmark reads BLAS thread settings and never sets them: it measures
the package as users get it.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

if not os.path.isfile(os.path.join(SRC, "manifold_svrg", "__init__.py")):
    sys.exit(f"perfbench: no manifold_svrg package under {SRC}")
sys.path.insert(0, SRC)

from manifold_svrg.harness import _single_run, build_problem, reference_value  # noqa: E402

from envinfo import environment  # noqa: E402
from kernels import kernel_us  # noqa: E402
from spans import LAYERS, RUN, Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS, check_run, pad_frac, pass_order  # noqa: E402

# the traced self times must cover the traced pass wall to within this share
COVERAGE_TOL = 0.02

END_TO_END_UNITS = {
    "setup_s": "s", "cell_s": "s", "run_s_p50": "s", "run_s_tail": "s",
    "epoch_ms": "ms", "epochs_total": "count", "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith(".us"):
        return "us"
    if name.endswith((".calls", ".count")):
        return "count"
    if name.endswith((".share", "_frac")) or name == "runs_failed":
        return "fraction"
    if name.endswith("_s"):
        return "s"
    if name == "err_max":
        return "rel"
    if name == "trace.overhead":
        return "ratio"
    raise KeyError(name)


class Run:
    """One finished (or raised) solver run and its check."""

    def __init__(self, spec, run_id, seconds, result, X, error):
        self.spec, self.run_id, self.seconds = spec, run_id, seconds
        self.result, self.X, self.error = result, X, error
        self.passed, self.err, self.reason = False, float("nan"), error

    @property
    def epochs(self):
        return self.result.epochs if self.result else self.spec.max_epochs

    def record(self):
        return {"retraction": self.spec.retraction, "run_id": self.run_id,
                "seconds": self.seconds, "epochs": self.epochs,
                "status": self.result.status if self.result else "raised",
                "passed": self.passed, "err": self.err, "reason": self.reason}


def run_pass(problem, order, tracer=None):
    """Execute the runs back to back; returns the runs and the pass wall seconds."""
    runs = []
    start = time.perf_counter()
    for spec, run_id in order:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result, X = _single_run(problem, spec, run_id)
            else:
                result, X = tracer.run(run_id, _single_run, problem, spec, run_id)
            error = None
        except Exception as exc:  # a failed run is counted, never dropped
            result, X, error = None, None, f"{type(exc).__name__}: {exc}"
        runs.append(Run(spec, run_id, time.perf_counter() - t0, result, X, error))
    return runs, time.perf_counter() - start


def check_runs(problem, f_star, runs):
    for run in runs:
        if run.error is None:
            run.passed, run.err, run.reason = check_run(problem, f_star, run.result, run.X.X)


def tail(values):
    """Highest order statistic with 10 samples beyond it, its percentile, the count.

    With 10 samples or fewer no such statistic exists and the maximum is
    reported (percentile 100).
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def setup(workload):
    """Build the problem and its reference value setup_repeats times.

    Returns the last problem, its reference value and the (generate,
    optimum) seconds of every repeat.
    """
    spec = workload.specs[0]
    times = []
    for _ in range(workload.setup_repeats):
        problem = None   # free the previous instance before timing the next
        gc.collect()
        t0 = time.perf_counter()
        problem = build_problem(spec)
        t1 = time.perf_counter()
        f_star = reference_value(spec, problem)
        times.append((t1 - t0, time.perf_counter() - t1))
    return problem, f_star, times


def end_to_end(problem, f_star, order, setup_times, detail):
    """The untraced pass and the metrics a user of the solver sees."""
    runs, cell_s = run_pass(problem, order)
    check_runs(problem, f_star, runs)
    epochs = sum(r.epochs for r in runs)
    run_tail, pct, n = tail([r.seconds for r in runs])
    detail["run_s_tail"] = {"percentile": pct, "samples": n}
    values = {
        "setup_s": statistics.median(g + o for g, o in setup_times),
        "cell_s": cell_s,
        "run_s_p50": statistics.median(r.seconds for r in runs),
        "run_s_tail": run_tail,
        "epoch_ms": 1e3 * cell_s / epochs,
        "epochs_total": epochs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return runs, values, []


def per_layer(problem, f_star, order, setup_times, detail, workload, seed, tag):
    """Kernel timings, an untraced and a traced pass, and the per-layer metrics."""
    values = kernel_us(problem, workload.specs[0], seed)
    plain, cell_plain = run_pass(problem, order)
    tracer = Tracer()
    tracer.install(problem)
    try:
        traced, cell_traced = run_pass(problem, order, tracer)
    finally:
        tracer.uninstall()
    runs = plain + traced
    check_runs(problem, f_star, runs)
    problems = [f"traced run {b.spec.retraction}/{b.run_id} differs from untraced"
                for a, b in zip(plain, traced) if a.result and b.result
                and (a.result.epochs, a.result.final_f) != (b.result.epochs, b.result.final_f)]

    table, wall = tracer.layer_table()
    for layer in LAYERS:
        calls, incl, own = table.get(layer, (0, 0.0, 0.0))
        if layer != "optimizers.warm_start":
            values[f"{layer}.calls"] = calls
            values[f"{layer}.us"] = 1e6 * incl / calls if calls else 0.0
        values[f"{layer}.share"] = own / wall
    values["optimizers.self.share"] = table[RUN][2] / wall
    values["problems.batch_diff.at_anchor_frac"] = (
        tracer.batch_at_anchor / tracer.batch_calls if tracer.batch_calls else 0.0)
    values["problems.mc.pad_frac"] = pad_frac(problem)
    values["optimizers.reorth.count"] = sum(
        1 for r in traced if r.result for ev in r.result.trace.events
        if ev[0] == "reorthonormalized")
    values["setup.generate_s"] = statistics.median(g for g, _ in setup_times)
    values["setup.optimum_s"] = statistics.median(o for _, o in setup_times)
    values["trace.overhead"] = cell_traced / cell_plain
    values["runs_failed"] = sum(not r.passed for r in runs) / len(runs)
    errs = [r.err for r in runs if r.err == r.err]
    values["err_max"] = max(errs) if errs else float("inf")

    coverage = sum(own for _, _, own in table.values()) / cell_traced
    detail["coverage"] = {"run_wall_s": wall, "pass_wall_s": cell_traced, "share": coverage}
    if abs(coverage - 1.0) > COVERAGE_TOL:
        problems.append(f"traced self times cover {coverage:.4f} of the traced pass wall")
    os.makedirs(OUT_DIR, exist_ok=True)
    detail["spans"] = os.path.join(OUT_DIR, f"spans-{tag}.csv")
    tracer.write(detail["spans"])
    return runs, values, problems


def measure(workload, seed, seconds, trace, tag):
    """One benchmark invocation; returns the result line and a detail record."""
    problem, f_star, setup_times = setup(workload)
    order = pass_order(workload, seconds, seed)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup_times_s": setup_times}
    if trace:
        # half the run ids, once untraced and once traced, so the traced
        # invocation costs about what an untraced one does
        half = max(1, workload.runs(seconds) // 2)
        order = [(spec, i) for spec, i in order if i < half]
        runs, values, problems = per_layer(problem, f_star, order, setup_times, detail,
                                           workload, seed, tag)
        units = {name: per_layer_unit(name) for name in values}
    else:
        runs, values, problems = end_to_end(problem, f_star, order, setup_times, detail)
        units = END_TO_END_UNITS

    problems += [f"{r.spec.retraction}/{r.run_id}: {r.reason}" for r in runs if not r.passed]
    detail["runs"] = [r.record() for r in runs]
    detail["problems"] = problems
    line = {"correct": not problems, "attempted": len(runs),
            "failed": sum(not r.passed for r in runs),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    return line, detail


def report(line, detail, tag):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{tag}.json")
    with open(path, "w") as fh:
        json.dump({"result": line, **detail}, fh, indent=1)
    env = detail["environment"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{line['attempted']} runs, {line['failed']} failed; details in {path}")
    print(f"environment: numpy {env['numpy']}, scipy {env['scipy']}, python {env['python']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}")
    for key in ("openblas_numpy", "openblas_scipy"):
        lib = env[key]
        print(f"  {key}: {lib.get('config')} threads={lib.get('threads')}")
    print(f"  thread env: {env['thread_env']}")
    if "run_s_tail" in detail:
        t = detail["run_s_tail"]
        print(f"run_s_tail: p{t['percentile']:.1f} of {t['samples']} runs")
    if "coverage" in detail:
        print(f"traced self times / traced pass wall: {detail['coverage']['share']:.5f}")
    for msg in detail["problems"]:
        print(f"problem: {msg}")
    for name, m in line["metrics"].items():
        print(f"  {name:45s} {m['value']!r} {m['unit']}")
    print(json.dumps(line))


def smoke():
    """Every workload at toy size in both modes, checked against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    declared_workloads = sorted(w["name"] for w in declared["workloads"])
    if declared_workloads != sorted(SMOKE):
        print(f"smoke: BENCHMARK.json workloads {declared_workloads} != {sorted(SMOKE)}")
        return 1
    bad = 0
    for name, workload in SMOKE.items():
        for trace in (0, 1):
            line, detail = measure(workload, seed=0, seconds=1, trace=trace,
                                   tag=f"smoke-{name}-trace{trace}")
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            issues = list(detail["problems"])
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(got) & set(want[trace]) if got[k] != want[trace][k])
                issues.append(f"metrics differ: missing {missing}, extra {extra}, units {wrong}")
            cover = detail.get("coverage", {}).get("share")
            status = "ok" if not issues else "FAIL"
            print(f"smoke {name} trace={trace}: {status}, {line['attempted']} runs"
                  + (f", self-time coverage {cover:.5f}" if cover is not None else ""))
            for msg in issues:
                print(f"  {msg}")
            bad += bool(issues)
    print("smoke: ok" if not bad else f"smoke: {bad} failing")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and check the output shape")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    line, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, tag)
    report(line, detail, tag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
