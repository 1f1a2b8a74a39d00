"""In-memory spans around the package's layer boundaries.

The package itself carries no instrumentation.  `Tracer.install` swaps the
public names each layer exposes, at the place the solver looks them up,
for wrappers that record a span (name, start, end, parent, run id) per
call; `uninstall` puts the originals back.  Spans nest by call stack, so a
layer's self time is its duration minus the durations of its direct
children, and the self times of all spans of a run add up to the run's
root span.
"""

import csv
import time

import numpy as np

from manifold_svrg import harness, optimizers, retractions

RUN = "run"
_MISSING = object()

# every name a span other than a run's root can carry, so the per-layer
# table has the same shape on every workload
RETRACTION_KINDS = ("exp", "qr", "pd", "wy", "jd", "gp", "gr")
LAYERS = tuple(f"retractions.{k}" for k in RETRACTION_KINDS) + (
    "linalg.expm",
    "manifold.d_rho",
    "manifold.feasibility",
    "problems.full_grad",
    "problems.batch_diff",
    "problems.component_grad",
    "optimizers.warm_start",
)


class Tracer:
    """Span recorder for one benchmark process (single thread)."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self._stack = []
        self.run_id = -1
        self.batch_calls = 0
        self.batch_at_anchor = 0
        self._saved = []

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(i)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def run(self, run_id, fn, *args):
        """Execute one solver run under a root span."""
        self.run_id = run_id
        return self.call(RUN, fn, *args)

    # -- installing the wrappers ------------------------------------------

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self, problem):
        call = self.call

        def named(name, fn):
            return lambda *a: call(name, fn, *a)

        retract = optimizers.retract_array
        self._swap(optimizers, "retract_array",
                   lambda kind, *a: call(f"retractions.{kind.value}", retract, kind, *a))
        self._swap(optimizers, "retract_gp_array",
                   named("retractions.gp", optimizers.retract_gp_array))
        self._swap(optimizers, "retract_gr_array",
                   named("retractions.gr", optimizers.retract_gr_array))
        self._swap(optimizers, "d_rho_array", named("manifold.d_rho", optimizers.d_rho_array))
        self._swap(optimizers, "feasibility_error",
                   named("manifold.feasibility", optimizers.feasibility_error))
        self._swap(retractions, "expm", named("linalg.expm", retractions.expm))
        self._swap(harness, "warm_start", named("optimizers.warm_start", harness.warm_start))
        self._swap(problem, "full_value_egrad",
                   named("problems.full_grad", problem.full_value_egrad))
        self._swap(problem, "component_egrad",
                   named("problems.component_grad", problem.component_egrad))

        batch_diff = problem.batch_egrad_diff

        def batch_diff_traced(Xk, X0, idx):
            out = call("problems.batch_diff", batch_diff, Xk, X0, idx)
            self.batch_calls += 1
            if Xk is X0 or np.array_equal(Xk, X0):
                self.batch_at_anchor += 1
            return out

        self._swap(problem, "batch_egrad_diff", batch_diff_traced)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)   # instance attribute shadowing a method
            else:
                setattr(owner, attr, old)

    # -- reading the spans ------------------------------------------------

    def layer_table(self):
        """Per-name call count, inclusive seconds and self seconds.

        Also returns the traced wall (sum of run root spans) and checks
        that every other span descends from a run.
        """
        dur = [t1 - t0 for _, t0, t1, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
            elif name != RUN:
                raise RuntimeError(f"span {name!r} recorded outside a run")
        table = {}
        wall = 0.0
        for i, (name, *_) in enumerate(self.spans):
            calls, incl, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, incl + dur[i], own + dur[i] - child[i])
            if name == RUN:
                wall += dur[i]
        unknown = set(table) - set(LAYERS) - {RUN}
        if unknown:
            raise RuntimeError(f"spans with unknown names: {sorted(unknown)}")
        return table, wall

    def write(self, path):
        """Write the spans as CSV: id, name, start/end in us from the first span, parent, run."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_us", "end_us", "parent", "run"))
            for i, (name, t0, t1, parent, run_id) in enumerate(self.spans):
                out.writerow((i, name, f"{(t0 - origin) * 1e6:.3f}",
                              f"{(t1 - origin) * 1e6:.3f}", parent, run_id))
