import argparse
import csv
import io
import itertools
import math
import os
import re
from contextlib import redirect_stdout, redirect_stderr
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from manifold_svrg import harness
from manifold_svrg.cli import _parse_args, _parser, build_spec, main, read_config
from manifold_svrg.errors import NoConvergentTau, NonFiniteValue, TooManySamples
from manifold_svrg.harness import (METHOD_STEPS, PROBLEMS, ExperimentSpec, SummaryRow,
                                   TRACE_COLUMNS, build_config, build_problem,
                                   emit_table, grid_tune, parse_step, resolve_inner_k,
                                   run_experiment)
from manifold_svrg.manifold import d_rho_array
from manifold_svrg.problems import mc_generate
from manifold_svrg.optimizers import (BB, Fixed, SvrgConfig, Theorem1, run_rgd, run_s_sgd,
                                      run_s_svrg, warm_start)
from manifold_svrg.retractions import RETRACTION_NAMES, RetractionKind


def tiny_spec(**overrides):
    base = dict(problem="pca", method="s-svrg-bb", retraction="qr",
                d=10, n=20, r=2, step="bb", batch_frac=0.5, inner_k="10",
                max_epochs=100, grad_tol=1e-6, runs=2, seed=7, out=None)
    base.update(overrides)
    return ExperimentSpec(**base)


# every (method, rule) pair a cell runs, and a step of each rule
METHOD_RULES = [(m, rule) for m, (_, rules) in METHOD_STEPS.items() for rule in rules]
RULE_STEP = {Fixed: "fixed:0.05", BB: "bb", Theorem1: "thm1:0.5,1.0"}


def parse_summary_csv(text):
    """Read summary rows back from CSV text (skipping '#' header lines)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [SummaryRow(**{f.name: f.type(rec[f.name]) for f in fields(SummaryRow)})
            for rec in csv.DictReader(lines)]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(problem="svm")
        with pytest.raises(ValueError):
            tiny_spec(method="adam")
        with pytest.raises(ValueError):
            tiny_spec(retraction="cayley")
        with pytest.raises(ValueError):
            tiny_spec(step="fixed")
        with pytest.raises(ValueError):
            tiny_spec(runs=0)

    @pytest.mark.parametrize("bad", [dict(d=0), dict(n=0), dict(r=0), dict(r=11),
                                     dict(batch_frac=0.0), dict(batch_frac=-0.1),
                                     dict(batch_frac=1.5),
                                     # a step rule its method does not run
                                     dict(method="s-svrg-bb", step="fixed:0.5"),
                                     dict(method="rgd", step="thm1:0.5,1.0"),
                                     dict(method="s-sgd", step="thm1:0.5,1.0"),
                                     dict(method="s-sgd", step="bb"),
                                     # fields every run would reject
                                     dict(inner_k="x"), dict(inner_k="0"),
                                     dict(max_epochs=0), dict(rho=-1.0),
                                     dict(step="fixed:nan"),
                                     dict(rho=math.nan), dict(rho=math.inf),
                                     dict(grad_tol=math.nan), dict(grad_tol=-1e-6),
                                     dict(cond=-3.0), dict(cond=0.0), dict(cond=0.5),
                                     dict(cond=math.nan), dict(cond=math.inf),
                                     # malformed step rules and inner counts
                                     dict(step="thm1:1"), dict(step="thm1:0.5,1,2"),
                                     dict(step="thm1:a,b"), dict(step="fixed:abc"),
                                     dict(step="fixed:"), dict(inner_k="2.5"),
                                     # counts and the seed, which numpy or range()
                                     # would refuse only once a run starts
                                     dict(runs=2.5), dict(runs=2.0), dict(max_epochs=2.5),
                                     dict(seed=-1), dict(seed=0.5),
                                     # shapes, which numpy would refuse inside the
                                     # generator, or which would hash apart from the
                                     # equal int; and bools, which are no counts
                                     dict(d=10.5), dict(n=20.5), dict(r=2.0),
                                     dict(d=True), dict(r=True), dict(runs=True),
                                     dict(max_epochs=True), dict(seed=False),
                                     # exp2, whose step needs a horizontal direction
                                     dict(retraction="exp2", rho=0.5),
                                     # a value of another type than its field's
                                     dict(step=None), dict(batch_frac="0.1"),
                                     dict(rho="0"), dict(cond=True), dict(out=5),
                                     dict(inner_k=0), dict(inner_k=2.5),
                                     # an out no directory can be made at
                                     dict(out="")])
    def test_shape_and_batch_validation(self, bad):
        with pytest.raises(ValueError) as err:
            tiny_spec(**bad)
        # the message names a field it was given
        assert any(name in str(err.value) for name in bad), str(err.value)

    @pytest.mark.parametrize("given, plain", [
        (dict(rho=0), dict(rho=0.0)),
        (dict(rho=-0.0), dict(rho=0.0)),
        (dict(cond=np.float64(10)), dict(cond=10.0)),
        (dict(inner_k=10), dict(inner_k="10")),
        (dict(inner_k=np.int64(10)), dict(inner_k="10")),
        (dict(inner_k="007"), dict(inner_k="7")),
        (dict(method="s-svrg", step="fixed:0.10"), dict(method="s-svrg", step="fixed:0.1")),
        (dict(method="s-svrg", step="fixed:1"), dict(method="s-svrg", step="fixed:1.0")),
        (dict(method="s-svrg", step="fixed:-0"), dict(method="s-svrg", step="fixed:0.0")),
        (dict(method="s-svrg", step="thm1: .5,1e0"), dict(method="s-svrg", step="thm1:0.5,1.0"))],
        ids=["rho-int", "rho-negative-zero", "cond-numpy", "inner_k-int", "inner_k-numpy",
             "inner_k-zeros", "fixed-zeros", "fixed-int", "fixed-negative-zero", "thm1-spelling"])
    def test_one_cell_one_hash(self, given, plain):
        # a value is stored as its field's type, and a step rule or inner
        # count in the one form its decode gives, so an equal value spelled
        # another way is the same cell, with the same hash
        spec, want = tiny_spec(**given), tiny_spec(**plain)
        assert spec == want and spec.config_hash() == want.config_hash()
        assert [getattr(spec, k) for k in given] == list(plain.values())
        assert [type(getattr(spec, k)) for k in given] == [type(v) for v in plain.values()]

    def test_numpy_integer_counts_accepted(self):
        # taken as the ints they are: the same spec, hash and summary
        spec = tiny_spec(runs=np.int64(2), max_epochs=np.int32(3), seed=np.int64(4),
                         d=np.int64(10))
        plain = tiny_spec(runs=2, max_epochs=3, seed=4, d=10)
        assert spec == plain and spec.config_hash() == plain.config_hash()
        assert {type(getattr(spec, f.name)) for f in fields(spec) if f.type is int} == {int}
        # the summary's statistics.pstdev refuses a numpy integer epoch count
        rows = [run_experiment(s)[0] for s in (spec, plain)]
        assert rows[0].epoch_std == rows[1].epoch_std and rows[0].epoch_avg == rows[1].epoch_avg

    @pytest.mark.parametrize("d, n, r, error, message", [
        (10, 3, 5, ValueError, "r = 5 outside [1, min(d, n) = 3]"),
        (10, 10, 5, TooManySamples, "|Omega| = 375 exceeds the 100 entries available"),
        (3, 2000, 3, TooManySamples, "|Omega| = 18000 exceeds the 6000 entries available")])
    def test_completion_cell_rejected_at_the_spec(self, d, n, r, error, message):
        # the spec runs mc_generate's own checks: the cell fails with the
        # generator's error before any data is drawn
        with pytest.raises(error, match=re.escape(message)):
            mc_generate(d, n, r, 10.0, seed=7)
        with pytest.raises(error, match=re.escape(message)):
            tiny_spec(problem="mc", d=d, n=n, r=r)

    def test_wy_runs_jd_under_its_own_name(self):
        # wy is a spelling of jd: the runs are jd's, bit for bit, while the
        # spec, its hash and the summary row keep the name wy
        spec = tiny_spec(retraction="wy")
        assert build_config(spec, 0).retraction is RetractionKind.JD
        assert ExperimentSpec(retraction="wy").config_hash() == "ab0a76f23010b822"
        row, results = run_experiment(spec)
        _, jd_results = run_experiment(replace(spec, retraction="jd"))
        assert (spec.retraction, row.retraction) == ("wy", "wy")
        for wy, jd in zip(results, jd_results):
            assert (wy.trace.f, wy.trace.grad_norm) == (jd.trace.f, jd.trace.grad_norm)

    def test_config_hash_ignores_out(self):
        a = tiny_spec(out=None)
        b = tiny_spec(out="/tmp/x")
        c = tiny_spec(seed=8)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16

    def test_parse_step(self):
        assert isinstance(parse_step("bb"), BB)
        assert parse_step("fixed:0.25") == Fixed(0.25)
        mode = parse_step("thm1:0.1,2.0")
        assert isinstance(mode, Theorem1)
        assert (mode.mu, mode.kappa) == (0.1, 2.0)
        with pytest.raises(ValueError):
            parse_step("linesearch")
        with pytest.raises(ValueError):
            parse_step("fixed:nan")
        for step, form in (("thm1:1", "thm1:<mu>,<kappa>"), ("thm1:0.5,x", "thm1:<mu>,<kappa>"),
                           ("fixed:abc", "fixed:<tau>"), ("fixed:0.1,0.2", "fixed:<tau>")):
            with pytest.raises(ValueError,
                               match=re.escape(f"step = {step!r} is not of the form {form}")):
                parse_step(step)

    def test_resolve_inner_k(self):
        assert resolve_inner_k(tiny_spec(inner_k="auto", batch_frac=0.01)) == 500
        assert resolve_inner_k(tiny_spec(inner_k="7")) == 7
        for bad in ("2.5", "x", "", "0", "-3"):
            with pytest.raises(ValueError, match=re.escape(
                    f"inner_k = {bad!r} is not a positive integer or 'auto'")):
                tiny_spec(inner_k=bad)

    def test_build_config_batch(self):
        cfg = build_config(tiny_spec(batch_frac=0.5, n=20), run_seed=3)
        assert cfg.batch == 10
        assert cfg.seed == 3


class TestRunExperiment:
    def test_rejects_a_problem_unlike_its_spec(self):
        # a problem of another kind or shape is refused before any run,
        # naming the spec field it disagrees with
        spec = tiny_spec(runs=1)
        for field, problem in (("problem", mc_generate(10, 20, 2, 10.0, seed=7)),
                               ("d", build_problem(replace(spec, d=12))),
                               ("n", build_problem(replace(spec, n=24))),
                               ("r", build_problem(replace(spec, r=3)))):
            with pytest.raises(ValueError, match=f"^spec.{field} = "):
                run_experiment(spec, problem)

    def test_zero_step_never_converges(self):
        spec = tiny_spec(method="s-svrg", step="fixed:0", max_epochs=3, runs=2)
        row, results = run_experiment(spec)
        assert row.successes == 0
        assert row.epoch_min == row.epoch_max == 3
        assert all(r.status == "MaxEpochs" for r in results)

    @pytest.mark.parametrize("problem, method", [("pca", "s-svrg"), ("pca", "rgd"),
                                                 ("mc", "s-svrg")])
    def test_max_epochs_row_is_returned_point(self, problem, method):
        # a run cut off by max_epochs reports f and the gradient norm at the
        # point it returns, not at the start of its last epoch
        spec = tiny_spec(problem=problem, method=method, step="fixed:0.05",
                         d=30, n=25, max_epochs=3, grad_tol=0.0, runs=1)
        inst = build_problem(spec)
        _, (result,) = run_experiment(spec, inst)
        X = result.X
        assert result.status == "MaxEpochs" and result.trace.epoch[-1] == 3
        assert result.final_f == inst.value(X.X)
        egrad = inst.full_value_egrad(X.X)[1]
        assert result.final_grad == float(np.linalg.norm(d_rho_array(X.X, egrad, 0.0)))

    def test_success_is_the_returned_points_gradient(self):
        spec = tiny_spec(method="s-sgd", step="fixed:0.05", max_epochs=3, grad_tol=0.0)
        row, results = run_experiment(spec)
        assert all(r.status == "Completed" for r in results)
        assert row.successes == 0
        tol = max(r.final_grad for r in results)
        row, _ = run_experiment(replace(spec, grad_tol=tol))
        assert row.successes == row.runs == 2

    def test_result_reads_its_trace(self):
        # a result stores no value its trace holds: status, final f, final
        # gradient norm and seconds are the trace's, and the epochs its last
        # row's once the run reaches grad_tol, else the budget
        assert [f.name for f in fields(harness.RunResult)] == [
            "run_id", "max_epochs", "trace", "X", "error"]
        for spec in (tiny_spec(runs=1), tiny_spec(runs=1, max_epochs=2)):
            _, (result,) = run_experiment(spec)
            tr = result.trace
            assert (result.status, result.final_f, result.final_grad, result.seconds) == (
                tr.status, tr.f[-1], tr.grad_norm[-1], tr.seconds[-1])
            assert result.epochs == (tr.epoch[-1] if tr.status == "GradTol" else 2)
        assert tr.status == "MaxEpochs"

    def test_convergent_cell(self):
        row, results = run_experiment(tiny_spec())
        assert row.successes == row.runs == 2
        assert all(r.status == "GradTol" for r in results)
        assert row.nrm_bar <= 1e-6
        assert row.err_bar <= 1e-8
        assert row.epoch_min <= row.epoch_avg <= row.epoch_max

    def test_determinism_modulo_wallclock(self):
        row1, _ = run_experiment(tiny_spec())
        row2, _ = run_experiment(tiny_spec())
        d1, d2 = asdict(row1), asdict(row2)
        for d in (d1, d2):
            d.pop("t_bar")
            assert np.isnan(d.pop("tau_star"))  # bb rule: no fixed step
        assert d1 == d2

    def test_trace_files(self, tmp_path):
        # every cell's CSVs read back: each trace's '#' header and columns, a
        # number in every field (a numpy scalar's repr would not parse),
        # epochs counting up from zero, counters that never decrease, and a
        # last row at its result's final f and gradient norm; the summary
        # reads back as the row
        for problem, (method, rule) in itertools.product(PROBLEMS, METHOD_RULES):
            out = tmp_path / f"{problem}-{method}-{rule.__name__}"
            spec = tiny_spec(problem=problem, method=method, step=RULE_STEP[rule], d=30,
                             n=24, max_epochs=6, grad_tol=0.0, out=str(out))
            row, results = run_experiment(spec)
            for result in results:
                text = (out / f"trace_run{result.run_id:03d}.csv").read_text()
                assert text.splitlines()[:3] == [
                    "# generator=numpy.random.PCG64", f"# seed={spec.seed + result.run_id}",
                    f"# config_hash={spec.config_hash()}"]
                columns, *rows = csv.reader(ln for ln in text.splitlines()
                                            if not ln.startswith("#"))
                assert columns == list(TRACE_COLUMNS)
                values = np.array([[float(v) for v in data] for data in rows])
                assert list(values[:, 0]) == [result.run_id] * len(rows)
                assert list(values[:, 1]) == list(range(len(rows)))
                assert np.all(np.diff(values[:, 5:7], axis=0) >= 0)
                assert list(values[-1, 2:4]) == [result.final_f, result.final_grad]
            assert row.nrm_bar == np.mean([r.final_grad for r in results])
            (parsed,) = parse_summary_csv((out / "summary.csv").read_text())
            np.testing.assert_equal(asdict(parsed), asdict(row))

    def test_whole_epoch_mean_is_a_float(self, tmp_path):
        # both runs stop at max_epochs, so the mean is whole; summary.csv
        # writes it as a float and reads back as the row that wrote it
        spec = tiny_spec(method="s-svrg", step="fixed:0.05", d=30, n=24, max_epochs=6,
                         grad_tol=0.0, out=str(tmp_path))
        row, _ = run_experiment(spec)
        assert (row.epoch_min, row.epoch_max) == (6, 6)
        for f in fields(SummaryRow):
            assert type(getattr(row, f.name)) is f.type
        text = (tmp_path / "summary.csv").read_text()
        assert text.splitlines()[-1].split(",")[6:9] == ["6", "6.0", "6"]
        (parsed,) = parse_summary_csv(text)
        assert repr(parsed) == repr(row)

    def test_numerics_without_dict_config(self, monkeypatch):
        # numpy < 1.26 has no show_config(mode="dicts"): its BLAS reads unknown
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert harness._numerics() == f"numpy={np.__version__} blas=unknown"

    def test_summary_csv_round_trip(self, tmp_path):
        spec = tiny_spec(runs=1, out=str(tmp_path))
        row, _ = run_experiment(spec)
        text = (tmp_path / "summary.csv").read_text()
        (parsed,) = parse_summary_csv(text)
        assert np.isnan(parsed.tau_star) and np.isnan(row.tau_star)
        assert replace(parsed, tau_star=0.0) == replace(row, tau_star=0.0)

    def test_trace_and_summary_share_header(self, tmp_path):
        spec = tiny_spec(runs=1, out=str(tmp_path))
        run_experiment(spec)

        def header(name):
            return [ln for ln in (tmp_path / name).read_text().splitlines()
                    if ln.startswith("#")]

        # run 0 carries the cell seed, so the two '#' blocks coincide
        assert len(header("summary.csv")) == 5
        assert header("summary.csv")[-1].startswith(f"# numpy={np.__version__} blas=")
        assert header("summary.csv") == header("trace_run000.csv")

    @pytest.fixture
    def diverging(self, monkeypatch):
        # s-svrg-bb's runner, the one these cells dispatch to, always raises
        def diverge(*args, **kwargs):
            raise NonFiniteValue("objective or gradient diverged at epoch 0")
        monkeypatch.setitem(METHOD_STEPS, "s-svrg-bb", (diverge, METHOD_STEPS["s-svrg-bb"][1]))

    def test_summary_written_when_every_run_fails(self, tmp_path, diverging):
        out = tmp_path / "cell"
        spec = tiny_spec(runs=2, max_epochs=2, out=str(out))
        row, _ = run_experiment(spec)
        assert row.successes == 0
        assert sorted(os.listdir(out)) == ["summary.csv"]

    def test_failed_runs_reported(self, diverging):
        spec = tiny_spec(runs=2, max_epochs=2)
        row, results = run_experiment(spec)
        assert row.successes == 0
        assert all(r.status == "Failed:NonFiniteValue" for r in results)
        # a run that raised has no trace and no point: NaN f and gradient,
        # no seconds, and the epoch budget
        for r in results:
            assert (r.trace, r.X, r.epochs, r.seconds) == (None, None, 2, 0.0)
            assert np.isnan(r.final_f) and np.isnan(r.final_grad)
        assert np.isnan(row.nrm_bar) and np.isnan(row.err_bar)

    def test_failure_message_kept(self, capsys, diverging):
        spec = tiny_spec(runs=1, max_epochs=2)
        _, (result,) = run_experiment(spec)
        assert result.error == "NonFiniteValue: objective or gradient diverged at epoch 0"
        code = main(["run", "--problem", "pca", "--method", "s-svrg-bb", "--step", "bb",
                     "--d", "10", "--n", "20", "--r", "2", "--batch-frac", "0.5",
                     "--inner-k", "2", "--max-epochs", "2", "--runs", "1"])
        assert code == 1
        assert "run 0: NonFiniteValue: objective or gradient diverged" in capsys.readouterr().err

    def test_s_svrg_with_bb_is_s_svrg_bb(self):
        _, (a,) = run_experiment(tiny_spec(method="s-svrg", runs=1))
        _, (b,) = run_experiment(tiny_spec(method="s-svrg-bb", runs=1))
        assert a.trace.f == b.trace.f

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("method, rule", METHOD_RULES,
                             ids=lambda v: getattr(v, "__name__", v))
    def test_library_run_is_the_cell_run(self, problem, method, rule):
        # a cell's run is its method's runner on a plain SvrgConfig, started
        # from warm_start, under every rule and on both problems
        step = RULE_STEP[rule]
        spec = tiny_spec(problem=problem, method=method, step=step, d=30, n=24,
                         max_epochs=6, grad_tol=0.0, runs=1)
        _, (result,) = run_experiment(spec)
        inst = build_problem(spec)
        cfg = build_config(spec, spec.seed)
        assert cfg == SvrgConfig(retraction=RetractionKind.QR, step_mode=parse_step(step), K=10,
                                 batch=12, max_epochs=6, grad_tol=0.0, seed=spec.seed, r=2)
        run = {"s-svrg": run_s_svrg, "s-svrg-bb": run_s_svrg, "rgd": run_rgd,
               "s-sgd": run_s_sgd}[method]
        X, trace = run(inst, cfg, X0=warm_start(inst, cfg))
        for col in ("epoch", "f", "grad_norm", "step_size", "ifo_calls", "ro_calls"):
            assert getattr(trace, col) == getattr(result.trace, col)
        assert trace.events == result.trace.events
        assert np.array_equal(X.X, result.X.X)

    def test_s_sgd_takes_a_fixed_step(self):
        row, (result,) = run_experiment(tiny_spec(method="s-sgd", step="fixed:0.05",
                                                  runs=1, max_epochs=3))
        assert result.trace.step_size and set(result.trace.step_size) == {0.05}
        assert row.tau_star == 0.05


class TestGridTune:
    def test_picks_convergent_tau(self):
        spec = tiny_spec(method="s-svrg", runs=2, max_epochs=100)
        tau_star, row = grid_tune(spec, [0.0, 0.5])
        assert tau_star == 0.5
        assert row.successes == row.runs
        assert row.tau_star == 0.5

    def test_no_convergent_tau(self):
        spec = tiny_spec(method="s-svrg", runs=1, max_epochs=2)
        with pytest.raises(NoConvergentTau):
            grid_tune(spec, [0.0])

    def test_tunes_s_sgd(self):
        # an s-sgd run ends Completed, and succeeds when the point it
        # returns meets grad_tol; the start point already does here, so
        # every step converges and the tie goes to the smallest
        spec = tiny_spec(method="s-sgd", step="fixed:0.01", d=20, n=60, grad_tol=10.0,
                         max_epochs=20)
        tau_star, row = grid_tune(spec, [0.01, 0.05, 0.2])
        assert tau_star == 0.01
        assert row.successes == row.runs

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            grid_tune(tiny_spec(), [])

    def test_tunes_the_spec_method(self, monkeypatch):
        runs = []

        def recording(spec, problem=None):
            row, results = run_experiment(spec, problem)
            runs.extend(results)
            return row, results

        monkeypatch.setattr(harness, "run_experiment", recording)
        tau_star, row = grid_tune(tiny_spec(method="rgd", runs=1, max_epochs=150), [2.0, 4.0])
        assert (tau_star, row.method, row.successes) == (2.0, "rgd", 1)
        assert len(runs) == 2
        for result in runs:
            # full-gradient steps: one retraction per epoch
            assert result.trace.ro_calls == result.trace.epoch

    def test_solves_the_optimum_once(self, monkeypatch):
        # every grid point reads f* from the one instance, which solves it once
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        grid_tune(tiny_spec(method="rgd", runs=1, max_epochs=150), [1.0, 2.0, 4.0])
        assert len(calls) == 1

    def test_tie_goes_to_the_smaller_step(self, monkeypatch):
        # every step converges in as many epochs on average, but 0.05 not on every run
        def tied(spec, problem=None):
            tau = parse_step(spec.step).tau
            return replace(TestEmitTable.ROW, tau_star=tau, successes=19 + (tau > 0.05)), []
        monkeypatch.setattr(harness, "run_experiment", tied)
        tau_star, row = grid_tune(tiny_spec(method="s-svrg"), [0.4, 0.05, 0.1, 0.2])
        assert tau_star == row.tau_star == 0.1

    def test_method_without_fixed_steps_rejected(self, monkeypatch):
        def no_data(spec):
            raise AssertionError("data generated for an untunable method")
        monkeypatch.setattr(harness, "build_problem", no_data)
        with pytest.raises(ValueError, match="s-svrg-bb"):
            grid_tune(tiny_spec(method="s-svrg-bb"), [0.5])


class TestEmitTable:
    ROW = SummaryRow(problem="pca", method="s-svrg-bb", retraction="qr",
                     tau_star=float("nan"), runs=20, successes=20,
                     epoch_min=10, epoch_avg=12.5, epoch_max=18,
                     epoch_std=2.25, nrm_bar=3.2e-7, err_bar=4.9e-11,
                     t_bar=1.75)

    def test_text_formatting(self):
        # a header line and the row, each column as wide as its wider cell
        text, _ = emit_table(self.ROW, tiny_spec())
        assert text == ("method     retr  tau*  epoch(min/avg/max/std)  nrm    err    t   \n"
                        "s-svrg-bb  qr    -     10/12.5/18/2.2          3e-07  5e-11  1.75\n")

    def test_csv_round_trip(self):
        _, csv_text = emit_table(self.ROW, tiny_spec())
        (parsed,) = parse_summary_csv(csv_text)
        assert parsed == replace(self.ROW, tau_star=parsed.tau_star)
        assert np.isnan(parsed.tau_star)

    def test_stats_order_invariant(self):
        with pytest.raises(ValueError):
            replace(self.ROW, epoch_min=20)


class TestConfigFile:
    def test_read_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("problem = pca  # comment\nbatch-frac=0.25\n\n# full line\nd=12\n")
        assert read_config(str(p)) == ["--problem=pca", "--batch-frac=0.25", "--d=12"]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("problem pca\n")
        with pytest.raises(ValueError):
            read_config(str(p))

    def _spec_from(self, tmp_path, config_text, argv_extra=()):
        p = tmp_path / "cfg"
        p.write_text(config_text)
        return build_spec(_parse_args(["run", "--config", str(p), *argv_extra]))

    def test_flags_override_config(self, tmp_path):
        spec = self._spec_from(tmp_path, "d=12\nseed=3\n", ["--seed", "9"])
        assert spec.d == 12 and spec.seed == 9
        # a flag given before --config wins too
        spec = self._spec_from(tmp_path, "d=12\nseed=3\n", ["--seed", "9", "--d", "11"])
        assert spec.d == 11 and spec.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        # argparse alone would take bat as an abbreviation of --batch-frac
        for key in ("momentum", "bat", "config", "grid"):
            with pytest.raises(ValueError, match=f"cfg:1: unknown config key '{key}'$"):
                self._spec_from(tmp_path, f"{key}=0.9\n")

    def test_type_coercion(self, tmp_path):
        spec = self._spec_from(tmp_path, "grad-tol=1e-4\nmax-epochs=9\n")
        assert spec.grad_tol == 1e-4 and isinstance(spec.max_epochs, int)

    @pytest.mark.parametrize("line", ["d = abc", "max-epochs = 2.5", "rho = fast",
                                      "problem = svm", "retraction = cayley"])
    def test_unparsable_value_named(self, tmp_path, capsys, line):
        # a config value is typed and checked by its flag, with its message
        p = tmp_path / "cfg"
        p.write_text(line + "\n")
        key, value = line.split(" = ")
        flag = ["--" + key, value]
        errors = []
        for argv in (["--config", str(p)], flag):
            with pytest.raises(SystemExit) as exit_:
                main(["run", *argv])
            assert exit_.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"bench run: error: argument {flag[0]}: ")


class TestCliMain:
    RUN_ARGS = ["--problem", "pca", "--method", "s-svrg-bb", "--retraction", "qr",
                "--d", "10", "--n", "20", "--r", "2", "--batch-frac", "0.5",
                "--inner-k", "10", "--runs", "1", "--seed", "7"]

    def test_run_smoke(self, tmp_path, capsys):
        code = main(["run", *self.RUN_ARGS, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "s-svrg-bb" in out
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "trace_run000.csv").exists()

    @pytest.mark.parametrize("method, extra", [("s-svrg", []),
                                               ("s-sgd", ["--grad-tol", "10"])],
                             ids=["s-svrg", "s-sgd"])
    def test_tune_smoke(self, capsys, method, extra):
        # without --step, which defaults to bb, a rule s-sgd does not run;
        # s-sgd's runs succeed only where the point returned meets grad_tol
        args = list(self.RUN_ARGS)
        args[args.index("s-svrg-bb")] = method
        code = main(["tune", *args, *extra, "--grid", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau_star=0.5" in out

    def test_run_wy_spelling(self, capsys):
        args = list(self.RUN_ARGS)
        args[args.index("qr")] = "wy"
        assert main(["run", *args]) == 0
        assert re.search(r"^s-svrg-bb +wy ", capsys.readouterr().out, re.M)

    @pytest.mark.parametrize("command, extra", [("run", set()), ("tune", {"--grid"})])
    def test_one_flag_per_spec_field(self, command, extra):
        (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {a.option_strings[0]: a for a in sub.choices[command]._actions
                 if a.dest != "help"}
        want = {"--" + f.name.replace("_", "-"): f for f in fields(ExperimentSpec)}
        assert set(flags) == set(want) | {"--config"} | extra
        for flag, f in want.items():
            assert (flags[flag].dest, flags[flag].type) == (f.name, f.type)
        assert flags["--problem"].choices == PROBLEMS
        assert flags["--method"].choices == METHOD_STEPS
        assert flags["--retraction"].choices == RETRACTION_NAMES

    def test_error_exit_code(self, capsys, tmp_path):
        code = main(["run", "--problem", "pca", "--step", "warp"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        config = tmp_path / "cfg"
        config.write_text("d = abc\n")
        # a malformed value is reported with its field and the accepted form
        for argv, message in (
                (["--step", "thm1:1"], "step = 'thm1:1' is not of the form thm1:<mu>,<kappa>"),
                (["--step", "fixed:abc"], "step = 'fixed:abc' is not of the form fixed:<tau>"),
                (["--inner-k", "2.5"], "inner_k = '2.5' is not a positive integer or 'auto'"),
                (["--seed", "-1"], "seed must be an integer of at least 0, got -1"),
                # every count is checked by one rule with one message
                (["--d", "0"], "d must be an integer of at least 1, got 0"),
                (["--n", "0"], "n must be an integer of at least 1, got 0"),
                (["--r", "0"], "r must be an integer of at least 1, got 0"),
                (["--max-epochs", "0"], "max_epochs must be an integer of at least 1, got 0"),
                (["--runs", "0"], "runs must be an integer of at least 1, got 0"),
                # --step defaults to bb; a refused rule is named with the method's
                (["--method", "s-sgd"], "s-sgd does not run step rule 'bb'; it runs fixed:<tau>"),
                (["--method", "rgd", "--step", "thm1:0.5,1"],
                 "rgd does not run step rule 'thm1:0.5,1'; it runs fixed:<tau> or bb")):
            assert main(["run", "--problem", "pca", *argv]) == 2
            assert f"error: {message}\n" in capsys.readouterr().err
        # a config value the flag parser refuses gets its flag's message
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--problem", "pca", "--config", str(config)])
        assert exit_.value.code == 2
        assert ("bench run: error: argument --d: invalid int value: 'abc'\n"
                in capsys.readouterr().err)
        assert main(["tune", "--method", "s-svrg", "--grid", "0.1,abc"]) == 2
        assert ("error: --grid '0.1,abc' is not of the form <tau>,<tau>,...\n"
                in capsys.readouterr().err)
        # tune's spec takes a step from the grid, so an empty one is still
        # refused as empty, for s-sgd too
        assert main(["tune", "--method", "s-sgd", "--grid", ","]) == 2
        assert "error: empty step grid\n" in capsys.readouterr().err

    @pytest.fixture
    def no_data(self, monkeypatch):
        def no_data(spec):
            raise AssertionError("data drawn before out was checked")
        monkeypatch.setattr(harness, "build_problem", no_data)

    def test_unusable_out_fails_before_data(self, tmp_path, capsys, no_data):
        taken = tmp_path / "file"
        taken.write_text("")
        for out, message in (("", "error: out must be a directory path or None, got ''"),
                             (str(taken), "error: [Errno 17] File exists")):
            assert main(["run", *self.RUN_ARGS, "--out", out]) == 2
            assert message in capsys.readouterr().err

    def test_tune_refuses_out(self, tmp_path, capsys, no_data):
        # grid_tune writes no files, so it refuses an out before any data is drawn
        out = tmp_path / "cell"
        args = list(self.RUN_ARGS)
        args[args.index("s-svrg-bb")] = "s-svrg"
        assert main(["tune", *args, "--grid", "0.5", "--out", str(out)]) == 2
        assert (f"error: out = {str(out)!r}, but grid_tune writes no files"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_rejected_spec_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "cell"
        code = main(["run", *self.RUN_ARGS, "--step", "fixed:0.5", "--out", str(out)])
        assert code == 2
        assert ("error: s-svrg-bb does not run step rule 'fixed:0.5'; it runs bb"
                in capsys.readouterr().err)
        assert not out.exists()
