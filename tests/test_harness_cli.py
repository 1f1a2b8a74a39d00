import io
import os
from contextlib import redirect_stdout, redirect_stderr
from dataclasses import asdict, replace

import numpy as np
import pytest

from manifold_svrg.cli import build_spec, main, read_config
from manifold_svrg.errors import NoConvergentTau
from manifold_svrg.harness import (ExperimentSpec, SummaryRow, TRACE_COLUMNS,
                                   build_config, build_problem, emit_table,
                                   grid_tune, parse_step, parse_summary_csv,
                                   resolve_inner_k, run_experiment)
from manifold_svrg.optimizers import BB, Fixed, Theorem1


def tiny_spec(**overrides):
    base = dict(problem="pca", method="s-svrg-bb", retraction="qr",
                d=10, n=20, r=2, step="bb", batch_frac=0.5, inner_k="10",
                max_epochs=100, grad_tol=1e-6, runs=2, seed=7, out=None)
    base.update(overrides)
    return ExperimentSpec(**base)


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
                                     dict(batch_frac=1.5)])
    def test_shape_and_batch_validation(self, bad):
        with pytest.raises(ValueError):
            tiny_spec(**bad)

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

    def test_resolve_inner_k(self):
        assert resolve_inner_k(tiny_spec(inner_k="auto", batch_frac=0.01)) == 500
        assert resolve_inner_k(tiny_spec(inner_k="7")) == 7

    def test_build_config_batch(self):
        cfg = build_config(tiny_spec(batch_frac=0.5, n=20), run_seed=3)
        assert cfg.batch == 10
        assert cfg.seed == 3
        assert cfg.bb_double is False
        cfg_mc = build_config(tiny_spec(problem="mc", d=30, n=25, r=2), run_seed=0)
        assert cfg_mc.bb_double is True


class TestRunExperiment:
    def test_zero_step_never_converges(self):
        spec = tiny_spec(method="s-svrg", step="fixed:0", max_epochs=3, runs=2)
        row, results = run_experiment(spec)
        assert row.successes == 0
        assert row.epoch_min == row.epoch_max == 3
        assert all(r.status == "MaxEpochs" for r in results)

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
        spec = tiny_spec(runs=1, out=str(tmp_path))
        row, results = run_experiment(spec)
        path = tmp_path / "trace_run000.csv"
        text = path.read_text()
        headers = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert any("generator=numpy.random.PCG64" in ln for ln in headers)
        assert any(f"seed={spec.seed}" in ln for ln in headers)
        assert any(f"config_hash={spec.config_hash()}" in ln for ln in headers)
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data[0] == ",".join(TRACE_COLUMNS)
        last = data[-1].split(",")
        # the summary for a single run must match the trace tail exactly
        assert float(last[2]) == results[0].final_f
        assert float(last[3]) == results[0].final_grad == row.nrm_bar
        assert int(last[0]) == 0
        # epoch column counts up from zero without gaps
        epochs = [int(ln.split(",")[1]) for ln in data[1:]]
        assert epochs == list(range(len(epochs)))
        # ifo/ro counters never decrease
        ifo = [int(ln.split(",")[5]) for ln in data[1:]]
        ro = [int(ln.split(",")[6]) for ln in data[1:]]
        assert ifo == sorted(ifo) and ro == sorted(ro)

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
        assert len(header("summary.csv")) == 4
        assert header("summary.csv") == header("trace_run000.csv")

    def test_summary_written_when_every_run_fails(self, tmp_path):
        out = tmp_path / "cell"
        spec = tiny_spec(method="s-svrg", step="bb", runs=2, max_epochs=2, out=str(out))
        row, _ = run_experiment(spec)
        assert row.successes == 0
        assert sorted(os.listdir(out)) == ["summary.csv"]

    def test_failed_runs_reported(self):
        # s-svrg with a bb step string is a configuration error per run
        spec = tiny_spec(method="s-svrg", step="bb", runs=2, max_epochs=2)
        row, results = run_experiment(spec)
        assert row.successes == 0
        assert all(r.status == "Failed:ValueError" for r in results)
        assert np.isnan(row.nrm_bar) and np.isnan(row.err_bar)

    def test_failure_message_kept(self, capsys):
        spec = tiny_spec(method="s-svrg", step="bb", runs=1, max_epochs=2)
        _, (result,) = run_experiment(spec)
        assert result.error.startswith("ValueError: s-svrg needs a fixed or thm1 step rule")
        code = main(["run", "--problem", "pca", "--method", "s-svrg", "--step", "bb",
                     "--d", "10", "--n", "20", "--r", "2", "--batch-frac", "0.5",
                     "--inner-k", "2", "--max-epochs", "2", "--runs", "1"])
        assert code == 1
        assert "run 0: ValueError: s-svrg needs a fixed" in capsys.readouterr().err


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

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            grid_tune(tiny_spec(), [])


class TestEmitTable:
    ROW = SummaryRow(problem="pca", method="s-svrg-bb", retraction="qr",
                     tau_star=float("nan"), runs=20, successes=20,
                     epoch_min=10, epoch_avg=12.5, epoch_max=18,
                     epoch_std=2.25, nrm_bar=3.2e-7, err_bar=4.9e-11,
                     t_bar=1.75)

    def test_text_formatting(self):
        text, _ = emit_table([self.ROW])
        assert "3e-07" in text and "5e-11" in text
        assert "10/12.5/18/2.2" in text
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method")

    def test_csv_round_trip(self):
        _, csv_text = emit_table([self.ROW])
        (parsed,) = parse_summary_csv(csv_text)
        assert parsed == replace(self.ROW, tau_star=parsed.tau_star)
        assert np.isnan(parsed.tau_star)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])

    def test_stats_order_invariant(self):
        with pytest.raises(ValueError):
            replace(self.ROW, epoch_min=20)


class TestConfigFile:
    def test_read_config(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("problem = pca  # comment\nbatch-frac=0.25\n\n# full line\nd=12\n")
        assert read_config(str(p)) == {"problem": "pca", "batch_frac": "0.25",
                                       "d": "12"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("problem pca\n")
        with pytest.raises(ValueError):
            read_config(str(p))

    def _spec_from(self, tmp_path, config_text, argv_extra=()):
        p = tmp_path / "cfg"
        p.write_text(config_text)
        import argparse
        from manifold_svrg.cli import _add_run_flags
        parser = argparse.ArgumentParser()
        _add_run_flags(parser)
        return build_spec(parser.parse_args(["--config", str(p), *argv_extra]))

    def test_flags_override_config(self, tmp_path):
        spec = self._spec_from(tmp_path, "d=12\nseed=3\n", ["--seed", "9"])
        assert spec.d == 12 and spec.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self._spec_from(tmp_path, "momentum=0.9\n")

    def test_type_coercion(self, tmp_path):
        spec = self._spec_from(tmp_path, "grad-tol=1e-4\nmax-epochs=9\n")
        assert spec.grad_tol == 1e-4 and isinstance(spec.max_epochs, int)


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

    def test_tune_smoke(self, capsys):
        args = [a for a in self.RUN_ARGS]
        args[args.index("s-svrg-bb")] = "s-svrg"
        code = main(["tune", *args, "--grid", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau_star=0.5" in out

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all checks passed" in out

    def test_error_exit_code(self, capsys):
        code = main(["run", "--problem", "pca", "--step", "warp"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
