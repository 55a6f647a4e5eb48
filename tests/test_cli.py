import json

import numpy as np
import pytest

from dfm_em import cli
from dfm_em.cli import (
    EXIT_NONCONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from dfm_em import DgpConfig, EmConfig, ModelDims, draw_dgp, em_fit
from dfm_em.em import AscentViolationError, EmError
from dfm_em.io import (
    read_matrix_csv,
    read_panel_csv,
    read_params_json,
    write_matrix_csv,
    write_panel_csv,
)
from dfm_em.kalman import FilterNumericalError
from dfm_em.model import Panel, ShapeError
from dfm_em.montecarlo import CellAbortError
from dfm_em.pca import IdentificationError


def _simulate(tmp_path, name="draw", **over):
    flags = dict(n=20, T=40, r=2, q=2, seed=1)
    flags.update(over)
    out = tmp_path / name
    argv = ["simulate"]
    for k, v in flags.items():
        argv += [f"--{k}", str(v)]
    argv += ["--out", str(out)]
    assert main(argv) == EXIT_OK
    return out


def _cli(command, panel, out, *flags, r=2, q=2):
    """The exit code of ``dfm-em COMMAND --panel PANEL --r R --q Q FLAGS
    --out OUT``."""
    return main([command, "--panel", str(panel), "--r", str(r), "--q", str(q), *flags,
                 "--out", str(out)])


class TestExitCodes:
    @pytest.mark.parametrize("exc,code", [
        (ValueError("bad value"), EXIT_VALIDATION),
        (ShapeError("bad shape"), EXIT_VALIDATION),
        (FileExistsError("out exists"), EXIT_VALIDATION),
        (FileNotFoundError("no file"), EXIT_VALIDATION),
        (json.JSONDecodeError("bad json", "{", 1), EXIT_VALIDATION),
        (IsADirectoryError("a directory"), EXIT_VALIDATION),
        (PermissionError("no access"), EXIT_VALIDATION),
        (FilterNumericalError("not PD", 3), EXIT_NUMERICAL),
        (IdentificationError("tie"), EXIT_NUMERICAL),
        (AscentViolationError("fell", 2), EXIT_NUMERICAL),
        (CellAbortError("cell", 3, 5), EXIT_NUMERICAL),
        (EmError("singular"), EXIT_NUMERICAL),
        (np.linalg.LinAlgError("rank deficient"), EXIT_NUMERICAL),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_each_named_class_exits_with_its_code(self, monkeypatch, capsys,
                                                  exc, code):
        def command(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "eval", command)
        assert main(["eval", "--truth", "t", "--fit", "f"]) == code
        assert str(exc) in capsys.readouterr().err


class TestSimulate:
    def test_panel_dimensions(self, tmp_path):
        out = _simulate(tmp_path, n=50, T=75, r=4, q=2)
        lines = (out / "panel.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 75
        assert len(lines[0].split(",")) == 50

    def test_invalid_delta_exits_validation(self, tmp_path, capsys):
        code = main(["simulate", "--n", "10", "--T", "20", "--r", "2",
                     "--q", "2", "--delta", "0.4",
                     "--out", str(tmp_path / "d")])
        assert code == EXIT_VALIDATION
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("delta", "nan"), ("theta", "nan"),
                                            ("theta", "inf"), ("tau", "nan"),
                                            ("mu", "nan")])
    def test_non_finite_parameter_exits_validation(self, tmp_path, capsys,
                                                   flag, value):
        out = tmp_path / "d"
        code = main(["simulate", "--n", "10", "--T", "20", "--r", "2",
                     "--q", "1", f"--{flag}", value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("mu", "0.99999999999", "mu must lie in (0, 1 - STABILITY_TOL)"),
    ])
    def test_draw_that_breaks_the_model_exits_validation(
            self, tmp_path, capsys, flag, value, message):
        """This once died with an untyped RuntimeError from draw_dgp's own
        check of its parameters: a traceback and exit 1."""
        out = tmp_path / "d"
        code = main(["simulate", "--n", "10", "--T", "20", "--r", "2",
                     "--q", "1", f"--{flag}", value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_theta_exits_validation_without_a_warning(
            self, tmp_path, capsys):
        """numpy's overflow warning once came out before the refusal, which
        blamed the drawn Lambda rather than theta."""
        out = tmp_path / "d"
        code = main(["simulate", "--n", "10", "--T", "20", "--r", "2",
                     "--q", "1", "--theta", "1e308", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert ("error: theta=1e+308 overflows the loadings scale"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_toeplitz_draw_writes_tau_and_the_diagonal(self, tmp_path, capsys):
        """A tau > 0 draw writes its law tau and the diagonal of Gamma^e,
        not the n x n matrix, and still serves as the truth for eval."""
        draw = _simulate(tmp_path, "d", n=300, T=30, tau=0.5, delta=0.2)
        doc = json.loads((draw / "params.json").read_text())
        assert doc["tau"] == 0.5 and "gamma_c" not in doc
        assert doc["gamma_e"] == [1.0] * 300
        assert read_params_json(draw / "params.json").gamma_e.shape == (300,)
        assert json.loads((_simulate(tmp_path, "w") / "params.json")
                          .read_text())["tau"] == 0.0
        fit = tmp_path / "pc"
        assert _cli("pc", draw / "panel.csv", fit) == EXIT_OK
        assert main(["eval", "--truth", str(draw), "--fit", str(fit)]) == EXIT_OK

    def test_rerun_byte_identical(self, tmp_path):
        a = _simulate(tmp_path, "a", seed=9)
        b = _simulate(tmp_path, "b", seed=9)
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()

    def test_default_flags_draw_the_library_default(self, tmp_path):
        want = draw_dgp(DgpConfig(dims=ModelDims(n=20, T=40, r=2, q=2), seed=1))
        assert np.array_equal(read_panel_csv(_simulate(tmp_path) / "panel.csv").X,
                              want.panel.X)

    def test_no_model_flags_draw_the_default_config(self, tmp_path):
        """Without --tau ... --seed, the draw is that of DgpConfig's defaults."""
        out = tmp_path / "d"
        argv = ["simulate", "--n", "20", "--T", "40", "--r", "2", "--q", "2"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        want = draw_dgp(DgpConfig(dims=ModelDims(n=20, T=40, r=2, q=2)))
        assert np.array_equal(read_panel_csv(out / "panel.csv").X, want.panel.X)

    def test_refuses_overwrite(self, tmp_path, capsys):
        _simulate(tmp_path, "d")
        code = main(["simulate", "--n", "20", "--T", "40", "--r", "2",
                     "--q", "2", "--out", str(tmp_path / "d")])
        assert code == EXIT_VALIDATION
        assert "overwrite" in capsys.readouterr().err

    @pytest.mark.parametrize("stale", ["panel.csv", "factors.csv", "chi.csv",
                                       "params.json"])
    def test_refuses_before_drawing(self, tmp_path, monkeypatch, capsys, stale):
        out = tmp_path / "d"
        out.mkdir()
        (out / stale).write_text("stale\n")

        def draw_dgp(config):
            raise AssertionError("draw_dgp ran before the overwrite check")

        monkeypatch.setattr(cli, "draw_dgp", draw_dgp)
        code = main(["simulate", "--n", "20", "--T", "40", "--r", "2",
                     "--q", "2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert stale in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [stale]


class TestFit:
    def _write_noiseless(self, tmp_path):
        rng = np.random.default_rng(3)
        n, T, r = 15, 60, 2
        Lam = rng.standard_normal((n, r))
        F = np.zeros((r, T))
        for t in range(1, T):
            F[:, t] = 0.5 * F[:, t - 1] + rng.standard_normal(r)
        X = Lam @ F
        from dfm_em import Panel
        from dfm_em.io import write_panel_csv

        path = tmp_path / "panel.csv"
        write_panel_csv(Panel(X=X), path)
        return path, X

    def test_noiseless_recovery(self, tmp_path):
        path, X = self._write_noiseless(tmp_path)
        out = tmp_path / "fit"
        code = _cli("fit", path, out)
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        params = read_params_json(out / "params.json")
        F_hat = read_matrix_csv(out / "factors.csv").T
        chi_hat = params.Lambda @ F_hat
        assert np.sqrt(np.mean((chi_hat - X) ** 2)) < 1e-6

    def test_factors_csv_reads_back_as_the_fitted_factors(self, tmp_path):
        draw = _simulate(tmp_path, "d")
        out = tmp_path / "fit"
        assert _cli("fit", draw / "panel.csv", out, "--max-iter", "3") \
            in (EXIT_OK, EXIT_NONCONVERGENCE)
        panel = read_panel_csv(draw / "panel.csv")
        res = em_fit(panel, ModelDims(n=panel.n, T=panel.T, r=2, q=2),
                     EmConfig(max_iter=3))
        F = read_matrix_csv(out / "factors.csv")
        assert np.array_equal(F, res.factors.F_smooth.T)

    def test_no_loop_flags_fit_with_the_default_config(self, tmp_path):
        """Without --epsilon or --max-iter, the fit is em_fit's with EmConfig()."""
        draw = _simulate(tmp_path, "d")
        out = tmp_path / "fit"
        assert _cli("fit", draw / "panel.csv", out) in (EXIT_OK, EXIT_NONCONVERGENCE)
        panel = read_panel_csv(draw / "panel.csv")
        res = em_fit(panel, ModelDims(n=panel.n, T=panel.T, r=2, q=2))
        trace = read_matrix_csv(out / "loglik_trace.csv")[:, 0]
        assert np.array_equal(trace, res.loglik_trace)

    def test_max_iter_one(self, tmp_path):
        path, _ = self._write_noiseless(tmp_path)
        out = tmp_path / "fit1"
        _cli("fit", path, out, "--max-iter", "1")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iters"] == 1

    def test_forced_nonconvergence_exit_code(self, tmp_path):
        path, _ = self._write_noiseless(tmp_path)
        out = tmp_path / "fitnc"
        code = _cli("fit", path, out, "--epsilon", "1e-12", "--max-iter", "5")
        assert code == EXIT_NONCONVERGENCE
        # outputs still written, flagged as not converged
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert (out / "factors.csv").exists()

    def test_trending_panel_fits(self, tmp_path):
        """A random walk with drift gives an explosive principal-components
        VAR start (A0 = 1.0105), which has no stationary state covariance;
        the fit starts from P0 = I instead of failing validation."""
        from dfm_em import Panel
        from dfm_em.io import write_panel_csv

        rng = np.random.default_rng(0)
        n, T = 20, 60
        f = np.cumsum(0.3 + rng.standard_normal(T))
        X = np.outer(rng.standard_normal(n), f) + 0.5 * rng.standard_normal((n, T))
        path = tmp_path / "panel.csv"
        write_panel_csv(Panel(X=X - X.mean(axis=1, keepdims=True)), path)
        assert _cli("fit", path, tmp_path / "fit", r=1, q=1) == EXIT_OK

    def test_ridge_and_ecm_variants(self, tmp_path):
        """Both variants fit; the ECM fit writes its AR(1) laws as a
        nonzero rho and a diagonal gamma_e, with no gamma_e_diagonal key,
        and eval reads them back."""
        draw = _simulate(tmp_path, "d", tau=0.5, delta=0.2)
        panel = draw / "panel.csv"
        assert _cli("fit", panel, tmp_path / "fr", "--estimator", "ridge", "--ridge-mu", "2.5",
                    "--max-iter", "5") in (EXIT_OK, EXIT_NONCONVERGENCE)
        assert _cli("fit", panel, tmp_path / "fe", "--estimator", "ecm",
                    "--max-iter", "5") in (EXIT_OK, EXIT_NONCONVERGENCE)
        doc = json.loads((tmp_path / "fe" / "params.json").read_text())
        assert any(doc["rho"]) and len(doc["gamma_e"]) == 20
        assert "gamma_e_diagonal" not in doc
        assert main(["eval", "--truth", str(draw), "--fit",
                     str(tmp_path / "fe")]) == EXIT_OK

    @pytest.mark.parametrize("flags", [[], ["--estimator", "ecm"]],
                             ids=["diag", "ecm"])
    def test_ridge_mu_without_ridge_covariance_exits_validation(
            self, tmp_path, capsys, flags):
        """A fixed --ridge-mu acts only on the ridge covariance; without
        --estimator ridge it is refused, not ignored."""
        draw = _simulate(tmp_path, "d")
        code = _cli("fit", draw / "panel.csv", tmp_path / "f", *flags, "--ridge-mu", "5")
        assert code == EXIT_VALIDATION
        assert "--ridge-mu applies only with --estimator ridge" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_bad_ridge_mu(self, tmp_path, capsys):
        draw = _simulate(tmp_path, "d")
        for mu in ("lots", "-1", "nan", "inf"):
            code = _cli("fit", draw / "panel.csv", tmp_path / "f", "--estimator", "ridge",
                        "--ridge-mu", mu)
            assert code == EXIT_VALIDATION, mu
            assert "ridge-mu" in capsys.readouterr().err, mu

    def test_zero_ridge_mu_with_more_series_than_periods_exits_validation(
            self, tmp_path, capsys):
        """A ridge fit refuses mu = 0 at n > T and at n <= T alike, before
        the panel is read: exit 2 and nothing written."""
        for panel in (_simulate(tmp_path, "wide", n=60, T=20) / "panel.csv",
                      _simulate(tmp_path, "tall", n=20, T=60) / "panel.csv",
                      tmp_path / "missing.csv"):
            code = _cli("fit", panel, tmp_path / "f", "--estimator", "ridge",
                        "--ridge-mu", "0")
            assert code == EXIT_VALIDATION, panel
            err = capsys.readouterr().err
            assert "--ridge-mu: ridge mu must be finite and positive, got 0.0" in err
            assert "missing.csv" not in err
            assert not (tmp_path / "f").exists()

    def test_ridge_fits_a_panel_with_an_all_zero_series(self, tmp_path, capsys):
        """The default penalty floors the all-zero series' variance, so the
        fit exits 0; mu = 0 would leave Gamma singular and is refused with
        exit 2, writing nothing, where it once failed the filter (exit 3)."""
        X = draw_dgp(DgpConfig(dims=ModelDims(n=5, T=39, r=1, q=1), seed=4)).panel.X.copy()
        X[0] = 0.0
        path = tmp_path / "zero_series.csv"
        write_panel_csv(Panel(X=X), path)
        argv = ["fit", "--panel", str(path), "--r", "1", "--q", "1",
                "--estimator", "ridge"]
        assert main([*argv, "--out", str(tmp_path / "auto")]) == EXIT_OK
        assert (tmp_path / "auto" / "params.json").exists()
        capsys.readouterr()
        code = main([*argv, "--ridge-mu", "0", "--out", str(tmp_path / "zero")])
        assert code == EXIT_VALIDATION
        assert "ridge mu must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "zero").exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_nonfinite_epsilon_exits_validation(self, tmp_path, capsys, epsilon):
        draw = _simulate(tmp_path, "d")
        code = _cli("fit", draw / "panel.csv", tmp_path / "f", "--epsilon", epsilon)
        assert code == EXIT_VALIDATION
        assert "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--estimator", "ecm", "--ridge-mu", "5"], "applies only with --estimator ridge"),
        (["--estimator", "ridge", "--ridge-mu", "-1"], "ridge-mu"),
        (["--epsilon", "nan"], "epsilon"),
        (["--max-iter", "0"], "max_iter"),
        (["--ridge-mu", "lots"], "ridge-mu"),
        (["--estimator", "ridge", "--ridge-mu", "auto"], "ridge-mu"),
    ])
    def test_flags_checked_before_the_panel_is_read(self, tmp_path, capsys,
                                                    flags, message):
        code = _cli("fit", tmp_path / "missing.csv", tmp_path / "f", *flags)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err
        assert "missing.csv" not in err

    def test_one_estimator_switch(self, tmp_path, capsys):
        """--estimator picks the estimator; the two flags it replaced are
        unknown options, refused by the parser with its exit code 2."""
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        usage = capsys.readouterr().out
        assert "--estimator {em,ridge,ecm}" in usage
        assert "--idio-cov" not in usage and "--idio-ar" not in usage
        for flags in (["--idio-cov", "ridge"], ["--idio-ar", "ecm"],
                      ["--estimator", "diag"]):
            with pytest.raises(SystemExit) as err:
                main(["fit", "--panel", "p.csv", "--r", "2", "--q", "2",
                      *flags, "--out", str(tmp_path / "f")])
            assert err.value.code == EXIT_VALIDATION, flags

    def test_printed_loglik_is_the_summary_float(self, tmp_path, capsys):
        draw = _simulate(tmp_path, "d")
        out = tmp_path / "f"
        _cli("fit", draw / "panel.csv", out, "--max-iter", "5")
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("final loglik: ")]
        summary = json.loads((out / "summary.json").read_text())
        assert float(line.removeprefix("final loglik: ")) == summary["final_loglik"]

    def test_missing_panel_file(self, tmp_path):
        code = _cli("fit", tmp_path / "nope.csv", tmp_path / "f")
        assert code == EXIT_VALIDATION

    def test_panel_not_utf8_exits_validation_naming_the_file(self, tmp_path, capsys):
        """A UTF-16 panel once exited 2 with the codec's message alone."""
        panel = tmp_path / "panel.csv"
        panel.write_bytes("x1,x2\n1.0,2.0\n".encode("utf-16"))
        assert _cli("fit", panel, tmp_path / "f") == EXIT_VALIDATION
        assert f"error: {panel}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_panel_that_is_a_directory_exits_validation(self, tmp_path, capsys):
        code = _cli("fit", tmp_path, tmp_path / "f")
        assert code == EXIT_VALIDATION
        assert "Is a directory" in capsys.readouterr().err

    def test_standardize_removes_each_series_location_and_scale(self, tmp_path):
        panel = read_panel_csv(_simulate(tmp_path, "d") / "panel.csv")
        scale = np.linspace(0.5, 4.0, panel.n)[:, None]
        write_panel_csv(Panel(X=3.0 + scale * panel.X), tmp_path / "scaled.csv")
        write_panel_csv(panel, tmp_path / "plain.csv")
        for name in ("plain", "scaled"):
            assert _cli("fit", tmp_path / f"{name}.csv", tmp_path / name, "--standardize",
                        "--max-iter", "3") in (EXIT_OK, EXIT_NONCONVERGENCE)
        F, G = (read_matrix_csv(tmp_path / name / "factors.csv")
                for name in ("plain", "scaled"))
        assert np.max(np.abs(F - G)) < 1e-8

    def test_standardize_refuses_a_constant_series(self, tmp_path, capsys,
                                                  recwarn):
        X = np.random.default_rng(3).standard_normal((6, 30))
        X[1] = 0.1
        path = tmp_path / "panel.csv"
        write_panel_csv(Panel(X=X, names=tuple(f"s{i + 1}" for i in range(6))),
                        path)
        code = _cli("fit", path, tmp_path / "fs", "--standardize", r=1, q=1)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "zero variance: s2" in err and "non-finite" not in err
        assert not recwarn.list
        assert not (tmp_path / "fs").exists()

    @pytest.mark.parametrize("stale", ["params.json", "factors.csv",
                                       "loglik_trace.csv", "summary.json"])
    def test_refuses_before_reading_or_fitting(self, tmp_path, monkeypatch,
                                               capsys, stale):
        out = tmp_path / "fit"
        out.mkdir()
        (out / stale).write_text("stale\n")

        def must_not_run(*args, **kwargs):
            raise AssertionError("fit work ran before the overwrite check")

        for name in ("em_fit", "ridge_fit", "ecm_fit"):
            monkeypatch.setattr(cli, name, must_not_run)
        monkeypatch.setattr(cli.dfm_io, "read_panel_csv", must_not_run)
        code = _cli("fit", tmp_path / "panel.csv", out)
        assert code == EXIT_VALIDATION
        assert stale in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [stale]


class TestPc:
    def test_outputs(self, tmp_path, capsys):
        draw = _simulate(tmp_path, "d")
        out = tmp_path / "pc"
        code = _cli("pc", draw / "panel.csv", out)
        assert code == EXIT_OK
        assert "eigenvalues" in capsys.readouterr().out
        F = read_matrix_csv(out / "factors.csv")
        assert F.shape == (40, 2)

    def test_refuses_overwrite(self, tmp_path):
        draw = _simulate(tmp_path, "d")
        out = tmp_path / "pc"
        args = ["pc", "--panel", str(draw / "panel.csv"),
                "--r", "2", "--q", "2", "--out", str(out)]
        assert main(args) == EXIT_OK
        assert main(args) == EXIT_VALIDATION
        assert main(args + ["--overwrite"]) == EXIT_OK

    @pytest.mark.parametrize("r,q,message", [
        ("2", "3", "need q <= r <= n, got q=3, r=2, n=20"),
        ("0", "0", "r must be >= 1, got 0"),
    ])
    def test_bad_dimensions_exit_validation(self, tmp_path, capsys, r, q, message):
        """--r 2 --q 3 used to exit 0 with a 2x2 H, and --r 0 to exit 3 on
        an eigenvalue tie at position r=0."""
        draw = _simulate(tmp_path, "d")
        out = tmp_path / "pc"
        code = _cli("pc", draw / "panel.csv", out, r=r, q=q)
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMontecarlo:
    def _experiment(self, tmp_path):
        doc = {
            "B": 2,
            "base_seed": 4,
            "cells": [
                {"label": "em_cell", "n": 12, "T": 25, "r": 2, "q": 2},
                {"label": "ss_cell", "n": 12, "T": 25, "r": 2, "q": 2,
                 "mode": "filter_only"},
            ],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        return path

    def test_runs_and_writes_report(self, tmp_path):
        path = self._experiment(tmp_path)
        out = tmp_path / "report"
        assert main(["montecarlo", str(path), "--out", str(out)]) == EXIT_OK
        header = (out / "cells.csv").read_text().split("\n")[0]
        assert "rel_mse" in header
        assert (out / "manifest.json").exists()

    def test_parallel_levels_identical(self, tmp_path):
        path = self._experiment(tmp_path)
        main(["montecarlo", str(path), "--out", str(tmp_path / "r1"),
              "--parallel", "1"])
        main(["montecarlo", str(path), "--out", str(tmp_path / "r2"),
              "--parallel", "2"])
        assert ((tmp_path / "r1" / "cells.csv").read_bytes()
                == (tmp_path / "r2" / "cells.csv").read_bytes())
        hists = sorted(p.name for p in (tmp_path / "r1").glob("zhist_*.csv"))
        assert hists == sorted(p.name for p in (tmp_path / "r2").glob("zhist_*.csv"))
        assert "zhist_em_cell.csv" in hists
        for name in hists:
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())

    @pytest.mark.parametrize("stale", ["cells.csv", "zhist_em_cell.csv"])
    def test_refuses_before_running_the_grid(self, tmp_path, monkeypatch,
                                             capsys, stale):
        path = self._experiment(tmp_path)
        out = tmp_path / "report"
        out.mkdir()
        (out / stale).write_text("stale\n")

        def run_grid(*args, **kwargs):
            raise AssertionError("run_grid ran before the overwrite check")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        assert main(["montecarlo", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert stale in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [stale]

    def test_duplicate_labels_exit_before_running(self, tmp_path,
                                                  monkeypatch, capsys):
        cell = {"label": "same", "n": 12, "T": 25, "r": 2, "q": 2}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"B": 2, "cells": [cell, cell]}))

        def run_grid(*args, **kwargs):
            raise AssertionError("run_grid ran on a grid with duplicate labels")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        out = tmp_path / "report"
        code = main(["montecarlo", str(path), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "duplicate cell label 'same'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad,message", [
        ({"label": "a/b"}, "plain file name"),
        ({"tau": 1.5}, "tau must lie"),
        ({"q": 3}, "q <= r"),
        ({"T": 3}, "T >= r + 2"),
        ({"n": 12.0}, "n must be an integer"),
        ({"T": 4, "r": 1, "q": 1}, "an em cell needs T >= BURN_IN_T = 5, got T=4"),
        ({"mu": 0.99999999999}, "mu must lie in (0, 1 - STABILITY_TOL)"),
    ])
    def test_bad_cell_exits_before_running(self, tmp_path, monkeypatch,
                                           capsys, bad, message):
        """A cell that cannot run is refused before the first cell runs."""
        good = {"label": "good", "n": 12, "T": 25, "r": 2, "q": 2}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"B": 2, "cells": [
            good, {**good, "label": "bad", **bad}]}))

        def run_grid(*args, **kwargs):
            raise AssertionError("run_grid ran on a grid with a bad cell")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        out = tmp_path / "report"
        assert main(["montecarlo", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("B", 2.7), ("B", True), ("base_seed", 1.9)])
    def test_non_integer_count_or_seed_exits_before_running(
            self, tmp_path, monkeypatch, capsys, key, value):
        """A B of 2.7 is refused naming the file, not run as 2 replications."""
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({key: value, "cells": [
            {"label": "good", "n": 12, "T": 25, "r": 2, "q": 2}]}))

        def run_grid(*args, **kwargs):
            raise AssertionError("run_grid ran on a grid with a non-integer count")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        out = tmp_path / "report"
        assert main(["montecarlo", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(path) in err and f"{key} must be an integer" in err
        assert not out.exists()

    def test_unknown_top_level_key_exits_before_running(self, tmp_path,
                                                        monkeypatch, capsys):
        """A misspelt base_seed once ran with base seed 0 and exited 0."""
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"B": 2, "base_sed": 7, "cells": [
            {"label": "good", "n": 12, "T": 25, "r": 2, "q": 2}]}))

        def run_grid(*args, **kwargs):
            raise AssertionError("run_grid ran on a file with an unknown key")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        out = tmp_path / "report"
        assert main(["montecarlo", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{path}: invalid experiment file" in err and "'base_sed'" in err
        assert not out.exists()

    @pytest.mark.parametrize("parallel", ["0", "-1"])
    def test_parallel_below_one_exits_before_running(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     parallel):
        def run_grid(*args, **kwargs):
            raise AssertionError("run_grid ran with --parallel < 1")

        monkeypatch.setattr(cli, "run_grid", run_grid)
        out = tmp_path / "report"
        code = main(["montecarlo", str(self._experiment(tmp_path)),
                     "--out", str(out), "--parallel", parallel])
        assert code == EXIT_VALIDATION
        assert "--parallel must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_theta_reports_as_float_theta(self, tmp_path):
        """1 and 1.0 are one cell: same seeds, byte-identical report."""
        outs = []
        for theta in (1, 1.0):
            cell = {"label": "c", "n": 12, "T": 25, "r": 2, "q": 2,
                    "theta": theta}
            path = tmp_path / f"theta_{theta!r}.json"
            path.write_text(json.dumps({"B": 2, "cells": [cell]}))
            outs.append(tmp_path / f"out_{theta!r}")
            assert main(["montecarlo", str(path), "--out", str(outs[-1])]) == EXIT_OK
        for name in ("cells.csv", "zhist_c.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_malformed_file_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "B": 2,\n  "cells": oops\n}')
        code = main(["montecarlo", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ('{"B": 2, "cells": []}'.encode("utf-16"),
         "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'[{"B": 2, "cells": []}]', "not a JSON object"),
    ], ids=["utf16", "array"])
    def test_unreadable_experiment_file_is_named(self, tmp_path, capsys, data,
                                                 message):
        """A UTF-16 file once exited with the codec's message, naming no
        file; a JSON array, with "list indices must be integers"."""
        path = tmp_path / "exp.json"
        path.write_bytes(data)
        code = main(["montecarlo", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "r").exists()

    def test_experiment_that_is_a_directory_exits_validation(self, tmp_path,
                                                            capsys):
        code = main(["montecarlo", str(tmp_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert "Is a directory" in capsys.readouterr().err

    def test_unknown_experiment_name(self, tmp_path, capsys):
        code = main(["montecarlo", "no_such_experiment",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
        assert "not found" in capsys.readouterr().err

    def test_bundled_experiment_resolves(self, tmp_path):
        """The bundled small grid runs end to end by name."""
        out = tmp_path / "bundled"
        assert main(["montecarlo", "table4_small", "--out", str(out)]) == EXIT_OK
        text = (out / "cells.csv").read_text()
        assert "relmse_n100_T100" in text


class TestEval:
    def test_end_to_end(self, tmp_path, capsys):
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "fit"
        _cli("fit", draw / "panel.csv", fit)
        out_file = tmp_path / "eval.json"
        capsys.readouterr()  # drop output from the setup commands
        code = main(["eval", "--truth", str(draw), "--fit", str(fit),
                     "--out", str(out_file)])
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert 0.0 < doc["tr_f"] <= 1.0
        assert 0.0 < doc["tr_lambda"] <= 1.0
        assert doc["mse_chi"] >= 0.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_refuses_overwrite(self, tmp_path):
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "fit"
        _cli("fit", draw / "panel.csv", fit)
        out_file = tmp_path / "eval.json"
        args = ["eval", "--truth", str(draw), "--fit", str(fit),
                "--out", str(out_file)]
        assert main(args) == EXIT_OK
        assert main(args) == EXIT_VALIDATION

    def test_non_finite_params_value_exits_validation(self, tmp_path, capsys):
        """A NaN in a pc output's Lambda once reached the SVD of the trace
        statistic: "numerical failure: SVD did not converge", exit 3."""
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "pc"
        assert _cli("pc", draw / "panel.csv", fit) == EXIT_OK
        path = fit / "params.json"
        doc = json.loads(path.read_text())
        doc["Lambda"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        assert f"{path}: key 'Lambda': not finite" in capsys.readouterr().err

    def test_factors_with_no_columns_exit_validation(self, tmp_path, capsys):
        """gamma_c with a gamma_B of empty rows once died dividing by zero
        in the row blocks of the factored diagonal, exit 1."""
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "pc"
        assert _cli("pc", draw / "panel.csv", fit) == EXIT_OK
        path = fit / "params.json"
        doc = json.loads(path.read_text())
        del doc["gamma_e"]
        path.write_text(json.dumps(dict(doc, gamma_c=1.0, gamma_B=[[]] * 30)))
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        assert (f"{path}: gamma_factors B must have at least one column"
                in capsys.readouterr().err)

    def test_header_only_factors_file_exits_naming_it(self, tmp_path, capsys):
        """A factors.csv with a header and no rows once read as a 1-D array
        and died in a matmul, naming no file."""
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "pc"
        assert _cli("pc", draw / "panel.csv", fit) == EXIT_OK
        path = fit / "factors.csv"
        path.write_text("F1,F2\n")
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    def test_ragged_truth_file_names_file_and_line(self, tmp_path, capsys):
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "pc"
        assert _cli("pc", draw / "panel.csv", fit) == EXIT_OK
        chi = draw / "chi.csv"
        lines = chi.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0]
        chi.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        assert f"{chi}:5: expected 30 columns, got 29" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["Lambda", "gamma_c", "gamma_B"])
    def test_missing_params_key_names_file_and_key(self, tmp_path, capsys,
                                                   key):
        """A ridge fit at n > T + r writes Gamma as its factors, with
        T + r columns in B and no n x n array; a params.json missing any
        key exits 2 naming the file and the key."""
        draw = _simulate(tmp_path, "d", n=30, T=12, tau=0.5)
        fit = tmp_path / "fit"
        assert _cli("fit", draw / "panel.csv", fit, "--estimator", "ridge") == EXIT_OK
        path = fit / "params.json"
        doc = json.loads(path.read_text())
        assert "gamma_e" not in doc and len(doc["gamma_B"]) == 30
        assert {len(row) for row in doc["gamma_B"]} == {12 + 2}
        square = [k for k, v in doc.items() if isinstance(v, list)
                  and np.shape(v) == (30, 30)]
        assert not square, f"n x n arrays in params.json: {square}"
        assert main(["eval", "--truth", str(draw), "--fit", str(fit)]) == EXIT_OK
        del doc[key]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        assert f"{path}: missing key {key!r}" in capsys.readouterr().err

    def _ridge_fit_at_small_n(self, tmp_path):
        """A truth and a ridge fit at n <= T + r (n = 20, T = 40)."""
        draw = _simulate(tmp_path, "d", tau=0.5)
        fit = tmp_path / "fit"
        assert _cli("fit", draw / "panel.csv", fit, "--estimator", "ridge") == EXIT_OK
        return draw, fit

    def test_ridge_fit_at_small_n_writes_factors_and_a_legacy_gamma_reads(
            self, tmp_path, capsys):
        """The n <= T + r ridge fit writes its Gamma as factors and
        evaluates; the same Gamma read from an older document's 2-D gamma_e
        exits 2 naming the file and the keys a full Gamma^e is stored as."""
        draw, fit = self._ridge_fit_at_small_n(tmp_path)
        path = fit / "params.json"
        doc = json.loads(path.read_text())
        assert "gamma_e" not in doc and len(doc["gamma_B"]) == 20
        assert isinstance(doc["gamma_c"], float)
        assert main(["eval", "--truth", str(draw), "--fit", str(fit)]) == EXIT_OK
        B = np.array(doc.pop("gamma_B"))
        doc["gamma_e"] = (doc.pop("gamma_c") * np.eye(20) + B @ B.T).tolist()
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        assert (f"{path}: gamma_e must be 1-D (the diagonal); a full Gamma^e "
                "is stored as its factors gamma_c/gamma_B") in capsys.readouterr().err

    @pytest.mark.parametrize("text, why", [
        ("3", "not a JSON object"),
        # A 2-D gamma_e is refused whatever its shape: the ids name the
        # older document's defect, the message is the same for both.
        pytest.param("legacy", "gamma_e must be 1-D", id="legacy-is not square"),
        pytest.param("asymmetric", "gamma_e must be 1-D",
                     id="asymmetric-gamma_e: square, not symmetric"),
        ("random_B", "B'B not diagonal"),
        ("zero_c", "c not positive"),
        ("array_c", "gamma_factors c must be 0-d, got ndim=1"),
        ("vector_Lambda", "Lambda must be a 2-D array, got ndim=1"),
        ("not JSON", "parse error at line 1: Expecting value"),
    ])
    def test_malformed_params_exits_validation_naming_the_file(
            self, tmp_path, capsys, text, why):
        """A params.json that is not JSON or not a JSON object, that has a
        2-D gamma_e (not square, or square and not symmetric), an array c
        or a 1-D Lambda, or whose factors (c, B) break c > 0 or B'B
        diagonal, exits 2 naming the file. An array c once exited 1 with a
        TypeError traceback; a 1-D Lambda and text that is not JSON exited
        2 without the file's name."""
        draw, fit = self._ridge_fit_at_small_n(tmp_path)
        path = fit / "params.json"
        doc = json.loads(path.read_text())
        if text in ("legacy", "asymmetric"):
            B = np.array(doc.pop("gamma_B"))
            G = doc.pop("gamma_c") * np.eye(20) + B @ B.T
            G[0, 1] += 0.5
            doc["gamma_e"] = (G if text == "asymmetric"
                              else np.ones((20, 19))).tolist()
        elif text == "random_B":
            doc["gamma_B"] = np.random.default_rng(0).standard_normal((20, 3)).tolist()
        elif text == "zero_c":
            doc["gamma_c"] = 0.0
        elif text == "array_c":
            doc["gamma_c"] = [doc["gamma_c"]] * 2
        elif text == "vector_Lambda":
            doc["Lambda"] = doc["Lambda"][0]
        if text not in ("3", "not JSON"):
            text = json.dumps(doc)
        path.write_text(text)
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{path}: " in err and why in err

    def test_rank_deficient_estimate_exits_numerical(self, tmp_path, capsys):
        """np.linalg.LinAlgError subclasses ValueError; it still exits 3."""
        draw = _simulate(tmp_path, "d", n=30, T=60)
        fit = tmp_path / "pc"
        assert _cli("pc", draw / "panel.csv", fit) == EXIT_OK
        F = read_matrix_csv(fit / "factors.csv")
        F[:, 1] = F[:, 0]
        write_matrix_csv(F, fit / "factors.csv", header=["F1", "F2"])
        capsys.readouterr()
        code = main(["eval", "--truth", str(draw), "--fit", str(fit)])
        assert code == EXIT_NUMERICAL
        assert "rank deficient" in capsys.readouterr().err
