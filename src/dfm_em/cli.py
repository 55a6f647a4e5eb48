"""Command-line interface.

Subcommands: simulate, fit, pc, montecarlo, eval. Exit codes: 0 success,
2 validation or file error (any OSError), 3 numerical failure,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import io as dfm_io
from .em import _NUMERICAL_FAILURES, EmConfig, em_fit
from .extensions import _check_mu, ecm_fit, ridge_fit
from .metrics import common_mse, trace_statistic
from .model import DfmParams, ModelDims, Panel, _check_integer
from .montecarlo import CellAbortError, McGrid, _report_paths, run_grid, \
    write_report
from .pca import pc_estimate
from .simulate import DgpConfig, Innovation, draw_dgp

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4

# The paper's EM (diagonal idiosyncratic covariance) and its two extensions.
_ESTIMATORS = {"em": em_fit, "ridge": ridge_fit, "ecm": ecm_fit}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dfm-em",
        description="Dynamic factor model estimation by EM with Kalman smoothing",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # The flags several subcommands share, each declared once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    out.add_argument("--overwrite", action="store_true")
    panel = argparse.ArgumentParser(add_help=False)
    panel.add_argument("--panel", required=True)
    panel.add_argument("--r", type=int, required=True)
    panel.add_argument("--q", type=int, required=True)

    # An option of DgpConfig or EmConfig is left unset unless given, so the
    # dataclass supplies its default.
    sim = sub.add_parser("simulate", help="draw a synthetic panel", parents=[out],
                         argument_default=argparse.SUPPRESS)
    for name in ("--n", "--T", "--r", "--q"):
        sim.add_argument(name, type=int, required=True)
    for name in ("--tau", "--delta", "--theta", "--mu"):
        sim.add_argument(name, type=float)
    sim.add_argument("--innovation", choices=[i.value for i in Innovation])
    sim.add_argument("--seed", type=int)

    fit = sub.add_parser("fit", help="fit the model to a panel CSV", parents=[out, panel],
                         argument_default=argparse.SUPPRESS)
    fit.add_argument("--epsilon", type=float)
    fit.add_argument("--max-iter", type=int)
    fit.add_argument("--standardize", action="store_true", default=False,
                     help="center and scale each series to unit variance "
                          "before fitting")
    fit.add_argument("--estimator", choices=list(_ESTIMATORS), default="em")
    fit.add_argument("--ridge-mu", help="ridge penalty mu > 0 (default: the n^2/T rule)")

    sub.add_parser("pc", help="principal-components estimation only", parents=[out, panel])

    mc = sub.add_parser("montecarlo", help="run a Monte Carlo experiment file",
                        parents=[out])
    mc.add_argument("experiment",
                    help="experiment JSON path, or the name of a bundled file "
                         "(e.g. 'table4_small')")
    mc.add_argument("--parallel", type=int, default=1, help="worker processes")

    ev = sub.add_parser("eval", help="compare a fit against a simulated truth")
    ev.add_argument("--truth", required=True, help="directory from 'simulate'")
    ev.add_argument("--fit", required=True, help="directory from 'fit' or 'pc'")
    ev.add_argument("--out", default=None, help="optional JSON output path")
    ev.add_argument("--overwrite", action="store_true")
    return p


def _given(args, config_type) -> dict:
    """The fields of the dataclass ``config_type`` that ``args`` holds."""
    return {f.name: getattr(args, f.name) for f in fields(config_type) if f.name in args}


def _cmd_simulate(args) -> int:
    dfm_io._refuse_existing(dfm_io._output_paths("simulate", args.out),
                            args.overwrite)
    config = DgpConfig(dims=ModelDims(**_given(args, ModelDims)),
                       **_given(args, DgpConfig))
    draw = draw_dgp(config)
    dfm_io.write_dgp_draw(draw, args.out, overwrite=args.overwrite)
    print(f"wrote draw (n={args.n}, T={args.T}) to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    kwargs = {}
    if "ridge_mu" in args:
        if args.estimator != "ridge":
            raise ValueError("--ridge-mu applies only with --estimator ridge")
        try:
            kwargs["mu"] = float(args.ridge_mu)
            _check_mu(kwargs["mu"])
        except ValueError as exc:
            raise ValueError(f"--ridge-mu: {exc}") from None
    config = EmConfig(**_given(args, EmConfig))
    dfm_io._refuse_existing(dfm_io._output_paths("fit", args.out),
                            args.overwrite)
    panel = dfm_io.read_panel_csv(args.panel)
    if args.standardize:
        X = panel.X - panel.X.mean(axis=1, keepdims=True)
        sd = X.std(axis=1)
        flat = ~(sd > 0.0)
        if np.any(flat):
            names = ", ".join(name for name, f in zip(panel.names, flat) if f)
            raise ValueError("--standardize cannot scale a series with zero "
                             f"variance: {names}")
        X /= sd[:, None]
        panel = Panel(X=X, names=panel.names)
    dims = ModelDims(n=panel.n, T=panel.T, r=args.r, q=args.q)
    result = _ESTIMATORS[args.estimator](panel, dims, config, **kwargs)
    dfm_io.write_em_result(result, args.out, overwrite=args.overwrite)
    print(f"iterations: {result.iters}")
    print(f"final loglik: {float(result.loglik_trace[-1])!r}")
    print(f"converged: {result.converged}")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_pc(args) -> int:
    paths = dfm_io._output_paths("pc", args.out)
    dfm_io._refuse_existing(paths, args.overwrite)
    params_path, factors_path = paths
    panel = dfm_io.read_panel_csv(args.panel)
    est = pc_estimate(panel, args.r, args.q)
    os.makedirs(args.out, exist_ok=True)
    params = DfmParams(Lambda=est.Lambda0, A=est.A0, H=est.H0,
                       gamma_e=est.GammaE0)
    dfm_io.write_params_json(params, params_path)
    dfm_io._write_factors_csv(est.Ftilde, factors_path)
    print(f"leading eigenvalues: {', '.join(repr(float(v)) for v in est.eigvals)}")
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    _check_integer("--parallel", args.parallel, 1)
    path = args.experiment
    if not os.path.exists(path):
        bundled = os.path.join(os.path.dirname(__file__), "experiments",
                               f"{path}.json")
        if os.path.exists(bundled):
            path = bundled
        else:
            raise ValueError(f"experiment file not found: {args.experiment}")
    grid = McGrid.from_json(path)
    dfm_io._refuse_existing(_report_paths(grid.cells, args.out), args.overwrite)
    report = run_grid(grid, parallelism=args.parallel)
    write_report(report, args.out, overwrite=args.overwrite)
    print(f"wrote {len(report.cells)} cell rows to {args.out} "
          f"in {report.seconds:.1f}s")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.out:
        dfm_io._refuse_existing([args.out], args.overwrite)
    # A "fit" directory starts with the two files of a "pc" directory.
    _, F_path, chi_path, params_path = dfm_io._output_paths("simulate", args.truth)
    fit_params_path, fit_F_path = dfm_io._output_paths("pc", args.fit)
    F_true, chi_true, F_hat = (dfm_io.read_matrix_csv(p).T
                               for p in (F_path, chi_path, fit_F_path))
    true_params = dfm_io.read_params_json(params_path)
    fit_params = dfm_io.read_params_json(fit_params_path)
    chi_hat = fit_params.Lambda @ F_hat

    out = {
        "tr_f": trace_statistic(F_true, F_hat),
        "tr_lambda": trace_statistic(true_params.Lambda, fit_params.Lambda),
        "mse_chi": common_mse(chi_true, chi_hat),
    }
    text = json.dumps(out, indent=2)
    print(text)
    if args.out:
        dfm_io._write_text(args.out, text)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "pc": _cmd_pc,
    "montecarlo": _cmd_montecarlo,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so the numerical clause goes first.
    except (*_NUMERICAL_FAILURES, CellAbortError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
