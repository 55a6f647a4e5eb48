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

import numpy as np

from . import io as dfm_io
from .em import _NUMERICAL_FAILURES, EmConfig, em_fit
from .extensions import _check_mu, ecm_fit, ridge_fit
from .metrics import common_mse, trace_statistic
from .model import DfmParams, ModelDims, Panel, _check_integer
from .montecarlo import CellAbortError, McGrid, _report_paths, run_grid, \
    write_report
from .pca import pc_estimate
from .simulate import DgpConfig, draw_dgp

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

    sim = sub.add_parser("simulate", help="draw a synthetic panel")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--T", type=int, required=True)
    sim.add_argument("--r", type=int, required=True)
    sim.add_argument("--q", type=int, required=True)
    sim.add_argument("--tau", type=float, default=0.0)
    sim.add_argument("--delta", type=float, default=0.0)
    sim.add_argument("--theta", type=float, default=0.5)
    sim.add_argument("--mu", type=float, default=0.5)
    sim.add_argument("--innovation", choices=["gaussian", "student_t4"],
                     default="gaussian")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--overwrite", action="store_true")

    fit = sub.add_parser("fit", help="fit the model to a panel CSV")
    fit.add_argument("--panel", required=True)
    fit.add_argument("--r", type=int, required=True)
    fit.add_argument("--q", type=int, required=True)
    fit.add_argument("--epsilon", type=float, default=1e-4)
    fit.add_argument("--max-iter", type=int, default=500)
    fit.add_argument("--standardize", action="store_true",
                     help="center and scale each series to unit variance "
                          "before fitting")
    fit.add_argument("--estimator", choices=list(_ESTIMATORS), default="em")
    fit.add_argument("--ridge-mu", help="ridge penalty mu > 0 (default: the n^2/T rule)")
    fit.add_argument("--out", required=True)
    fit.add_argument("--overwrite", action="store_true")

    pc = sub.add_parser("pc", help="principal-components estimation only")
    pc.add_argument("--panel", required=True)
    pc.add_argument("--r", type=int, required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--out", required=True)
    pc.add_argument("--overwrite", action="store_true")

    mc = sub.add_parser("montecarlo", help="run a Monte Carlo experiment file")
    mc.add_argument("experiment",
                    help="experiment JSON path, or the name of a bundled file "
                         "(e.g. 'table4_small')")
    mc.add_argument("--out", required=True)
    mc.add_argument("--parallel", type=int, default=1, help="worker processes")
    mc.add_argument("--overwrite", action="store_true")

    ev = sub.add_parser("eval", help="compare a fit against a simulated truth")
    ev.add_argument("--truth", required=True, help="directory from 'simulate'")
    ev.add_argument("--fit", required=True, help="directory from 'fit' or 'pc'")
    ev.add_argument("--out", default=None, help="optional JSON output path")
    ev.add_argument("--overwrite", action="store_true")
    return p


def _cmd_simulate(args) -> int:
    dfm_io._refuse_existing(dfm_io._output_paths("simulate", args.out),
                            args.overwrite)
    config = DgpConfig(
        dims=ModelDims(n=args.n, T=args.T, r=args.r, q=args.q),
        tau=args.tau, delta=args.delta, theta=args.theta, mu=args.mu,
        innovation=args.innovation, seed=args.seed,
    )
    draw = draw_dgp(config)
    dfm_io.write_dgp_draw(draw, args.out, overwrite=args.overwrite)
    print(f"wrote draw (n={args.n}, T={args.T}) to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    kwargs = {}
    if args.ridge_mu is not None:
        if args.estimator != "ridge":
            raise ValueError("--ridge-mu applies only with --estimator ridge")
        try:
            kwargs["mu"] = float(args.ridge_mu)
            _check_mu(kwargs["mu"])
        except ValueError as exc:
            raise ValueError(f"--ridge-mu: {exc}") from None
    config = EmConfig(epsilon=args.epsilon, max_iter=args.max_iter)
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
    dfm_io.write_matrix_csv(est.Ftilde.T, factors_path,
                            header=[f"F{j+1}" for j in range(args.r)])
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
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
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
