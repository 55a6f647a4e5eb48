"""Named one-line mutations of the package, and whether the tests kill them.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named ones

Each mutant replaces one fragment of one file under ``src/`` (the fragment
must occur exactly once there). For each mutant the script copies ``src/``
to a temporary directory, applies the mutation, runs the mutant's tests
from ``tests/`` against the copy with pytest (stopping at the first
failure) and prints ``killed``, with the first failing test, or
``survived``. The same tests are first run against an unmutated copy,
which must pass. It is not part of the test suite; it exits 1 if a mutant
survives or a run errs.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/dfm_em
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("z_variance_0.9_V", "metrics.py",
           "np.sqrt(W[:, None] / n + V / T)",
           "np.sqrt(W[:, None] / n + 0.9 * V / T)",
           ("tests/test_metrics.py",)),
    Mutant("abort_fraction_0.3", "montecarlo.py",
           "MAX_FAILURE_FRACTION = 0.2", "MAX_FAILURE_FRACTION = 0.3",
           ("tests/test_montecarlo.py",)),
    Mutant("gamma_rtol_1e-6", "em.py",
           "_GAMMA_RTOL = 1e-8", "_GAMMA_RTOL = 1e-6",
           ("tests/test_em.py",)),
    Mutant("burn_in_t_4", "metrics.py",
           "BURN_IN_T = 5", "BURN_IN_T = 4",
           ("tests/test_metrics.py",)),
    # The next six drop the last row block when there are several, so only
    # a test over more than one block can kill them.
    Mutant("ridge_gram_drops_last_block", "extensions.py",
           "dsyrk(1.0, Zb.T,", "dsyrk(float(b.start == 0 or b.stop < n), Zb.T,",
           ("tests/test_extensions.py",)),
    Mutant("woodbury_norms_drop_last_block", "kalman.py",
           "dgemm(1.0, B[b].T,",
           "dgemm(float(b.start == 0 or b.stop < X.shape[0]), B[b].T,",
           ("tests/test_extensions.py", "tests/test_kalman.py")),
    Mutant("diagonal_norms_drop_last_block", "kalman.py",
           "out += inv[b] @ E",
           "out += float(b.start == 0 or b.stop < X.shape[0]) * inv[b] @ E",
           ("tests/test_model.py::TestSqResidualSums", "tests/test_kalman.py")),
    Mutant("m_step_sums_drop_last_block", "em.py",
           'np.einsum("ij,ij->i", E, E, out=ss[b])',
           'np.einsum("ij,ij->i", E, float(b.start == 0 or b.stop < panel.n) * E, '
           'out=ss[b])',
           ("tests/test_model.py::TestSqResidualSums", "tests/test_em.py")),
    Mutant("ecm_moments_drop_last_block", "extensions.py",
           'np.einsum("it,it->i", E, E, out=ss[b])',
           'np.einsum("it,it->i", E, float(b.start == 0 or b.stop < n) * E, out=ss[b])',
           ("tests/test_extensions.py::TestArUpdates",)),
    Mutant("ar1_v_drops_last_block", "metrics.py",
           "np.linalg.solve(inner[b], F[None])",
           "float(b.start == 0 or b.stop < n) * np.linalg.solve(inner[b], F[None])",
           ("tests/test_metrics.py::TestAsvar",)),
    # Each drops Woodbury's low-rank term from one output of the whitener,
    # leaving that of a diagonal Gamma = c I.
    Mutant("woodbury_lg_without_low_rank", "kalman.py",
           "        Lg = Lg - (B @ (BL / s[:, None])) / c\n", "",
           ("tests/test_extensions.py::TestFactoredWhitening", "tests/test_kalman.py")),
    Mutant("woodbury_m_without_low_rank", "kalman.py",
           "        M = M - (BL.T @ (BL / s[:, None])) / c\n", "",
           ("tests/test_extensions.py::TestFactoredWhitening", "tests/test_kalman.py")),
    Mutant("woodbury_logdet_without_low_rank", "kalman.py",
           "        logdet = logdet + np.sum(np.log1p(delta / c))\n", "",
           ("tests/test_extensions.py::TestFactoredWhitening", "tests/test_kalman.py")),
    Mutant("fit_keeps_previous_estimate", "em.py",
           "        state.params = None\n", "",
           ("tests/test_extensions.py::TestRidgeFit",)),
    # The paper's specification: the M-step's sums, the q < r shrink, the
    # draw's design and the evaluation's statistics.
    Mutant("s_ff_lag_without_c_lag1", "em.py",
           "Fs[:, 1:] @ Fs[:, :-1].T + smooth.C_lag1[1:].sum(axis=0)",
           "Fs[:, 1:] @ Fs[:, :-1].T",
           ("tests/test_em.py",)),
    Mutant("gom_from_s_ff", "em.py",
           "        stats.S_FF_head\n", "        stats.S_FF\n",
           ("tests/test_em.py",)),
    Mutant("h_without_shrink", "em.py",
           "_shock_loading(Gom, q, _SHRINK / T)", "_shock_loading(Gom, q, 0.0)",
           ("tests/test_em.py",)),
    Mutant("toeplitz_root_without_scale", "simulate.py",
           "z[1:] *= np.sqrt(1.0 - tau * tau)", "z[1:] *= 1.0",
           ("tests/test_simulate.py",)),
    Mutant("burn_in_50", "simulate.py",
           "BURN_IN = 100", "BURN_IN = 50",
           ("tests/test_simulate.py",)),
    Mutant("var_offdiagonal_0.2", "simulate.py",
           "rng.uniform(0.0, 0.3, size=(r, r))", "rng.uniform(0.0, 0.2, size=(r, r))",
           ("tests/test_simulate.py",)),
    Mutant("trace_statistic_uncapped", "metrics.py",
           "return min(val, 1.0)", "return val",
           ("tests/test_metrics.py",)),
    Mutant("coverage_quantiles_reversed", "metrics.py",
           "for q in _NORMAL_QUANTILES]", "for q in _NORMAL_QUANTILES[::-1]]",
           ("tests/test_metrics.py",)),
    Mutant("shrink_0.2", "em.py",
           "_SHRINK = 0.1", "_SHRINK = 0.2",
           ("tests/test_em.py",)),
    Mutant("freeze_rtol_1e-9", "kalman.py",
           "_FREEZE_RTOL = 1e-15", "_FREEZE_RTOL = 1e-9",
           ("tests/test_kalman.py",)),
    Mutant("steady_tol_1e-6", "kalman.py",
           "_STEADY_TOL = 1e-8", "_STEADY_TOL = 1e-6",
           ("tests/test_kalman.py",)),
    Mutant("t4_scale_sqrt_1.5", "simulate.py",
           "x /= np.sqrt(2.0)", "x /= np.sqrt(1.5)",
           ("tests/test_simulate.py",)),
    # Killed by the law read back from the stream, not by an empty support.
    Mutant("rho_support_2.5_delta", "simulate.py",
           "1.0 - 2.0 * config.delta", "1.0 - 2.5 * config.delta",
           ("tests/test_simulate.py::TestDesignFromTheStreams",)),
    # Refusals: each argument is refused when built or read, naming itself.
    Mutant("em_cell_shorter_than_burn_in", "montecarlo.py",
           "if self.T < BURN_IN_T:", "if False:",
           ("tests/test_cli.py::TestMontecarlo::test_bad_cell_exits_before_running",)),
    Mutant("dgp_mu_up_to_one", "simulate.py",
           "self.mu < 1.0 - STABILITY_TOL", "self.mu < 1.0",
           ("tests/test_simulate.py::TestConfigValidation",)),
    Mutant("draw_violation_untyped", "simulate.py",
           'raise ValueError(f"drawn parameters', 'raise RuntimeError(f"drawn parameters',
           ("tests/test_simulate.py::TestDrawDgp",)),
    Mutant("csv_non_finite_field_read", "io.py",
           "if not np.isfinite(row).all():", "if False:",
           ("tests/test_io.py::TestPanelCsv",)),
    Mutant("params_non_finite_value_read", "io.py",
           "if not np.isfinite(fields[key]).all():", "if False:",
           ("tests/test_io.py::TestParamsJson",)),
    Mutant("theta_overflow_unrefused", "simulate.py",
           "if not np.all(np.isfinite(scale)):", "if False:",
           ("tests/test_simulate.py::TestDrawDgp",)),
    Mutant("params_value_error_unnamed", "io.py",
           'raise ValueError(f"{path}: key {key!r}: {exc}") from None', "raise",
           ("tests/test_io.py::TestParamsJson",)),
    # One value picks the estimator, and its record states the guard.
    Mutant("ascent_guard_on_every_estimator", "em.py",
           "if estimator.guarded and trace and", "if trace and",
           ("tests/test_em.py::TestFitFailures",)),
    Mutant("ascent_slack_1e-6", "em.py",
           "trace[-1] - 1e-8 * abs(trace[-1])", "trace[-1] - 1e-6 * abs(trace[-1])",
           ("tests/test_em.py::TestFitFailures::test_ascent_slack_boundary",)),
    Mutant("ridge_guarded", "extensions.py",
           "_Estimator(guarded=False, gamma0=", "_Estimator(guarded=True, gamma0=",
           ("tests/test_em.py::TestFitFailures::test_ridge_and_ecm_do_not_guard_ascent",)),
    Mutant("em_fit_unguarded", "em.py",
           "_Estimator(guarded=True)", "_Estimator(guarded=False)",
           ("tests/test_em.py::TestFitFailures::"
            "test_falling_loglik_raises_ascent_violation",)),
    # The stop rule reads a change over l_1 + l_0 = 0 as zero, not as 1/0.
    Mutant("stop_rule_zero_sum_guard", "em.py",
           "if l1 + l0 else 0.0", "if l1 - l0 else 0.0",
           ("tests/test_em.py::TestFitFailures::test_zero_sum_logliks_stop",)),
    # The warm start from the smoothed time-zero moments, not from t = 1.
    Mutant("warm_start_from_t1", "em.py",
           "InitState(F0=smooth.F0_smooth, P0=smooth.P0_smooth)",
           "InitState(F0=smooth.F_smooth[:, 0], P0=smooth.P_smooth[0])",
           ("tests/test_em.py::TestEmFit::test_warm_start_hand_over",)),
    Mutant("cli_ecm_runs_em", "cli.py",
           '"ecm": ecm_fit}', '"ecm": em_fit}',
           ("tests/test_cli.py::TestFit",)),
    # The ridge penalty is Gamma's only floor, so it is always positive.
    Mutant("ridge_mu_zero_allowed", "extensions.py",
           "if not 0.0 < mu < np.inf:", "if not 0.0 <= mu < np.inf:",
           ("tests/test_cli.py::TestFit::test_ridge_fits_a_panel_with_an_all_zero_series",)),
    Mutant("ridge_auto_rule_zero_switch", "extensions.py",
           "mu = dims.n * dims.n / dims.T",
           "mu = dims.n * dims.n / dims.T if dims.n * dims.n >= dims.T else 0.0",
           ("tests/test_extensions.py::TestRidgeFit::"
            "test_all_zero_series_fits_at_the_default_mu",)),
)


def _run(src, tests):
    """(pytest exit code, first failing test id) for ``tests`` on ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed.group(1) if failed else ""


def _copy_src(dest):
    src = os.path.join(dest, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _apply(src, m):
    path = os.path.join(src, "dfm_em", m.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: {m.old!r} occurs {text.count(m.old)} "
                         f"times in {m.path}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(m.old, m.new))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = p.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        code, failed = _run(_copy_src(tmp), tests)
    if code != 0:
        print(f"unmutated source fails its tests (exit {code}) {failed}")
        return 1
    bad = 0
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            _apply(src, m)
            code, failed = _run(src, m.tests)
        verdict = {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")
        bad += code != 1
        print(f"{m.name:34s} {verdict:9s} {failed}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
