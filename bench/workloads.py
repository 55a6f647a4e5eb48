"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Importing this module imports numpy, scipy and dfm_em, so the benchmark
imports it inside the timed set-up.

* ``mc_cell`` — ``run_grid`` on the bundled ``table4_small`` cell
  ``relmse_n100_T100`` (n=T=100, r=4, q=2, B=25, serial), then
  ``write_report`` to a temporary directory: ``dfm-em montecarlo`` without
  argparse. Operation i uses a fresh base seed derived from (seed, i). It
  is the study workload, where the filter and smoother's per-time-step
  overhead dominates, and the only one that times ``simulate``,
  ``metrics`` and the Monte Carlo reduction.
* ``fit_large`` — ``em_fit`` with the default ``EmConfig`` and the PC
  initialisation inside the call at (n, T, r, q) = (2000, 300, 8, 4),
  tau=0.5, delta=0.2, rotating over panels drawn in set-up. The only
  workload where work that scales with n matters.
* ``fit_ridge`` — ``ridge_fit`` with automatic mu at n=400, T=200, r=4,
  q=2, tau=0.5, delta=0.2. The filter takes its full-covariance branch and
  each M-step eigendecomposes an n x n matrix.
"""

import dataclasses
import math
import os
import tempfile
import time

import numpy as np

from dfm_em import em, extensions, montecarlo, simulate
from dfm_em.em import EmError
from dfm_em.kalman import FilterNumericalError
from dfm_em.metrics import DEFAULT_ALPHAS
from dfm_em.model import ModelDims
from dfm_em.pca import IdentificationError

# Typed failures of one operation; anything else is a defect and aborts.
OP_ERRORS = (EmError, FilterNumericalError, IdentificationError,
             montecarlo.CellAbortError, np.linalg.LinAlgError)

# Reference values match when within this relative tolerance (counts must
# match exactly). Round-off-level refactors move a log-likelihood of order
# 1e5 by far less than 1e-6 of it; dropping any term moves it by more.
RTOL = 1e-6


def sub_seed(seed, k):
    """Seed of the k-th input drawn for benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def compare(reference, got):
    """Names of the values in ``got`` that do not match ``reference``."""
    bad = []
    for key, want in reference.items():
        have = got.get(key)
        if isinstance(want, int):
            ok = have == want
        else:
            ok = have is not None and math.isclose(have, want, rel_tol=RTOL)
        if not ok:
            bad.append(f"{key}={have!r} (reference {want!r})")
    return bad


class McCell:
    """One Monte Carlo cell per operation, plus its report on disk."""

    name = "mc_cell"
    label = "relmse_n100_T100"

    def __init__(self, smoke, scratch):
        path = os.path.join(os.path.dirname(montecarlo.__file__),
                            "experiments", "table4_small.json")
        grid = montecarlo.McGrid.from_json(path)
        cell = next(c for c in grid.cells if c.label == self.label)
        self.B = 2 if smoke else grid.B
        self.cell = dataclasses.replace(cell, n=20, T=40) if smoke else cell
        self.steps = self.cell.T
        self.scratch = scratch
        self.reps_per_op = self.B
        self.iters = []
        self.probe = None
        self.probes = []

    def input(self, seed, i):
        """Base seed of operation i."""
        return sub_seed(seed, i)

    def run(self, base_seed):
        """Time one operation; returns (seconds, outcome)."""
        grid = montecarlo.McGrid(cells=(self.cell,), B=self.B,
                                 base_seed=base_seed)
        fit = montecarlo.em_fit

        probed = []

        def counted(*args, **kwargs):
            # Reads each replication's iteration count, which run_grid does
            # not report, then runs the host probe outside the timed work.
            res = fit(*args, **kwargs)
            self.iters.append(res.iters)
            if self.probe is not None:
                t1 = time.perf_counter()
                self.probes.append(self.probe())
                probed.append(time.perf_counter() - t1)
            return res

        montecarlo.em_fit = counted
        try:
            with tempfile.TemporaryDirectory(dir=self.scratch) as out:
                t0 = time.perf_counter()
                report = montecarlo.run_grid(grid, parallelism=1)
                montecarlo.write_report(report, out)
                elapsed = time.perf_counter() - t0 - sum(probed)
                with open(os.path.join(out, "cells.csv")) as fh:
                    csv = fh.read()
        finally:
            montecarlo.em_fit = fit
        return elapsed, (report.cells[0], csv)

    def failed_reps(self, outcome):
        return outcome[0].failures

    def summary(self, outcome):
        c = outcome[0]
        return {"rel_mse": float(c.stats["rel_mse"]),
                "tr_f_em": float(c.stats["tr_f_em"]),
                "cov_95": float(c.coverage.C[DEFAULT_ALPHAS.index(0.95)]),
                "n_converged": int(c.stats["n_converged"]),
                "failures": int(c.failures)}

    def check(self, outcome):
        """Problems with one operation's output that hold for any seed."""
        c, csv = outcome
        bad = []
        values = [c.stats[k] for k in ("tr_f_em", "tr_lam_em", "tr_f_pc",
                                       "tr_lam_pc", "mse_em", "mse_pc",
                                       "rel_mse")]
        if not all(math.isfinite(v) and v > 0 for v in values):
            bad.append("non-finite or non-positive cell statistic")
        C = np.asarray(c.coverage.C)
        if np.any(C < 0) or np.any(C > 1) or np.any(np.diff(C) > 0):
            bad.append(f"coverage not a CDF ladder: {C.tolist()}")
        if not 0 <= c.stats["n_converged"] <= c.B - c.failures:
            bad.append("n_converged outside [0, B - failures]")
        rows = [line.split(",") for line in csv.splitlines()]
        row = dict(zip(rows[0], rows[1])) if len(rows) == 2 else {}
        if (row.get("rel_mse") != repr(float(c.stats["rel_mse"]))
                or row.get("failures") != str(c.failures)):
            bad.append("cells.csv does not match the in-memory report")
        return bad

    def pool_probe(self, base_seed):
        """Serial and parallelism=2 wall times of one cell; reports must agree."""
        times, stats = [], []
        for workers in (1, 2):
            t0 = time.perf_counter()
            rep = montecarlo.run_cell(self.cell, self.B, base_seed,
                                      parallelism=workers)
            times.append(time.perf_counter() - t0)
            stats.append(repr(sorted(rep.stats.items())))
        bad = [] if stats[0] == stats[1] else ["parallel report differs"]
        return times[0], times[1], bad


class Fit:
    """One estimator call per operation, rotating over panels from set-up."""

    def __init__(self, name, fit, dims, panels, seed, ascent):
        self.name = name
        self.fit = fit
        self.dims = dims
        self.steps = dims.T
        self.seed = seed
        self.ascent = ascent
        self.reps_per_op = 1
        self.iters = []
        self.probe = None
        self.probes = []
        self.panels = [self.draw(seed, k) for k in range(panels)]
        self.first = {}

    def draw(self, seed, k):
        cfg = simulate.DgpConfig(dims=self.dims, tau=0.5, delta=0.2,
                                 seed=sub_seed(seed, k))
        return cfg.seed, simulate.draw_dgp(cfg).panel

    def input(self, seed, i):
        """(panel seed, panel) of operation i."""
        if seed == self.seed:
            return self.panels[i % len(self.panels)]
        return self.draw(seed, i % len(self.panels))

    def run(self, inp):
        key, panel = inp
        module, attr = self.fit
        t0 = time.perf_counter()
        res = getattr(module, attr)(panel, self.dims)
        elapsed = time.perf_counter() - t0
        self.iters.append(res.iters)
        if self.probe is not None:
            self.probes.append(self.probe())
        return elapsed, (key, res)

    def failed_reps(self, outcome):
        return 0

    def summary(self, outcome):
        res = outcome[1]
        return {"loglik": float(res.loglik_trace[-1]), "iters": int(res.iters)}

    def check(self, outcome):
        k, res = outcome
        bad = []
        trace = np.asarray(res.loglik_trace)
        if not np.all(np.isfinite(trace)) or trace.size != res.iters + 1:
            bad.append("log-likelihood trace non-finite or of wrong length")
        if self.ascent and np.any(np.diff(trace) < -1e-8 * np.abs(trace[:-1])):
            bad.append("log-likelihood decreased")
        if not res.converged:
            bad.append("did not converge")
        p = res.params
        if not all(np.all(np.isfinite(a)) for a in
                   (p.Lambda, p.A, p.H, p.gamma_e, res.factors.F_smooth)):
            bad.append("non-finite parameters or factors")
        # The same panel must give the same fit every time it comes round.
        first = self.first.setdefault(k, self.summary(outcome))
        bad += [f"repeat of panel seed {k}: {m}"
                for m in compare(first, self.summary(outcome))]
        return bad


def make(name, seed, smoke, scratch):
    """Build a workload's inputs for ``seed``; this is the timed set-up."""
    if name == "mc_cell":
        return McCell(smoke, scratch)
    if name == "fit_large":
        dims = (ModelDims(n=30, T=40, r=3, q=2) if smoke
                else ModelDims(n=2000, T=300, r=8, q=4))
        return Fit(name, (em, "em_fit"), dims, 2 if smoke else 3, seed, True)
    if name == "fit_ridge":
        dims = (ModelDims(n=20, T=40, r=2, q=1) if smoke
                else ModelDims(n=400, T=200, r=4, q=2))
        return Fit(name, (extensions, "ridge_fit"), dims, 2 if smoke else 3,
                   seed, False)
    raise ValueError(f"unknown workload {name!r}")

