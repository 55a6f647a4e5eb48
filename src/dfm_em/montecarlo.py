"""Monte Carlo harness: replicate estimation experiments over a cell grid.

Each cell fixes a data generating process and an evaluation mode:

* ``"em"`` — draw a panel, fit by principal components (baseline) and by
  the EM algorithm with a diagonal idiosyncratic covariance (deliberately
  mis-specified when the DGP has cross- or serial correlation), and
  aggregate trace statistics, common-component MSEs and coverage of the
  standardized errors.
* ``"filter_only"`` — feed the true values of the parameters that the
  estimated (white-noise, diagonal-covariance) model actually carries —
  true loadings, factor VAR, and the diagonal of the true idiosyncratic
  innovation covariance — to the Kalman filter and record the steady-state
  traces of the one-step-ahead and filtered MSE matrices.

A cell checks itself when built, so a grid that cannot run is refused
before any cell runs. Replication b of cell j draws its seed from the
(j, b) substream of the base seed, and per-replication results are reduced
in replication order, so reports are bit-identical for any parallelism level.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .em import _NUMERICAL_FAILURES, EmConfig, em_fit
from .io import _fmt, _refuse_existing
from .kalman import kalman_filter, stationary_init, steady_state_diagnostics
from .metrics import BURN_IN_T, DEFAULT_ALPHAS, HIST_EDGES, CoverageTable, \
    ZAccumulator, common_mse, trace_statistic, z_scores
from .model import ModelDims, _check_integer, _check_real
from .pca import _check_length, pc_estimate
from .simulate import DgpConfig, draw_dgp

__all__ = [
    "McCell",
    "McGrid",
    "McCellReport",
    "McReport",
    "CellAbortError",
    "run_cell",
    "run_grid",
    "write_report",
]

MAX_FAILURE_FRACTION = 0.2
# The per-replication statistics of an "em" cell, whose means it reports:
# factor trace, loading trace and common-component MSE of EM, then of PC.
_EM_STATS = ("tr_f_em", "tr_lam_em", "mse_em", "tr_f_pc", "tr_lam_pc", "mse_pc")


class CellAbortError(RuntimeError):
    """Too many replication failures in one cell; carries the cell label."""

    def __init__(self, label, failures, B):
        super().__init__(
            f"cell {label!r} aborted: {failures}/{B} replications failed "
            f"(limit {MAX_FAILURE_FRACTION:.0%})"
        )
        self.label = label


@dataclass(frozen=True)
class McCell:
    """One experiment cell: a DGP setting plus the evaluation mode, checked
    when built. The label names files, so it must be a plain file name; tau,
    delta, theta and mu are stored as floats, so 1 and 1.0 make one cell."""

    label: str
    n: int
    T: int
    r: int
    q: int
    tau: float = DgpConfig.tau
    delta: float = DgpConfig.delta
    theta: float = DgpConfig.theta
    mu: float = DgpConfig.mu
    innovation: str = DgpConfig.innovation.value
    mode: str = "em"

    def __post_init__(self):
        if self.mode not in ("em", "filter_only"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        if self.label in ("", ".", "..") or os.path.basename(self.label) != self.label:
            raise ValueError(f"cell label {self.label!r} is not a plain file name")
        for name in ("tau", "delta", "theta", "mu"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        self.dgp_config(0)
        if self.mode == "em":
            _check_length(self.T, self.r)
            if self.T < BURN_IN_T:
                raise ValueError(f"an em cell needs T >= BURN_IN_T = {BURN_IN_T}, "
                                 f"got T={self.T}")

    def dgp_config(self, seed: int) -> DgpConfig:
        return DgpConfig(
            dims=ModelDims(n=self.n, T=self.T, r=self.r, q=self.q),
            tau=self.tau, delta=self.delta, theta=self.theta, mu=self.mu,
            innovation=self.innovation, seed=seed,
        )


@dataclass(frozen=True)
class McGrid:
    """A list of cells with a replication count and a base seed."""

    cells: tuple
    B: int = 100
    base_seed: int = 0

    def __post_init__(self):
        _check_integer("B", self.B, 1)
        _check_integer("base_seed", self.base_seed, 0)
        object.__setattr__(self, "cells", tuple(self.cells))
        seen = set()
        for c in self.cells:
            if c.label in seen:
                raise ValueError(f"duplicate cell label {c.label!r}")
            seen.add(c.label)

    @staticmethod
    def from_json(path) -> "McGrid":
        with open(path) as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: parse error at line {exc.lineno}: {exc.msg}"
            ) from exc
        try:
            cells = tuple(McCell(**c) for c in doc["cells"])
            return McGrid(**{**doc, "cells": cells})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: invalid experiment file: {exc}") from exc


@dataclass
class McCellReport:
    cell: McCell
    B: int
    failures: int
    stats: dict = field(default_factory=dict)
    coverage: CoverageTable = None
    hist: np.ndarray = None
    seconds: float = 0.0


@dataclass
class McReport:
    cells: list
    base_seed: int
    B: int
    seconds: float = 0.0


def _cell_key(cell: McCell) -> int:
    """Stable 32-bit key derived from the cell's contents (not its position),
    so reordering cells in a grid leaves every cell's results unchanged."""
    digest = hashlib.sha256(repr(cell).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _rep_seed(base_seed: int, cell_key: int, b: int) -> int:
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=(int(cell_key), int(b)))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_replication(args):
    """One replication; returns a picklable result dict. A typed numerical
    failure (EM, filter, identification, a singular system) fails the
    replication; any other exception is a defect and propagates."""
    cell, seed = args
    try:
        config = cell.dgp_config(seed)
        draw = draw_dgp(config)
        if cell.mode == "filter_only":
            # The filter runs on the model actually estimated: white
            # measurement noise with the true idiosyncratic variances,
            # which is what a draw carries; the filter ignores rho.
            truth = draw.params
            filt = kalman_filter(draw.panel, truth, stationary_init(truth))
            diag = steady_state_diagnostics(filt, cell.q)
            return {"failed": False, "tr_pred": diag.tr_pred,
                    "tr_filt": diag.tr_filt, "t_bar": diag.t_bar}

        pc = pc_estimate(draw.panel, cell.r, cell.q)
        res = em_fit(draw.panel, config.dims, EmConfig(), init=pc)
        stats = []  # in the order of _EM_STATS
        for F_hat, Lam_hat in ((res.factors.F_smooth, res.params.Lambda),
                               (pc.Ftilde, pc.Lambda0)):
            stats += [trace_statistic(draw.factors, F_hat),
                      trace_statistic(draw.params.Lambda, Lam_hat),
                      common_mse(draw.chi, Lam_hat @ F_hat)]
        acc = ZAccumulator()
        acc.update(z_scores(res, draw.chi))
        return {"failed": False, "stats": stats, "acc": acc,
                "converged": res.converged}
    except _NUMERICAL_FAILURES as exc:
        return {"failed": True, "error": f"{type(exc).__name__}: {exc}"}


def run_cell(cell: McCell, B: int, base_seed: int,
             parallelism: int = 1) -> McCellReport:
    """Run B replications of one cell and aggregate. B >= 1, base_seed >= 0
    and parallelism >= 1 must be integers, checked before any replication.

    Failed replications are excluded and counted; the cell aborts if more
    than 20% fail. Results are reduced in replication order, which makes
    the aggregates independent of the parallelism level; replication seeds
    depend only on (base_seed, cell contents, b), not on the cell's
    position in a grid.
    """
    _check_integer("B", B, 1)
    _check_integer("base_seed", base_seed, 0)
    _check_integer("parallelism", parallelism, 1)
    t0 = time.perf_counter()
    key = _cell_key(cell)
    jobs = [(cell, _rep_seed(base_seed, key, b)) for b in range(B)]
    if parallelism > 1:
        # Imported here, so multiprocessing loads only for a parallel run.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_run_replication, jobs, chunksize=1))
    else:
        results = [_run_replication(j) for j in jobs]

    failures = sum(1 for r in results if r["failed"])
    if failures > MAX_FAILURE_FRACTION * B:
        raise CellAbortError(cell.label, failures, B)
    ok = [r for r in results if not r["failed"]]

    report = McCellReport(cell=cell, B=B, failures=failures)
    m = len(ok)
    if cell.mode == "filter_only":
        report.stats = {k: sum((r[k] for r in ok), np.zeros_like(ok[0][k])) / m
                        for k in ("tr_pred", "tr_filt")}
        t_bars = [r["t_bar"] for r in ok if r["t_bar"] is not None]
        report.stats["t_bar_mean"] = float(np.mean(t_bars)) if t_bars else float("nan")
    else:
        sums = [sum(col) for col in zip(*(r["stats"] for r in ok))]
        means = [s / m for s in sums]
        acc = ok[0]["acc"]
        for r in ok[1:]:
            acc = acc.merge(r["acc"])
        # EM over PC: the traces as ratios of means, the MSE of sums.
        report.stats = dict(zip(_EM_STATS, means),
                            rel_tr_f=means[0] / means[3],
                            rel_tr_lam=means[1] / means[4],
                            rel_mse=sums[2] / sums[5],
                            n_converged=sum(int(r["converged"]) for r in ok))
        report.coverage = acc.table()
        report.hist = acc.hist
    report.seconds = time.perf_counter() - t0
    return report


def run_grid(grid: McGrid, parallelism: int = 1) -> McReport:
    """Run every cell of the grid; each cell is seeded from its contents,
    so reordering cells leaves every per-cell result unchanged."""
    t0 = time.perf_counter()
    cells = [
        run_cell(cell, grid.B, grid.base_seed, parallelism)
        for cell in grid.cells
    ]
    return McReport(cells=cells, base_seed=grid.base_seed, B=grid.B,
                    seconds=time.perf_counter() - t0)


_COVERAGE_COLUMNS = ([f"cov_{int(round(a * 100)):02d}" for a in DEFAULT_ALPHAS]
                     + ["z_mean", "z_std", "z_skew", "z_kurt"])
_CSV_COLUMNS = (
    ["label", "mode", "n", "T", "r", "q", "tau", "delta", "B", "failures",
     "tr_f_em", "tr_lam_em", "tr_f_pc", "tr_lam_pc", "rel_tr_f", "rel_tr_lam",
     "mse_em", "mse_pc", "rel_mse"]
    + _COVERAGE_COLUMNS
    + [f"tr_pred_{t}" for t in range(1, 6)]
    + [f"tr_filt_{t}" for t in range(1, 6)]
    + ["t_bar_mean"]
)


def _report_paths(cells, outdir) -> list:
    """Files a report on ``cells`` writes, a Z histogram per "em" cell last."""
    names = ["cells.csv", "manifest.json"]
    names += [f"zhist_{c.label}.csv" for c in cells if c.mode == "em"]
    return [os.path.join(outdir, name) for name in names]


def write_report(report: McReport, outdir, overwrite: bool = False):
    """Write cells.csv, per-cell Z histograms and a run manifest.

    The CSV files are deterministic functions of the report contents;
    timings and environment details go only into manifest.json. Without
    ``overwrite``, refuses before writing if one of the files exists.
    """
    paths = _report_paths([c.cell for c in report.cells], outdir)
    _refuse_existing(paths, overwrite)
    cells_path, manifest_path, *hist_paths = paths
    os.makedirs(outdir, exist_ok=True)

    lines = [",".join(_CSV_COLUMNS)]
    for c in report.cells:
        cell = c.cell
        # Fields by column name: identity fields as they are, numbers by
        # _fmt, and empty where the cell's mode reports no such statistic.
        as_is = dict(label=cell.label, mode=cell.mode, n=cell.n, T=cell.T,
                     r=cell.r, q=cell.q, B=c.B, failures=c.failures)
        nums = dict(c.stats, tau=cell.tau, delta=cell.delta)
        if cell.mode == "em":
            cov = c.coverage
            nums.update(zip(_COVERAGE_COLUMNS, [*cov.C, cov.mean, cov.std,
                                                cov.skewness, cov.kurtosis]))
        else:  # the steady-state traces by position, t = 1, 2, ...
            for k in ("tr_pred", "tr_filt"):
                nums.update((f"{k}_{t}", v) for t, v in enumerate(c.stats[k], 1))
        lines.append(",".join(
            str(as_is[k]) if k in as_is else _fmt(nums[k]) if k in nums else ""
            for k in _CSV_COLUMNS))
    with open(cells_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    em_cells = [c for c in report.cells if c.cell.mode == "em"]
    for c, hpath in zip(em_cells, hist_paths):
        hlines = ["bin_left,bin_right,count"]
        for lo, hi, k in zip(HIST_EDGES[:-1], HIST_EDGES[1:], c.hist):
            hlines.append(f"{_fmt(lo)},{_fmt(hi)},{int(k)}")
        with open(hpath, "w") as fh:
            fh.write("\n".join(hlines) + "\n")

    from . import __version__  # at call time: the package imports this module
    manifest = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "base_seed": report.base_seed,
        "B": report.B,
        "cells": [c.cell.label for c in report.cells],
        "seconds_total": report.seconds,
        "seconds_per_cell": {c.cell.label: c.seconds for c in report.cells},
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
