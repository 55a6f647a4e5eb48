"""Evaluation metrics: trace statistics, MSEs, asymptotic variances,
standardized errors and coverage tables.

The trace statistic is the multivariate R-squared

    TR(M, Mhat) = tr( (M' Mhat)(Mhat' Mhat)^{-1}(Mhat' M) ) / tr(M' M),

invariant to invertible column transformations of the estimate. Coverage
tables pool the standardized errors

    Z_it = (n^{-1} W_it + T^{-1} V_it)^{-1/2} (chihat_it - chi_it)

from period ``BURN_IN_T`` on and compare their empirical CDF to the
standard normal at the fixed levels ``DEFAULT_ALPHAS``. Pooling across
replications goes through an associative accumulator so results can be
merged deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .em import EmResult
from .kalman import _whitener
from .model import _ar1_weighted, _row_blocks

__all__ = [
    "CoverageTable",
    "ZAccumulator",
    "DEFAULT_ALPHAS",
    "BURN_IN_T",
    "trace_statistic",
    "common_mse",
    "asvar_matrices",
    "z_scores",
    "HIST_EDGES",
]

DEFAULT_ALPHAS = (0.99, 0.95, 0.90, 0.84, 0.16, 0.10, 0.05, 0.01)
BURN_IN_T = 5  # pooled statistics keep t >= 5 (1-indexed)
HIST_EDGES = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.1), 10)
# Standard normal quantiles of the coverage levels, the repr of
# scipy.special.ndtri(DEFAULT_ALPHAS): the same bits, without importing scipy's
# special functions. The 0.05 and 0.95 quantiles are not exact negatives.
_NORMAL_QUANTILES = (
    2.3263478740408408, 1.6448536269514722, 1.2815515655446004, 0.994457883209753,
    -0.994457883209753, -1.2815515655446004, -1.6448536269514729, -2.3263478740408408,
)


@dataclass(frozen=True)
class CoverageTable:
    """Empirical coverage per quantile level plus pooled-sample moments."""

    alphas: tuple
    C: np.ndarray
    mean: float
    std: float
    skewness: float
    kurtosis: float
    count: int


def trace_statistic(true_M: np.ndarray, est_M: np.ndarray) -> float:
    """Multivariate R-squared of true_M on the column space of est_M,
    capped at 1 against round-off.

    Inputs may be given with components along either axis; both are
    oriented tall (rows = observations, columns = the k components) before
    evaluation, so factor paths (k x T) and loadings (n x k) both work.
    """
    M = np.asarray(true_M, dtype=float)
    Mh = np.asarray(est_M, dtype=float)
    if M.shape != Mh.shape:
        raise ValueError("shapes must match")
    if M.shape[0] < M.shape[1]:
        M, Mh = M.T, Mh.T
    G = Mh.T @ Mh
    k = G.shape[0]
    if np.linalg.matrix_rank(G, tol=1e-12 * np.trace(G)) < k:
        raise np.linalg.LinAlgError("estimate is rank deficient")
    cross = Mh.T @ M
    val = float(np.trace(cross.T @ np.linalg.solve(G, cross)) / np.trace(M.T @ M))
    return min(val, 1.0)


def common_mse(chi_true: np.ndarray, chi_est: np.ndarray) -> float:
    """Mean squared entrywise difference."""
    a = np.asarray(chi_true, dtype=float)
    b = np.asarray(chi_est, dtype=float)
    if a.shape != b.shape:
        raise ValueError("shapes must match")
    return float(np.mean((a - b) ** 2))


def asvar_matrices(result: EmResult):
    """Asymptotic-variance building blocks for every (i, t), from the
    fitted model's own idiosyncratic covariance.

    Returns (W, V) with W of shape (n,) — the loadings-direction variance
    W_i = lambda_i' (n^{-1} Lambda' Gamma^{-1} Lambda)^{-1} lambda_i does
    not depend on t — and V of shape (n, T) with
    V_it = Fhat_t' (T^{-1} sum_s Fhat_s gamma_ii^{-1} Fhat_s')^{-1} Fhat_t.

    Gamma^{-1} Lambda is the filter's (``kalman._whitener``): a division
    by the diagonal ``params.gamma_e``, or, for a full Gamma given by its
    factors (c, B) (a ridge estimate), Woodbury through them. When some
    ``params.rho`` is nonzero (an ECM estimate), the V-denominator is
    weighted by the tridiagonal inverse covariance of the fitted AR(1)
    laws (``params.rho``, ``params.gamma_e``), the batched weighting of
    ``extensions.gls_loadings``; that V is solved and reduced by row
    blocks, so no n x r x T array is formed.
    """
    params = result.params
    F = result.factors.F_smooth
    Lam = params.Lambda
    n, r = Lam.shape
    T = F.shape[1]

    inner_W = Lam.T @ _whitener(params)[0] / n
    W = np.einsum("ir,ir->i", Lam, np.linalg.solve(inner_W, Lam.T).T)

    if np.any(params.rho):
        ends = np.outer(F[:, 0], F[:, 0]) + np.outer(F[:, -1], F[:, -1])
        S1 = F[:, 1:] @ F[:, :-1].T
        inner = (_ar1_weighted(params.rho, F @ F.T, ends, S1 + S1.T)
                 / (T * params.gamma_e)[:, None, None])
        V = np.empty((n, T))
        for b in _row_blocks(n, r * T):
            np.einsum("rt,irt->it", F, np.linalg.solve(inner[b], F[None]), out=V[b])
        return W, V

    # V_it = gamma_ii * Fhat_t' (T^{-1} sum FF')^{-1} Fhat_t
    base = np.einsum("rt,rt->t", F, np.linalg.solve(F @ F.T / T, F))
    V = params.gamma_e[:, None] * base[None, :]
    return W, V


def z_scores(result: EmResult, chi_true: np.ndarray) -> np.ndarray:
    """Standardized common-component errors Z_it, with the variances
    :func:`asvar_matrices` reads from the fit."""
    chi_hat = result.params.Lambda @ result.factors.F_smooth
    chi_true = np.asarray(chi_true, dtype=float)
    if chi_true.shape != chi_hat.shape:
        raise ValueError("chi_true shape mismatch")
    n, T = chi_hat.shape
    W, V = asvar_matrices(result)
    denom = np.sqrt(W[:, None] / n + V / T)
    return (chi_hat - chi_true) / denom


@dataclass
class ZAccumulator:
    """Mergeable accumulator for pooled Z statistics.

    Holds the count, power sums up to order four, CDF counts at the
    ``DEFAULT_ALPHAS`` levels and fixed-bin histogram counts. ``merge`` is
    associative, so replication results can be reduced in a deterministic
    order regardless of how they were computed.
    """

    count: int = 0
    s1: float = 0.0
    s2: float = 0.0
    s3: float = 0.0
    s4: float = 0.0
    below: np.ndarray = field(
        default_factory=lambda: np.zeros(len(DEFAULT_ALPHAS), dtype=np.int64))
    hist: np.ndarray = field(
        default_factory=lambda: np.zeros(len(HIST_EDGES) - 1, dtype=np.int64))

    def update(self, Z: np.ndarray):
        """Add one replication's Z matrix, keeping columns t >= BURN_IN_T (1-indexed)."""
        z = np.asarray(Z, dtype=float)[:, BURN_IN_T - 1:].ravel()
        z2 = z * z
        self.count += z.size
        self.s1 += float(np.sum(z))
        self.s2 += float(np.sum(z2))
        self.s3 += float(np.sum(z2 * z))
        self.s4 += float(np.sum(z2 * z2))
        self.below += np.array([int(np.sum(z <= q)) for q in _NORMAL_QUANTILES],
                               dtype=np.int64)
        self.hist += np.histogram(z, bins=HIST_EDGES)[0].astype(np.int64)

    def merge(self, other: "ZAccumulator") -> "ZAccumulator":
        return ZAccumulator(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                               for f in fields(self)})

    def table(self) -> CoverageTable:
        if self.count == 0:
            raise ValueError("empty accumulator")
        c = self.count
        mean = self.s1 / c
        var = max(self.s2 / c - mean**2, 0.0)
        std = np.sqrt(var)
        m3 = self.s3 / c - 3.0 * mean * self.s2 / c + 2.0 * mean**3
        m4 = (self.s4 / c - 4.0 * mean * self.s3 / c
              + 6.0 * mean**2 * self.s2 / c - 3.0 * mean**4)
        skew = m3 / std**3 if std > 0 else 0.0
        kurt = m4 / var**2 if var > 0 else 0.0
        return CoverageTable(
            alphas=DEFAULT_ALPHAS,
            C=self.below / c,
            mean=float(mean),
            std=float(std),
            skewness=float(skew),
            kurtosis=float(kurt),
            count=c,
        )
