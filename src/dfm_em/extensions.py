"""Extensions of the EM loop for mis-specified idiosyncratic structure.

Two variants are provided:

* ``ridge_fit`` — a full (non-diagonal) idiosyncratic covariance estimated
  with a ridge penalty mu. The penalized M-step has the closed form
  "keep the eigenvectors, map each eigenvalue nu to (nu + sqrt(nu^2 +
  4 mu)) / 2", which guarantees a minimum eigenvalue of sqrt(mu) and
  satisfies the stationarity condition Gamma - S - mu Gamma^{-1} = 0.

* ``ecm_fit`` — AR(1) idiosyncratic components handled by conditional
  maximization: each M-step runs ordinary loadings, then updates the AR
  coefficients and innovation variances from expected residual moments,
  then re-estimates the loadings by GLS weighted with the AR(1)-implied
  tridiagonal inverse covariance. Because that inverse is tridiagonal,
  only lag-0 and lag-1 expected factor cross-moments enter the weighted
  normal equations, and both are exactly available from the smoother.
  The E-step filter is run with the AR(1) *innovation* variances as the
  idiosyncratic variances and ignores rho, so the logged filter
  likelihood is not the objective ECM ascends and can fall.

Both estimators run the EM loop of :mod:`dfm_em.em` and supply only their
initial idiosyncratic covariance and the map from the diagonal M-step to
their own parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .em import EmConfig, EmResult, _fit
# Not called here: bench/tracing.py wraps these by their extensions.* names.
from .em import e_step, m_step  # noqa: F401
from .kalman import stationary_init  # noqa: F401
from .model import DfmParams, ModelDims, Panel
from .pca import PcEstimate, pc_estimate  # noqa: F401

__all__ = [
    "RidgeConfig",
    "ArIdioState",
    "ridge_covariance",
    "ridge_fit",
    "ar1_precision",
    "gls_loadings",
    "ecm_fit",
]


@dataclass(frozen=True)
class RidgeConfig:
    """Ridge penalty policy: a fixed value or the n^2/T automatic rule.

    With policy "auto", mu = c * n^2 / T, switched off (mu = 0) when
    n^2 / T < 1 since no regularization is needed in that regime.
    """

    policy: str = "auto"
    mu: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.policy not in ("auto", "fixed"):
            raise ValueError("policy must be 'auto' or 'fixed'")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if self.c < 0.0:
            raise ValueError("c must be nonnegative")

    def resolve(self, n: int, T: int) -> float:
        if self.policy == "fixed":
            return float(self.mu)
        ratio = n * n / T
        return float(self.c * ratio) if ratio >= 1.0 else 0.0


@dataclass(frozen=True)
class ArIdioState:
    """Estimated AR(1) idiosyncratic laws: coefficients and innovation variances."""

    rho_hat: np.ndarray
    gamma_hat: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho_hat, dtype=float)
        gam = np.asarray(self.gamma_hat, dtype=float)
        if np.any(np.abs(rho) >= 1.0):
            raise ValueError("|rho_hat| must be < 1")
        if np.any(gam <= 0.0):
            raise ValueError("gamma_hat must be positive")
        object.__setattr__(self, "rho_hat", rho)
        object.__setattr__(self, "gamma_hat", gam)


def ridge_covariance(S: np.ndarray, mu: float) -> np.ndarray:
    """Closed-form ridge-penalized covariance.

    Eigenvectors of S are preserved; each eigenvalue nu maps to
    (nu + sqrt(nu^2 + 4 mu)) / 2, so the output is positive definite with
    minimum eigenvalue at least sqrt(mu) and solves the stationarity
    equation Gamma - S - mu Gamma^{-1} = 0.
    """
    S = np.asarray(S, dtype=float)
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    scale = max(np.max(np.abs(S)), 1.0)
    if np.max(np.abs(S - S.T)) > 1e-10 * scale:
        raise ValueError("S must be symmetric")
    S = 0.5 * (S + S.T)
    if mu == 0.0:
        return S
    w, V = np.linalg.eigh(S)
    w_ridge = 0.5 * (w + np.sqrt(w**2 + 4.0 * mu))
    return (V * w_ridge) @ V.T


def ridge_fit(panel: Panel, dims: ModelDims, config: EmConfig = EmConfig(),
              ridge: RidgeConfig = RidgeConfig(),
              init: PcEstimate = None) -> EmResult:
    """EM with a ridge-penalized full idiosyncratic covariance.

    Identical to the diagonal EM loop except that the idiosyncratic update
    keeps the full expected residual covariance and passes it through
    :func:`ridge_covariance`; the initial covariance is the same map applied
    to the diagonal principal-components variances. The stopping rule still
    tracks the exact filter log-likelihood, but monotonicity is not
    enforced: the penalized objective, not the likelihood itself, is what
    this loop ascends.
    """
    mu = ridge.resolve(dims.n, dims.T)
    XXt = panel.X @ panel.X.T

    def update(stats, smooth, base):
        Lam = base.Lambda
        S_resid = (XXt - Lam @ stats.S_xF.T - stats.S_xF @ Lam.T
                   + Lam @ stats.S_FF @ Lam.T) / dims.T
        return DfmParams(Lambda=Lam, A=base.A, H=base.H,
                         gamma_e=ridge_covariance(S_resid, mu),
                         rho=np.zeros(dims.n))

    res = _fit(panel, dims, config, init, update,
               gamma0=lambda g: ridge_covariance(np.diag(g), mu))
    return replace(res, extras={"ridge_mu": mu})


def ar1_precision(rho: float, gamma: float, T: int) -> np.ndarray:
    """Inverse covariance of a stationary AR(1) of length T (tridiagonal).

    The covariance is gamma rho^|t-s| / (1-rho^2); its inverse is
    (1/gamma) times the tridiagonal matrix with diagonal
    [1, 1 + rho^2, ..., 1 + rho^2, 1] and off-diagonal -rho.
    """
    d = np.full(T, 1.0 + rho**2)
    d[0] = d[-1] = 1.0
    P = np.diag(d)
    idx = np.arange(T - 1)
    P[idx, idx + 1] = -rho
    P[idx + 1, idx] = -rho
    return P / gamma


def gls_loadings(stats, smooth, panel: Panel, rho: np.ndarray) -> np.ndarray:
    """Loadings from the AR(1)-weighted normal equations.

    For each series the weighting matrix is the tridiagonal AR(1) inverse
    covariance, so only lag-0 and lag-1 expected factor moments enter:

        [(1+rho^2) S_FF - rho^2 (E_1 + E_T) - rho (S_lag + S_lag')] lambda
            = (1+rho^2) b0 - rho^2 b_ends - rho b1,

    where E_1/E_T are the endpoint expected moments (endpoint weights are
    1 rather than 1+rho^2) and b0/b1 the matching data cross-products.
    The innovation-variance scale cancels out of the equations. With
    rho = 0 this reduces exactly to the ordinary loadings update.
    """
    X = panel.X
    Fs = smooth.F_smooth
    Ps = smooth.P_smooth
    E1 = np.outer(Fs[:, 0], Fs[:, 0]) + Ps[0]
    ET = np.outer(Fs[:, -1], Fs[:, -1]) + Ps[-1]
    S_lag_sym = stats.S_FF_lag + stats.S_FF_lag.T
    cross = Fs[:, 1:] @ X[:, :-1].T + Fs[:, :-1] @ X[:, 1:].T  # r x n
    b_ends = np.outer(Fs[:, 0], X[:, 0]) + np.outer(Fs[:, -1], X[:, -1])  # r x n

    n, r = X.shape[0], Fs.shape[0]
    Lam = np.empty((n, r))
    for i in range(n):
        p = rho[i]
        A_i = (1.0 + p**2) * stats.S_FF - p**2 * (E1 + ET) - p * S_lag_sym
        b_i = ((1.0 + p**2) * stats.S_xF[i] - p**2 * b_ends[:, i] - p * cross[:, i])
        Lam[i] = np.linalg.solve(A_i, b_i)
    return Lam


def _ar_updates(X, Lam, smooth):
    """Expected-moment AR(1) updates for each idiosyncratic series.

    Expected squared and lagged-product residual moments include the
    smoothed factor MSE / cross-covariance corrections, i.e.
    E[xi_t^2 | X] = resid_t^2 + lambda' P_{t|T} lambda and
    E[xi_t xi_{t-1} | X] = resid_t resid_{t-1} + lambda' C_{t,t-1|T} lambda.
    """
    Fs, Ps, Cs = smooth.F_smooth, smooth.P_smooth, smooth.C_lag1
    T = Fs.shape[1]
    resid = X - Lam @ Fs
    quad_P = np.einsum("ir,trs,is->it", Lam, Ps, Lam)
    quad_C = np.einsum("ir,trs,is->it", Lam, Cs, Lam)

    sq = resid**2 + quad_P                     # E[xi_t^2 | X], per (i, t)
    lag = resid[:, 1:] * resid[:, :-1] + quad_C[:, 1:]

    num = lag.sum(axis=1)
    den = sq[:, :-1].sum(axis=1)
    rho = num / den
    bad = np.abs(rho) >= 1.0
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} idiosyncratic AR estimates outside (-1, 1); "
            "clamped to +/-0.99",
            RuntimeWarning,
        )
        rho[bad] = np.sign(rho[bad]) * 0.99

    head = sq[:, 1:].sum(axis=1)
    gamma = (head - 2.0 * rho * num + rho**2 * den) / (T - 1)
    gamma = np.maximum(gamma, 1e-12)
    return rho, gamma


def ecm_fit(panel: Panel, dims: ModelDims, config: EmConfig = EmConfig(),
            init: PcEstimate = None) -> EmResult:
    """Expectation conditional maximization with AR(1) idiosyncratic components.

    Each M-step runs the conditional sequence: ordinary loadings update,
    AR coefficient / innovation-variance update from expected residual
    moments, then GLS loadings re-weighted by the implied tridiagonal
    inverse covariance. The VAR and shock-loading updates are unchanged.
    The filter is given the AR *innovation* variances as idiosyncratic
    variances and ignores rho, so the logged log-likelihood is not the
    objective this loop ascends; it is not guaranteed monotone and ascent
    is not enforced.

    Returns an :class:`EmResult` whose ``extras['ar_idio']`` carries the
    final :class:`ArIdioState`.
    """

    def update(stats, smooth, base):
        rho, gamma = _ar_updates(panel.X, base.Lambda, smooth)
        Lam = gls_loadings(stats, smooth, panel, rho)
        return DfmParams(Lambda=Lam, A=base.A, H=base.H, gamma_e=gamma, rho=rho)

    res = _fit(panel, dims, config, init, update)
    ar = ArIdioState(rho_hat=res.params.rho, gamma_hat=res.params.gamma_e)
    return replace(res, extras={"ar_idio": ar})
