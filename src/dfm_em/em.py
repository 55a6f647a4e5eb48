"""EM estimation of the factor model with a diagonal idiosyncratic covariance.

Each iteration runs the Kalman smoother at the current parameters (E-step),
collects the sufficient statistics

    S_xF     = sum_t x_t F_{t|T}',
    S_FF     = sum_t (F_{t|T} F_{t|T}' + P_{t|T}),
    S_FF_lag = sum_{t>=2} (F_{t|T} F_{t-1|T}' + C_{t,t-1|T}),

plus the head/tail partial sums for the VAR update, and then applies the
closed-form M-step:

    lambda_i = S_FF^{-1} sum_t F_{t|T} x_it,
    A        = S_FF_lag S_FF_tail^{-1},
    gamma_ii = T^{-1} (sum_t x_it^2 - 2 lambda_i' S_xF_i + lambda_i' S_FF lambda_i),
    Gom      = T^{-1} (S_head - A S_lag' - S_lag A' + A S_tail A'),

with off-diagonal idiosyncratic covariances forced to zero. H is the
symmetric square root of Gom when q = r, and otherwise loads the top-q
eigenpairs of Gom with eigenvalues shrunk by the small ridge vartheta
(default 0.1/T) that keeps the singular case well defined.

Convergence uses the relative log-likelihood change
|l_{k+1} - l_k| / |l_{k+1} + l_k|, where l is the exact filter (marginal)
log-likelihood, which EM theory guarantees is nondecreasing. The loop in
``_fit`` is shared with the ridge and ECM estimators of ``extensions``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kalman import (
    FilterOutput,
    InitState,
    SmootherOutput,
    kalman_filter,
    kalman_smoother,
    stationary_init,
)
from .model import DfmParams, ModelDims, Panel
from .pca import PcEstimate, pc_estimate

__all__ = [
    "EmConfig",
    "SufficientStats",
    "EmResult",
    "EmError",
    "EmDivergenceError",
    "AscentViolationError",
    "e_step",
    "m_step",
    "em_fit",
]

_GAMMA_FLOOR = 1e-12
_GAMMA_RTOL = 1e-8


class EmError(RuntimeError):
    pass


class EmDivergenceError(EmError):
    """Non-finite log-likelihood; carries the iteration index."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class AscentViolationError(EmError):
    """Log-likelihood decreased beyond slack — signals an implementation bug."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class EmConfig:
    """EM loop controls: the relative log-likelihood tolerance and the
    maximum number of M-steps."""

    epsilon: float = 1e-4
    max_iter: int = 500

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SufficientStats:
    """Expected complete-data second moments from one smoother pass.

    S_P (the summed smoothed MSE matrices) and F_smooth are carried along
    so the idiosyncratic-variance update can be evaluated in the
    numerically stable residual form sum_t (x - lambda'F)^2 + lambda' S_P
    lambda instead of the cancellation-prone expanded quadratic; both
    forms are algebraically identical.
    """

    S_xF: np.ndarray
    S_FF: np.ndarray
    S_FF_lag: np.ndarray
    S_FF_head: np.ndarray
    S_FF_tail: np.ndarray
    S_P: np.ndarray = None
    F_smooth: np.ndarray = None


@dataclass(frozen=True)
class EmResult:
    params: DfmParams
    factors: SmootherOutput
    loglik_trace: np.ndarray
    iters: int
    converged: bool
    filter_init: InitState = None
    extras: dict = field(default_factory=dict)


def build_stats(panel: Panel, smooth: SmootherOutput) -> SufficientStats:
    """Assemble the sufficient statistics from a smoother pass."""
    X = panel.X
    Fs = smooth.F_smooth
    Ps = smooth.P_smooth
    Cs = smooth.C_lag1
    S_xF = X @ Fs.T
    S_FF = Fs @ Fs.T + Ps.sum(axis=0)
    if panel.T >= 2:
        S_FF_lag = Fs[:, 1:] @ Fs[:, :-1].T + Cs[1:].sum(axis=0)
        S_FF_head = Fs[:, 1:] @ Fs[:, 1:].T + Ps[1:].sum(axis=0)
        S_FF_tail = Fs[:, :-1] @ Fs[:, :-1].T + Ps[:-1].sum(axis=0)
    else:
        r = Fs.shape[0]
        S_FF_lag = np.zeros((r, r))
        S_FF_head = np.zeros((r, r))
        S_FF_tail = np.zeros((r, r))
    return SufficientStats(S_xF=S_xF, S_FF=S_FF, S_FF_lag=S_FF_lag,
                           S_FF_head=S_FF_head, S_FF_tail=S_FF_tail,
                           S_P=Ps.sum(axis=0), F_smooth=Fs)


def e_step(panel: Panel, params: DfmParams, init: InitState = None):
    """One expectation step: smoother pass plus sufficient statistics.

    Returns
    -------
    (SufficientStats, SmootherOutput, float)
        The third element is the filter log-likelihood at ``params``.
    """
    if init is None:
        init = stationary_init(params)
    filt = kalman_filter(panel, params, init)
    smooth = kalman_smoother(filt, params)
    return build_stats(panel, smooth), smooth, filt.loglik


def _symmetric_sqrt(M):
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def m_step(stats: SufficientStats, panel: Panel, q: int,
           vartheta_mstep: float = None) -> DfmParams:
    """Closed-form maximization step; returns diagonal-gamma parameters."""
    X = panel.X
    T = panel.T
    if vartheta_mstep is None:
        vartheta_mstep = 0.1 / T

    try:
        Lam = np.linalg.solve(stats.S_FF, stats.S_xF.T).T
    except np.linalg.LinAlgError as exc:
        raise EmError(f"S_FF numerically singular in the loadings update: {exc}") from exc
    try:
        A = np.linalg.solve(stats.S_FF_tail.T, stats.S_FF_lag.T).T
    except np.linalg.LinAlgError as exc:
        raise EmError(f"S_FF_tail numerically singular in the VAR update: {exc}") from exc

    if stats.F_smooth is not None and stats.S_P is not None:
        resid = X - Lam @ stats.F_smooth
        gamma = (np.sum(resid**2, axis=1)
                 + np.einsum("ir,rs,is->i", Lam, stats.S_P, Lam)) / T
    else:
        gamma = (
            np.sum(X**2, axis=1)
            - 2.0 * np.einsum("ir,ir->i", Lam, stats.S_xF)
            + np.einsum("ir,rs,is->i", Lam, stats.S_FF, Lam)
        ) / T
    # Floor at a fixed fraction of each series' sample variance (with an
    # absolute backstop): bounding the signal-to-noise ratio keeps the
    # filter's innovation algebra within double-precision accuracy on
    # noiseless or near-noiseless panels.
    gamma = np.maximum(gamma, np.maximum(_GAMMA_FLOOR,
                                         _GAMMA_RTOL * X.var(axis=1)))

    Gom = (
        stats.S_FF_head
        - A @ stats.S_FF_lag.T
        - stats.S_FF_lag @ A.T
        + A @ stats.S_FF_tail @ A.T
    ) / T
    Gom = 0.5 * (Gom + Gom.T)

    r = Lam.shape[1]
    if q == r:
        H = _symmetric_sqrt(Gom)
    else:
        w, V = np.linalg.eigh(Gom)
        w, V = w[::-1][:q], V[:, ::-1][:, :q]
        scale = w - vartheta_mstep
        if np.any(scale < 0.0):
            warnings.warn(
                "shock-covariance eigenvalue below the ridge level; "
                "clamping the corresponding H column to zero scale",
                RuntimeWarning,
            )
            scale = np.maximum(scale, 0.0)
        for j in range(q):
            nz = np.flatnonzero(V[:, j])
            if nz.size and V[nz[0], j] < 0:
                V[:, j] = -V[:, j]
        H = V * np.sqrt(scale)

    return DfmParams(Lambda=Lam, A=A, H=H, gamma_e=gamma, rho=np.zeros(X.shape[0]))


def _fit(panel: Panel, dims: ModelDims, config: EmConfig, init: PcEstimate,
         update=None, gamma0=None, guard_ascent: bool = False) -> EmResult:
    """The EM loop behind :func:`em_fit`, ``ridge_fit`` and ``ecm_fit``.

    ``gamma0`` maps the floored principal-components idiosyncratic
    variances to the initial idiosyncratic covariance, and
    ``update(stats, smooth, base)`` maps each diagonal :func:`m_step`
    result ``base`` to the estimator's parameters; both default to the
    identity. ``guard_ascent`` turns on the :class:`AscentViolationError`
    check.
    """
    if init is None:
        init = pc_estimate(panel, dims.r, dims.q)
    gamma = np.maximum(init.GammaE0,
                       np.maximum(_GAMMA_FLOOR, _GAMMA_RTOL * panel.X.var(axis=1)))
    params = DfmParams(Lambda=init.Lambda0, A=init.A0, H=init.H0,
                       gamma_e=gamma if gamma0 is None else gamma0(gamma),
                       rho=np.zeros(dims.n))
    try:
        kf_init = InitState(F0=init.Ftilde[:, 0], P0=stationary_init(params).P0)
    except np.linalg.LinAlgError:
        kf_init = InitState(F0=init.Ftilde[:, 0], P0=np.eye(dims.r))

    trace = []
    converged = False
    iters = 0
    for k in range(config.max_iter + 1):
        stats, smooth, loglik = e_step(panel, params, kf_init)
        if not np.isfinite(loglik):
            raise EmDivergenceError("non-finite log-likelihood", k)
        if guard_ascent and trace and loglik < trace[-1] - 1e-8 * abs(trace[-1]):
            raise AscentViolationError(
                f"log-likelihood decreased from {trace[-1]!r} to {loglik!r}", k
            )
        trace.append(loglik)
        if k > 0:
            denom = abs(trace[-1] + trace[-2])
            delta = abs(trace[-1] - trace[-2]) / denom if denom > 0 else 0.0
            if delta < config.epsilon:
                converged = True
                break
        if k == config.max_iter:
            break

        base = m_step(stats, panel, dims.q)
        params = base if update is None else update(stats, smooth, base)
        iters = k + 1

        P0 = 0.5 * (smooth.P0_smooth + smooth.P0_smooth.T)
        if np.min(np.linalg.eigvalsh(P0)) >= -1e-10:
            kf_init = InitState(F0=smooth.F0_smooth, P0=P0)
        else:
            kf_init = InitState(F0=smooth.F0_smooth, P0=stationary_init(params).P0)

    return EmResult(params=params, factors=smooth,
                    loglik_trace=np.asarray(trace), iters=iters,
                    converged=converged, filter_init=kf_init)


def em_fit(panel: Panel, dims: ModelDims, config: EmConfig = EmConfig(),
           init: PcEstimate = None) -> EmResult:
    """Fit the model by EM, initialized from principal components.

    The panel is used as given: the model has no intercept, so the data
    are assumed zero-mean per series (center beforehand if they are not;
    the principal-components initializer centers internally either way).

    The idiosyncratic variances start at their principal-components values,
    floored at a fixed fraction of each series' sample variance. The filter
    is started at the principal-components factor value and the stationary
    state covariance (P0 = I if the initial VAR has none); later iterations
    warm-start from the previous smoother's time-zero output (falling back
    to the stationary covariance if that matrix is not positive
    semidefinite). ``ridge_fit`` and ``ecm_fit`` share this loop.

    Raises
    ------
    EmDivergenceError
        If the log-likelihood becomes non-finite.
    AscentViolationError
        If the marginal log-likelihood decreases beyond a 1e-8 relative
        slack, which EM theory rules out for a correct implementation.
    """
    return _fit(panel, dims, config, init, guard_ascent=True)
