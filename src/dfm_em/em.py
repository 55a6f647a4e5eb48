"""EM estimation of the factor model with a diagonal idiosyncratic covariance.

Each iteration runs the Kalman smoother at the current parameters (E-step).
The next M-step sums its moments into the sufficient statistics

    S_xF     = sum_t x_t F_{t|T}',
    S_FF     = sum_t (F_{t|T} F_{t|T}' + P_{t|T}),
    S_FF_lag = sum_{t>=2} (F_{t|T} F_{t-1|T}' + C_{t,t-1|T}),

plus the head/tail partial sums for the VAR update, and then applies the
closed form below. The last, converged E-step has no M-step and forms no
statistics.

    lambda_i = S_FF^{-1} sum_t F_{t|T} x_it,
    A        = S_FF_lag S_FF_tail^{-1},
    gamma_ii = T^{-1} (sum_t x_it^2 - 2 lambda_i' S_xF_i + lambda_i' S_FF lambda_i),
    Gom      = T^{-1} (S_head - A S_lag' - S_lag A' + A S_tail A'),

with off-diagonal idiosyncratic covariances forced to zero. A, Gom and H
are ``pca._var_fit``'s, as at the start; at q < r it shrinks Gom's
eigenvalues by the small ridge vartheta = 0.1/T that keeps the singular
case well defined. Only H H' is identified; at q = r it is Gom.

Convergence uses the relative log-likelihood change
|l_{k+1} - l_k| / |l_{k+1} + l_k|, where l is the exact filter (marginal)
log-likelihood. The loop is not an exact EM: the filter's prior sits at
t = 0 while the M-step sums over t = 2..T, and l falls in 3 of 1,000
``relmse_n100_T100`` replications (ROADMAP item 1). ``_fit`` runs
``_em_step`` over one ``_Estimator`` record, also built by ``extensions``
for ridge and ECM; a guarded record (only ``em_fit``'s) raises
AscentViolationError when l falls by more than 1e-8 of its last value.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .kalman import (
    FilterNumericalError,
    InitState,
    SmootherOutput,
    kalman_filter,
    kalman_smoother,
    stationary_init,
)
from .model import DfmParams, ModelDims, Panel, ShapeError, _check_integer, \
    _check_real, _residual_blocks
from .pca import IdentificationError, PcEstimate, _var_fit, pc_estimate

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
# The q < r M-step shrinks each eigenvalue of Gom by vartheta = _SHRINK / T.
_SHRINK = 0.1


class EmError(RuntimeError):
    pass


class EmDivergenceError(EmError):
    """Non-finite log-likelihood; carries the iteration index."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class AscentViolationError(EmError):
    """Log-likelihood decreased beyond slack. Not proof of a bug: with the
    filter's prior at t = 0 the loop is not an exact EM, and a few
    replications of a Monte Carlo cell raise it (ROADMAP item 1)."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


# The typed numerical failures of a fit: EM's own, the filter's, an
# unidentified principal-components start and a singular linear system.
_NUMERICAL_FAILURES = (EmError, FilterNumericalError, IdentificationError,
                       np.linalg.LinAlgError)


@dataclass(frozen=True)
class EmConfig:
    """EM loop controls: the relative log-likelihood tolerance and the
    maximum number of M-steps."""

    epsilon: float = 1e-4
    max_iter: int = 500

    def __post_init__(self):
        eps = self.epsilon
        if isinstance(eps, bool) or not 0.0 < _check_real("epsilon", eps):
            raise ValueError(f"epsilon must be positive and finite, got {eps!r}")
        _check_integer("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class SufficientStats:
    """Expected complete-data second moments from one smoother pass.

    S_P (the summed smoothed MSE matrices) and F_smooth are carried along
    so the idiosyncratic-variance update can be evaluated in the
    numerically stable residual form sum_t (x - lambda'F)^2 + lambda' S_P
    lambda instead of the cancellation-prone expanded quadratic.
    """

    S_xF: np.ndarray
    S_FF: np.ndarray
    S_FF_lag: np.ndarray
    S_FF_head: np.ndarray
    S_FF_tail: np.ndarray
    S_P: np.ndarray
    F_smooth: np.ndarray


@dataclass(frozen=True)
class EmResult:
    params: DfmParams
    factors: SmootherOutput
    loglik_trace: np.ndarray
    iters: int
    converged: bool


def build_stats(panel: Panel, smooth: SmootherOutput) -> SufficientStats:
    """Assemble the sufficient statistics from a smoother pass, the M-step's
    input (at T = 1 the lag sums are empty and come out zero)."""
    Fs = smooth.F_smooth
    Ps = smooth.P_smooth
    S_P = Ps.sum(axis=0)
    S_xF = panel.X @ Fs.T
    S_FF = Fs @ Fs.T + S_P
    S_FF_lag = Fs[:, 1:] @ Fs[:, :-1].T + smooth.C_lag1[1:].sum(axis=0)
    S_FF_head = Fs[:, 1:] @ Fs[:, 1:].T + Ps[1:].sum(axis=0)
    S_FF_tail = Fs[:, :-1] @ Fs[:, :-1].T + Ps[:-1].sum(axis=0)
    return SufficientStats(S_xF=S_xF, S_FF=S_FF, S_FF_lag=S_FF_lag,
                           S_FF_head=S_FF_head, S_FF_tail=S_FF_tail,
                           S_P=S_P, F_smooth=Fs)


def e_step(panel: Panel, params: DfmParams, init: InitState):
    """One expectation step from the initial state ``init``: the smoother
    pass, whose moments :func:`build_stats` sums for the M-step.

    Returns
    -------
    (SmootherOutput, float)
        The second element is the filter log-likelihood at ``params``.
    """
    filt = kalman_filter(panel, params, init)
    return kalman_smoother(filt, params), filt.loglik


def _floor_gamma(gamma, panel: Panel):
    """Idiosyncratic variances floored at a fixed fraction of each series'
    sample variance, with an absolute backstop: bounding the
    signal-to-noise ratio keeps the filter's innovation algebra within
    double-precision accuracy on noiseless or near-noiseless panels. It
    floors every estimator's principal-components start (which ridge then
    maps), the diagonal M-step and ECM's innovation variances, but not the
    ridge M-step's Gamma."""
    return np.maximum(gamma, np.maximum(_GAMMA_FLOOR, _GAMMA_RTOL * panel.var))


def m_step(stats: SufficientStats, panel: Panel, q: int) -> DfmParams:
    """Closed-form maximization step; returns diagonal-gamma parameters.
    (A, H) is ``pca._var_fit`` of the moments over T, shrunk by 0.1/T (and
    warned if clamped) only when q < r. The squared residuals of the gamma
    update are summed block by block of rows, in cache, with no n x T array."""
    T = panel.T
    try:
        Lam = np.linalg.solve(stats.S_FF, stats.S_xF.T).T
    except np.linalg.LinAlgError as exc:
        raise EmError(f"S_FF numerically singular in the loadings update: {exc}") from exc
    r = Lam.shape[1]
    try:
        A, _, H, clamped = _var_fit(stats.S_FF_head, stats.S_FF_lag, stats.S_FF_tail,
                                    T, q, _SHRINK / T if q < r else 0.0)
    except np.linalg.LinAlgError as exc:
        raise EmError(f"S_FF_tail numerically singular in the VAR update: {exc}") from exc
    if clamped and q < r:
        warnings.warn("shock-covariance eigenvalue below the ridge level; "
                      "clamping the corresponding H column to zero scale",
                      RuntimeWarning)

    ss = np.empty(panel.n)
    for b, E in _residual_blocks(panel.X, Lam, stats.F_smooth):
        np.einsum("ij,ij->i", E, E, out=ss[b])
    gamma = _floor_gamma((ss + np.sum((Lam @ stats.S_P) * Lam, axis=1)) / T, panel)

    return DfmParams(Lambda=Lam, A=A, H=H, gamma_e=gamma)


@dataclass(frozen=True)
class _Estimator:
    """One estimator of the EM loop: its ascent rule ``guarded``, its map
    ``gamma0`` of the floored PC variances and its ``update(stats, smooth,
    base)`` of each diagonal :func:`m_step` result, identities by default."""

    guarded: bool
    gamma0: Callable = lambda gamma: gamma
    update: Callable = lambda stats, smooth, base: base


@dataclass
class _State:
    """The loop between steps: the last E-step's inputs, outputs and trace."""

    params: DfmParams
    kf_init: InitState
    smooth: SmootherOutput = None
    trace: list = field(default_factory=list)


def _em_step(panel: Panel, state: _State, estimator: _Estimator) -> _State:
    """One EM iteration, in place: the M-step of the last E-step (none at
    the start) on the statistics it sums, then the E-step at its estimate
    from the last smoother's time-zero moments, and the module docstring's
    log-likelihood checks."""
    if state.smooth is not None:
        smooth, q = state.smooth, state.params.H.shape[1]
        stats = build_stats(panel, smooth)
        # Drop the previous estimate first, so that a ridge fit never
        # holds two n x (T + r) factors B at once.
        state.params = None
        state.params = estimator.update(stats, smooth, m_step(stats, panel, q))
        state.kf_init = InitState(F0=smooth.F0_smooth, P0=smooth.P0_smooth)
    trace = state.trace
    state.smooth, loglik = e_step(panel, state.params, state.kf_init)
    if not np.isfinite(loglik):
        raise EmDivergenceError("non-finite log-likelihood", len(trace))
    if estimator.guarded and trace and loglik < trace[-1] - 1e-8 * abs(trace[-1]):
        raise AscentViolationError(f"log-likelihood decreased from {trace[-1]!r} "
                                   f"to {loglik!r}", len(trace))
    trace.append(loglik)
    return state


def _fit(panel: Panel, dims: ModelDims, config: EmConfig, init: PcEstimate,
         estimator: _Estimator) -> EmResult:
    """The start, then :func:`_em_step` until the stop rule or
    ``config.max_iter`` fires. Raises :class:`ShapeError`, before any work,
    if ``dims`` does not match the panel or a given ``init``."""
    n, T, r, q = dims.n, dims.T, dims.r, dims.q
    if (n, T) != (panel.n, panel.T):
        raise ShapeError(f"{dims} does not match the {panel.n} x {panel.T} panel")
    if init is None:
        init = pc_estimate(panel, r, q)
    for name, shape in (("Lambda0", (n, r)), ("Ftilde", (r, T)), ("A0", (r, r)),
                        ("H0", (r, q)), ("GammaE0", (n,))):
        got = np.shape(getattr(init, name))
        if got != shape:
            raise ShapeError(f"init {name} has shape {got} but {dims} needs {shape}")
    params = DfmParams(Lambda=init.Lambda0, A=init.A0, H=init.H0,
                       gamma_e=estimator.gamma0(_floor_gamma(init.GammaE0, panel)))
    # A unit-root start makes the Lyapunov system singular (LinAlgError)
    # and an explosive one gives an indefinite solution that InitState
    # rejects (ValueError); neither has a stationary covariance.
    try:
        kf_init = InitState(F0=init.Ftilde[:, 0], P0=stationary_init(params).P0)
    except ValueError:
        kf_init = InitState(F0=init.Ftilde[:, 0], P0=np.eye(r))
    state = _em_step(panel, _State(params, kf_init), estimator)
    converged = False
    while not converged and len(state.trace) <= config.max_iter:
        state = _em_step(panel, state, estimator)
        l1, l0 = state.trace[-1], state.trace[-2]
        converged = (abs(l1 - l0) / abs(l1 + l0) if l1 + l0 else 0.0) < config.epsilon
    return EmResult(params=state.params, factors=state.smooth,
                    loglik_trace=np.asarray(state.trace),
                    iters=len(state.trace) - 1, converged=converged)


def em_fit(panel: Panel, dims: ModelDims, config: EmConfig = EmConfig(),
           init: PcEstimate = None) -> EmResult:
    """Fit the model by EM, initialized from principal components.

    The panel is used as given: the model has no intercept, so the data
    are assumed zero-mean per series (center beforehand if they are not;
    the principal-components initializer centers internally either way).

    The idiosyncratic variances start at their principal-components values,
    floored at a fixed fraction of each series' sample variance. The filter
    is started at the principal-components factor value and the stationary
    state covariance (P0 = I if the initial VAR has none: a unit or an
    explosive root); later iterations warm-start from the previous
    smoother's time-zero moments, whose covariance the smoother returns
    symmetrized and unrepaired, for :class:`InitState` to check.

    Raises
    ------
    ShapeError
        Before any work, if ``dims`` does not match the panel or ``init``.
    EmDivergenceError
        If the log-likelihood becomes non-finite.
    AscentViolationError
        If the log-likelihood falls by more than 1e-8 of its last value.
    """
    return _fit(panel, dims, config, init, _Estimator(guarded=True))
