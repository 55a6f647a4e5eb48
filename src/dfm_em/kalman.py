"""Kalman filter and smoother for the factor state space.

The measurement equation is x_t = Lambda F_t + xi_t with white measurement
noise of covariance Gamma^e (any serial correlation in xi is the business
of the estimators built on top, not of the recursion), and the state
equation is F_t = A F_{t-1} + H u_t, so the state innovation covariance
HH' may be singular when q < r.

The filter inverts the n x n innovation covariance S_t = Lambda P Lambda'
+ Gamma^e through r x r solves only, valid when P is singular. With
M = Lambda' Gamma^{-1} Lambda invertible the update uses the
cancellation-free information form W_t = (M^{-1} + P)^{-1}, which keeps
full accuracy even when the measurement noise is many orders of magnitude
below the signal; otherwise it falls back to a matrix-inversion-lemma
factorization P = U U' (truncated eigenfactor) with an m x m solve,
m = rank(P). Either way the per-step cost is O(n r) once
Gamma^e-weighted products are precomputed.

The smoother is the inversion-free backward recursion

    r_T = 0, N_T = 0,
    L_t = A (I - P_{t|t-1} W_t),            W_t = Lambda' S_t^{-1} Lambda,
    r_{t-1} = g_t + L_t' r_t,               g_t = Lambda' S_t^{-1} v_t,
    N_{t-1} = W_t + L_t' N_t L_t,
    F_{t|T} = F_{t|t-1} + P_{t|t-1} r_{t-1},
    P_{t|T} = P_{t|t-1} - P_{t|t-1} N_{t-1} P_{t|t-1},

which never inverts P and therefore also covers the singular q < r case.
The lag-one smoothed cross-covariance is assembled from the same
quantities as

    C_{t,t-1|T} = (I - P_{t|t-1} N_{t-1}) L_{t-1} P_{t-1|t-2},

which the test suite verifies against a dense joint-Gaussian projection
and, in the nonsingular case, against a classical inverting smoother.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import DfmParams, Panel

__all__ = [
    "InitState",
    "FilterOutput",
    "SmootherOutput",
    "FilterNumericalError",
    "kalman_filter",
    "kalman_smoother",
    "steady_state_diagnostics",
    "SteadyStateDiagnostics",
    "stationary_init",
]

_RANK_RTOL = 1e-12


class FilterNumericalError(RuntimeError):
    """Numerical failure inside the filter; carries the offending time index."""

    def __init__(self, message, t):
        super().__init__(f"{message} (t={t})")
        self.t = t


@dataclass(frozen=True)
class InitState:
    """Initial state mean F_{0|0} and MSE P_{0|0}."""

    F0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        F0 = np.asarray(self.F0, dtype=float).reshape(-1)
        P0 = np.asarray(self.P0, dtype=float)
        if P0.shape != (F0.size, F0.size):
            raise ValueError("P0 shape incompatible with F0")
        P0 = 0.5 * (P0 + P0.T)
        eigs = np.linalg.eigvalsh(P0)
        if eigs.size and eigs[0] < -1e-8 * max(1.0, eigs[-1]):
            raise ValueError("P0 is not positive semidefinite")
        object.__setattr__(self, "F0", F0)
        object.__setattr__(self, "P0", P0)


@dataclass(frozen=True)
class FilterOutput:
    """Forward-pass output.

    F_pred/P_pred hold the one-step-ahead moments F_{t|t-1}, P_{t|t-1};
    F_filt/P_filt the filtered moments; loglik is the prediction-error
    decomposition log-likelihood. W, g and the initial state are kept so
    the smoother can run without touching the data again.
    """

    F_pred: np.ndarray
    P_pred: np.ndarray
    F_filt: np.ndarray
    P_filt: np.ndarray
    loglik: float
    n: int
    init: InitState
    W: np.ndarray
    g: np.ndarray

    @property
    def T(self):
        return self.F_pred.shape[1]

    @property
    def r(self):
        return self.F_pred.shape[0]


@dataclass(frozen=True)
class SmootherOutput:
    """Backward-pass output: smoothed moments plus lag-one cross-covariances.

    C_lag1[t] holds C_{t,t-1|T} (zero matrix at t=1, which has no
    predecessor inside the sample). F0_smooth/P0_smooth are the smoothed
    time-zero moments used to warm-start subsequent filter runs.
    """

    F_smooth: np.ndarray
    P_smooth: np.ndarray
    C_lag1: np.ndarray
    F0_smooth: np.ndarray
    P0_smooth: np.ndarray

    @property
    def T(self):
        return self.F_smooth.shape[1]


def _symmetrize(M):
    return 0.5 * (M + M.T)


def _psd_clip(M):
    """Nearest PSD matrix under eigenvalue clipping; removes the tiny
    negative eigenvalues the backward subtraction can produce when the
    measurement noise is many orders below the signal."""
    M = _symmetrize(M)
    w, V = np.linalg.eigh(M)
    if w.size == 0 or w[0] >= 0.0:
        return M
    return (V * np.maximum(w, 0.0)) @ V.T


def _psd_factor(P):
    """Truncated factor U with P = U U', dropping near-zero eigenvalues."""
    w, V = np.linalg.eigh(_symmetrize(P))
    tol = _RANK_RTOL * max(w[-1], 0.0) if w.size else 0.0
    keep = w > tol
    return V[:, keep] * np.sqrt(w[keep])


def stationary_init(params: DfmParams) -> InitState:
    """Zero-mean initialization at the stationary state covariance.

    P_{0|0} solves the discrete Lyapunov equation P = A P A' + HH',
    computed via the Kronecker form vec(P) = (I - A (x) A)^{-1} vec(HH').
    """
    r = params.r
    HHt = params.H @ params.H.T
    lhs = np.eye(r * r) - np.kron(params.A, params.A)
    vecP = np.linalg.solve(lhs, HHt.reshape(-1))
    P0 = _symmetrize(vecP.reshape(r, r))
    return InitState(F0=np.zeros(r), P0=P0)


class _NoiseModel:
    """Per-run precomputation for products with Gamma^e-inverse.

    For diagonal Gamma the products are elementwise; for a full Gamma a
    single Cholesky factorization is reused across all time steps, so the
    per-step cost stays O(n r) either way.
    """

    def __init__(self, params, t0=1):
        gx = params.gamma_e
        Lam = params.Lambda
        self.n = params.n
        if gx.ndim == 1:
            if np.any(gx <= 0.0) or not np.all(np.isfinite(gx)):
                raise FilterNumericalError("idiosyncratic covariance not positive definite", t0)
            self._d = gx
            self._cf = None
            self.Ginv_Lam = Lam / gx[:, None]
            self.logdet = float(np.sum(np.log(gx)))
        else:
            try:
                self._cf = cho_factor(gx, lower=True)
            except np.linalg.LinAlgError as exc:
                raise FilterNumericalError(
                    f"idiosyncratic covariance not positive definite: {exc}", t0
                ) from exc
            self._d = None
            self.Ginv_Lam = cho_solve(self._cf, Lam)
            self.logdet = float(2.0 * np.sum(np.log(np.diag(self._cf[0]))))
        self.M = _symmetrize(Lam.T @ self.Ginv_Lam)
        # When M = Lambda' Gamma^{-1} Lambda is invertible (full-column-rank
        # loadings), the filter can use the cancellation-free identities
        # W = (M^{-1} + P)^{-1} and g = W M^{-1} a, which stay accurate when
        # the measurement noise is many orders below the signal.
        try:
            mcf = cho_factor(self.M, lower=True)
        except np.linalg.LinAlgError:
            self.Minv = None
            self.logdetM = 0.0
        else:
            self.Minv = _symmetrize(cho_solve(mcf, np.eye(self.M.shape[0])))
            self.logdetM = float(2.0 * np.sum(np.log(np.diag(mcf[0]))))

    def ginv(self, Y):
        if self._d is not None:
            return Y / self._d[:, None] if Y.ndim == 2 else Y / self._d
        return cho_solve(self._cf, Y)


def kalman_filter(panel: Panel, params: DfmParams, init: InitState) -> FilterOutput:
    """Run the forward recursions over the panel.

    Idiosyncratic serial correlation is never tracked here: the filter
    treats the measurement noise as white with covariance ``gamma_e``,
    ignoring ``rho``. Serially correlated idiosyncratics are handled by the
    estimators built on top of the filter, not inside the recursion.

    Raises
    ------
    FilterNumericalError
        If the innovation covariance becomes numerically singular; the
        exception carries the offending time index ``t``.
    """
    X = panel.X
    n, T = X.shape
    r = params.r
    Lam = params.Lambda
    A = params.A
    HHt = params.H @ params.H.T
    noise = _NoiseModel(params)
    Ginv_X = noise.ginv(X)

    F_pred = np.empty((r, T))
    F_filt = np.empty((r, T))
    P_pred = np.empty((T, r, r))
    P_filt = np.empty((T, r, r))
    W = np.empty((T, r, r))
    g = np.empty((r, T))
    loglik = 0.0
    log2pi = np.log(2.0 * np.pi)

    f = init.F0
    P = init.P0
    for t in range(T):
        f_pred = A @ f
        Pp = _symmetrize(A @ P @ A.T + HHt)

        v = X[:, t] - Lam @ f_pred
        Ginv_v = Ginv_X[:, t] - noise.Ginv_Lam @ f_pred
        a = Lam.T @ Ginv_v  # Lambda' Gamma^{-1} v
        quad_full = float(v @ Ginv_v)

        if noise.Minv is not None:
            # Information-form update: inverts the r x r matrix M^{-1} + P
            # instead of differencing large Woodbury products, so W and g
            # carry no catastrophic cancellation at extreme signal/noise
            # ratios. Algebraically identical to the factorized path below.
            Winv = _symmetrize(noise.Minv + Pp)
            try:
                cf = cho_factor(Winv, lower=True)
            except np.linalg.LinAlgError as exc:
                raise FilterNumericalError(
                    f"innovation covariance numerically singular: {exc}", t + 1
                ) from exc
            Wt = _symmetrize(cho_solve(cf, np.eye(r)))
            gt = cho_solve(cf, noise.Minv @ a)
            logdet_core = noise.logdetM + float(
                2.0 * np.sum(np.log(np.diag(cf[0]))))
            # v' S^{-1} v = v' Gamma^{-1} (v - Lambda P g): the subtraction
            # happens in data space where both terms are O(|x|), not in the
            # Gamma^{-1}-weighted products.
            u = X[:, t] - Lam @ (f_pred + Pp @ gt)
            quad = float(Ginv_v @ u)
        else:
            U = _psd_factor(Pp)
            m = U.shape[1]
            if m == 0:
                Wt, gt = noise.M, a
                logdet_core = 0.0
                quad = quad_full
            else:
                MU = noise.M @ U
                core = np.eye(m) + U.T @ MU
                try:
                    cf = cho_factor(core, lower=True)
                except np.linalg.LinAlgError as exc:
                    raise FilterNumericalError(
                        f"innovation covariance numerically singular: {exc}", t + 1
                    ) from exc
                Ua = U.T @ a
                sol = cho_solve(cf, Ua)
                gt = a - MU @ sol
                Wt = _symmetrize(noise.M - MU @ cho_solve(cf, MU.T))
                logdet_core = float(2.0 * np.sum(np.log(np.diag(cf[0]))))
                quad = quad_full - float(Ua @ sol)

        if not np.isfinite(quad) or not np.isfinite(logdet_core):
            raise FilterNumericalError("non-finite innovation update", t + 1)

        loglik += -0.5 * (n * log2pi + noise.logdet + logdet_core + quad)

        f = f_pred + Pp @ gt
        if noise.Minv is not None:
            # P_{t|t} = P (M^{-1} + P)^{-1} M^{-1}: equal to P - P W P but
            # built from products only, so no digits are lost to cancellation.
            P = _symmetrize(Pp @ Wt @ noise.Minv)
        else:
            P = _symmetrize(Pp - Pp @ Wt @ Pp)

        F_pred[:, t] = f_pred
        P_pred[t] = Pp
        F_filt[:, t] = f
        P_filt[t] = P
        W[t] = Wt
        g[:, t] = gt

    return FilterOutput(
        F_pred=F_pred, P_pred=P_pred, F_filt=F_filt, P_filt=P_filt,
        loglik=float(loglik), n=n, init=init, W=W, g=g,
    )


def kalman_smoother(filt: FilterOutput, params: DfmParams) -> SmootherOutput:
    """Backward smoothing pass; valid for singular P_{t|t-1} (q < r)."""
    T, r = filt.T, filt.r
    A = params.A
    I = np.eye(r)

    F_s = np.empty((r, T))
    P_s = np.empty((T, r, r))
    L = np.empty((T, r, r))
    N_store = np.empty((T, r, r))
    C = np.zeros((T, r, r))

    r_vec = np.zeros(r)
    N = np.zeros((r, r))
    for t in range(T - 1, -1, -1):
        Pp = filt.P_pred[t]
        L[t] = A @ (I - Pp @ filt.W[t])
        r_vec = filt.g[:, t] + L[t].T @ r_vec
        N = _symmetrize(filt.W[t] + L[t].T @ N @ L[t])
        F_s[:, t] = filt.F_pred[:, t] + Pp @ r_vec
        P_s[t] = _psd_clip(Pp - Pp @ N @ Pp)
        N_store[t] = N

    for t in range(1, T):
        C[t] = (I - filt.P_pred[t] @ N_store[t]) @ L[t - 1] @ filt.P_pred[t - 1]

    # Smoothed time-zero moments for warm-starting the next filter run:
    # with L_0 = A (no data at t=0), F_{0|T} = F_{0|0} + P_{0|0} A' r_0.
    P0 = filt.init.P0
    F0_s = filt.init.F0 + P0 @ A.T @ r_vec
    P0_s = _psd_clip(P0 - P0 @ A.T @ N_store[0] @ A @ P0)

    return SmootherOutput(F_smooth=F_s, P_smooth=P_s, C_lag1=C,
                          F0_smooth=F0_s, P0_smooth=P0_s)


@dataclass(frozen=True)
class SteadyStateDiagnostics:
    """Per-t convergence traces of the Riccati recursion.

    tr_pred[t-1] = tr(P_{t|t-1})/q and tr_filt[t-1] = tr(P_{t|t}) n / q for
    t = 1..min(T, 5); t_bar is the first t at which consecutive one-step
    MSE matrices differ by less than the tolerance in spectral norm (None
    if never reached).
    """

    tr_pred: np.ndarray
    tr_filt: np.ndarray
    t_bar: int | None


def steady_state_diagnostics(filt: FilterOutput, q: int,
                             tol: float = 1e-8) -> SteadyStateDiagnostics:
    """Per-period trace summaries of the filter MSEs.

    The first observed period plays the role of time zero: it anchors the
    time-zero state the same way an initializer estimated from the sample
    would, and its burn-in MSE is not informative about the steady state.
    The reported entries therefore cover periods t = 1..5 counted from
    there: tr(P_{t|t-1})/q and tr(P_{t|t}) * n/q.

    ``t_bar`` is the first reporting index at which consecutive
    one-step-ahead MSEs agree to ``tol`` in spectral norm.
    """
    T = filt.T
    k = min(T - 1, 5)
    tr_pred = np.array([np.trace(filt.P_pred[t]) / q for t in range(1, k + 1)])
    tr_filt = np.array([np.trace(filt.P_filt[t]) * filt.n / q for t in range(1, k + 1)])
    t_bar = None
    for t in range(1, T):
        if np.linalg.norm(filt.P_pred[t] - filt.P_pred[t - 1], 2) < tol:
            t_bar = t + 1
            break
    return SteadyStateDiagnostics(tr_pred=tr_pred, tr_filt=tr_filt, t_bar=t_bar)
