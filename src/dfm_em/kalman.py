"""Kalman filter and smoother for the factor state space.

The measurement equation is x_t = Lambda F_t + xi_t with white measurement
noise of covariance Gamma^e (any serial correlation in xi is the business
of the estimators built on top, not of the recursion), and the state
equation is F_t = A F_{t-1} + H u_t, so the state innovation covariance
HH' may be singular when q < r.

The filter never forms an n-dimensional innovation. Following Jungbacker
& Koopman (2015) it projects the panel once onto the state: with
M = Lambda' Gamma^{-1} Lambda = V D V' it keeps the k eigenpairs with
D > _RANK_RTOL max D (k = r for full-column-rank loadings, k < r for
rank-deficient ones, k = 0 for Lambda = 0), and
Y = D_k^{-1} V_k' Lambda' Gamma^{-1} X (one BLAS-3 product) obeys
y_t = V_k' F_t + eps_t, eps_t ~ N(0, D_k^{-1}), carrying all that x_t
says about F_t. With P = P_{t|t-1} and S_y = V_k' P V_k + D_k^{-1},

    W_t = V_k S_y^{-1} V_k',     g_t = V_k S_y^{-1} (y_t - V_k' F_{t|t-1}),
    P_{t|t} = P V_k S_y^{-1} D_k^{-1} V_k' + (I - P W_t) P (I - V_k V_k'),

where W_t = Lambda' S_t^{-1} Lambda and g_t = Lambda' S_t^{-1} v_t for the
n-dimensional innovation covariance S_t. P_{t|t} is built from products
only (for k = r it is the information form P W_t M^{-1}), so no digits
are lost to cancellation when the noise is many orders below the signal.
For the same reason the update factor is formed as

    J_t = I - P W_t = V_k D_k^{-1} S_y^{-1} V_k' + (I - V_k V_k')(I - P W_t),

whose second term vanishes when k = r; it gives both the filtered mean
F_{t|t} = J_t A F_{t-1|t-1} + P V_k S_y^{-1} y_t and the smoother's L_t,
and it stays accurate when the gain nearly cancels a large A.
The log-likelihood adds to the collapsed one the closed form
-1/2 sum_t [(n-k) log 2 pi + log|Gamma| + log|D_k| + e_t' Gamma^{-1} e_t]
with e_t = x_t - Lambda V_k y_t. A full Gamma costs one n x n Cholesky
factor and triangular solve per call.

The Riccati recursion for P_{t|t-1}, W_t and P_{t|t} does not depend on
the data, so it runs first. Once P_{t|t-1} repeats its predecessor to
round-off (_FREEZE_RTOL relative, in max-norm) the gain is frozen: that
step's matrices are reused for the rest of the sample. The mean pass
that follows is one r x r matrix-vector product per step.

The smoother is the inversion-free backward recursion

    r_T = 0, N_T = 0,
    L_t = A J_t,
    r_{t-1} = g_t + L_t' r_t,
    N_{t-1} = W_t + L_t' N_t L_t,
    F_{t|T} = F_{t|t-1} + P_{t|t-1} r_{t-1},
    P_{t|T} = P_{t|t-1} - P_{t|t-1} N_{t-1} P_{t|t-1},

which never inverts P and therefore also covers the singular q < r case.
The lag-one smoothed cross-covariance is assembled from the same
quantities as

    C_{t,t-1|T} = (I - P_{t|t-1} N_{t-1}) L_{t-1} P_{t-1|t-2}.

Only r_t and N_t run step by step; L_t and the smoothed moments are
computed for all t at once. The test suite checks both passes against a
dense joint-Gaussian projection and a classical inverting smoother.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

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
_FREEZE_RTOL = 1e-15
_NOT_PD = "innovation covariance not positive definite"


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
    decomposition log-likelihood. W, g, the update factors
    J_t = I - P_{t|t-1} W_t and the initial state are kept so the smoother
    can run without touching the data again.
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
    J: np.ndarray

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
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _psd_clip(M):
    """Nearest PSD matrix under eigenvalue clipping, for one matrix or a
    stack of them; removes the tiny negative eigenvalues the backward
    subtraction can produce when the measurement noise is many orders
    below the signal. Only matrices with a negative eigenvalue change."""
    M = _symmetrize(M)
    neg = np.linalg.eigvalsh(M)[..., 0] < 0.0
    if np.any(neg):
        w, V = np.linalg.eigh(M[neg])
        M[neg] = (V * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(V, -1, -2)
    return M


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


def _whitener(gamma_e):
    """Map Y -> Gamma^{-1/2} Y (a triangular Cholesky solve for a full
    Gamma, elementwise for a diagonal one) and log|Gamma|."""
    if not np.all(np.isfinite(gamma_e)):
        raise FilterNumericalError("idiosyncratic covariance not finite", 1)
    if gamma_e.ndim == 1:
        if np.any(gamma_e <= 0.0):
            raise FilterNumericalError("idiosyncratic covariance not positive definite", 1)
        root = np.sqrt(gamma_e)[:, None]
        return (lambda Y: Y / root), float(np.sum(np.log(gamma_e)))
    try:
        chol = np.linalg.cholesky(gamma_e)
    except np.linalg.LinAlgError as exc:
        raise FilterNumericalError(
            f"idiosyncratic covariance not positive definite: {exc}", 1) from exc
    return ((lambda Y: solve_triangular(chol, Y, lower=True)),
            float(2.0 * np.sum(np.log(np.diag(chol)))))


def _riccati(A, HHt, P0, Vk, d, T):
    """Data-free forward pass: P_{t|t-1}, P_{t|t}, S_y and S_y^{-1} for
    every step, frozen once P_{t|t-1} is stationary.

    Also returns the number of steps done, T unless the pass stopped at a
    non-finite P_{t|t-1} or a singular S_y, and the reason it stopped.
    """
    r, k = Vk.shape
    P_pred = np.empty((T, r, r))
    P_filt = np.empty((T, r, r))
    Sy = np.empty((T, k, k))
    Sinv = np.empty((T, k, k))
    Dinv = np.diag(1.0 / d)
    VDinv = (Vk / d).T
    perp = np.eye(r) - Vk @ Vk.T if k < r else None
    P = P0
    for t in range(T):
        Pp = A @ P @ A.T + HHt
        Pp = 0.5 * (Pp + Pp.T)
        scale = abs(Pp).max()
        if not scale < np.inf:
            return P_pred, P_filt, Sy, Sinv, t, "non-finite state prediction MSE"
        if t and abs(Pp - P_pred[t - 1]).max() <= _FREEZE_RTOL * scale:
            for arr in (P_pred, P_filt, Sy, Sinv):
                arr[t:] = arr[t - 1]
            break
        PV = Pp @ Vk
        Sy[t] = Vk.T @ PV + Dinv
        try:
            Si = np.linalg.inv(Sy[t])
        except np.linalg.LinAlgError:
            return P_pred, P_filt, Sy, Sinv, t, _NOT_PD
        Si = 0.5 * (Si + Si.T)
        K = PV @ Si
        P = K @ VDinv
        if perp is not None:
            P = P + (Pp - K @ PV.T) @ perp
        P_pred[t] = Pp
        P_filt[t] = P = 0.5 * (P + P.T)
        Sinv[t] = Si
    return P_pred, P_filt, Sy, Sinv, T, None


def _first_not_pd(S):
    """Index of the first matrix of the stack S without a Cholesky factor."""
    for t, s in enumerate(S):
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return t
    return len(S)


def kalman_filter(panel: Panel, params: DfmParams, init: InitState) -> FilterOutput:
    """Run the forward recursions over the panel.

    Idiosyncratic serial correlation is never tracked here: the filter
    treats the measurement noise as white with covariance ``gamma_e``,
    ignoring ``rho``. Serially correlated idiosyncratics are handled by the
    estimators built on top of the filter, not inside the recursion.

    Raises
    ------
    FilterNumericalError
        If the innovation covariance is not numerically positive definite
        or an update is not finite; the exception carries the first
        offending time index ``t``.
    """
    X = panel.X
    n, T = X.shape
    r = params.r
    A = params.A
    whiten, logdet_gamma = _whitener(params.gamma_e)

    # Rank-revealing collapse onto the k directions of the state that the
    # panel observes.
    Xw = whiten(X)
    Lw = whiten(params.Lambda)
    d, V = np.linalg.eigh(_symmetrize(Lw.T @ Lw))
    keep = d > _RANK_RTOL * d[-1] if d[-1] > 0.0 else np.zeros(r, dtype=bool)
    d, Vk = d[keep], V[:, keep]
    Y = (Vk.T @ (Lw.T @ Xw)) / d[:, None]
    Ew = Xw - Lw @ (Vk @ Y)

    P_pred, P_filt, Sy, Sinv, T_ok, why = _riccati(
        A, params.H @ params.H.T, init.P0, Vk, d, T)
    try:
        chol = np.linalg.cholesky(Sy[:T_ok])
    except np.linalg.LinAlgError:
        T_ok, why = _first_not_pd(Sy[:T_ok]), _NOT_PD
        chol = np.linalg.cholesky(Sy[:T_ok])

    # Mean pass over the steps with a valid gain K_t = P_{t|t-1} V_k S_y^{-1}:
    # F_{t|t} = J_t A F_{t-1|t-1} + K_t y_t, with J_t = I - K_t V_k' in
    # the product form of the module docstring.
    G = Vk @ Sinv[:T_ok]
    K = P_pred[:T_ok] @ G
    J = (Vk / d) @ Sinv[:T_ok] @ Vk.T
    if d.size < r:
        I = np.eye(r)
        J = J + (I - Vk @ Vk.T) @ (I - K @ Vk.T)
    Phi = J @ A
    c = (K @ Y.T[:T_ok, :, None])[..., 0]
    F_filt = np.zeros((T, r))
    f = init.F0
    for t in range(T_ok):
        f = Phi[t] @ f + c[t]
        F_filt[t] = f
    F_filt = F_filt.T
    F_pred = A @ np.column_stack([init.F0, F_filt[:, :T - 1]])
    v = (Y - Vk.T @ F_pred).T[:T_ok, :, None]
    terms = (n * np.log(2.0 * np.pi) + logdet_gamma + np.sum(np.log(d))
             + 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
             + np.einsum("it,it->t", Ew, Ew)[:T_ok]
             + (np.swapaxes(v, 1, 2) @ Sinv[:T_ok] @ v)[:, 0, 0])
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        raise FilterNumericalError("non-finite innovation update", int(bad[0]) + 1)
    if T_ok < T:
        raise FilterNumericalError(why, T_ok + 1)

    return FilterOutput(
        F_pred=F_pred, P_pred=P_pred, F_filt=F_filt, P_filt=P_filt,
        loglik=float(-0.5 * np.sum(terms)), n=n, init=init,
        W=_symmetrize(G @ Vk.T), g=(G @ v)[..., 0].T, J=J,
    )


def kalman_smoother(filt: FilterOutput, params: DfmParams) -> SmootherOutput:
    """Backward smoothing pass; valid for singular P_{t|t-1} (q < r)."""
    T, r = filt.T, filt.r
    A = params.A
    I = np.eye(r)
    Pp = filt.P_pred
    W = filt.W

    L = A @ filt.J
    Lt = np.swapaxes(L, -1, -2)
    g = filt.g.T
    R = np.empty((T, r))
    N = np.empty((T, r, r))
    r_vec = np.zeros(r)
    N_t = np.zeros((r, r))
    for t in range(T - 1, -1, -1):
        R[t] = r_vec = g[t] + Lt[t] @ r_vec
        N[t] = N_t = Lt[t] @ N_t @ L[t] + W[t]
    N = _symmetrize(N)

    F_s = filt.F_pred + np.einsum("tij,tj->it", Pp, R)
    P_s = _psd_clip(Pp - Pp @ N @ Pp)
    C = np.zeros((T, r, r))
    C[1:] = (I - Pp[1:] @ N[1:]) @ L[:-1] @ Pp[:-1]

    # Smoothed time-zero moments for warm-starting the next filter run:
    # with L_0 = A (no data at t=0), F_{0|T} = F_{0|0} + P_{0|0} A' r_0.
    P0 = filt.init.P0
    F0_s = filt.init.F0 + P0 @ A.T @ r_vec
    P0_s = _psd_clip(P0 - P0 @ A.T @ N[0] @ A @ P0)

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
