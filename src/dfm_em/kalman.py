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
the data, so it runs first, one step per time point. Each step solves
S_y X = I with one LAPACK dposv call, which returns S_y^{-1} and the
Cholesky factor that gives log|S_y|, and reports a non-positive-definite
S_y by its info code. Once P_{t|t-1} repeats its predecessor to
round-off (_FREEZE_RTOL relative, in max-norm) the gain is frozen: that
step's matrices are reused for the rest of the sample. This is the only
per-step Python loop of the filter and the smoother.

Every other recursion is linear, x_t = M_t x_{t-1} + b_t (optionally
with N_t = M_t N_{t-1} M_t' + Q_t), and runs as an odd-even scan: combine
neighbouring pairs of steps, solve the half-length recursion on the
pairs, then fill in the remaining steps. That is O(T) batched r x r work
in O(log T) numpy calls. The filtered means are the scan of
F_{t|t} = J_t A F_{t-1|t-1} + P V_k S_y^{-1} y_t, with F_{0|0} folded into
the first step. The smoother scans, over reversed time, the
inversion-free backward pair

    r_T = 0, N_T = 0,
    L_t = A J_t,
    r_{t-1} = g_t + L_t' r_t,
    N_{t-1} = W_t + L_t' N_t L_t,

which never inverts P and therefore also covers the singular q < r case.
The smoothed moments are formed from the filtered ones for t = 0..T at
once, with (F_{0|0}, P_{0|0}) in front:

    F_{t|T} = F_{t|t} + P_{t|t} A' r_t,
    P_{t|T} = P_{t|t} - P_{t|t} A' N_t A P_{t|t},
    C_{t,t-1|T} = (I - P_{t|t} A' N_t A) J_t A P_{t-1|t-1}.

Unlike the predicted form F_{t|t-1} + P_{t|t-1} r_{t-1}, these do not
cancel when A is large (F_{t|t-1} and its correction are then both of
the order of A while F_{t|T} is not). The test suite checks both passes
against a dense joint-Gaussian projection and a classical inverting
smoother.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dposv

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
    """Data-free forward pass: P_{t|t-1}, P_{t|t}, S_y^{-1} and the
    diagonal of S_y's Cholesky factor for every step, frozen once
    P_{t|t-1} is stationary.

    Also returns the number of steps done, T unless the pass stopped at a
    non-finite P_{t|t-1} or a non-positive-definite S_y, and the reason it
    stopped.
    """
    r, k = Vk.shape
    P_pred = np.empty((T, r, r))
    P_filt = np.empty((T, r, r))
    Sinv = np.empty((T, k, k))
    Udiag = np.empty((T, k))
    Dinv = np.diag(1.0 / d)
    VDinv = (Vk / d).T
    Ik = np.eye(k)
    perp = np.eye(r) - Vk @ Vk.T if k < r else None
    P = P0
    for t in range(T):
        Pp = A @ P @ A.T + HHt
        Pp = 0.5 * (Pp + Pp.T)
        scale = abs(Pp).max()
        if not scale < np.inf:
            return P_pred, P_filt, Sinv, Udiag, t, "non-finite state prediction MSE"
        if t and abs(Pp - P_pred[t - 1]).max() <= _FREEZE_RTOL * scale:
            for arr in (P_pred, P_filt, Sinv, Udiag):
                arr[t:] = arr[t - 1]
            break
        PV = Pp @ Vk
        Si = Ik  # S_y is 0 x 0 when the panel observes no direction (k = 0)
        if k:
            U, Si, info = dposv(Vk.T @ PV + Dinv, Ik)
            if info:
                return P_pred, P_filt, Sinv, Udiag, t, _NOT_PD
            Si = 0.5 * (Si + Si.T)
            Udiag[t] = U.diagonal()
        K = PV @ Si
        P = K @ VDinv
        if perp is not None:
            P = P + (Pp - K @ PV.T) @ perp
        P_pred[t] = Pp
        P_filt[t] = P = 0.5 * (P + P.T)
        Sinv[t] = Si
    return P_pred, P_filt, Sinv, Udiag, T, None


def _scan(M, b, Q=None):
    """x_t = M_t x_{t-1} + b_t from x_{-1} = 0 for every t, and with Q
    also N_t = M_t N_{t-1} M_t' + Q_t from N_{-1} = 0 (None without Q).

    Odd-even recursive doubling: steps 2i and 2i+1 combine into one step
    (M_{2i+1} M_{2i}, M_{2i+1} b_{2i} + b_{2i+1}) from x_{2i-1} to
    x_{2i+1}; the half-length recursion on these pairs gives the odd
    positions, and one batched step from each gives the even ones.
    """
    T = len(b)
    if T <= 1:
        return b.copy(), (None if Q is None else Q.copy())
    h = T // 2
    Me, Mo = M[0:2 * h:2], M[1::2]
    x_odd, N_odd = _scan(
        Mo @ Me, (Mo @ b[0:2 * h:2, :, None])[..., 0] + b[1::2],
        None if Q is None else Mo @ Q[0:2 * h:2] @ np.swapaxes(Mo, 1, 2) + Q[1::2])
    # x_{2i} = M_{2i} x_{2i-1} + b_{2i}, with x_{-1} = 0
    M2 = M[2::2]
    x = np.empty_like(b)
    x[0] = b[0]
    x[1::2] = x_odd
    x[2::2] = (M2 @ x_odd[:T - 1 - h, :, None])[..., 0] + b[2::2]
    if Q is None:
        return x, None
    N = np.empty_like(Q)
    N[0] = Q[0]
    N[1::2] = N_odd
    N[2::2] = M2 @ N_odd[:T - 1 - h] @ np.swapaxes(M2, 1, 2) + Q[2::2]
    return x, N


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

    P_pred, P_filt, Sinv, Udiag, T_ok, why = _riccati(
        A, params.H @ params.H.T, init.P0, Vk, d, T)

    # Mean pass over the steps with a valid gain K_t = P_{t|t-1} V_k S_y^{-1}:
    # F_{t|t} = J_t A F_{t-1|t-1} + K_t y_t, with J_t = I - K_t V_k' in
    # the product form of the module docstring and F_{0|0} folded into
    # the first step.
    G = Vk @ Sinv[:T_ok]
    K = P_pred[:T_ok] @ G
    J = (Vk / d) @ Sinv[:T_ok] @ Vk.T
    if d.size < r:
        I = np.eye(r)
        J = J + (I - Vk @ Vk.T) @ (I - K @ Vk.T)
    Phi = J @ A
    c = (K @ Y.T[:T_ok, :, None])[..., 0]
    c[:1] += Phi[:1] @ init.F0
    F_filt = np.zeros((r, T))
    F_filt[:, :T_ok] = _scan(Phi, c)[0].T
    F_pred = A @ np.column_stack([init.F0, F_filt[:, :T - 1]])
    v = (Y - Vk.T @ F_pred).T[:T_ok, :, None]
    terms = (n * np.log(2.0 * np.pi) + logdet_gamma + np.sum(np.log(d))
             + 2.0 * np.log(Udiag[:T_ok]).sum(axis=1)
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

    # r_{t-1} = g_t + L_t' r_t, N_{t-1} = W_t + L_t' N_t L_t as a forward
    # scan over reversed time; then r_t, N_t for t = 0..T, with r_T = 0
    # and N_T = 0 appended.
    Lt = np.swapaxes(A @ filt.J, 1, 2)
    R, N = _scan(Lt[::-1], filt.g.T[::-1], filt.W[::-1])
    R = np.vstack([R[::-1], np.zeros((1, r))])
    N = np.concatenate([_symmetrize(N[::-1]), np.zeros((1, r, r))])

    # Filtered form, with (F_{0|0}, P_{0|0}) stacked in front of the
    # filtered moments; A P_{t|t} = (P_{t|t} A')' as P_{t|t} is symmetric.
    F = np.vstack([filt.init.F0, filt.F_filt.T])
    P = np.concatenate([filt.init.P0[None], filt.P_filt])
    PA = P @ A.T
    F_s = F + (PA @ R[..., None])[..., 0]
    P_s = _psd_clip(P - PA @ N @ np.swapaxes(PA, 1, 2))
    C = np.zeros((T, r, r))
    C[1:] = ((np.eye(r) - PA[2:] @ N[2:] @ A) @ filt.J[1:]
             @ np.swapaxes(PA[1:T], 1, 2))

    return SmootherOutput(F_smooth=F_s[1:].T, P_smooth=P_s[1:], C_lag1=C,
                          F0_smooth=F_s[0], P0_smooth=P_s[0])


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
    tr_pred = np.trace(filt.P_pred[1:k + 1], axis1=1, axis2=2) / q
    tr_filt = np.trace(filt.P_filt[1:k + 1], axis1=1, axis2=2) * filt.n / q
    steps = np.linalg.norm(np.diff(filt.P_pred, axis=0), 2, axis=(1, 2))
    hit = np.flatnonzero(steps < tol)
    t_bar = int(hit[0]) + 2 if hit.size else None
    return SteadyStateDiagnostics(tr_pred=tr_pred, tr_filt=tr_filt, t_bar=t_bar)
