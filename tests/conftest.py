"""Shared test helpers: reference implementations the library is checked against.

The dense oracle builds the exact joint normal law of the stacked state
path (F_0, ..., F_T) and the stacked observations, then conditions
directly. It is O((nT)^3) and only usable on tiny instances, which is the
point: it shares no code with the recursive filter/smoother under test.
The classical inverting smoother, the Woodbury inverse and the dense AR(1)
covariance and precision are further closed-form references, the
step-by-step Riccati loop is the reference for the filter's
prefix-doubling pass, and the per-period simulation loop is the
reference for ``simulate``, and the per-(series, period) residual moments
are the reference for ECM's AR(1) updates. ``factored`` gives a dense
Gamma^e as the factors (c, B) that ``DfmParams`` holds, ``toeplitz_params``
a draw's parameters with the full Gamma^e its tau stands for, as factors,
``dense_gamma`` the n x n Gamma^e of any parameters, and
``cholesky_whitener`` whitens by the Cholesky factor of that dense
Gamma^e: the reference for the filter's Woodbury route. ``traced_call``
measures the bytes a call allocates, for the bounds on what a draw and a
fit hold.
"""

import dataclasses
import tracemalloc

import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz
from scipy.linalg.lapack import dposv

from dfm_em.kalman import (
    _FREEZE_RTOL,
    _NOT_PD,
    _RANK_RTOL,
    SmootherOutput,
    _symmetrize,
)
from dfm_em.simulate import BURN_IN


def dense_gamma(params):
    """The n x n Gamma^e of ``params``: c I + B B' from its factors, or the
    diagonal matrix of its ``gamma_e``."""
    if params.gamma_factors is not None:
        c, B = params.gamma_factors
        return c * np.eye(B.shape[0]) + B @ B.T
    return np.diag(params.gamma_e)


def factored(G):
    """The factors (c, B) of a symmetric G = c I + B B': with
    G = V diag(g) V', c is the smallest eigenvalue g and B = V diag(g - c)^{1/2},
    so B'B is diagonal. An indefinite G gives c < 0, which ``validate`` and
    the filter refuse."""
    g, V = np.linalg.eigh(0.5 * (G + G.T))
    c = np.min(g)
    return c, V * np.sqrt(g - c)


def cholesky_whitener(params):
    """``kalman._whitener`` by the Cholesky factor L of ``dense_gamma``:
    triangular solves for Gamma^{-1} Lambda and for the residual, whose
    whitened columns give the norms e_t' Gamma^{-1} e_t, and
    log|Gamma| = 2 sum log L_ii."""
    L = np.linalg.cholesky(dense_gamma(params))
    Lw = solve_triangular(L, params.Lambda, lower=True)

    def norms(X, Lam, F):
        E = solve_triangular(L, X - Lam @ F, lower=True)
        return np.sum(E * E, axis=0)

    return (solve_triangular(L, Lw, lower=True, trans="T"),
            _symmetrize(Lw.T @ Lw), norms, 2.0 * np.sum(np.log(np.diag(L))))


def dense_joint_moments(panel, params, init):
    """Posterior mean/covariance of (F_0..F_T) given the panel, plus the
    exact joint-Gaussian log-likelihood of the panel.

    Returns (post_mean, post_cov, loglik) with post_mean of length
    (T+1) * r; block t of post_mean/post_cov corresponds to F_{t-1}
    (block 0 is the time-zero state).
    """
    X = panel.X
    n, T = X.shape
    r = params.r
    A = params.A
    HHt = params.H @ params.H.T
    Gxi = dense_gamma(params)

    m = (T + 1) * r
    mean = np.empty(m)
    mean[:r] = init.F0
    for t in range(1, T + 1):
        mean[t * r:(t + 1) * r] = A @ mean[(t - 1) * r:t * r]
    Omega = np.zeros((m, m))
    Omega[:r, :r] = init.P0
    for t in range(1, T + 1):
        tt = slice(t * r, (t + 1) * r)
        pp = slice((t - 1) * r, t * r)
        Omega[tt, tt] = A @ Omega[pp, pp] @ A.T + HHt
        for s in range(t):
            ss = slice(s * r, (s + 1) * r)
            Omega[tt, ss] = A @ Omega[pp, ss]
            Omega[ss, tt] = Omega[tt, ss].T

    L = np.zeros((n * T, m))
    for t in range(T):
        L[t * n:(t + 1) * n, (t + 1) * r:(t + 2) * r] = params.Lambda
    S = L @ Omega @ L.T + np.kron(np.eye(T), Gxi)
    xvec = X.T.reshape(-1)
    resid = xvec - L @ mean
    Sinv = np.linalg.inv(S)
    K = Omega @ L.T @ Sinv
    post_mean = mean + K @ resid
    post_cov = Omega - K @ L @ Omega
    sign, logdet = np.linalg.slogdet(S)
    loglik = -0.5 * (n * T * np.log(2.0 * np.pi) + logdet + resid @ Sinv @ resid)
    return post_mean, post_cov, float(loglik)


def oracle_state_blocks(post_mean, post_cov, r, T):
    """Unpack the stacked posterior into per-t means, MSEs, lag-1 covs;
    C[0] pairs the first period with the time-zero state (block 0)."""
    F = np.empty((r, T))
    P = np.empty((T, r, r))
    C = np.empty((T, r, r))
    for t in range(T):
        blk = slice((t + 1) * r, (t + 2) * r)
        F[:, t] = post_mean[blk]
        P[t] = post_cov[blk, blk]
        C[t] = post_cov[blk, t * r:(t + 1) * r]
    return F, P, C


def _psd_factor(P):
    """Truncated factor U with P = U U', dropping near-zero eigenvalues."""
    w, V = np.linalg.eigh(_symmetrize(P))
    tol = _RANK_RTOL * max(w[-1], 0.0) if w.size else 0.0
    keep = w > tol
    return V[:, keep] * np.sqrt(w[keep])


def woodbury_inverse(b_diag, C, A):
    """Inverse of diag(b) + C A C' via the matrix-inversion lemma.

    Valid for positive diagonal b, any n x m matrix C and symmetric PSD A
    (possibly singular): with A = U U',

        (B + CU(CU)')^{-1} = B^{-1} - B^{-1}CU (I + U'C'B^{-1}CU)^{-1} U'C'B^{-1}.

    Parameters
    ----------
    b_diag : ndarray, shape (n,)
        Diagonal of the positive definite diagonal term.
    C : ndarray, shape (n, m)
    A : ndarray, shape (m, m)
        Symmetric positive semidefinite.

    Returns
    -------
    ndarray, shape (n, n)
    """
    b_diag = np.asarray(b_diag, dtype=float)
    if np.any(b_diag <= 0.0):
        raise ValueError("diagonal term must be strictly positive")
    U = _psd_factor(np.asarray(A, dtype=float))
    CU = np.asarray(C, dtype=float) @ U
    Binv_CU = CU / b_diag[:, None]
    if CU.shape[1] == 0:
        return np.diag(1.0 / b_diag)
    core = np.eye(CU.shape[1]) + CU.T @ Binv_CU
    sol = np.linalg.solve(core, Binv_CU.T)
    return np.diag(1.0 / b_diag) - Binv_CU @ sol


def kalman_smoother_classical(filt, params):
    """Classical inverting smoother; requires nonsingular P_{t+1|t}.

    Used as an independent cross-check of the inversion-free recursion in
    the q = r case. F_{t|T} = F_{t|t} + J_t (F_{t+1|T} - F_{t+1|t}) with
    gain J_t = P_{t|t} A' P_{t+1|t}^{-1}; the lag-one cross-covariance
    follows C_{t+1,t|T} = P_{t+1|T} J_t'.
    """
    T, r = filt.T, filt.r
    A = params.A

    F_s = np.empty((r, T))
    P_s = np.empty((T, r, r))
    C = np.empty((T, r, r))
    F_s[:, T - 1] = filt.F_filt[:, T - 1]
    P_s[T - 1] = filt.P_filt[T - 1]
    for t in range(T - 2, -1, -1):
        J = filt.P_filt[t] @ A.T @ np.linalg.inv(filt.P_pred[t + 1])
        F_s[:, t] = filt.F_filt[:, t] + J @ (F_s[:, t + 1] - filt.F_pred[:, t + 1])
        P_s[t] = _symmetrize(filt.P_filt[t] + J @ (P_s[t + 1] - filt.P_pred[t + 1]) @ J.T)
        C[t + 1] = P_s[t + 1] @ J.T

    J0 = filt.init.P0 @ A.T @ np.linalg.inv(filt.P_pred[0])
    F0_s = filt.init.F0 + J0 @ (F_s[:, 0] - filt.F_pred[:, 0])
    P0_s = _symmetrize(filt.init.P0 + J0 @ (P_s[0] - filt.P_pred[0]) @ J0.T)
    C[0] = P_s[0] @ J0.T

    return SmootherOutput(F_smooth=F_s, P_smooth=P_s, C_lag1=C,
                          F0_smooth=F0_s, P0_smooth=P0_s)


def riccati_step_loop(A, HHt, P0, Vk, d, T):
    """The Riccati pass of ``kalman._riccati``, one step per time point.

    Each step solves S_y X = I with one LAPACK dposv call, which returns
    S_y^{-1} and the Cholesky factor that gives log|S_y| and reports a
    non-positive-definite S_y by its info code; the gain freezes the same
    way. Same inputs and outputs as ``_riccati``.
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


def ar1_precision(rho, gamma, T):
    """Inverse covariance of a stationary AR(1) of length T (tridiagonal).

    The covariance is gamma rho^|t-s| / (1-rho^2); its inverse is
    (1/gamma) times the tridiagonal matrix with diagonal
    [1, 1 + rho^2, ..., 1 + rho^2, 1] and off-diagonal -rho. It is the
    dense weighting behind the GLS loadings and the "gls_v" variance.
    """
    d = np.full(T, 1.0 + rho**2)
    d[0] = d[-1] = 1.0
    P = np.diag(d)
    idx = np.arange(T - 1)
    P[idx, idx + 1] = -rho
    P[idx + 1, idx] = -rho
    return P / gamma


def ar1_covariance(rho, gamma, T):
    """Dense T x T covariance of a stationary AR(1): gamma rho^|t-s| / (1-rho^2)."""
    return gamma * toeplitz(rho ** np.arange(T)) / (1.0 - rho**2)


def toeplitz_params(draw):
    """``draw.params`` with Gamma^e = toeplitz(tau^|i-j|), the law of a
    tau > 0 draw's shocks, which the draw carries only as ``draw.tau``,
    given by its factors. At tau = 0 the draw's own (diagonal) parameters."""
    if draw.tau == 0.0:
        return draw.params
    G = toeplitz(draw.tau ** np.arange(draw.params.n))
    return dataclasses.replace(draw.params, gamma_e=None,
                               gamma_factors=factored(G))


def simulate_loop(params, T, innovation, rng, tau=0.0):
    """(F, X) of ``simulate.draw_dgp``'s simulation from ``params``
    computed the plain way, with ``tau`` > 0 its Toeplitz shocks.

    Shocks are drawn in the same order (common, then idiosyncratic), the
    idiosyncratic ones are multiplied by the square root of a diagonal
    Gamma^e, or at tau > 0 run through the AR(1) recursion across series
    out of place (e = sqrt(1 - tau^2) z, e_0 = z_0, e_i += tau e_{i-1}).
    A full Gamma^e given by its factors, such as ``toeplitz_params``
    gives, enters through the Cholesky factor of ``dense_gamma``: the
    dense reference for the recursion. Both the factor VAR(1) and the
    idiosyncratic AR(1) run one period at a time from zero, the BURN_IN
    pre-sample periods included; X = Lambda F + xi.
    """
    n, r, q = params.n, params.r, params.q
    total = T + BURN_IN
    if innovation == "gaussian":
        u = rng.standard_normal((q, total))
        z = rng.standard_normal((n, total))
    else:
        u = rng.standard_t(4, size=(q, total)) / np.sqrt(2.0)
        z = rng.standard_t(4, size=(n, total)) / np.sqrt(2.0)
    if tau > 0.0:
        e = np.sqrt(1.0 - tau * tau) * z
        e[0] = z[0]
        for i in range(1, n):
            e[i] += tau * e[i - 1]
    elif params.gamma_factors is None:
        e = np.sqrt(params.gamma_e)[:, None] * z
    else:
        e = np.linalg.cholesky(dense_gamma(params)) @ z

    F = np.zeros((r, total))
    Hu = params.H @ u
    prev = np.zeros(r)
    for t in range(total):
        prev = params.A @ prev + Hu[:, t]
        F[:, t] = prev

    xi = np.zeros((n, total))
    prev_xi = np.zeros(n)
    for t in range(total):
        prev_xi = params.rho * prev_xi + e[:, t]
        xi[:, t] = prev_xi

    F = F[:, BURN_IN:]
    return F, params.Lambda @ F + xi[:, BURN_IN:]


def ar_updates_reference(X, Lam, smooth):
    """``extensions._ar_updates`` from the n x T arrays of expected
    squared and lagged residual moments, one entry per (series, period)."""
    Fs, Ps, Cs = smooth.F_smooth, smooth.P_smooth, smooth.C_lag1
    n, r = Lam.shape
    T = Fs.shape[1]
    resid = X - Lam @ Fs
    # lambda_i' M_t lambda_i for all (i, t) as one product: the rows
    # vec(lambda_i lambda_i') against the stacked vec(M_t).
    LL = (Lam[:, :, None] * Lam[:, None, :]).reshape(n, r * r)
    quad_P = LL @ Ps.reshape(T, r * r).T
    quad_C = LL @ Cs.reshape(T, r * r).T
    sq = resid**2 + quad_P                     # E[xi_t^2 | X], per (i, t)
    lag = resid[:, 1:] * resid[:, :-1] + quad_C[:, 1:]
    num = lag.sum(axis=1)
    den = sq[:, :-1].sum(axis=1)
    rho = num / den
    bad = np.abs(rho) >= 1.0
    if np.any(bad):
        warnings.warn("idiosyncratic AR estimates clamped", RuntimeWarning)
        rho[bad] = np.sign(rho[bad]) * 0.99
    head = sq[:, 1:].sum(axis=1)
    return rho, (head - 2.0 * rho * num + rho**2 * den) / (T - 1)


def traced_call(f, *args):
    """(result, peak, retained): ``f(*args)`` with the peak and the
    retained bytes that tracemalloc counts during the call. It counts
    numpy's allocations but not BLAS's own work buffers, so a bound on it
    does not depend on the BLAS build or the number of its threads."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak - base, current - base


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-gate verdict lines after the test run."""
    try:
        from test_acceptance import GATE_LINES
    except ImportError:
        return
    if GATE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in GATE_LINES:
            terminalreporter.write_line(line)
