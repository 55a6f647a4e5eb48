"""Shared test helpers: reference implementations the library is checked against.

The dense oracle builds the exact joint normal law of the stacked state
path (F_0, ..., F_T) and the stacked observations, then conditions
directly. It is O((nT)^3) and only usable on tiny instances, which is the
point: it shares no code with the recursive filter/smoother under test.
The classical inverting smoother, the Woodbury inverse and the dense AR(1)
covariance are further closed-form references.
"""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from dfm_em.kalman import SmootherOutput, _psd_clip, _psd_factor, _symmetrize


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
    Gxi = params.gamma_e
    Gxi = np.diag(Gxi) if Gxi.ndim == 1 else np.asarray(Gxi)

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
    """Unpack the stacked posterior into per-t means, MSEs, lag-1 covs."""
    F = np.empty((r, T))
    P = np.empty((T, r, r))
    C = np.zeros((T, r, r))
    for t in range(T):
        blk = slice((t + 1) * r, (t + 2) * r)
        F[:, t] = post_mean[blk]
        P[t] = post_cov[blk, blk]
        if t >= 1:
            prev = slice(t * r, (t + 1) * r)
            C[t] = post_cov[blk, prev]
    return F, P, C


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
    C = np.zeros((T, r, r))
    F_s[:, T - 1] = filt.F_filt[:, T - 1]
    P_s[T - 1] = filt.P_filt[T - 1]
    for t in range(T - 2, -1, -1):
        J = filt.P_filt[t] @ A.T @ np.linalg.inv(filt.P_pred[t + 1])
        F_s[:, t] = filt.F_filt[:, t] + J @ (F_s[:, t + 1] - filt.F_pred[:, t + 1])
        P_s[t] = _psd_clip(filt.P_filt[t] + J @ (P_s[t + 1] - filt.P_pred[t + 1]) @ J.T)
        C[t + 1] = P_s[t + 1] @ J.T

    J0 = filt.init.P0 @ A.T @ np.linalg.inv(filt.P_pred[0])
    F0_s = filt.init.F0 + J0 @ (F_s[:, 0] - filt.F_pred[:, 0])
    P0_s = _symmetrize(filt.init.P0 + J0 @ (P_s[0] - filt.P_pred[0]) @ J0.T)
    C[0] = 0.0

    return SmootherOutput(F_smooth=F_s, P_smooth=P_s, C_lag1=C,
                          F0_smooth=F0_s, P0_smooth=P0_s)


def ar1_covariance(rho, gamma, T):
    """Dense T x T covariance of a stationary AR(1): gamma rho^|t-s| / (1-rho^2)."""
    return gamma * toeplitz(rho ** np.arange(T)) / (1.0 - rho**2)


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
