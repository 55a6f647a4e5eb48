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
Y = D_k^{-1} V_k' (Gamma^{-1} Lambda)' X (one BLAS-3 product on the raw
panel; no whitened copy of X is formed) obeys y_t = V_k' F_t + eps_t,
eps_t ~ N(0, D_k^{-1}), carrying all that x_t says about F_t. With
P = P_{t|t-1} and S_y = V_k' P V_k + D_k^{-1},

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
with e_t = x_t - Lambda V_k y_t, never as the difference
||Gamma^{-1/2} x_t||^2 - y_t' D_k y_t, which cancels to round-off when
the noise is many orders below the signal. Gamma enters by one route
(_whitener), as D + B B': its diagonal D acts elementwise, and the
factors c I + B B' of a full Gamma add a Woodbury term (no n x n work).

The Riccati recursion for P_{t|t-1}, W_t and P_{t|t} does not depend on
the data, so it runs first, by prefix doubling over the filtering
elements of Sarkka & Garcia-Fernandez (2021). The one-step element
E = (A_1, C_1, J_1) maps P_{t-1|t-1} to P_{t|t}: A_1 = J A and C_1 = J HH'
with J the update factor above at P = HH', and J_1 = A' W A at that P.
Its power E^w = (A_w, C_w, J_w) maps P_{t-w|t-w} to

    P_{t|t} = A_w (I + P_{t-w|t-w} J_w)^{-1} P_{t-w|t-w} A_w' + C_w,

so from P_{0|0} each level fills P_{t|t} for w <= t < 2w from the known
t < w with one batched solve, then squares E^w into E^{2w} with one r x r
combination (the doubling of Chu, Fan & Lin's structure-preserving
algorithm, 2005), and P_{t|t-1} = A P_{t-1|t-1} A' + HH'. Once P_{t|t-1}
repeats its predecessor to round-off (_FREEZE_RTOL relative, in
max-norm) the gain is frozen: that step's matrices are reused for the
rest of the sample, and levels stop at the block that holds it. The
steps before the freeze take S_y^{-1} from one batched inverse and
log|S_y| from one batched Cholesky; only when that Cholesky fails does a
per-step search find the first non-positive-definite S_y.

The two recursions that carry data are linear, x_t = M_t x_{t-1} + b_t
forward or x_t = M_t x_{t+1} + b_t backward, so each is one unit
block-bidiagonal triangular system in the Tr stacked unknowns, solved
by one LAPACK band substitution (dtbtrs, bandwidth 2r - 1): O(T r^2)
work in a single call. The filtered means solve
F_{t|t} = J_t A F_{t-1|t-1} + P V_k S_y^{-1} y_t, with F_{0|0} folded
into the first step. The smoother's backward pair

    r_T = 0, N_T = 0,
    L_t = A J_t,
    r_{t-1} = g_t + L_t' r_t,
    N_{t-1} = W_t + L_t' N_t L_t,

solves r_t the same way (upper triangular) and runs the data-free
N_t = M_t N_{t-1} M_t' + Q_t over reversed time as an odd-even scan:
combine neighbouring pairs of steps, solve the half-length recursion on
the pairs, then fill in the remaining steps, O(T) batched r x r work in
O(log T) numpy calls. The pair never inverts P and therefore also
covers the singular q < r case. The smoothed moments are formed from
the filtered ones for t = 0..T at once, with (F_{0|0}, P_{0|0}) in
front:

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
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtbtrs

from .model import DfmParams, Panel, ShapeError, _check_integer, _residual_blocks

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
_STEADY_TOL = 1e-8
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

    C_lag1[t-1] holds C_{t,t-1|T} for t = 1..T; C_lag1[0] = C_{1,0|T}
    pairs the first period with the time-zero state, whose smoothed
    moments F0_smooth/P0_smooth warm-start subsequent filter runs.
    """

    F_smooth: np.ndarray
    P_smooth: np.ndarray
    C_lag1: np.ndarray
    F0_smooth: np.ndarray
    P0_smooth: np.ndarray


def _symmetrize(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _lyapunov(A, Q):
    """The solution P of the discrete Lyapunov equation P = A P A' + Q,
    symmetrized, via the Kronecker form vec(P) = (I - A (x) A)^{-1} vec(Q).
    It is the stationary covariance of the VAR(1) state, for the filter's
    start and for a draw's loadings."""
    r = A.shape[0]
    vecP = np.linalg.solve(np.eye(r * r) - np.kron(A, A), Q.reshape(-1))
    return _symmetrize(vecP.reshape(r, r))


def stationary_init(params: DfmParams) -> InitState:
    """Zero-mean initialization at the stationary state covariance:
    P_{0|0} solves P = A P A' + HH' (:func:`_lyapunov`)."""
    return InitState(F0=np.zeros(params.r),
                     P0=_lyapunov(params.A, params.H @ params.H.T))


def _whitener(params):
    """Gamma^{-1} Lambda, M = Lambda' Gamma^{-1} Lambda, the map from
    (X, L, F) to the norms e_t' Gamma^{-1} e_t of the residual E = X - L F,
    and log|Gamma|, for Gamma = D + B B' in one form: D = diag(gamma_e)
    with no B for a diagonal Gamma, and D = c I for the factors (c, B) of a
    full one (``params.gamma_factors``), whose B'B = diag(delta). Factors
    add Woodbury's term to the D^{-1} part, with s = c + delta:

        Gamma^{-1} = D^{-1} - B diag(1/s) B' / c,
        log|Gamma| = sum_i log d_i + sum_j log1p(delta_j / c),
        e_t' Gamma^{-1} e_t = sum_i e_it^2 / d_i - sum_j (b_j' e_t)^2 / (c s_j).

    The residual is reduced block by block of rows, in cache
    (model._residual_blocks): a block's gemm adds B_b' E_b into one m x T
    array, then its squares add into the norms weighted by 1/d, so no n x T
    residual, no n x m B o B and no n x n array is formed.
    """
    Lam, factors = params.Lambda, params.gamma_factors
    c, B = factors if factors is not None else (None, np.empty((params.n, 0)))
    d = params.gamma_e if factors is None else np.full(params.n, c)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(B))):
        raise FilterNumericalError("idiosyncratic covariance not finite", 1)
    if np.any(d <= 0.0):
        raise FilterNumericalError("idiosyncratic covariance not positive definite", 1)
    inv, Lw = 1.0 / d, Lam / np.sqrt(d)[:, None]
    Lg, M, logdet = Lam / d[:, None], Lw.T @ Lw, np.sum(np.log(d))
    if factors is not None:
        delta = np.einsum("ij,ij->j", B, B)
        s, BL = c + delta, B.T @ Lam
        Lg = Lg - (B @ (BL / s[:, None])) / c
        M = M - (BL.T @ (BL / s[:, None])) / c
        logdet = logdet + np.sum(np.log1p(delta / c))

    def norms(X, L, F):
        out, BE = np.zeros(X.shape[1]), np.zeros((B.shape[1], X.shape[1]), order="F")
        for b, E in _residual_blocks(X, L, F):
            if factors is not None:  # reads F-ordered views B[b].T, E.T in place
                dgemm(1.0, B[b].T, E.T, beta=1.0, c=BE, trans_b=1, overwrite_c=1)
            E *= E
            out += inv[b] @ E
        if factors is not None:
            out -= ((1.0 / s) @ np.square(BE, out=BE)) / c
        return out

    return Lg, _symmetrize(M), norms, float(logdet)


def _observed_directions(M):
    """The eigenpairs (D_k, V_k) of M = Lambda' Gamma^{-1} Lambda that the
    rank rule keeps."""
    d, V = np.linalg.eigh(M)
    keep = d > _RANK_RTOL * d[-1] if d[-1] > 0.0 else np.zeros(d.size, dtype=bool)
    return d[keep], V[:, keep]


def _solve(a, b):
    """np.linalg.solve, with NaN in place of a batch that holds an exactly
    singular system. I + P J_w is singular only for an indefinite P, past
    a step the checks of :func:`_riccati` reject; the NaN reaches the
    next P_{t|t-1} check instead of raising here. The NaN takes b's
    shape, which is the solution's at both call sites."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def _update_factor(P, Vk, d, Si):
    """Gain K = P V_k S_y^{-1} and update factor J = I - P W in the
    product form of the module docstring, for one P = P_{t|t-1} or a
    stack of them, with S_y^{-1} = Si."""
    r, k = Vk.shape
    K = P @ (Vk @ Si)
    J = (Vk / d) @ Si @ Vk.T
    if k < r:
        I = np.eye(r)
        J = J + (I - Vk @ Vk.T) @ (I - K @ Vk.T)
    return K, J


def _riccati(A, HHt, P0, Vk, d, T):
    """Data-free forward pass by the prefix doubling of the module
    docstring: P_{t|t-1}, P_{t|t}, S_y^{-1} and the diagonal of S_y's
    Cholesky factor for every step, frozen once P_{t|t-1} is stationary.

    Also returns the number of steps done, T unless the pass stopped at a
    non-finite P_{t|t-1} or a non-positive-definite S_y, and the reason it
    stopped.
    """
    r, k = Vk.shape
    I = np.eye(r)
    Dinv = np.diag(1.0 / d)

    # The one-step element E = (A_1, C_1, J_1), P_{t-1|t-1} -> P_{t|t},
    # from the update with prior HH'.
    SiQ = _solve(_symmetrize(Vk.T @ HHt @ Vk) + Dinv, np.eye(k))
    JQ = _update_factor(HHt, Vk, d, SiQ)[1]
    Aw, Cw, Jw = JQ @ A, JQ @ HHt, A.T @ (Vk @ SiQ @ Vk.T) @ A

    # Pf[t] = P_{t|t} for t = 0..T; level w fills w <= t < 2w from
    # t < w with E^w, then checks P_{t|t-1} = A Pf[t-1] A' + HH' for the
    # same t.
    Pf = np.empty((T + 1, r, r))
    Pf[0] = P0
    P_pred = np.empty((T, r, r))
    stop, why, w = T, None, 1
    while w <= T:
        if w > 1:
            X = _solve(I + Cw @ Jw, np.hstack([Aw, Cw]))
            Aw, Cw, Jw = (Aw @ X[:, :r], Aw @ X[:, r:] @ Aw.T + Cw,
                          Aw.T @ (Jw @ X[:, :r]) + Jw)
        hi = min(2 * w, T + 1)
        src = Pf[:hi - w]
        Pf[w:hi] = _symmetrize(Aw @ _solve(I + src @ Jw, src) @ Aw.T + Cw)
        blk = P_pred[w - 1:hi - 1] = _symmetrize(A @ Pf[w - 1:hi - 1] @ A.T + HHt)
        scale = abs(blk).max(axis=(1, 2))
        # go: finite and not repeating its predecessor (NaN and inf
        # compare False)
        if w > 1:
            go = abs(blk - P_pred[w - 2:hi - 2]).max(axis=(1, 2)) > _FREEZE_RTOL * scale
        else:
            go = scale < np.inf
        hit = np.flatnonzero(~go)
        if hit.size:
            stop = w - 1 + int(hit[0])
            if not scale[hit[0]] < np.inf:
                why = "non-finite state prediction MSE"
            break
        w = hi
    P_filt = Pf[1:]

    # S_y over the steps before the stop: one batched Cholesky, and only
    # if that fails a search for the first step that is not positive
    # definite.
    Sy = _symmetrize(Vk.T @ P_pred[:stop] @ Vk) + Dinv
    try:
        L = np.linalg.cholesky(Sy)
    except np.linalg.LinAlgError:
        L = np.empty_like(Sy)
        for t in range(stop):
            try:
                L[t] = np.linalg.cholesky(Sy[t])
            except np.linalg.LinAlgError:
                stop, why = t, _NOT_PD
                break
    Sinv = np.empty((T, k, k))
    Udiag = np.empty((T, k))
    Udiag[:stop] = L[:stop].diagonal(axis1=1, axis2=2)
    Sinv[:stop] = _symmetrize(np.linalg.inv(Sy[:stop]))
    if why is None and stop < T:  # frozen
        for arr in (P_pred, P_filt, Sinv, Udiag):
            arr[stop:] = arr[stop - 1]
        stop = T
    return P_pred, P_filt, Sinv, Udiag, stop, why


def _bidiagonal_solve(M, b, uplo):
    """x_t = M_t x_{t-1} + b_t from x_{-1} = 0 (uplo "L") or
    x_t = M_t x_{t+1} + b_t from x_T = 0 (uplo "U"), for every t.

    The stacked x solves one unit block-bidiagonal triangular system with
    the identity on its diagonal and -M_t beside it, below (L) or above
    (U); in LAPACK band storage its bandwidth is 2r - 1, and one dtbtrs
    call does the substitution. Column j of M_t lands on band rows that
    shift with j, one strided assignment per j.
    """
    T, r = b.shape
    if T == 0:
        return np.empty((0, r))
    ab = np.zeros((2 * r, T * r), order="F")
    for j in range(r):
        if uplo == "L":
            np.negative(M[1:, :, j].T, out=ab[r - j:2 * r - j, j:(T - 1) * r:r])
        else:
            np.negative(M[:-1, :, j].T, out=ab[r - 1 - j:2 * r - 1 - j, r + j::r])
    ab[0 if uplo == "L" else 2 * r - 1] = 1.0
    x, info = dtbtrs(ab, b.reshape(-1, 1), uplo=uplo, diag="U")
    if info != 0:
        raise RuntimeError(f"dtbtrs failed with info={info}")
    return x.reshape(T, r)


def _scan(M, Q):
    """N_t = M_t N_{t-1} M_t' + Q_t from N_{-1} = 0, for every t.

    Odd-even recursive doubling: steps 2i and 2i+1 combine into one step
    (M_{2i+1} M_{2i}, M_{2i+1} Q_{2i} M_{2i+1}' + Q_{2i+1}) from N_{2i-1}
    to N_{2i+1}; the half-length recursion on these pairs gives the odd
    positions, and one batched step from each gives the even ones.
    """
    T = len(Q)
    if T <= 1:
        return Q.copy()
    h = T // 2
    Me, Mo = M[0:2 * h:2], M[1::2]
    N_odd = _scan(Mo @ Me, Mo @ Q[0:2 * h:2] @ np.swapaxes(Mo, 1, 2) + Q[1::2])
    # N_{2i} = M_{2i} N_{2i-1} M_{2i}' + Q_{2i}, with N_{-1} = 0
    M2 = M[2::2]
    N = np.empty_like(Q)
    N[0] = Q[0]
    N[1::2] = N_odd
    N[2::2] = M2 @ N_odd[:T - 1 - h] @ np.swapaxes(M2, 1, 2) + Q[2::2]
    return N


def kalman_filter(panel: Panel, params: DfmParams, init: InitState) -> FilterOutput:
    """Run the forward recursions over the panel.

    Idiosyncratic serial correlation is never tracked here: the filter
    treats the measurement noise as white with covariance ``gamma_e``,
    ignoring ``rho``. Serially correlated idiosyncratics are handled by the
    estimators built on top of the filter, not inside the recursion.

    Raises
    ------
    ShapeError
        Before any work, if the panel's rows do not match ``Lambda``'s or
        the ``InitState`` size does not match r.
    FilterNumericalError
        If the innovation covariance is not numerically positive definite
        or an update is not finite; the exception carries the first
        offending time index ``t``.
    """
    X = panel.X
    n, T = X.shape
    r = params.r
    if params.n != n:
        raise ShapeError(f"panel has {n} rows but Lambda has {params.n}")
    if init.F0.size != r:
        raise ShapeError(f"InitState F0 has size {init.F0.size} but Lambda "
                         f"has r={r} columns")
    A = params.A
    Lg, M, resid_norms, logdet_gamma = _whitener(params)

    # Rank-revealing collapse onto the k directions of the state that the
    # panel observes, and the residual norms e_t' Gamma^{-1} e_t.
    d, Vk = _observed_directions(M)
    Y = (Vk.T @ (Lg.T @ X)) / d[:, None]
    e_norms = resid_norms(X, params.Lambda, Vk @ Y)

    P_pred, P_filt, Sinv, Udiag, T_ok, why = _riccati(
        A, params.H @ params.H.T, init.P0, Vk, d, T)

    # Mean pass over the steps with a valid gain K_t = P_{t|t-1} V_k S_y^{-1}:
    # F_{t|t} = J_t A F_{t-1|t-1} + K_t y_t, with J_t = I - K_t V_k' in
    # the product form of the module docstring and F_{0|0} folded into
    # the first step.
    G = Vk @ Sinv[:T_ok]
    K, J = _update_factor(P_pred[:T_ok], Vk, d, Sinv[:T_ok])
    Phi = J @ A
    c = (K @ Y.T[:T_ok, :, None])[..., 0]
    c[:1] += Phi[:1] @ init.F0
    F_filt = np.zeros((r, T))
    F_filt[:, :T_ok] = _bidiagonal_solve(Phi, c, "L").T
    F_pred = A @ np.column_stack([init.F0, F_filt[:, :T - 1]])
    v = (Y - Vk.T @ F_pred).T[:T_ok, :, None]
    terms = (n * np.log(2.0 * np.pi) + logdet_gamma + np.sum(np.log(d))
             + 2.0 * np.log(Udiag[:T_ok]).sum(axis=1)
             + e_norms[:T_ok]
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
    """Backward smoothing pass; valid for singular P_{t|t-1} (q < r).

    The smoothed covariances are returned as computed, only symmetrized:
    nothing repairs an indefinite one, so a check downstream sees it.
    Raises :class:`ShapeError`, before any work, for ``params`` of another r.
    """
    T, r = filt.T, filt.r
    if params.r != r:
        raise ShapeError(f"filter output has r={r} but Lambda has r={params.r} columns")
    A = params.A

    # r_{t-1} = g_t + L_t' r_t as one backward band solve and
    # N_{t-1} = W_t + L_t' N_t L_t as a forward scan over reversed time;
    # then r_t, N_t for t = 0..T, with r_T = 0 and N_T = 0 appended.
    Lt = np.swapaxes(A @ filt.J, 1, 2)
    R = np.vstack([_bidiagonal_solve(Lt, filt.g.T, "U"), np.zeros((1, r))])
    N = np.concatenate([_symmetrize(_scan(Lt[::-1], filt.W[::-1])[::-1]),
                        np.zeros((1, r, r))])

    # Filtered form, with (F_{0|0}, P_{0|0}) stacked in front of the
    # filtered moments; A P_{t|t} = (P_{t|t} A')' as P_{t|t} is symmetric.
    F = np.vstack([filt.init.F0, filt.F_filt.T])
    P = np.concatenate([filt.init.P0[None], filt.P_filt])
    PA = P @ A.T
    PAN = PA @ N
    F_s = F + (PA @ R[..., None])[..., 0]
    P_s = _symmetrize(P - PAN @ np.swapaxes(PA, 1, 2))
    C = (np.eye(r) - PAN[1:] @ A) @ filt.J @ np.swapaxes(PA[:T], 1, 2)

    return SmootherOutput(F_smooth=F_s[1:].T, P_smooth=P_s[1:], C_lag1=C,
                          F0_smooth=F_s[0], P0_smooth=P_s[0])


@dataclass(frozen=True)
class SteadyStateDiagnostics:
    """Per-t convergence traces of the Riccati recursion.

    tr_pred[t-1] = tr(P_{t|t-1})/q and tr_filt[t-1] = tr(P_{t|t}) n / q for
    t = 1..min(T, 5); t_bar is the first t at which consecutive one-step
    MSE matrices differ by less than 1e-8 in spectral norm (None if never
    reached).
    """

    tr_pred: np.ndarray
    tr_filt: np.ndarray
    t_bar: int | None


def steady_state_diagnostics(filt: FilterOutput, q: int) -> SteadyStateDiagnostics:
    """Per-period trace summaries of the filter MSEs.

    The first observed period plays the role of time zero: it anchors the
    time-zero state the same way an initializer estimated from the sample
    would, and its burn-in MSE is not informative about the steady state.
    The reported entries therefore cover periods t = 1..5 counted from
    there: tr(P_{t|t-1})/q and tr(P_{t|t}) * n/q.

    ``t_bar`` is the first reporting index at which consecutive
    one-step-ahead MSEs agree to 1e-8 (_STEADY_TOL) in spectral norm.
    """
    _check_integer("q", q, 1)
    T = filt.T
    k = min(T - 1, 5)
    tr_pred = np.trace(filt.P_pred[1:k + 1], axis1=1, axis2=2) / q
    tr_filt = np.trace(filt.P_filt[1:k + 1], axis1=1, axis2=2) * filt.n / q
    steps = np.linalg.norm(np.diff(filt.P_pred, axis=0), 2, axis=(1, 2))
    hit = np.flatnonzero(steps < _STEADY_TOL)
    t_bar = int(hit[0]) + 2 if hit.size else None
    return SteadyStateDiagnostics(tr_pred=tr_pred, tr_filt=tr_filt, t_bar=t_bar)
