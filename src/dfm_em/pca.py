"""Principal-components pre-estimation of the factor model.

Given the panel centred per series, Xc = X - mu 1', the r leading
eigenpairs (M_hat, V_hat) of the sample covariance Xc Xc' / T give

    Lambda0 = V_hat M_hat^{1/2},      Ftilde_t = M_hat^{-1} Lambda0' xc_t,

with each column of V_hat signed so that its first nonzero entry is positive.
The factor VAR matrix is the lag-one OLS estimate on Ftilde, H0 comes from
the top-q eigenpairs of the VAR residual covariance, and the idiosyncratic
variances are the mean squared reconstruction residuals. When n > T the
eigendecomposition runs on the T x T Gram matrix Xc' Xc instead (identical
spectrum, better complexity). Only the top r+1 eigenpairs are computed;
the (r+1)-th serves the check that the r-th is separated from it.

Xc is never formed. The panel is read in two passes, block by block
(rows when n > T, columns otherwise), each block centred in one reused
buffer that stays in cache. The first accumulates the Gram of the
smaller dimension into its lower triangle by a rank-k update (BLAS syrk)
per block. The second forms each block's factors (n <= T) or loadings
(n > T) and its residual, whose squares give GammaE0. When n > T, with
G_r the top-r Gram eigenvectors and s the sign fix,
V_hat = Xc G_r diag(T M_hat)^{-1/2}, and Ftilde = sqrt(T) diag(s) G_r'
exactly, with no pass over the panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dsyrk

from .model import Panel, _buffered_blocks, _check_integer

__all__ = ["PcEstimate", "IdentificationError", "pc_estimate", "var_from_factors"]

_TIE_RTOL = 1e-12


class IdentificationError(RuntimeError):
    """Leading eigenvalues are not separated enough to identify the factor space."""


@dataclass(frozen=True)
class PcEstimate:
    """Principal-components estimates used to initialize the EM iterations."""

    Lambda0: np.ndarray
    Ftilde: np.ndarray
    A0: np.ndarray
    H0: np.ndarray
    GammaE0: np.ndarray
    eigvals: np.ndarray


def _column_signs(V):
    """+1 or -1 per column of V: the sign of its first nonzero entry (+1
    for a zero column)."""
    first = V[np.argmax(V != 0.0, axis=0), np.arange(V.shape[1])]
    return np.where(first < 0.0, -1.0, 1.0)


def _sign_fix_columns(V):
    """Flip column signs so each column's first nonzero entry is positive."""
    return V * _column_signs(V)


def _shock_loading(Gom, q, shrink=0.0):
    """(H, clamped): H = V max(w - shrink, 0)^{1/2} over the sign-fixed top-q
    eigenpairs (w, V) of Gom; ``clamped`` says if some w - shrink was < 0."""
    w, V = np.linalg.eigh(Gom)
    w, V = w[::-1][:q], V[:, ::-1][:, :q]
    scale = w - shrink
    clamped = bool(np.any(scale < 0.0))
    return _sign_fix_columns(V) * np.sqrt(np.maximum(scale, 0.0)), clamped


def _centred_blocks(X, mu, by_rows):
    """(slice, X_b - mu_b) for each block of rows of X (``by_rows``) or of
    its columns, formed in the buffer of model._buffered_blocks."""
    n, T = X.shape
    if by_rows:
        for b, buf in _buffered_blocks(n, T):
            yield b, np.subtract(X[b], mu[b, None], out=buf)
    else:
        for b, buf in _buffered_blocks(T, n):
            yield b, np.subtract(X[:, b], mu[:, None], out=buf.reshape(n, -1))


def _leading_eigpairs(X, mu, r):
    """Top r+1 eigenvalues of Xc Xc' / T, Xc = X - mu 1' (descending; w[r]
    feeds the tie check), with the matching unit eigenvectors of the
    smaller Gram form: of Xc Xc' when n <= T, of Xc' Xc when n > T."""
    n, T = X.shape
    m = min(n, T)
    G = np.zeros((m, m), order="F")
    for _, B in _centred_blocks(X, mu, n > T):
        # B.T is F-ordered, so syrk reads it in place. Rows: B.T B = B'B,
        # the T x T Gram; columns: (B.T)' B.T = B B', the n x n one.
        dsyrk(1.0 / T, B.T, beta=1.0, c=G, trans=int(n <= T), lower=1, overwrite_c=1)
    w, U = eigh(G, lower=True, overwrite_a=True,
                subset_by_index=[max(m - r - 1, 0), m - 1])
    return w[::-1], U[:, ::-1]


def _check_length(T, r):
    """Raise ValueError if T < r + 2, too short to also fit the factor VAR."""
    if T < r + 2:
        raise ValueError(f"need T >= r + 2, got T={T}, r={r}")


def _check_ranks(r, q, n):
    """Raise ValueError unless r and q are integers with 1 <= q <= r <= n."""
    _check_integer("r", r, 1)
    _check_integer("q", q, 1)
    if not q <= r <= n:
        raise ValueError(f"need q <= r <= n, got q={q}, r={r}, n={n}")


def pc_estimate(panel: Panel, r: int, q: int) -> PcEstimate:
    """Principal-components pre-estimator of (Lambda, F, A, H, Gamma^e).

    The panel is demeaned per series before the eigendecomposition. Both
    passes over it run block by block in cache, with no n x T array; each
    block is centred before its Gram or residual is formed, so a large
    mean costs no digits.

    Raises
    ------
    IdentificationError
        If the r-th and (r+1)-th sample eigenvalues coincide to within
        1e-12 relative to the leading one, so the r-dimensional leading
        eigenspace is not identified.
    ValueError
        Unless r and q are integers with 1 <= q <= r <= n, or if T < r + 2.
    """
    n, T = panel.n, panel.T
    _check_ranks(r, q, n)
    _check_length(T, r)
    X = panel.X
    mu = X.mean(axis=1)

    w, U = _leading_eigpairs(X, mu, r)
    if r < min(n, T) and abs(w[r - 1] - w[r]) <= _TIE_RTOL * abs(w[0]):
        raise IdentificationError(
            f"eigenvalue tie at position r={r}: {w[r-1]!r} vs {w[r]!r}"
        )
    M = np.maximum(w[:r], 0.0)
    if np.any(M <= 0.0):
        raise IdentificationError("fewer than r positive eigenvalues in the sample covariance")

    # Each centred block B gives its residual Xc_b - Lambda0_b Ftilde in the
    # pass that gives its factors (n <= T) or loadings (n > T); when n > T,
    # Lambda0 Ftilde = Xc G_r G_r', so that residual needs no sign fix.
    U = np.ascontiguousarray(U[:, :r])
    sq = np.empty(n) if n > T else np.zeros(n)
    if n <= T:
        Lambda0 = U * (_column_signs(U) * np.sqrt(M))
        Ftilde = np.empty((r, T))
        for b, B in _centred_blocks(X, mu, False):
            F_b = Ftilde[:, b]
            np.divide(Lambda0.T @ B, M[:, None], out=F_b)  # M^{-1} Lambda0' xc_t
            B -= Lambda0 @ F_b
            sq += np.einsum("ij,ij->i", B, B)
    else:
        # duality: if (w, g) is an eigenpair of Xc'Xc/T, Xc g / sqrt(T w)
        # is a unit eigenvector of Xc Xc'/T with the same eigenvalue; so
        # Lambda0 = Xc G_r diag(s) / sqrt(T), and Xc'Xc G_r = T G_r diag(M)
        # makes M^{-1} Lambda0' Xc exactly sqrt(T) diag(s) G_r'
        V = np.empty((n, r))
        for b, B in _centred_blocks(X, mu, True):
            Vb = np.matmul(B, U, out=V[b])
            B -= Vb @ U.T
            np.einsum("ij,ij->i", B, B, out=sq[b])
        s = _column_signs(V)
        Lambda0 = V * (s / np.sqrt(T))
        Ftilde = np.ascontiguousarray(U.T) * (s * np.sqrt(T))[:, None]

    A0, H0, _ = var_from_factors(Ftilde, q)
    GammaE0 = sq / T

    return PcEstimate(Lambda0=Lambda0, Ftilde=Ftilde, A0=A0, H0=H0,
                      GammaE0=GammaE0, eigvals=w[:r])


def var_from_factors(F: np.ndarray, q: int):
    """Lag-one OLS VAR fit with a low-rank shock decomposition.

    Returns (A, H, Gom) where A is the OLS coefficient of F_t on F_{t-1},
    Gom the VAR residual covariance, and H its sign-fixed top-q eigenvectors
    times root-eigenvalues: ``_shock_loading`` without the M-step's shrink.
    Unless q is an integer with 1 <= q <= r, raises ValueError.
    """
    F = np.asarray(F, dtype=float)
    r, T = F.shape
    _check_ranks(r, q, r)
    if T < 2:
        raise ValueError("need at least two time points for the lag-one fit")
    F0, F1 = F[:, :-1], F[:, 1:]
    S00 = F0 @ F0.T
    if np.linalg.matrix_rank(S00, tol=1e-10 * np.trace(S00)) < r:
        raise np.linalg.LinAlgError("lagged second-moment matrix is singular")
    A = np.linalg.solve(S00.T, (F1 @ F0.T).T).T
    resid = F1 - A @ F0
    Gom = resid @ resid.T / (T - 1)
    H, _ = _shock_loading(Gom, q)
    return A, H, Gom
