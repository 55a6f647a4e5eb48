"""Principal-components pre-estimation of the factor model.

Given a demeaned panel, the r leading eigenpairs (M_hat, V_hat) of the
sample covariance give

    Lambda0 = V_hat M_hat^{1/2},      Ftilde_t = M_hat^{-1} Lambda0' x_t,

with each column of V_hat signed so that its first nonzero entry is positive.
The factor VAR matrix is the lag-one OLS estimate on Ftilde, H0 comes from
the top-q eigenpairs of the VAR residual covariance, and the idiosyncratic
variances are the mean squared reconstruction residuals. When n > T the
eigendecomposition runs on the T x T Gram matrix instead (identical
spectrum, better complexity). Only the top r+1 eigenpairs are computed;
the (r+1)-th serves the check that the r-th is separated from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .model import Panel, _check_integer, _sq_residual_sums

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


def _sign_fix_columns(V):
    """Flip column signs so each column's first nonzero entry is positive."""
    first = V[np.argmax(V != 0.0, axis=0), np.arange(V.shape[1])]
    return np.where(first < 0.0, -V, V)


def _shock_loading(Gom, q, shrink=0.0):
    """(H, clamped): H = V max(w - shrink, 0)^{1/2} over the sign-fixed top-q
    eigenpairs (w, V) of Gom; ``clamped`` says if some w - shrink was < 0."""
    w, V = np.linalg.eigh(Gom)
    w, V = w[::-1][:q], V[:, ::-1][:, :q]
    scale = w - shrink
    clamped = bool(np.any(scale < 0.0))
    return _sign_fix_columns(V) * np.sqrt(np.maximum(scale, 0.0)), clamped


def _leading_eigpairs(Xc, r):
    """Top r+1 eigenvalues (descending; w[r] feeds the tie check) and top-r
    eigenvectors of Xc Xc' / T, via the smaller of the two Gram forms."""
    n, T = Xc.shape
    m = min(n, T)
    top = [max(m - r - 1, 0), m - 1]
    if n <= T:
        w, V = eigh(Xc @ Xc.T / T, subset_by_index=top)
        w, V = w[::-1], V[:, ::-1]
    else:
        w, G = eigh(Xc.T @ Xc / T, subset_by_index=top)
        w, G = w[::-1], G[:, ::-1]
        # duality: if (w, g) eigenpair of X'X/T then X g / sqrt(T w) is a
        # unit eigenvector of XX'/T with the same eigenvalue
        pos = np.maximum(w[:r], 0.0)
        V = Xc @ G[:, :r]
        norms = np.sqrt(T * pos)
        norms[norms == 0.0] = 1.0
        V = V / norms
    return w, V[:, :r]


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

    The panel is demeaned per series before the eigendecomposition. The
    squared reconstruction residuals behind GammaE0 are summed block by
    block of rows, in cache, with no n x T array.

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
    Xc = panel.X - panel.X.mean(axis=1, keepdims=True)

    w, V = _leading_eigpairs(Xc, r)
    if r < min(n, T) and abs(w[r - 1] - w[r]) <= _TIE_RTOL * max(abs(w[0]), 1e-300):
        raise IdentificationError(
            f"eigenvalue tie at position r={r}: {w[r-1]!r} vs {w[r]!r}"
        )
    M = np.maximum(w[:r], 0.0)
    if np.any(M <= 0.0):
        raise IdentificationError("fewer than r positive eigenvalues in the sample covariance")

    V = _sign_fix_columns(V)
    Lambda0 = V * np.sqrt(M)
    Ftilde = (Lambda0.T @ Xc) / M[:, None]  # M^{-1} Lambda0' x_t

    A0, H0, _ = var_from_factors(Ftilde, q)
    GammaE0 = _sq_residual_sums(Xc, Lambda0, Ftilde) / T

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
    if np.linalg.matrix_rank(S00, tol=1e-10 * max(np.trace(S00), 1e-300)) < r:
        raise np.linalg.LinAlgError("lagged second-moment matrix is singular")
    A = np.linalg.solve(S00.T, (F1 @ F0.T).T).T
    resid = F1 - A @ F0
    Gom = resid @ resid.T / (T - 1)
    H, _ = _shock_loading(Gom, q)
    return A, H, Gom
