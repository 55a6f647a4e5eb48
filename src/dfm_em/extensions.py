"""Extensions of the EM loop for mis-specified idiosyncratic structure.

Two variants are provided:

* ``ridge_fit`` — a full (non-diagonal) idiosyncratic covariance estimated
  with a ridge penalty mu > 0. The penalized M-step has the closed form
  "keep the eigenvectors, map each eigenvalue nu to (nu + sqrt(nu^2 +
  4 mu)) / 2", which guarantees a minimum eigenvalue of sqrt(mu) and
  satisfies the stationarity condition Gamma - S - mu Gamma^{-1} = 0.
  The expected residual covariance is S = Z Z' with the n x (T + r)
  factor Z = [X - Lambda F_{.|T}, Lambda S_P^{1/2}] / sqrt(T). When
  T + r < n the M-step eigendecomposes the (T + r) x (T + r) Gram Z'Z
  = W nu W' instead of S, and returns Gamma = c I + B B' as its factors
  c = sqrt(mu) and B = Z W diag(f)^{1/2}, with
  f = (1 + nu / (sqrt(nu^2 + 4 mu) + 2 sqrt(mu))) / 2: the map on the
  range of Z, sqrt(mu) on its null space, and B'B = diag(f nu). That
  costs O(n (T + r)^2) per M-step and forms no n x n array, instead of
  the O(n^3) of an n x n eigendecomposition, which remains for
  n <= T + r, where :func:`ridge_covariance` returns the same form from
  its own eigenbasis; the filter inverts Gamma through the factors. The
  Gram branch never forms Z: it builds Z by row blocks in two passes, the
  first adding each block into the Gram and the second turning it into
  its rows of B, so besides the panel it holds B, the Gram, its
  eigenvectors and one block of Z, and no other n-row array. The start
  value is the map applied elementwise to the principal-components
  variances, so the first E-step runs the diagonal filter.

* ``ecm_fit`` — AR(1) idiosyncratic components handled by conditional
  maximization: each M-step runs ordinary loadings, then updates the AR
  coefficients and innovation variances from expected residual moments,
  then re-estimates the loadings by GLS weighted with the AR(1)-implied
  tridiagonal inverse covariance. Because that inverse is tridiagonal,
  only lag-0 and lag-1 expected factor cross-moments enter the weighted
  normal equations, and both are exactly available from the smoother.
  The E-step filter is run with the AR(1) *innovation* variances as the
  idiosyncratic variances and ignores rho, so the logged filter
  likelihood is not the objective ECM ascends and can fall.

Each runs the EM loop of :mod:`dfm_em.em` with its own unguarded
estimator record: its initial idiosyncratic covariance and its map from
the diagonal M-step to its parameters. Their estimates are the result's
``DfmParams``: ridge's covariance is its ``gamma_factors`` (c, B), on
either branch; ECM's AR(1) laws are ``rho`` and a 1-D ``gamma_e`` of
innovation variances.
"""

from __future__ import annotations

import numbers
import warnings
from functools import partial

import numpy as np
from scipy.linalg.blas import dsyrk

from .em import EmConfig, EmResult, _Estimator, _fit, _floor_gamma, _symmetric_sqrt
# Not called here: bench/tracing.py wraps these by their extensions.* names.
from .em import e_step, m_step  # noqa: F401
from .kalman import stationary_init  # noqa: F401
from .model import DfmParams, ModelDims, Panel, _ar1_weighted, \
    _buffered_blocks, _residual_blocks
from .pca import PcEstimate, pc_estimate  # noqa: F401

__all__ = [
    "ridge_covariance",
    "ridge_fit",
    "gls_loadings",
    "ecm_fit",
]


def ridge_covariance(S: np.ndarray, mu: float) -> tuple:
    """Closed-form ridge-penalized covariance, as its factors (c, B).

    With S = V diag(nu) V', Gamma keeps the eigenvectors of S and maps
    each eigenvalue nu to g = (nu + sqrt(nu^2 + 4 mu)) / 2, so it solves
    the stationarity equation Gamma - S - mu Gamma^{-1} = 0 and its
    minimum eigenvalue is at least sqrt(mu). It is returned as
    Gamma = c I + B B' with c the smallest g and B = V diag(g - c)^{1/2},
    so B'B is diagonal: the ``gamma_factors`` of :class:`DfmParams`.
    ``mu`` must be finite and positive.
    """
    S = np.asarray(S, dtype=float)
    _check_mu(mu)
    scale = max(np.max(np.abs(S)), 1.0)
    if np.max(np.abs(S - S.T)) > 1e-10 * scale:
        raise ValueError("S must be symmetric")
    nu, V = np.linalg.eigh(0.5 * (S + S.T))
    g = _ridge_map(nu, mu)
    c = np.min(g)
    return c, V * np.sqrt(g - c)


def _check_mu(mu):
    """Refuse a ridge penalty that is not a real number (a bool is not
    one), or is not finite and positive: the penalty is Gamma's only floor."""
    if isinstance(mu, bool) or not isinstance(mu, numbers.Real):
        raise ValueError(f"ridge mu must be a real number, got {mu!r}")
    if not 0.0 < mu < np.inf:
        raise ValueError(f"ridge mu must be finite and positive, got {mu!r}")


def _ridge_map(nu, mu):
    """The ridge eigenvalue map nu -> (nu + sqrt(nu^2 + 4 mu)) / 2."""
    return 0.5 * (nu + np.sqrt(nu**2 + 4.0 * mu))


def _ridge_gamma(X, Lam, stats, mu):
    """Ridge M-step ``ridge_covariance(Z Z', mu)`` from the expected
    residual factor Z of the module docstring, as the factors (c, B) of
    Gamma = c I + B B'.

    For n <= T + r it stacks Z's row blocks and eigendecomposes Z Z'. Otherwise
    Z is never formed: two passes over its row blocks Z_b (_z_blocks)
    first add each Z_b' Z_b into the lower triangle of the
    (T + r) x (T + r) Gram Z'Z = W nu W' by a rank-k update (BLAS syrk),
    then write each B_b = Z_b W diag(f)^{1/2} into its rows of B, so the
    branch holds B, the Gram, its eigenvectors and one block of Z. Each
    column of Z W / sqrt(nu) is a unit eigenvector of Z Z' with
    eigenvalue nu, so f = (ridge(nu) - sqrt(mu)) / nu, here written
    without cancellation and without dividing by nu; c = sqrt(mu), and
    B'B = diag(f nu) since W diagonalises Z'Z.
    """
    n, T = X.shape
    F, R = stats.F_smooth, _symmetric_sqrt(stats.S_P)
    m = T + Lam.shape[1]
    if n <= m:
        Z = np.vstack([Zb.copy() for _, Zb in _z_blocks(X, Lam, F, R)])
        return ridge_covariance(Z @ Z.T, mu)
    G = np.zeros((m, m), order="F")
    for b, Zb in _z_blocks(X, Lam, F, R):
        # Zb.T is F-ordered, so syrk reads it in place.
        dsyrk(1.0, Zb.T, beta=1.0, c=G, lower=1, overwrite_c=1)
    del Zb  # frees the first pass's block buffer before the second draws one
    nu, W = np.linalg.eigh(G, UPLO="L")
    f = 0.5 * (1.0 + nu / (np.sqrt(nu**2 + 4.0 * mu) + 2.0 * np.sqrt(mu)))
    W *= np.sqrt(f)
    B = np.empty((n, m))
    for b, Zb in _z_blocks(X, Lam, F, R):
        np.matmul(Zb, W, out=B[b])
    return np.sqrt(mu), B


def _z_blocks(X, Lam, F, R):
    """(slice, Z_b) for each block of rows of Z = [X - Lam F, Lam R] /
    sqrt(T), formed in the buffer of model._buffered_blocks; its residual
    columns are written here, not by model._residual_blocks. Each Z_b has
    the bits of the same rows of the whole Z."""
    n, T = X.shape
    for b, Zb in _buffered_blocks(n, T + R.shape[1]):
        E = np.matmul(Lam[b], F, out=Zb[:, :T])
        np.subtract(X[b], E, out=E)
        np.matmul(Lam[b], R, out=Zb[:, T:])
        Zb /= np.sqrt(T)
        yield b, Zb


def ridge_fit(panel: Panel, dims: ModelDims, config: EmConfig = EmConfig(),
              mu: float = None, init: PcEstimate = None) -> EmResult:
    """EM with a ridge-penalized full idiosyncratic covariance.

    Identical to the diagonal EM loop except that the idiosyncratic update
    keeps the full expected residual covariance and passes it through the
    ridge map of :func:`ridge_covariance`, factored as the module docstring
    describes; the initial covariance is the same map applied elementwise
    to the diagonal principal-components variances. The stopping rule still
    tracks the exact filter log-likelihood, but monotonicity is not
    enforced: the penalized objective, not the likelihood itself, is what
    this loop ascends.

    ``mu=None`` selects the n^2/T rule. A given ``mu`` must be finite and
    positive, since it is Gamma's only floor (every eigenvalue at least
    sqrt(mu)); any other raises ValueError before any work.
    """
    if mu is None:
        mu = dims.n * dims.n / dims.T
    _check_mu(mu)
    return _fit(panel, dims, config, init,
                _Estimator(guarded=False, gamma0=partial(_ridge_map, mu=mu),
                           update=partial(_ridge_update, panel.X, mu)))


def _ridge_update(X, mu, stats, smooth, base):
    """The diagonal M-step ``base`` with Gamma from :func:`_ridge_gamma`."""
    return DfmParams(Lambda=base.Lambda, A=base.A, H=base.H,
                     gamma_factors=_ridge_gamma(X, base.Lambda, stats, mu))


def gls_loadings(stats, smooth, panel: Panel, rho: np.ndarray) -> np.ndarray:
    """Loadings from the AR(1)-weighted normal equations.

    For each series the weighting matrix is the tridiagonal AR(1) inverse
    covariance, so only lag-0 and lag-1 expected factor moments enter:

        [(1+rho^2) S_FF - rho^2 (E_1 + E_T) - rho (S_lag + S_lag')] lambda
            = (1+rho^2) b0 - rho^2 b_ends - rho b1,

    where E_1/E_T are the endpoint expected moments (endpoint weights are
    1 rather than 1+rho^2) and b0/b1 the matching data cross-products.
    Both sides come from :func:`_ar1_weighted` and go to one batched solve.
    The innovation-variance scale cancels out of the equations. With
    rho = 0 this reduces exactly to the ordinary loadings update.
    """
    X = panel.X
    Fs = smooth.F_smooth
    Ps = smooth.P_smooth
    E1 = np.outer(Fs[:, 0], Fs[:, 0]) + Ps[0]
    ET = np.outer(Fs[:, -1], Fs[:, -1]) + Ps[-1]
    cross = Fs[:, 1:] @ X[:, :-1].T + Fs[:, :-1] @ X[:, 1:].T  # r x n
    b_ends = np.outer(Fs[:, 0], X[:, 0]) + np.outer(Fs[:, -1], X[:, -1])  # r x n
    M = _ar1_weighted(rho, stats.S_FF, E1 + ET, stats.S_FF_lag + stats.S_FF_lag.T)
    b = _ar1_weighted(rho, stats.S_xF[:, :, None], b_ends.T[:, :, None],
                      cross.T[:, :, None])
    return np.linalg.solve(M, b)[:, :, 0]


def _ar_updates(X, Lam, smooth):
    """Expected-moment AR(1) updates for each idiosyncratic series.

    Expected squared and lagged-product residual moments include the
    smoothed factor MSE / cross-covariance corrections, i.e.
    E[xi_t^2 | X] = resid_t^2 + lambda' P_{t|T} lambda and
    E[xi_t xi_{t-1} | X] = resid_t resid_{t-1} + lambda' C_{t,t-1|T} lambda.
    The corrections are summed over time first, so each series costs one
    r x r quadratic form per sum; the two lag-0 residual sums are the full
    row sum less the last or the first squared residual, each reduced by
    row blocks (model._residual_blocks). A series with no residual
    variation (a lag-0 denominator that is not positive) gets rho_i = 0,
    so its innovation variance takes the floor.
    """
    Ps, Cs = smooth.P_smooth, smooth.C_lag1
    n, T = X.shape
    ss, lag, first, last = np.empty((4, n))
    for b, E in _residual_blocks(X, Lam, smooth.F_smooth):
        np.einsum("it,it->i", E, E, out=ss[b])
        np.einsum("it,it->i", E[:, 1:], E[:, :-1], out=lag[b])
        first[b], last[b] = E[:, 0] ** 2, E[:, -1] ** 2

    def quad(S):
        return np.sum((Lam @ S) * Lam, axis=1)

    num = lag + quad(Cs[1:].sum(axis=0))
    den = ss - last + quad(Ps[:-1].sum(axis=0))
    rho = np.divide(num, den, out=np.zeros(n), where=den > 0.0)
    bad = np.abs(rho) >= 1.0
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} idiosyncratic AR estimates outside (-1, 1); "
            "clamped to +/-0.99",
            RuntimeWarning,
        )
        rho[bad] = np.sign(rho[bad]) * 0.99

    head = ss - first + quad(Ps[1:].sum(axis=0))
    return rho, (head - 2.0 * rho * num + rho**2 * den) / (T - 1)


def ecm_fit(panel: Panel, dims: ModelDims, config: EmConfig = EmConfig(),
            init: PcEstimate = None) -> EmResult:
    """Expectation conditional maximization with AR(1) idiosyncratic components.

    Each M-step runs the conditional sequence: ordinary loadings update,
    AR coefficient / innovation-variance update from expected residual
    moments, then GLS loadings re-weighted by the implied tridiagonal
    inverse covariance. The VAR and shock-loading updates are unchanged.
    The filter is given the AR *innovation* variances as idiosyncratic
    variances and ignores rho, so the logged log-likelihood is not the
    objective this loop ascends; it is not guaranteed monotone and ascent
    is not enforced.

    The fitted AR(1) laws are ``params.rho`` (the coefficients) and
    ``params.gamma_e`` (the innovation variances, under em's floor of a
    fixed fraction of each series' sample variance) of the result; a
    series with no residual variation gets rho_i = 0 and the floor.
    """
    return _fit(panel, dims, config, init,
                _Estimator(guarded=False, update=partial(_ecm_update, panel)))


def _ecm_update(panel, stats, smooth, base):
    """The AR(1) laws from ``base``'s loadings, then GLS loadings."""
    rho, gamma = _ar_updates(panel.X, base.Lambda, smooth)
    Lam = gls_loadings(stats, smooth, panel, rho)
    return DfmParams(Lambda=Lam, A=base.A, H=base.H,
                     gamma_e=_floor_gamma(gamma, panel), rho=rho)
