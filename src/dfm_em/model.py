"""Core data types for panels and dynamic factor model parameters.

The model is

    x_it = lambda_i' F_t + xi_it
    F_t  = A F_{t-1} + H u_t
    xi_it = rho_i xi_{it-1} + e_it

with n observed series, r static factors and q <= r common shocks.
All containers are immutable value objects; the functions here are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ModelDims",
    "Panel",
    "DfmParams",
    "ShapeError",
    "validate",
]

STABILITY_TOL = 1e-10


class ShapeError(ValueError):
    """Structural shape mismatch, as opposed to a model-assumption violation."""


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array, got ndim={a.ndim}")
    return a


def _check_integer(name, v, low):
    """Refuse a v that is not an integer (a bool is not one) or is below low."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < low:
        raise ValueError(f"{name} must be >= {low}, got {v!r}")


def _check_real(name, v):
    """v as a float; refuse a v that is not a finite real (a bool is not one)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{name} must be a finite real number, got {v!r}")
    return float(v)


@dataclass(frozen=True)
class ModelDims:
    """Problem dimensions: n series, T periods, r factors, q common shocks."""

    n: int
    T: int
    r: int
    q: int

    def __post_init__(self):
        for name, low in (("n", 2), ("T", 2), ("r", 1), ("q", 1)):
            _check_integer(name, getattr(self, name), low)
        if not self.q <= self.r < self.n:
            raise ValueError(f"need 1 <= q <= r < n, got q={self.q}, r={self.r}, n={self.n}")


@dataclass(frozen=True)
class Panel:
    """An n x T observation matrix, rows are series and columns time points.

    Parameters
    ----------
    X : ndarray, shape (n, T)
        Observed data.
    names : tuple of str, optional
        Series identifiers; defaults to x1..xn.
    """

    X: np.ndarray
    names: tuple = None

    def __post_init__(self):
        X = _as_matrix(self.X, "X")
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        if not np.all(np.isfinite(X)):
            raise ValueError("panel contains non-finite entries")
        if self.names is None:
            object.__setattr__(self, "names", tuple(f"x{i+1}" for i in range(X.shape[0])))
        elif len(self.names) != X.shape[0]:
            raise ShapeError("names length does not match number of series")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def T(self):
        return self.X.shape[1]

    @cached_property
    def var(self):
        """Per-series sample variance of X, computed once (X is read-only,
        and so is the result). It is reduced block by block of rows, so no
        n x T temporary is formed; each row is reduced whole, exactly as
        ``X.var(axis=1)`` reduces it, so the bits are the same."""
        X = self.X
        v = np.empty(X.shape[0])
        for b in _row_blocks(*X.shape):
            v[b] = X[b].var(axis=1)
        v.flags.writeable = False
        return v


@dataclass(frozen=True)
class DfmParams:
    """Model parameters.

    Parameters
    ----------
    Lambda : ndarray, shape (n, r)
        Factor loadings.
    A : ndarray, shape (r, r)
        VAR(1) coefficient matrix of the factors.
    H : ndarray, shape (r, q)
        Loading of the q common shocks onto the r factor innovations.
    gamma_e : ndarray, shape (n,)
        Diagonal of the idiosyncratic innovation covariance, which is
        diagonal unless ``gamma_factors`` is given. With ``gamma_factors``
        it may be omitted: it is then their diagonal, and a given one must
        equal it (ValueError otherwise). A 2-D array raises ShapeError: a
        full covariance is given by its factors.
    rho : ndarray, shape (n,)
        AR(1) coefficients of the idiosyncratic components (all zero for
        serially uncorrelated idiosyncratics).
    gamma_factors : tuple (c, B), optional
        A full idiosyncratic covariance, the only form one takes: Gamma^e =
        c I + B B' with a 0-d c > 0 (else ShapeError), B of shape (n, m)
        with m >= 1 (else ShapeError: c I alone is a diagonal ``gamma_e``) and
        B'B diagonal, as the ridge M-step and ``ridge_covariance`` give it;
        ``gamma_e`` is then the diagonal c + sum_j B_ij^2, and no n x n array
        is formed. Without it, Gamma^e is diagonal.
    """

    Lambda: np.ndarray
    A: np.ndarray
    H: np.ndarray
    gamma_e: np.ndarray = None
    rho: np.ndarray = None
    gamma_factors: tuple = None

    def __post_init__(self):
        Lam = _as_matrix(self.Lambda, "Lambda")
        A = _as_matrix(self.A, "A")
        H = _as_matrix(self.H, "H")
        factors = self.gamma_factors
        if factors is not None:
            if np.ndim(factors[0]) != 0:
                raise ShapeError(f"gamma_factors c must be 0-d, got ndim={np.ndim(factors[0])}")
            c, B = float(factors[0]), _as_matrix(factors[1], "gamma_factors B")
            if B.shape[1] == 0:
                raise ShapeError("gamma_factors B must have at least one column")
            B.flags.writeable = False
            factors, g = (c, B), _factored_diagonal(c, B)
            given = self.gamma_e
            if given is not None and not np.array_equal(given, g, equal_nan=True):
                raise ValueError("gamma_e is not the diagonal of gamma_factors")
        else:
            g = np.asarray(self.gamma_e, dtype=float)
            if g.ndim != 1:
                raise ShapeError("gamma_e must be 1-D (the diagonal); give a "
                                 "full covariance as gamma_factors (c, B)")
        rho = self.rho
        rho = np.zeros(Lam.shape[0]) if rho is None else np.asarray(rho, dtype=float)
        for a in (Lam, A, H, g, rho):
            a.flags.writeable = False
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "gamma_e", g)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "gamma_factors", factors)

    @property
    def n(self):
        return self.Lambda.shape[0]

    @property
    def r(self):
        return self.Lambda.shape[1]

    @property
    def q(self):
        return self.H.shape[1]


def _factored_diagonal(c, B):
    """The diagonal c + sum_j B_ij^2 of c I + B B', squared block by block
    of rows in one reused buffer, so no n x m B o B is formed; each row is
    summed whole, so the bits are those of ``np.sum(B * B, axis=1) + c``."""
    g = np.empty(B.shape[0])
    for b, buf in _buffered_blocks(*B.shape):
        np.sum(np.multiply(B[b], B[b], out=buf), axis=1, out=g[b])
    g += c
    return g


def _ar1_weighted(rho, lag0, ends, lag1):
    """(1 + rho_i^2) lag0 - rho_i^2 ends - rho_i lag1 for each series i: a sum
    weighted by gamma_i times its AR(1) inverse covariance, stacked on axis 0."""
    p = np.asarray(rho)[:, None, None]
    return (1.0 + p**2) * lag0 - p**2 * ends - p * lag1


def _factor_violations(c, B) -> list:
    """The constraints that the Woodbury whitener of Gamma^e = c I + B B'
    relies on, c > 0 and B'B diagonal, as violation descriptors (empty
    when both hold)."""
    violations = []
    if not c > 0.0:
        violations.append("gamma_factors c not positive")
    # The ridge M-step's B'B is diagonal up to about 1e-15 of its largest
    # entry, which lies on the diagonal; 1e-10 of it flags only a B whose
    # columns are not orthogonal.
    BtB = B.T @ B
    off = BtB - np.diag(np.diag(BtB))
    if np.max(np.abs(off), initial=0.0) > 1e-10 * np.max(BtB, initial=0.0):
        violations.append("gamma_factors B'B not diagonal")
    return violations


def validate(params: DfmParams, dims: ModelDims) -> list:
    """Check the model parameters against the stationarity, rank and
    positivity constraints of the model.

    Returns an empty list when all constraints hold; otherwise a list of
    human-readable violation descriptors, each naming the constraint
    breached. A field with a NaN or infinite entry is reported as not
    finite, and then no other constraint is checked. Shape mismatches
    raise :class:`ShapeError` instead.
    """
    n, r, q = dims.n, dims.r, dims.q
    if params.Lambda.shape != (n, r):
        raise ShapeError(f"Lambda shape {params.Lambda.shape} != ({n}, {r})")
    if params.A.shape != (r, r):
        raise ShapeError(f"A shape {params.A.shape} != ({r}, {r})")
    if params.H.shape != (r, q):
        raise ShapeError(f"H shape {params.H.shape} != ({r}, {q})")
    factors = params.gamma_factors
    if factors is not None and factors[1].shape[0] != n:
        raise ShapeError(f"gamma_factors B shape {factors[1].shape} needs n={n} rows")
    g = params.gamma_e
    if g.shape != (n,):
        raise ShapeError(f"gamma_e shape {g.shape} incompatible with n={n}")
    if params.rho.shape != (n,):
        raise ShapeError(f"rho shape {params.rho.shape} != ({n},)")

    # The eigen and rank checks below are undefined on NaN or inf entries.
    fields = {"Lambda": params.Lambda, "A": params.A, "H": params.H,
              "gamma_e": g, "rho": params.rho}
    nonfinite = [f"{name} not finite" for name, a in fields.items()
                 if not np.all(np.isfinite(a))]
    if nonfinite:
        return nonfinite

    violations = []
    spectral_radius = np.max(np.abs(np.linalg.eigvals(params.A)))
    if spectral_radius >= 1.0 - STABILITY_TOL:
        violations.append(f"A not stable: spectral radius {spectral_radius:.6g} >= 1")
    if np.any(np.abs(params.rho) >= 1.0):
        violations.append("idiosyncratic AR coefficient |rho_i| >= 1")
    if factors is not None:
        violations += _factor_violations(*factors)
    if np.any(g <= 0.0):
        violations.append("gamma_e has a non-positive diagonal entry")
    if np.linalg.matrix_rank(params.H) < q:
        violations.append(f"H rank-deficient: rank < q={q}")
    return violations


# Doubles in one row block of a pass over an n x T array: Panel.var, the
# AR(1) V's solves (metrics.asvar_matrices) and, in _buffered_blocks, the
# residual blocks (M-step, filter norms, ECM moments), a factored gamma_e,
# the PC start's centred blocks and the ridge M-step's blocks of Z.
# 2^15 doubles (256 KB) stay in a core's L2 cache while a block is used.
_BLOCK_ELEMS = 1 << 15


def _row_blocks(n, m, elems=_BLOCK_ELEMS):
    """Slices that cut n rows of length m into consecutive blocks of about
    ``elems`` doubles, at least one row each; the first block is the
    largest, so a buffer of its size holds any of them."""
    rows = max(1, elems // max(m, 1))
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _buffered_blocks(n, m):
    """(slice, view) for each block of ``_row_blocks(n, m)``: the view is the
    block's k x m rows of one reused C-ordered buffer, sized by the first
    (largest) block, so a view is valid only until the next one is drawn."""
    blocks = _row_blocks(n, m)
    buf = np.empty((blocks[0].stop, m))
    for b in blocks:
        yield b, buf[:b.stop - b.start]


def _residual_blocks(X, L, F):
    """(slice, X_b - L_b F) for each block of rows of X, formed in the
    buffer of :func:`_buffered_blocks`, so no n x T array is formed."""
    for b, E in _buffered_blocks(*X.shape):
        np.matmul(L[b], F, out=E)
        yield b, np.subtract(X[b], E, out=E)

