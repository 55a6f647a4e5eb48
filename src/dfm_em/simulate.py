"""Synthetic data generation for the Monte Carlo design.

A draw proceeds as:

* loadings iid N(0, 1);
* factor VAR matrix A = mu * Atilde / nu1(Atilde), with Atilde diagonal
  uniform on [0.5, 0.8] and off-diagonal uniform on [0, 0.3];
* H = I_r when q = r, otherwise the first q columns of Hcheck Htilde^{1/2}
  with Hcheck orthogonal and Htilde diagonal of rank q with nonzero
  entries uniform on [0.8, 1.2];
* rho_i uniform on [delta, 1 - 2 delta] (zero when delta = 0);
* Gamma^e Toeplitz with entry tau^{|i-j|} when tau > 0, otherwise diagonal
  with entries uniform on [0.5, 1.5];
* loadings rescaled per series so the population common-variance share is
  theta / (1 + theta).

A Toeplitz Gamma^e is never formed. The draw carries its law, tau, in
``DgpDraw.tau`` and its diagonal, a vector of ones, in ``params.gamma_e``.
The shocks are scaled by the square root of ``params.gamma_e`` (exactly,
by ones, at tau > 0) and at tau > 0 taken through the Cholesky factor L
of toeplitz(tau^{|i-j|}), known in closed form: e = L z is the AR(1)
recursion across series e_0 = z_0, e_i = tau e_{i-1} + sqrt(1 - tau^2) z_i.
That is O(nT) work with no n x n array, where a dense L costs an O(n^3)
factorisation and an O(n^2 T) product. At n = 2000 with
T + burn-in = 400 periods it takes about 13 ms against 0.82 s on one
core. The draws agree with the dense product to round-off.
The panel is formed in the buffer of Lambda F. The shocks are drawn,
transformed and run through their AR(1) in time one block of rows at a
time, in two reused buffers of about _DRAW_BLOCK_ELEMS doubles, and each
block's kept periods are added into the panel; so a draw holds the panel
and those two buffers, and :func:`draw_dgp` then chi. Block by block the
normals leave the stream in the order of one n x (T + BURN_IN) draw, and
each entry takes the same products and sums, so the bits are those of
the whole-panel draw. BURN_IN pre-sample periods are discarded, and the
r x T factor path is a read-only array.

Randomness is counter-based (Philox). ``stream(seed, b)`` gives the
independent substream for replication b, so replications can run in any
order or in parallel and stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kalman import _lyapunov
from .model import (STABILITY_TOL, DfmParams, ModelDims, Panel, _check_integer,
                    _check_real, _row_blocks, validate)

__all__ = ["Innovation", "DgpConfig", "DgpDraw", "stream", "draw_dgp"]

BURN_IN = 100

# Doubles in one row block of a draw's shocks. The AR(1) in time takes
# one Python step per period and block, so a draw's blocks are larger than
# model._BLOCK_ELEMS. At 2^18 (2 MB) an n = 2000, T = 300 draw has four
# blocks and its shocks take as long as one whole-panel pass (_simulate
# 19.7-20.0 against 19.8-20.2 ms, minima of 30 draws, one BLAS thread);
# 2^16 cost about 5 ms a draw more, and at 2^20, a single block there,
# a draw holds as much as the whole-panel normals did.
_DRAW_BLOCK_ELEMS = 1 << 18


class Innovation(str, Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T4 = "student_t4"


def stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the substream (seed, key).

    ``stream(seed)`` is the root stream; ``stream(seed, b)`` is the
    statistically independent stream used by replication b. The seed and
    every key must be integers >= 0 (ValueError otherwise), so that no two
    arguments silently share a stream.
    """
    _check_integer("seed", seed, 0)
    for k in key:
        _check_integer("stream key", k, 0)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of one Monte Carlo cell's data generating process."""

    dims: ModelDims
    tau: float = 0.0
    delta: float = 0.0
    theta: float = 0.5
    mu: float = 0.5
    innovation: Innovation = Innovation.GAUSSIAN
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "innovation", Innovation(self.innovation))
        _check_integer("seed", self.seed, 0)
        for name in ("tau", "delta", "theta", "mu"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if not (0.0 <= self.tau < 1.0):
            raise ValueError("tau must lie in [0, 1)")
        if not (0.0 < self.mu < 1.0 - STABILITY_TOL):
            raise ValueError(f"mu must lie in (0, 1 - STABILITY_TOL), got {self.mu!r}")
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        # rho_i is uniform on [delta, 1 - 2 delta]; the support is empty
        # unless delta < 1/3.
        if not 1.0 - 2.0 * self.delta > self.delta:
            raise ValueError("delta must satisfy delta < 1/3 so [delta, 1-2*delta] is nonempty")


@dataclass(frozen=True)
class DgpDraw:
    """A draw: parameters, the r x T factor path, panel and chi = Lambda F
    (both arrays read-only). At tau > 0 the shocks' Gamma^e is
    toeplitz(tau^|i-j|), and ``params.gamma_e`` holds only its diagonal
    (ones)."""

    params: DfmParams
    factors: np.ndarray
    panel: Panel
    chi: np.ndarray
    tau: float


def _draw_var_matrix(rng, r, mu):
    At = rng.uniform(0.0, 0.3, size=(r, r))
    At[np.diag_indices(r)] = rng.uniform(0.5, 0.8, size=r)
    nu1 = np.max(np.abs(np.linalg.eigvals(At)))
    return mu * At / nu1


def _draw_shock_loader(rng, r, q):
    if q == r:
        return np.eye(r)
    h = rng.uniform(0.8, 1.2, size=q)
    Ht_sqrt = np.zeros(r)
    Ht_sqrt[:q] = np.sqrt(h)
    Z = rng.standard_normal((r, r))
    Q, R = np.linalg.qr(Z)
    Q = Q * np.sign(np.diag(R))  # fix the QR sign ambiguity
    return (Q * Ht_sqrt)[:, :q]


def draw_dgp(config: DgpConfig) -> DgpDraw:
    """Draw one replication's parameters and panel; ValueError for a theta
    whose loadings scale overflows or parameters ``model.validate`` rejects."""
    dims = config.dims
    n, T, r, q = dims.n, dims.T, dims.r, dims.q
    rng = stream(config.seed)

    Lam = rng.standard_normal((n, r))
    A = _draw_var_matrix(rng, r, config.mu)
    H = _draw_shock_loader(rng, r, q)
    if config.delta > 0.0:
        rho = rng.uniform(config.delta, 1.0 - 2.0 * config.delta, size=n)
    else:
        rho = np.zeros(n)
    # toeplitz(tau^|i-j|) has a unit diagonal and takes nothing from the stream.
    gamma_e = np.ones(n) if config.tau > 0.0 else rng.uniform(0.5, 1.5, size=n)

    # Rescale the loadings so that, in population, the common component
    # explains a share theta/(1+theta) of each series' variance. The
    # idiosyncratic side is left untouched, which keeps Gamma^e exactly
    # Toeplitz when tau > 0.
    gamma_f = _lyapunov(A, H @ H.T)
    var_chi = np.einsum("ij,jk,ik->i", Lam, gamma_f, Lam)
    var_xi = gamma_e / (1.0 - rho**2)
    with np.errstate(over="ignore"):
        scale = np.sqrt(config.theta * var_xi / var_chi)
    if not np.all(np.isfinite(scale)):
        raise ValueError(f"theta={config.theta!r} overflows the loadings scale")
    Lam = Lam * scale[:, None]

    params = DfmParams(Lambda=Lam, A=A, H=H, gamma_e=gamma_e, rho=rho)
    bad = validate(params, dims)
    if bad:
        raise ValueError(f"drawn parameters violate model assumptions: {bad}")

    factors, panel = _simulate(params, T, config.innovation,
                               stream(config.seed, 0), config.tau)
    chi = params.Lambda @ factors
    chi.flags.writeable = False
    return DgpDraw(params=params, factors=factors, panel=panel, chi=chi,
                   tau=config.tau)


def _standardized_t4(rng, size):
    # t_4 has variance 2; divide by sqrt(2) so the scale matrix keeps its
    # covariance interpretation.
    x = rng.standard_t(4, size=size)
    x /= np.sqrt(2.0)
    return x


def _toeplitz_root(tau, z, prev=None):
    """L z for L the Cholesky factor of toeplitz(tau^|i-j|), in O(nT),
    formed in the buffer of z: z is overwritten and returned. With
    ``prev``, z holds the rows that follow a block whose last row of L z
    was ``prev``.

    L has L[i, 0] = tau^i and L[i, j] = sqrt(1 - tau^2) tau^(i-j) for
    1 <= j <= i, so e = L z is the AR(1) recursion across series
    e_0 = z_0, e_i = tau e_{i-1} + sqrt(1 - tau^2) z_i. Every entry takes
    the same products and sums as an out-of-place e, so the bits match.
    """
    if prev is None:
        z[1:] *= np.sqrt(1.0 - tau * tau)
    else:
        z *= np.sqrt(1.0 - tau * tau)
        z[0] += tau * prev
    for i in range(1, z.shape[0]):
        z[i] += tau * z[i - 1]
    return z


def _simulate(params, T, innovation, rng, tau):
    """(factors, panel) of length T from ``params``, drawing from ``rng``,
    with tau as the module docstring describes; the processes start at
    zero and BURN_IN pre-sample periods are discarded."""
    innovation = Innovation(innovation)
    n, r, q = params.n, params.r, params.q
    total = T + BURN_IN

    def draw(out):
        """Fill ``out`` with the next standardized shocks of the stream."""
        if innovation is Innovation.GAUSSIAN:
            return rng.standard_normal(out=out)
        out[...] = _standardized_t4(rng, out.shape)
        return out

    # The factor VAR(1), one period per row of a row-major buffer, so each
    # step reads and writes contiguous r-vectors: A F_{t-1} is written into
    # row t and H u_t added in place, the loop's operations in its order.
    Fb = np.empty((total, r))
    HuT = np.ascontiguousarray((params.H @ draw(np.empty((q, total)))).T)
    prev = np.zeros(r)
    for t in range(total):
        row = Fb[t]
        np.matmul(params.A, prev, out=row)
        row += HuT[t]
        prev = row

    F = np.ascontiguousarray(Fb[BURN_IN:].T)
    F.flags.writeable = False
    X = params.Lambda @ F

    # The idiosyncratic shocks, one row block at a time (see the module
    # docstring).
    blocks = _row_blocks(n, total, _DRAW_BLOCK_ELEMS)
    ar = np.any(params.rho)
    size = blocks[0].stop * total
    shocks = np.empty(size)
    if ar:
        path = np.empty(size)
    last = None
    for b in blocks:
        k = b.stop - b.start
        xi = draw(shocks[:k * total].reshape(k, total))
        xi *= np.sqrt(params.gamma_e[b])[:, None]
        if tau > 0.0:
            _toeplitz_root(tau, xi, last)
            last = xi[-1].copy()
        # The shocks become the AR(1) idiosyncratic path, one period per
        # step, in a column-major buffer whose periods are contiguous;
        # with every rho_i = 0 that path is the shocks themselves.
        if ar:
            path_b = path[:k * total].reshape((k, total), order="F")
            path_b[...] = xi
            xi = path_b
            rho, step = params.rho[b], np.empty(k)
            before = xi[:, 0]
            for now in xi.T[1:]:
                np.multiply(rho, before, out=step)
                now += step
                before = now
        X[b] += xi[:, BURN_IN:]
    return F, Panel(X=X)
