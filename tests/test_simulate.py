import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov, toeplitz

from dfm_em import DgpConfig, DfmParams, ModelDims, draw_dgp, simulate, stream
from dfm_em.model import STABILITY_TOL, _row_blocks
from dfm_em.simulate import BURN_IN, _DRAW_BLOCK_ELEMS, _simulate, \
    _standardized_t4, _toeplitz_root
from conftest import dense_gamma, simulate_loop, toeplitz_params, traced_call


def _config(**kw):
    dims = ModelDims(n=kw.pop("n", 50), T=kw.pop("T", 75),
                     r=kw.pop("r", 4), q=kw.pop("q", 2))
    return DgpConfig(dims=dims, **kw)


class TestConfigValidation:
    def test_delta_support_cap(self):
        with pytest.raises(ValueError, match="delta"):
            _config(delta=0.4)

    def test_negative_delta_refused(self):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            _config(delta=-0.1)

    def test_tau_range(self):
        with pytest.raises(ValueError):
            _config(tau=1.0)

    def test_mu_range(self):
        with pytest.raises(ValueError):
            _config(mu=1.0)

    def test_mu_zero_refused(self):
        with pytest.raises(ValueError,
                           match=r"^mu must lie in \(0, 1 - STABILITY_TOL\), got 0.0$"):
            _config(mu=0.0)

    @pytest.mark.parametrize("mu", [1.0 - STABILITY_TOL, 1.0 - 1e-11])
    def test_mu_below_the_stability_bound(self, mu):
        """validate refuses a spectral radius at or above 1 - STABILITY_TOL,
        and A's is mu; such a mu once failed only in draw_dgp."""
        with pytest.raises(ValueError, match=r"^mu must lie in \(0, 1 - STABILITY_TOL\)"):
            _config(mu=mu)

    def test_theta_positive(self):
        with pytest.raises(ValueError):
            _config(theta=0.0)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_seed_must_be_a_nonnegative_integer(self, seed, message):
        """A float seed used to draw the panel of its integer part."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            _config(seed=seed)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "0.5", None])
    @pytest.mark.parametrize("name", ["tau", "delta", "theta", "mu"])
    def test_non_finite_refused(self, name, value):
        """theta=True used to draw with theta = 1, and a string or None
        raised an untyped TypeError."""
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            _config(**{name: value})

    def test_numbers_stored_as_floats(self):
        config = _config(tau=np.float64(0.5), theta=1)
        assert type(config.tau) is float and type(config.theta) is float


class TestDrawDgp:
    def test_shapes_and_zero_rho(self):
        draw = draw_dgp(_config(seed=1))
        assert draw.panel.X.shape == (50, 75)
        assert draw.factors.shape == (4, 75)
        assert np.all(draw.params.rho == 0.0)

    def test_factors_and_chi_are_read_only(self):
        draw = draw_dgp(_config(n=10, T=20, r=2, q=1, seed=2))
        for a in (draw.factors, draw.chi):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_spectral_radius_equals_mu(self):
        for seed in (1, 2, 3):
            draw = draw_dgp(_config(seed=seed, mu=0.5))
            radius = np.max(np.abs(np.linalg.eigvals(draw.params.A)))
            assert abs(radius - 0.5) < 1e-12

    def test_population_variance_share(self):
        """theta = 0.5 puts the common share at exactly 1/3 per series."""
        draw = draw_dgp(_config(seed=4, tau=0.5, delta=0.2, theta=0.5))
        p = draw.params
        gamma_f = solve_discrete_lyapunov(p.A, p.H @ p.H.T)
        var_chi = np.einsum("ij,jk,ik->i", p.Lambda, gamma_f, p.Lambda)
        var_xi = p.gamma_e / (1.0 - p.rho**2)
        share = var_chi / (var_chi + var_xi)
        assert np.allclose(share, 1.0 / 3.0, atol=1e-10)

    def test_toeplitz_gamma_exact(self):
        """A tau > 0 draw carries its law tau and the diagonal of
        toeplitz(tau^|i-j|), not the n x n matrix; the factors of
        ``toeplitz_params`` rebuild that matrix to round-off."""
        draw = draw_dgp(_config(seed=5, tau=0.5))
        expected = toeplitz(0.5 ** np.arange(50))
        assert draw.tau == 0.5
        assert np.array_equal(draw.params.gamma_e, np.diag(expected))
        assert np.max(np.abs(dense_gamma(toeplitz_params(draw)) - expected)) <= 1e-12
        assert draw_dgp(_config(seed=5)).tau == 0.0

    def test_panel_decomposition(self):
        draw = draw_dgp(_config(seed=6))
        xi = draw.panel.X - draw.chi
        assert np.allclose(draw.panel.X, draw.chi + xi)
        assert np.allclose(draw.chi, draw.params.Lambda @ draw.factors)

    def test_parameters_that_break_the_model_raise_value_error(self, monkeypatch):
        """Drawn parameters that break the model once raised an untyped
        RuntimeError."""
        monkeypatch.setattr(simulate, "validate", lambda params, dims: ["A not stable"])
        with pytest.raises(ValueError, match=r"^drawn parameters violate model "
                                             r"assumptions: \['A not stable'\]$"):
            draw_dgp(_config(n=10, T=20, r=2, q=1))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_theta_is_refused_without_a_warning(self):
        """A theta this large overflows the loadings scale; numpy's overflow
        warning once came out before the refusal, which did not name theta."""
        with pytest.raises(ValueError, match=r"^theta=1e\+308 overflows the "
                                             r"loadings scale$"):
            draw_dgp(_config(n=10, T=20, r=2, q=1, theta=1e308))

    def test_rho_support(self):
        draw = draw_dgp(_config(seed=7, delta=0.2))
        assert np.all(draw.params.rho >= 0.2)
        assert np.all(draw.params.rho <= 0.6)

    def test_determinism(self):
        a = draw_dgp(_config(seed=11))
        b = draw_dgp(_config(seed=11))
        assert np.array_equal(a.panel.X, b.panel.X)
        assert np.array_equal(a.params.Lambda, b.params.Lambda)

    def test_seed_changes_draw(self):
        a = draw_dgp(_config(seed=11))
        b = draw_dgp(_config(seed=12))
        assert not np.array_equal(a.panel.X, b.panel.X)

    def test_q_equals_r_gives_identity_H(self):
        draw = draw_dgp(_config(r=4, q=4, seed=1))
        assert np.array_equal(draw.params.H, np.eye(4))

    def test_q_less_r_H_construction(self):
        draw = draw_dgp(_config(r=4, q=2, seed=1))
        H = draw.params.H
        assert H.shape == (4, 2)
        assert np.linalg.matrix_rank(H) == 2
        # columns of the orthogonal construction stay orthogonal
        off = (H.T @ H)[0, 1]
        assert abs(off) < 1e-10


class TestSimulateGiven:
    """The draw's factor path and shocks."""

    def test_zero_shock_loader_gives_zero_factors(self):
        p = DfmParams(Lambda=np.ones((5, 2)), A=0.5 * np.eye(2),
                      H=np.zeros((2, 2)), gamma_e=np.ones(5))
        F, panel = _simulate(p, 20, "gaussian", stream(3), 0.0)
        assert np.array_equal(F, np.zeros((2, 20)))
        # panel is then pure idiosyncratic noise
        assert np.std(panel.X) > 0.0

    def test_idio_lag1_autocorr_centers_on_zero(self):
        """With rho = 0 and tau = 0 the idiosyncratic part is white."""
        draw = draw_dgp(_config(n=100, T=500, seed=13))
        xi = draw.panel.X - draw.chi
        ac = np.mean(xi[:, 1:] * xi[:, :-1], axis=1) / np.var(xi, axis=1)
        assert abs(np.mean(ac)) < 3.0 / np.sqrt(100 * 500)

    def test_student_t_kurtosis_exceeds_gaussian(self):
        cfg = _config(n=100, T=500, seed=14, innovation="student_t4")
        draw = draw_dgp(cfg)
        xi = draw.panel.X - draw.chi
        z = xi.ravel() / np.std(xi)
        kurt = np.mean(z**4)
        assert kurt > 3.3

    def test_student_t_unit_variance(self):
        rng = stream(99)
        from dfm_em.simulate import _standardized_t4
        z = _standardized_t4(rng, 200000)
        assert abs(np.var(z) - 1.0) < 0.05

    def test_factor_stationary_covariance(self):
        """Long-sample factor covariance of a draw matches the fixed point
        of the state covariance recursion."""
        draw = draw_dgp(_config(n=5, T=20000, r=2, q=2, seed=21))
        F, p = draw.factors, draw.params
        sample = F @ F.T / F.shape[1]
        target = solve_discrete_lyapunov(p.A, p.H @ p.H.T)
        rel = np.linalg.norm(sample - target) / np.linalg.norm(target)
        assert rel < 0.05


class TestDesignFromTheStreams:
    """The draw's laws and its burn-in, rebuilt by hand from the Philox
    substreams with the Monte Carlo design's constants written out: A is
    mu Atilde / nu1(Atilde) with Atilde's diagonal on U[0.5, 0.8] and its
    off-diagonal on U[0, 0.3]; H is Hcheck's first q columns scaled by
    the square roots of U[0.8, 1.2] draws; rho is U[delta, 1 - 2 delta]
    and gamma U[0.5, 1.5]; the factors start at zero 100 periods before
    the sample."""

    def test_laws_and_factor_path_are_bitwise(self):
        n, T, r, q, mu, delta, seed = 6, 30, 3, 2, 0.7, 0.2, 23
        draw = draw_dgp(_config(n=n, T=T, r=r, q=q, mu=mu, delta=delta,
                                seed=seed))
        rng = stream(seed)
        rng.standard_normal((n, r))  # the loadings, rescaled by the draw
        At = rng.uniform(0.0, 0.3, size=(r, r))
        At[np.diag_indices(r)] = rng.uniform(0.5, 0.8, size=r)
        A = mu * At / np.max(np.abs(np.linalg.eigvals(At)))
        h = rng.uniform(0.8, 1.2, size=q)
        Q, R = np.linalg.qr(rng.standard_normal((r, r)))
        H = (Q * np.sign(np.diag(R)))[:, :q] * np.sqrt(h)
        rho = rng.uniform(delta, 1.0 - 2.0 * delta, size=n)
        gamma = rng.uniform(0.5, 1.5, size=n)
        p = draw.params
        assert np.array_equal(p.A, A) and np.array_equal(p.H, H)
        assert np.array_equal(p.rho, rho) and np.array_equal(p.gamma_e, gamma)

        Hu = H @ stream(seed, 0).standard_normal((q, 100 + T))
        F = np.zeros((r, 100 + T))
        prev = np.zeros(r)
        for t in range(100 + T):
            prev = A @ prev + Hu[:, t]
            F[:, t] = prev
        assert np.array_equal(draw.factors, F[:, 100:])


def _rel_maxnorm(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestToeplitzShocks:
    """Gamma^e = toeplitz(tau^|i-j|) shocks come from an AR(1) recursion
    across series, which must equal the Cholesky factor applied to z."""

    @pytest.mark.parametrize("innovation", ["gaussian", "student_t4"])
    @pytest.mark.parametrize("n, tau", [(1, 0.5), (2, 0.5), (50, 0.7),
                                        (300, 0.95)])
    def test_recursion_equals_cholesky_product(self, n, tau, innovation):
        rng = stream(31, n)
        if innovation == "gaussian":
            z = rng.standard_normal((n, 40))
        else:
            z = _standardized_t4(rng, (n, 40))
        L = np.linalg.cholesky(toeplitz(tau ** np.arange(n)))
        e = _toeplitz_root(tau, z.copy())
        assert _rel_maxnorm(e, L @ z) <= 1e-13

    @pytest.mark.parametrize("innovation", ["gaussian", "student_t4"])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_draw_matches_the_cholesky_loop(self, delta, innovation):
        """tau > 0 draws agree to round-off with the Cholesky factor of
        the explicit toeplitz(tau^|i-j|)."""
        cfg = _config(n=60, T=50, tau=0.6, delta=delta, seed=8,
                      innovation=innovation)
        draw = draw_dgp(cfg)
        F, X = simulate_loop(toeplitz_params(draw), cfg.dims.T, innovation,
                             stream(cfg.seed, 0))
        assert np.array_equal(draw.factors, F)
        assert _rel_maxnorm(draw.panel.X, X) <= 1e-13


class TestAgainstTheLoop:
    """Diagonal Gamma^e (tau = 0) and Toeplitz shocks (tau > 0) reproduce
    the per-period, out-of-place loop bitwise, with and without AR(1)
    idiosyncratics."""

    @pytest.mark.parametrize("innovation", ["gaussian", "student_t4"])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.01])  # 0.01: rho up to 0.98
    def test_tau_zero_draw_is_bitwise(self, delta, innovation):
        cfg = _config(n=40, T=60, delta=delta, seed=17, innovation=innovation)
        draw = draw_dgp(cfg)
        assert np.any(draw.params.rho) == (delta > 0.0)
        F, X = simulate_loop(draw.params, cfg.dims.T, innovation,
                             stream(cfg.seed, 0))
        assert np.array_equal(draw.factors, F)
        assert np.array_equal(draw.panel.X, X)

    @pytest.mark.parametrize("q", [4, 8])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_eight_factor_draw_is_bitwise(self, tau, q):
        """The factor VAR, run row by row in place, gives the loop's bits
        at r = 8, and the path comes back C-contiguous."""
        cfg = _config(n=40, T=60, r=8, q=q, tau=tau, delta=0.2, seed=21)
        draw = draw_dgp(cfg)
        F, X = simulate_loop(draw.params, cfg.dims.T, "gaussian",
                             stream(cfg.seed, 0), tau)
        assert draw.factors.flags.c_contiguous
        assert np.array_equal(draw.factors, F)
        assert np.array_equal(draw.panel.X, X)

    @pytest.mark.parametrize("innovation", ["gaussian", "student_t4"])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    @pytest.mark.parametrize("tau", [0.5, 0.9])
    def test_tau_draw_is_bitwise(self, tau, delta, innovation):
        """The in-place Toeplitz root and panel give the bits of the
        out-of-place arithmetic."""
        cfg = _config(n=40, T=60, tau=tau, delta=delta, seed=19,
                      innovation=innovation)
        draw = draw_dgp(cfg)
        F, X = simulate_loop(draw.params, cfg.dims.T, innovation,
                             stream(cfg.seed, 0), tau)
        assert np.array_equal(draw.factors, F)
        assert np.array_equal(draw.panel.X, X)


# A draw of T = 150 periods in three row blocks, the last a partial one.
_T_BLOCKS = 150
_N_BLOCKS = 2 * (_DRAW_BLOCK_ELEMS // (_T_BLOCKS + BURN_IN)) + 37


class TestDrawByRowBlocks:
    """The shocks are drawn, transformed and run through their AR(1) one
    row block at a time; the draw keeps the bits of the whole-panel loop
    and holds only the panel, chi and its block buffers."""

    @pytest.mark.parametrize("innovation", ["gaussian", "student_t4"])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_multi_block_draw_is_bitwise(self, tau, delta, innovation):
        assert len(_row_blocks(_N_BLOCKS, _T_BLOCKS + BURN_IN,
                               _DRAW_BLOCK_ELEMS)) == 3
        cfg = _config(n=_N_BLOCKS, T=_T_BLOCKS, r=3, q=2, tau=tau,
                      delta=delta, seed=41, innovation=innovation)
        draw = draw_dgp(cfg)
        F, X = simulate_loop(draw.params, cfg.dims.T, innovation,
                             stream(cfg.seed, 0), tau)
        assert np.array_equal(draw.factors, F)
        assert np.array_equal(draw.panel.X, X)

    def test_draw_holds_the_panel_chi_and_one_block(self):
        """The whole-panel draw held n x (T + BURN_IN) normals next to
        the panel and peaked at 17.1 MB here, against 14.9 MB allowed;
        the row-block draw peaks at 13.3 MB."""
        cfg = _config(n=4000, T=200, r=4, q=2, tau=0.5, delta=0.2, seed=3)
        draw, peak, _ = traced_call(draw_dgp, cfg)
        block = 8 * _DRAW_BLOCK_ELEMS
        assert peak <= draw.panel.X.nbytes + draw.chi.nbytes + block


class TestStream:
    @pytest.mark.parametrize("args,message", [
        ((1.5,), "seed must be an integer, got 1.5"),
        ((-1,), "seed must be >= 0, got -1"),
        ((2, 0.9), "stream key must be an integer, got 0.9"),
        ((2, 0, True), "stream key must be an integer, got True"),
        ((2, -3), "stream key must be >= 0, got -3"),
    ])
    def test_non_integer_seed_or_key_refused(self, args, message):
        """stream(1.5) once gave stream(1)'s numbers and stream(2, 0.9)
        those of stream(2, 0)."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            stream(*args)

    def test_substreams_differ(self):
        a = stream(5, 0).standard_normal(4)
        b = stream(5, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_substreams_reproducible(self):
        a = stream(5, 3).standard_normal(4)
        b = stream(5, 3).standard_normal(4)
        assert np.array_equal(a, b)
