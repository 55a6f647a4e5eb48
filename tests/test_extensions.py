import numpy as np
import pytest

from dfm_em import (
    ArIdioState,
    DgpConfig,
    EmConfig,
    ModelDims,
    Panel,
    RidgeConfig,
    ar1_precision,
    draw_dgp,
    ecm_fit,
    gls_loadings,
    ridge_covariance,
    ridge_fit,
)
from dfm_em.em import e_step, m_step
from dfm_em.extensions import _ar_updates
from conftest import ar1_covariance


def _random_psd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T / n


class TestRidgeCovariance:
    def test_mu_zero_returns_input(self, rng):
        S = _random_psd(rng, 6)
        assert np.array_equal(ridge_covariance(S, 0.0), S)

    def test_zero_eigenvalue_maps_to_one(self):
        # nu = 0, mu = 1: (0 + sqrt(0 + 4)) / 2 = 1
        S = np.zeros((3, 3))
        assert np.allclose(ridge_covariance(S, 1.0), np.eye(3), atol=1e-12)

    def test_eigenvalue_three_mu_four_maps_to_four(self):
        # (3 + sqrt(9 + 16)) / 2 = 4
        S = 3.0 * np.eye(2)
        assert np.allclose(ridge_covariance(S, 4.0), 4.0 * np.eye(2), atol=1e-12)

    def test_stationarity_equation(self, rng):
        S = _random_psd(rng, 8)
        mu = 0.7
        G = ridge_covariance(S, mu)
        resid = G - S - mu * np.linalg.inv(G)
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(G)

    def test_orthogonal_conjugation(self, rng):
        S = _random_psd(rng, 5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lhs = ridge_covariance(Q @ S @ Q.T, 0.3)
        rhs = Q @ ridge_covariance(S, 0.3) @ Q.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_eigenvalues_monotone_in_mu(self, rng):
        S = _random_psd(rng, 6)
        prev = np.linalg.eigvalsh(ridge_covariance(S, 0.0))
        for mu in (0.1, 1.0, 10.0, 100.0):
            cur = np.linalg.eigvalsh(ridge_covariance(S, mu))
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_min_eigenvalue_at_least_sqrt_mu(self, rng):
        S = _random_psd(rng, 6)
        for mu in (0.01, 1.0, 25.0):
            w = np.linalg.eigvalsh(ridge_covariance(S, mu))
            assert w.min() >= np.sqrt(mu) - 1e-10

    def test_asymmetric_input_raises(self):
        S = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            ridge_covariance(S, 1.0)

    def test_negative_mu_raises(self):
        with pytest.raises(ValueError):
            ridge_covariance(np.eye(2), -1.0)


class TestRidgeConfig:
    def test_auto_rule(self):
        cfg = RidgeConfig()
        assert cfg.resolve(50, 100) == 50.0 * 50.0 / 100.0
        # n^2 / T below 1: regularization switched off
        assert cfg.resolve(3, 100) == 0.0

    def test_auto_constant(self):
        assert RidgeConfig(c=2.0).resolve(10, 10) == 20.0

    def test_fixed(self):
        assert RidgeConfig(policy="fixed", mu=7.5).resolve(1000, 10) == 7.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeConfig(policy="bogus")
        with pytest.raises(ValueError):
            RidgeConfig(policy="fixed", mu=-1.0)


class TestRidgeFit:
    def test_full_covariance_returned(self):
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=11))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=10))
        assert res.params.gamma_e.ndim == 2
        assert res.extras["ridge_mu"] == 20.0 * 20.0 / 40.0
        assert np.all(np.isfinite(res.loglik_trace))
        # penalized covariance is invertible by construction
        w = np.linalg.eigvalsh(res.params.gamma_e)
        assert w.min() >= np.sqrt(res.extras["ridge_mu"]) - 1e-8

    def test_off_diagonal_mass_tracked_on_correlated_noise(self):
        dims = ModelDims(n=15, T=60, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.7, seed=12))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=15))
        G = res.params.gamma_e
        off = G - np.diag(np.diag(G))
        assert np.linalg.norm(off) > 0


class TestAr1Matrices:
    def test_precision_times_covariance_is_identity(self):
        prod = ar1_precision(0.5, 1.0, 5) @ ar1_covariance(0.5, 1.0, 5)
        assert np.max(np.abs(prod - np.eye(5))) < 1e-10

    def test_random_parameters(self, rng):
        for _ in range(5):
            rho = rng.uniform(-0.9, 0.9)
            gamma = rng.uniform(0.1, 3.0)
            T = int(rng.integers(2, 12))
            prod = ar1_precision(rho, gamma, T) @ ar1_covariance(rho, gamma, T)
            assert np.max(np.abs(prod - np.eye(T))) < 1e-9

    def test_covariance_entries(self):
        C = ar1_covariance(0.5, 1.0, 3)
        assert np.isclose(C[0, 0], 1.0 / (1.0 - 0.25))
        assert np.isclose(C[0, 2], 0.25 / (1.0 - 0.25))


class TestGlsLoadings:
    def test_rho_zero_equals_ols(self):
        dims = ModelDims(n=12, T=50, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=13))
        stats, smooth, _ = e_step(draw.panel, draw.params)
        ols = np.linalg.solve(stats.S_FF, stats.S_xF.T).T
        gls = gls_loadings(stats, smooth, draw.panel, np.zeros(12))
        assert np.max(np.abs(gls - ols)) < 1e-8

    def test_weighted_normal_equations_dense_oracle(self):
        """The loadings zero the AR(1)-weighted expected score, checked
        against a dense T x T construction of the same normal equations."""
        dims = ModelDims(n=6, T=25, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, delta=0.2, seed=14))
        stats, smooth, _ = e_step(draw.panel, draw.params)
        rho = np.linspace(-0.6, 0.6, 6)
        Lam = gls_loadings(stats, smooth, draw.panel, rho)

        F, Ps, Cs = smooth.F_smooth, smooth.P_smooth, smooth.C_lag1
        T = dims.T
        X = draw.panel.X
        for i in range(6):
            Prec = ar1_precision(rho[i], 1.0, T)
            M = np.zeros((2, 2))
            v = np.zeros(2)
            for t in range(T):
                for s in range(T):
                    if Prec[t, s] == 0.0:
                        continue
                    EFF = np.outer(F[:, t], F[:, s])
                    if s == t:
                        EFF = EFF + Ps[t]
                    elif s == t - 1:
                        EFF = EFF + Cs[t]
                    elif s == t + 1:
                        EFF = EFF + Cs[s].T
                    M += Prec[t, s] * EFF
                    v += Prec[t, s] * F[:, t] * X[i, s]
            score = M @ Lam[i] - v
            assert np.max(np.abs(score)) < 1e-8 * max(np.max(np.abs(v)), 1.0)


class TestArUpdates:
    def test_explosive_estimate_clamped_with_warning(self):
        from types import SimpleNamespace

        T = 12
        X = np.cumsum(np.ones((2, T)), axis=1)  # trending: lag ratio >= 1
        smooth = SimpleNamespace(
            F_smooth=np.zeros((1, T)),
            P_smooth=np.zeros((T, 1, 1)),
            C_lag1=np.zeros((T, 1, 1)),
        )
        with pytest.warns(RuntimeWarning):
            rho, gamma = _ar_updates(X, np.zeros((2, 1)), smooth)
        assert np.all(np.abs(rho) <= 0.99)
        assert np.all(gamma > 0)


class TestEcmFit:
    def test_returns_ar_state(self):
        dims = ModelDims(n=20, T=60, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, delta=0.2, seed=15))
        res = ecm_fit(draw.panel, dims, EmConfig(max_iter=15))
        ar = res.extras["ar_idio"]
        assert isinstance(ar, ArIdioState)
        assert np.all(np.abs(ar.rho_hat) < 1.0)
        assert np.all(ar.gamma_hat > 0)
        assert np.array_equal(res.params.rho, ar.rho_hat)

    def test_rho_recovery_on_serially_correlated_draws(self):
        """Average |rho_hat - rho| across series stays below 0.1 on draws
        with idiosyncratic AR coefficients in [0.2, 0.6]."""
        dims = ModelDims(n=100, T=200, r=2, q=2)
        maes = []
        for seed in range(1, 21):
            draw = draw_dgp(DgpConfig(dims=dims, delta=0.2, seed=seed))
            res = ecm_fit(draw.panel, dims, EmConfig(max_iter=25))
            ar = res.extras["ar_idio"]
            maes.append(np.mean(np.abs(ar.rho_hat - draw.params.rho)))
        assert np.mean(maes) < 0.1
