import dataclasses

import numpy as np
import pytest

from dfm_em import (
    DfmParams,
    DgpConfig,
    EmConfig,
    FilterNumericalError,
    InitState,
    ModelDims,
    Panel,
    ShapeError,
    draw_dgp,
    ecm_fit,
    gls_loadings,
    kalman_filter,
    pc_estimate,
    ridge_covariance,
    ridge_fit,
)
from dfm_em.em import _GAMMA_FLOOR, _GAMMA_RTOL, e_step, m_step
from dfm_em.extensions import _ar_updates, _ridge_gamma, _ridge_map
from dfm_em.kalman import _whitener, stationary_init
from dfm_em.model import validate
from conftest import ar1_covariance, ar1_precision, ar_updates_reference, \
    cholesky_whitener, dense_gamma, dense_joint_moments, toeplitz_params


def _random_psd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T / n


def _ridge_dense(S, mu):
    """The n x n c I + B B' of ``ridge_covariance(S, mu)``."""
    c, B = ridge_covariance(S, mu)
    return c * np.eye(B.shape[0]) + B @ B.T


class TestRidgeCovariance:
    def test_mu_zero_returns_input(self, rng):
        """At mu = 0 the factors rebuild S to round-off, with c its
        smallest eigenvalue."""
        S = _random_psd(rng, 6)
        c, _ = ridge_covariance(S, 0.0)
        assert c == np.linalg.eigh(S)[0].min()
        assert np.max(np.abs(_ridge_dense(S, 0.0) - S)) <= 1e-12 * np.max(np.abs(S))

    def test_factors_are_c_and_orthogonal_columns(self, rng):
        """c is the smallest eigenvalue of Gamma and B'B is diagonal, so
        the factors pass validate's checks; one column of B is zero."""
        S = _random_psd(rng, 6)
        c, B = ridge_covariance(S, 0.7)
        assert c == _ridge_map(np.linalg.eigh(S)[0], 0.7).min()
        BtB = B.T @ B
        assert np.max(np.abs(BtB - np.diag(np.diag(BtB)))) <= 1e-12 * np.max(BtB)
        assert np.sum(np.all(B == 0.0, axis=0)) == 1

    def test_zero_eigenvalue_maps_to_one(self):
        # nu = 0, mu = 1: (0 + sqrt(0 + 4)) / 2 = 1
        S = np.zeros((3, 3))
        assert np.allclose(_ridge_dense(S, 1.0), np.eye(3), atol=1e-12)

    def test_eigenvalue_three_mu_four_maps_to_four(self):
        # (3 + sqrt(9 + 16)) / 2 = 4
        S = 3.0 * np.eye(2)
        assert np.allclose(_ridge_dense(S, 4.0), 4.0 * np.eye(2), atol=1e-12)

    def test_stationarity_equation(self, rng):
        S = _random_psd(rng, 8)
        mu = 0.7
        G = _ridge_dense(S, mu)
        resid = G - S - mu * np.linalg.inv(G)
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(G)

    def test_orthogonal_conjugation(self, rng):
        S = _random_psd(rng, 5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lhs = _ridge_dense(Q @ S @ Q.T, 0.3)
        rhs = Q @ _ridge_dense(S, 0.3) @ Q.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_eigenvalues_monotone_in_mu(self, rng):
        S = _random_psd(rng, 6)
        prev = np.linalg.eigvalsh(_ridge_dense(S, 0.0))
        for mu in (0.1, 1.0, 10.0, 100.0):
            cur = np.linalg.eigvalsh(_ridge_dense(S, mu))
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_min_eigenvalue_at_least_sqrt_mu(self, rng):
        S = _random_psd(rng, 6)
        for mu in (0.01, 1.0, 25.0):
            w = np.linalg.eigvalsh(_ridge_dense(S, mu))
            assert w.min() >= np.sqrt(mu) - 1e-10

    def test_asymmetric_input_raises(self):
        S = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            ridge_covariance(S, 1.0)

    def test_negative_mu_raises(self):
        with pytest.raises(ValueError):
            ridge_covariance(np.eye(2), -1.0)


class TestRidgeConfig:
    """The ridge penalty setting: ``ridge_fit``'s ``mu`` argument."""

    def test_auto_rule(self):
        def fit(dims, mu):
            draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=11))
            return ridge_fit(draw.panel, dims, EmConfig(max_iter=3), mu=mu)

        def same(a, b):
            return (np.array_equal(a.loglik_trace, b.loglik_trace)
                    and np.array_equal(a.params.gamma_e, b.params.gamma_e))

        dims = ModelDims(n=50, T=100, r=2, q=2)
        assert same(fit(dims, None), fit(dims, 50.0 * 50.0 / 100.0))
        # n^2 / T below 1: regularization switched off
        dims = ModelDims(n=3, T=100, r=1, q=1)
        assert same(fit(dims, None), fit(dims, 0.0))

    def test_fixed(self):
        # n^2 / T = 0.625 < 1: the rule would switch regularization off,
        # so the sqrt(7.5) eigenvalue floor can only come from the given mu
        dims = ModelDims(n=5, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=11))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=3), mu=7.5)
        auto = ridge_fit(draw.panel, dims, EmConfig(max_iter=3))
        assert np.linalg.eigvalsh(dense_gamma(res.params)).min() >= np.sqrt(7.5) - 1e-8
        assert np.linalg.eigvalsh(dense_gamma(auto.params)).min() < np.sqrt(7.5)
        # n^2 / T = 10: a given mu below the rule's value is not overridden
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=11))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=3), mu=7.5)
        auto = ridge_fit(draw.panel, dims, EmConfig(max_iter=3))
        assert not np.array_equal(res.params.gamma_e, auto.params.gamma_e)

    def test_validation(self):
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=11))
        for mu in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ridge_fit(draw.panel, dims, mu=mu)


class TestRidgeFit:
    def test_full_covariance_returned(self):
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=11))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=10))
        assert res.params.gamma_factors is not None
        assert np.all(np.isfinite(res.loglik_trace))
        # penalized covariance is invertible by construction
        w = np.linalg.eigvalsh(dense_gamma(res.params))
        assert w.min() >= np.sqrt(20.0 * 20.0 / 40.0) - 1e-8

    def test_filter_of_the_eigh_branch_matches_the_dense_oracle(self):
        """At n <= T + r the fit's factors come from the eigendecomposition
        of Z Z', and the filter through them matches the dense oracle."""
        dims = ModelDims(n=6, T=10, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=13))
        p = ridge_fit(draw.panel, dims, EmConfig(max_iter=3)).params
        assert p.gamma_factors is not None
        assert validate(p, dims) == []
        init = InitState(F0=np.zeros(2), P0=np.eye(2))
        ll = kalman_filter(draw.panel, p, init).loglik
        assert abs(ll - dense_joint_moments(draw.panel, p, init)[2]) < 1e-8

    def test_mu_zero_above_the_gram_size_fails_at_t1(self):
        """At mu = 0 and n > T + r the M-step's Gamma is the singular
        Z Z' of rank T + r, c = 0, and the next E-step rejects it at t = 1."""
        dims = ModelDims(n=30, T=12, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=29))
        with pytest.raises(FilterNumericalError, match="not positive definite") as err:
            ridge_fit(draw.panel, dims, EmConfig(max_iter=3), mu=0.0)
        assert err.value.t == 1

    def test_off_diagonal_mass_tracked_on_correlated_noise(self):
        dims = ModelDims(n=15, T=60, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.7, seed=12))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=15))
        G = dense_gamma(res.params)
        off = G - np.diag(np.diag(G))
        assert np.linalg.norm(off) > 0


class TestFactoredRidgeMStep:
    @pytest.mark.parametrize("n, T, mu", [(40, 20, 3.0), (15, 30, 3.0),
                                          (40, 20, 0.0)])
    def test_matches_eigh_of_expanded_residual_covariance(self, n, T, mu):
        """T + r < n takes the Gram route, at mu = 0 too; n <= T + r
        eigendecomposes Z Z'. All three agree with the map applied to the
        expanded S_resid = (XX' - Lam S_xF' - S_xF Lam' + Lam S_FF Lam') / T."""
        dims = ModelDims(n=n, T=T, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=21))
        X = draw.panel.X
        p = toeplitz_params(draw)
        stats, _, _ = e_step(draw.panel, p, stationary_init(p))
        Lam = m_step(stats, draw.panel, dims.q).Lambda
        S_resid = (X @ X.T - Lam @ stats.S_xF.T - stats.S_xF @ Lam.T
                   + Lam @ stats.S_FF @ Lam.T) / T
        want = _ridge_dense(S_resid, mu)
        got = dense_gamma(dataclasses.replace(
            p, Lambda=Lam, gamma_e=None,
            gamma_factors=_ridge_gamma(X, Lam, stats, mu)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_factors_rebuild_gamma(self):
        """On the factored branch Gamma = c I + B B' with c = sqrt(mu) and
        B'B diagonal, and the parameters built from them pass validate."""
        dims = ModelDims(n=40, T=20, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=21))
        p = toeplitz_params(draw)
        stats, _, _ = e_step(draw.panel, p, stationary_init(p))
        c, B = _ridge_gamma(draw.panel.X, p.Lambda, stats, 3.0)
        assert c == np.sqrt(3.0) and B.shape == (40, 22)
        BtB = B.T @ B
        scale = np.max(np.diag(BtB))
        assert np.max(np.abs(BtB - np.diag(np.diag(BtB)))) <= 1e-12 * scale
        fact = DfmParams(Lambda=p.Lambda, A=p.A, H=p.H, gamma_factors=(c, B))
        assert validate(fact, dims) == []
        assert np.array_equal(fact.gamma_e, c + np.sum(B * B, axis=1))

    def test_mu_zero_takes_the_gram_branch_with_c_zero(self):
        """At mu = 0 and n > T + r the factors are c = 0 and the T + r
        columns of Z W, which validate refuses."""
        dims = ModelDims(n=40, T=20, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=21))
        p = toeplitz_params(draw)
        stats, _, _ = e_step(draw.panel, p, stationary_init(p))
        c, B = _ridge_gamma(draw.panel.X, p.Lambda, stats, 0.0)
        assert c == 0.0 and B.shape == (40, 22)
        fact = DfmParams(Lambda=p.Lambda, A=p.A, H=p.H, gamma_factors=(c, B))
        assert validate(fact, dims) == ["gamma_factors c not positive"]

    def test_diagonal_start_equals_full_map_of_diagonal(self, rng):
        g = rng.uniform(0.05, 3.0, size=12)
        for mu in (0.0, 0.3, 40.0):
            full = _ridge_dense(np.diag(g), mu)
            assert np.allclose(_ridge_map(g, mu), np.diag(full),
                               rtol=1e-15, atol=0.0)
            assert np.array_equal(full, np.diag(np.diag(full)))


def _factored_case(r, q, rank_deficient=False):
    """A ridge Gamma from the factored M-step (n > T + r) after one E-step,
    as ``DfmParams`` holding its factors (c, B)."""
    dims = ModelDims(n=14, T=8, r=r, q=q)
    draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=23))
    p = toeplitz_params(draw)
    stats, _, _ = e_step(draw.panel, p, stationary_init(p))
    base = m_step(stats, draw.panel, q)
    Lam = base.Lambda
    if rank_deficient:
        Lam = np.outer(Lam[:, 0], [1.0, -0.5])
    factors = _ridge_gamma(draw.panel.X, Lam, stats, 3.0)
    return draw.panel, DfmParams(Lambda=Lam, A=base.A, H=base.H,
                                 gamma_factors=factors)


def _refactored(p):
    """``p`` with its Gamma given by other factors: those of
    ``ridge_covariance`` of the dense c I + B B', whose B is n x n."""
    return dataclasses.replace(p, gamma_e=None,
                               gamma_factors=ridge_covariance(dense_gamma(p), 0.0))


FACTORED_CASES = {"q_eq_r": (2, 2), "q_lt_r": (3, 1), "rank_deficient": (2, 2, True)}


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestFactoredWhitening:
    @pytest.mark.parametrize("case", FACTORED_CASES)
    def test_matches_the_cholesky_route(self, case):
        """Gamma^{-1} Lambda, M, log|Gamma| and the residual norms from the
        M-step's factors equal those of the Cholesky factor of Gamma."""
        panel, fact = _factored_case(*FACTORED_CASES[case])
        Lg, M, norms, logdet = _whitener(fact)
        Lg_c, M_c, norms_c, logdet_c = cholesky_whitener(fact)
        assert _rel(Lg, Lg_c) <= 1e-12
        assert _rel(M, M_c) <= 1e-12
        assert abs(logdet - logdet_c) <= 1e-12 * abs(logdet_c)
        F = np.random.default_rng(5).standard_normal((fact.r, panel.T))
        want = norms_c(panel.X, fact.Lambda, F)
        assert _rel(norms(panel.X, fact.Lambda, F), want) <= 1e-12

    @pytest.mark.parametrize("case", FACTORED_CASES)
    def test_filter_matches_the_dense_oracle(self, case):
        """The filter through the M-step's factors matches the dense oracle,
        and the filter through other factors of the same Gamma."""
        panel, fact = _factored_case(*FACTORED_CASES[case])
        init = InitState(F0=np.zeros(fact.r), P0=np.eye(fact.r))
        ll = kalman_filter(panel, fact, init).loglik
        assert abs(ll - dense_joint_moments(panel, fact, init)[2]) < 1e-8
        other = kalman_filter(panel, _refactored(fact), init).loglik
        assert abs(ll - other) <= 1e-12 * abs(ll)

    @pytest.mark.parametrize("bad, why", [
        ("B", "not finite"), ("c", "not finite"),
        ("c_zero", "not positive definite"),
    ])
    def test_bad_factors_flag_t1(self, bad, why):
        rng = np.random.default_rng(7)
        c, B = 1.0, rng.standard_normal((6, 2))
        if bad == "B":
            B[0, 0] = np.nan
        elif bad == "c":
            c = np.inf
        else:
            c = 0.0
        p = DfmParams(Lambda=np.ones((6, 1)), A=np.array([[0.5]]),
                      H=np.ones((1, 1)), gamma_factors=(c, B))
        with pytest.raises(FilterNumericalError, match=why) as err:
            kalman_filter(Panel(X=np.zeros((6, 4))), p,
                          InitState(F0=[0.0], P0=[[1.0]]))
        assert err.value.t == 1

    def test_replace_keeps_the_factors_and_a_dense_rebuild_has_none(self):
        dims = ModelDims(n=30, T=12, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=29))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=3))
        p = res.params
        B = p.gamma_factors[1]
        assert not (B.flags.writeable or p.gamma_e.flags.writeable)
        init = InitState(F0=np.zeros(2), P0=np.eye(2))
        ll = kalman_filter(draw.panel, p, init).loglik
        kept = dataclasses.replace(p)
        assert kept.gamma_factors[1] is B
        assert kalman_filter(draw.panel, kept, init).loglik == ll
        # a dense Gamma is refused: a full one is given by its factors
        with pytest.raises(ShapeError, match="gamma_factors"):
            DfmParams(Lambda=p.Lambda, A=p.A, H=p.H, gamma_e=dense_gamma(p),
                      rho=p.rho)
        rebuilt = _refactored(p)
        assert rebuilt.gamma_factors[1].shape == (30, 30)
        assert abs(kalman_filter(draw.panel, rebuilt, init).loglik - ll) <= 1e-12 * abs(ll)


class TestRidgeAscent:
    @pytest.mark.parametrize("n, T", [(30, 20), (20, 40)])
    def test_penalized_objective_never_falls_at_q_equal_r(self, n, T):
        """With q = r every M-step block maximises its part of the
        penalized expected log-likelihood exactly, so
        l(theta_k) - (T mu / 4) tr(Gamma_k^{-2}) rises at every step.
        Gamma_k is the result of a run with max_iter = k; Gamma_0 is the
        start value, the map of the floored PC variances."""
        dims = ModelDims(n=n, T=T, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=1))
        X = draw.panel.X

        def run(k):
            return ridge_fit(draw.panel, dims, EmConfig(epsilon=1e-15, max_iter=k))

        full = run(7)
        assert full.iters == 7
        mu = n * n / T
        g0 = np.maximum(pc_estimate(draw.panel, 2, 2).GammaE0,
                        np.maximum(_GAMMA_FLOOR, _GAMMA_RTOL * X.var(axis=1)))
        pen = [np.sum(_ridge_map(g0, mu) ** -2.0)]
        pen += [np.sum(np.linalg.inv(dense_gamma(run(k).params)) ** 2)
                for k in range(1, 8)]
        objective = full.loglik_trace - 0.25 * T * mu * np.array(pen)
        assert np.all(np.diff(objective) > 0.0)


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
        stats, smooth, _ = e_step(draw.panel, draw.params,
                                 stationary_init(draw.params))
        ols = np.linalg.solve(stats.S_FF, stats.S_xF.T).T
        gls = gls_loadings(stats, smooth, draw.panel, np.zeros(12))
        assert np.max(np.abs(gls - ols)) < 1e-8

    def test_weighted_normal_equations_dense_oracle(self):
        """The loadings zero the AR(1)-weighted expected score, checked
        against a dense T x T construction of the same normal equations."""
        dims = ModelDims(n=6, T=25, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, delta=0.2, seed=14))
        stats, smooth, _ = e_step(draw.panel, draw.params,
                                 stationary_init(draw.params))
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
    @pytest.mark.parametrize("q", [1, 3])
    def test_matches_the_per_period_moments(self, q):
        """Time sums first agree with the n x T expected-moment arrays."""
        dims = ModelDims(n=30, T=40, r=3, q=q)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.3, delta=0.2, seed=16))
        _, smooth, _ = e_step(draw.panel, draw.params,
                              stationary_init(draw.params))
        Lam = 1.1 * draw.params.Lambda
        rho, gamma = _ar_updates(draw.panel.X, Lam, smooth)
        rho_ref, gamma_ref = ar_updates_reference(draw.panel.X, Lam, smooth)
        assert np.allclose(rho, rho_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(gamma, gamma_ref, rtol=1e-12, atol=0.0)

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
        assert res.params.rho.shape == (20,)
        assert res.params.gamma_factors is None
        assert np.all(np.abs(res.params.rho) < 1.0)
        assert np.all(res.params.gamma_e > 0)

    def test_rho_recovery_on_serially_correlated_draws(self):
        """Average |rho_hat - rho| across series stays below 0.1 on draws
        with idiosyncratic AR coefficients in [0.2, 0.6]."""
        dims = ModelDims(n=100, T=200, r=2, q=2)
        maes = []
        for seed in range(1, 21):
            draw = draw_dgp(DgpConfig(dims=dims, delta=0.2, seed=seed))
            res = ecm_fit(draw.panel, dims, EmConfig(max_iter=25))
            maes.append(np.mean(np.abs(res.params.rho - draw.params.rho)))
        assert np.mean(maes) < 0.1
