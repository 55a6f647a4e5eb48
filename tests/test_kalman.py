import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from dfm_em import (
    DfmParams,
    DgpConfig,
    FilterNumericalError,
    InitState,
    ModelDims,
    Panel,
    draw_dgp,
    kalman_filter,
    kalman_smoother,
    stationary_init,
    steady_state_diagnostics,
)
from conftest import (
    dense_joint_moments,
    factored,
    kalman_smoother_classical,
    oracle_state_blocks,
    riccati_step_loop,
    toeplitz_params,
    woodbury_inverse,
)
from dfm_em.kalman import _bidiagonal_solve, _observed_directions, _riccati, \
    _scan, _solve, _whitener
from dfm_em.model import _BLOCK_ELEMS, ShapeError


def _draw(n=5, T=10, r=2, q=2, tau=0.0, delta=0.0, seed=1):
    dims = ModelDims(n=n, T=T, r=r, q=q)
    return draw_dgp(DgpConfig(dims=dims, tau=tau, delta=delta, seed=seed))


class TestFilterBasics:
    def test_scalar_closed_form(self):
        """n=r=q=1, Lambda=1, A=0, H=1, gamma=1: P_pred=1, P_filt=0.5,
        F_filt = x/2 at every t."""
        p = DfmParams(Lambda=np.ones((1, 1)), A=np.zeros((1, 1)),
                      H=np.ones((1, 1)), gamma_e=np.ones(1))
        x = np.array([[1.0, -2.0, 0.5, 3.0]])
        filt = kalman_filter(Panel(X=x), p, InitState(F0=[0.0], P0=[[1.0]]))
        assert np.allclose(filt.P_pred, 1.0)
        assert np.allclose(filt.P_filt, 0.5)
        assert np.allclose(filt.F_filt, 0.5 * x)
        assert np.allclose(filt.F_pred, 0.0)

    def test_zero_panel(self):
        draw = _draw(seed=2)
        p = draw.params
        panel = Panel(X=np.zeros((5, 10)))
        init = stationary_init(p)
        filt = kalman_filter(panel, p, init)
        assert np.allclose(filt.F_filt, 0.0)
        # log-likelihood agrees with the direct joint-Gaussian value
        _, _, ll = dense_joint_moments(panel, p, init)
        assert abs(filt.loglik - ll) < 1e-8

    def test_filtered_means_match_growing_dense_projection(self):
        """F_{t|t} equals the dense projection using data up to t only."""
        draw = _draw(n=5, T=10, r=2, q=2, seed=3)
        p = draw.params
        init = stationary_init(p)
        filt = kalman_filter(draw.panel, p, init)
        r = p.r
        for t in range(draw.panel.T):
            sub = Panel(X=draw.panel.X[:, :t + 1])
            pm, _, _ = dense_joint_moments(sub, p, init)
            assert np.max(np.abs(filt.F_filt[:, t] - pm[-r:])) < 1e-8

    def test_loglik_matches_joint_gaussian(self):
        for seed, (r, q) in [(4, (2, 2)), (5, (3, 2))]:
            draw = _draw(n=5, T=10, r=r, q=q, tau=0.5, delta=0.2, seed=seed)
            p = toeplitz_params(draw)
            init = stationary_init(p)
            filt = kalman_filter(draw.panel, p, init)
            _, _, ll = dense_joint_moments(draw.panel, p, init)
            assert abs(filt.loglik - ll) < 1e-6

    def test_prediction_mse_norm_monotone(self):
        draw = _draw(n=20, T=50, r=3, q=2, seed=6)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        norms = [np.linalg.norm(P, 2) for P in filt.P_pred]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10

    def test_P_matrices_symmetric_psd(self):
        """The filter's and the smoother's covariances, which the smoother
        returns only symmetrized, with no repair."""
        draw = _draw(n=10, T=30, r=3, q=2, seed=7)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        sm = kalman_smoother(filt, draw.params)
        for P in [*filt.P_pred, *filt.P_filt, *sm.P_smooth, sm.P0_smooth]:
            assert np.allclose(P, P.T)
            assert np.min(np.linalg.eigvalsh(P)) > -1e-10

    def test_first_non_finite_data_step_is_reported(self):
        """A panel column whose quadratic form overflows fails at its own
        step, not at the end of the sample."""
        Lam = np.random.default_rng(0).standard_normal((5, 2))
        p = DfmParams(Lambda=Lam, A=0.5 * np.eye(2), H=np.eye(2),
                      gamma_e=np.ones(5))
        X = np.zeros((5, 6))
        X[:, 2] = 1e200
        with pytest.raises(FilterNumericalError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            kalman_filter(Panel(X=X), p, InitState(F0=np.zeros(2), P0=np.eye(2)))
        assert err.value.t == 3

    def test_first_non_finite_riccati_step_is_reported(self):
        """P_{t|t-1} of an unobserved explosive state overflows at t=3
        (1e140, 1e280, inf)."""
        lam = np.random.default_rng(0).standard_normal((5, 1))
        p = DfmParams(Lambda=np.hstack([lam, 0.0 * lam]),
                      A=np.diag([0.5, 1e70]), H=np.eye(2), gamma_e=np.ones(5))
        with pytest.raises(FilterNumericalError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            kalman_filter(Panel(X=np.zeros((5, 6))), p,
                          InitState(F0=np.zeros(2), P0=np.eye(2)))
        assert err.value.t == 3
        assert "prediction MSE" in str(err.value)

    @pytest.mark.parametrize("a, t", [(1e200, 1), (1e70, 3)])
    def test_first_infinite_riccati_step_is_reported(self, a, t):
        """P_{t|t-1} of an unobserved scalar state overflows to inf, not to
        NaN: at t=1 (1e400), or at t=3 (1e140, 1e280, inf)."""
        p = DfmParams(Lambda=np.zeros((5, 1)), A=np.array([[a]]), H=np.eye(1),
                      gamma_e=np.ones(5))
        with pytest.raises(FilterNumericalError, match="prediction MSE") as err, \
                np.errstate(over="ignore", invalid="ignore"):
            kalman_filter(Panel(X=np.zeros((5, 6))), p, InitState(F0=[0.0], P0=[[1.0]]))
        assert err.value.t == t

    def test_gain_cancelling_a_large_A_keeps_its_digits(self):
        """With A = 1e100 I the update factor J_t = I - P_{t|t-1} W_t is
        of order 1e-200. Formed by subtracting from I (or from A) it is all
        round-off: F_{2|2} comes out near 1e84 and the t=4 term overflows.
        Every exact term is finite and F_{t|t} stays of order one."""
        Lam = np.random.default_rng(0).standard_normal((5, 2))
        p = DfmParams(Lambda=Lam, A=1e100 * np.eye(2), H=np.eye(2),
                      gamma_e=np.ones(5))
        filt = kalman_filter(Panel(X=np.ones((5, 6))), p,
                             InitState(F0=np.zeros(2), P0=np.eye(2)))
        assert np.isfinite(filt.loglik)
        assert np.max(np.abs(filt.F_filt)) < 10.0
        assert np.max(np.abs(filt.J)) < 1e-150

    def test_smoothed_moments_keep_their_digits_with_a_large_A(self):
        """Same input: F_{t|t-1} is of order 1e100, so the predicted form
        F_{t|t-1} + P_{t|t-1} r_{t-1} gave +-1e84 and variances of 3e183.
        The exact smoothed means are about 1e-100 for t < T."""
        Lam = np.random.default_rng(0).standard_normal((5, 2))
        p = DfmParams(Lambda=Lam, A=1e100 * np.eye(2), H=np.eye(2),
                      gamma_e=np.ones(5))
        filt = kalman_filter(Panel(X=np.ones((5, 6))), p,
                             InitState(F0=np.zeros(2), P0=np.eye(2)))
        sm = kalman_smoother(filt, p)
        assert np.max(np.abs(sm.F_smooth[:, :-1])) < 1e-10
        assert np.array_equal(sm.F_smooth[:, -1], filt.F_filt[:, -1])
        assert np.all(np.isfinite(sm.P_smooth))

    def test_no_observed_direction_reports_the_failing_step(self):
        """Lambda = 0 (k = 0, no S_y to factor): an explosive state
        overflows P_{t|t-1} at t=3, and an overflowing panel column fails
        at its own step."""
        Z, init = np.zeros((5, 2)), InitState(F0=np.zeros(2), P0=np.eye(2))
        X = np.zeros((5, 6))
        X[:, 3] = 1e200
        for A, panel, t, why in [
                (np.diag([1e70, 0.5]), np.zeros((5, 6)), 3, "prediction MSE"),
                (0.5 * np.eye(2), X, 4, "innovation update")]:
            p = DfmParams(Lambda=Z, A=A, H=np.eye(2), gamma_e=np.ones(5))
            with pytest.raises(FilterNumericalError) as err, \
                    np.errstate(over="ignore", invalid="ignore"):
                kalman_filter(Panel(X=panel), p, init)
            assert err.value.t == t
            assert why in str(err.value)

    @pytest.mark.parametrize("scale,t", [(1e2, 3), (1e3, 2), (1e4, 1)])
    def test_innovation_covariance_not_pd_is_reported(self, scale, t):
        """A slightly negative P_{0|0} direction that A = 10 amplifies: S_y
        loses definiteness at the step where the amplified negative
        variance first outweighs the measurement noise D_k^{-1}; a larger
        loading (smaller D_k^{-1}) makes that step come sooner."""
        lam = np.random.default_rng(0).standard_normal((5, 1))
        p = DfmParams(Lambda=np.hstack([lam, scale * lam[::-1]]),
                      A=np.diag([0.5, 10.0]), H=np.array([[1.0], [0.0]]),
                      gamma_e=np.ones(5))
        with pytest.raises(FilterNumericalError) as err:
            kalman_filter(Panel(X=np.zeros((5, 6))), p,
                          InitState(F0=np.zeros(2), P0=np.diag([1.0, -5e-9])))
        assert err.value.t == t
        assert "not positive definite" in str(err.value)

    def test_singular_noise_flags_time_index(self):
        p = DfmParams(Lambda=np.ones((3, 1)), A=np.array([[0.5]]),
                      H=np.ones((1, 1)), gamma_e=np.zeros(3))
        with pytest.raises(FilterNumericalError) as err:
            kalman_filter(Panel(X=np.zeros((3, 4))), p,
                          InitState(F0=[0.0], P0=[[1.0]]))
        assert err.value.t == 1

    @pytest.mark.parametrize("gamma, why", [
        ({"gamma_e": np.array([1.0, np.nan, 1.0])}, "not finite"),
        # the factors of an indefinite Gamma have c = -1
        ({"gamma_factors": factored(np.array(
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))},
         "not positive definite"),
    ], ids=["non_finite", "full_not_pd"])
    def test_bad_idiosyncratic_covariance_flags_t1(self, gamma, why):
        p = DfmParams(Lambda=np.ones((3, 1)), A=np.array([[0.5]]),
                      H=np.ones((1, 1)), **gamma)
        with pytest.raises(FilterNumericalError, match=why) as err:
            kalman_filter(Panel(X=np.zeros((3, 4))), p,
                          InitState(F0=[0.0], P0=[[1.0]]))
        assert err.value.t == 1

    def test_init_state_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="P0 shape incompatible"):
            InitState(F0=np.zeros(2), P0=np.eye(3))

    @pytest.mark.parametrize("eigs, refused", [
        ([1.0, -1e-8], False), ([1.0, -2e-8], True), ([100.0, -1e-7], False)])
    def test_init_state_allows_eigenvalues_down_to_1e8_of_the_largest_or_one(self, eigs,
                                                                            refused):
        """P0 may have an eigenvalue down to -1e-8 max(1, its largest), the
        boundary included."""
        with (pytest.raises(ValueError, match="not positive semidefinite") if refused
              else contextlib.nullcontext()):
            InitState(F0=np.zeros(2), P0=np.diag(eigs))

    def test_panel_rows_against_lambda_refused(self, monkeypatch):
        """A 5-row panel with a 20-row Lambda once died in a bare numpy
        matmul error; now a ShapeError names both, before any work."""
        import dfm_em.kalman as kalman

        monkeypatch.setattr(kalman, "_whitener", lambda *args: pytest.fail("the filter ran"))
        p = _draw(n=20, r=2).params
        with pytest.raises(ShapeError, match="^panel has 5 rows but Lambda has 20$"):
            kalman_filter(Panel(X=np.zeros((5, 10))), p, stationary_init(p))

    def test_init_state_size_against_r_refused(self):
        """A wrong-size InitState once died in a broadcast error."""
        draw = _draw(n=6, r=2)
        with pytest.raises(ShapeError, match="^InitState F0 has size 3 but "
                                             "Lambda has r=2 columns$"):
            kalman_filter(draw.panel, draw.params,
                          InitState(F0=np.zeros(3), P0=np.eye(3)))

    def test_smoother_params_of_other_r_refused(self):
        """Parameters of another r than the filter output's once died in a
        bare numpy matmul error."""
        draw = _draw(n=6, r=2)
        filt = kalman_filter(draw.panel, draw.params, stationary_init(draw.params))
        other = _draw(n=6, r=3).params
        with pytest.raises(ShapeError, match="^filter output has r=2 but "
                                             "Lambda has r=3 columns$"):
            kalman_smoother(filt, other)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_singular_solve_gives_nan(self, batch):
        """An exactly singular system comes back as NaN in the shape of
        the right-hand side, for the one-matrix and the batched call."""
        a = np.zeros(batch + (2, 2))
        b = np.ones(batch + (2, 2 if batch else 4))
        out = _solve(a, b)
        assert out.shape == b.shape and np.all(np.isnan(out))


def _special_case(name):
    """Inputs that exercise the collapse and the gain freeze: loadings of
    rank 1 and 0, a stationary model long enough to freeze the gain, and
    a random walk whose P_{t|t-1} is still growing at the end."""
    rng = np.random.default_rng(31)
    if name == "stationary_long":
        draw = _draw(n=5, T=150, r=3, q=2, tau=0.5, delta=0.2, seed=32)
        p = toeplitz_params(draw)
        return draw.panel, p, stationary_init(p)
    if name == "random_walk":
        p = DfmParams(Lambda=0.1 * rng.standard_normal((5, 2)), A=np.eye(2),
                      H=np.eye(2), gamma_e=rng.uniform(0.5, 1.5, 5))
        return (Panel(X=rng.standard_normal((5, 40))), p,
                InitState(F0=np.zeros(2), P0=np.eye(2)))
    lam = rng.standard_normal((5, 1))
    Lam = np.hstack([lam, -0.5 * lam]) if name == "rank1_loadings" else np.zeros((5, 2))
    p = DfmParams(Lambda=Lam, A=np.array([[0.6, 0.2], [0.0, 0.3]]),
                  H=np.array([[1.0], [0.5]]), gamma_e=rng.uniform(0.5, 1.5, 5))
    return Panel(X=rng.standard_normal((5, 12))), p, stationary_init(p)


SPECIAL_CASES = ["rank1_loadings", "zero_loadings", "stationary_long", "random_walk"]


class TestSpecialCases:
    @pytest.mark.parametrize("name", SPECIAL_CASES)
    def test_dense_oracle(self, name):
        panel, p, init = _special_case(name)
        r, T = p.r, panel.T
        filt = kalman_filter(panel, p, init)
        sm = kalman_smoother(filt, p)
        pm, pc, ll = dense_joint_moments(panel, p, init)
        F_o, P_o, C_o = oracle_state_blocks(pm, pc, r, T)
        assert abs(filt.loglik - ll) < 1e-8
        assert np.max(np.abs(sm.F_smooth - F_o)) < 1e-8
        assert np.max(np.abs(sm.P_smooth - P_o)) < 1e-8
        assert np.max(np.abs(sm.C_lag1 - C_o)) < 1e-8

    def test_stationary_case_ends_with_a_frozen_gain(self):
        panel, p, init = _special_case("stationary_long")
        filt = kalman_filter(panel, p, init)
        assert np.array_equal(filt.P_pred[-1], filt.P_pred[-2])
        assert np.array_equal(filt.W[-1], filt.W[-2])

    def test_random_walk_case_gain_never_freezes(self):
        panel, p, init = _special_case("random_walk")
        filt = kalman_filter(panel, p, init)
        tr = np.trace(filt.P_pred, axis1=1, axis2=2)
        assert np.all(np.diff(tr) > 0.0)


def _rel(a, b):
    """Largest absolute difference relative to the largest entry of a."""
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300)


class TestWhitening:
    def test_diagonal_route_is_elementwise(self):
        """A diagonal Gamma gives Lambda / gamma, sym((Lambda / sqrt gamma)'
        (Lambda / sqrt gamma)), sum log gamma and, over one row block, the
        norms (1 / gamma)'(X - L F)^2, to the bit."""
        rng = np.random.default_rng(44)
        n, T, r = 20, 50, 3
        Lam, X = rng.standard_normal((n, r)), rng.standard_normal((n, T))
        F, gamma = rng.standard_normal((r, T)), rng.uniform(0.5, 1.5, n)
        p = DfmParams(Lambda=Lam, A=0.5 * np.eye(r), H=np.eye(r), gamma_e=gamma)
        Lg, M, norms, logdet = _whitener(p)
        Lw = Lam / np.sqrt(gamma)[:, None]
        E = X - Lam @ F
        assert np.array_equal(Lg, Lam / gamma[:, None])
        assert np.array_equal(M, 0.5 * (Lw.T @ Lw + (Lw.T @ Lw).T))
        assert logdet == float(np.sum(np.log(gamma)))
        assert np.array_equal(norms(X, Lam, F), (1.0 / gamma) @ (E * E))

    @pytest.mark.parametrize("k", [2, 1, 0])
    def test_diagonal_and_full_gamma_agree(self, k):
        """gamma_e as a vector (whitened elementwise) and np.diag of it as
        factors (inverted by Woodbury) give the same filter, for loadings
        of full rank (k = r), of rank one (k < r) and zero (k = 0)."""
        rng = np.random.default_rng(41)
        lam = rng.standard_normal((6, 2))
        Lam = {2: lam, 1: np.outer(lam[:, 0], [1.0, -0.5]), 0: 0.0 * lam}[k]
        gamma = rng.uniform(0.5, 1.5, 6)
        panel = Panel(X=rng.standard_normal((6, 15)))
        A = np.array([[0.6, 0.2], [0.0, 0.3]])
        init = InitState(F0=[0.3, -0.2], P0=np.eye(2))
        vec, full = (kalman_filter(panel, DfmParams(Lambda=Lam, A=A, H=np.eye(2),
                                                    **g), init)
                     for g in ({"gamma_e": gamma},
                               {"gamma_factors": factored(np.diag(gamma))}))
        assert abs(vec.loglik - full.loglik) <= 1e-12 * abs(vec.loglik)
        for name in ("F_filt", "W", "g"):
            assert _rel(getattr(vec, name), getattr(full, name)) <= 1e-12, name
        assert np.linalg.matrix_rank(vec.W[-1]) == k

    @pytest.mark.parametrize("n,T", [(30, 40), (3 * (_BLOCK_ELEMS // 160) + 1, 160)])
    def test_residual_term_keeps_its_digits_on_a_near_noiseless_panel(self, n, T):
        """Signal 1e12 times the noise variance. The log-likelihood of the
        panel is that of its projection Lambda V_k y_t (whose residual is
        zero) less half the sum of e_t' Gamma^{-1} e_t, summed here in
        extended precision. Taken as ||Gamma^{-1/2} x_t||^2 - y_t' D_k y_t,
        that sum would be the difference of two terms 1e12 times larger,
        and left with round-off only. The second panel spans four row
        blocks of the residual reduction."""
        rng = np.random.default_rng(43)
        Lam = rng.standard_normal((n, 1))
        gamma = 1e-12 * rng.uniform(0.5, 1.5, n)
        p = DfmParams(Lambda=Lam, A=np.array([[0.5]]), H=np.eye(1),
                      gamma_e=gamma)
        X = (Lam @ rng.standard_normal((1, T))
             + np.sqrt(gamma)[:, None] * rng.standard_normal((n, T)))
        Xl, Ll, gl = (np.asarray(a, dtype=np.longdouble) for a in (X, Lam, gamma))
        Lg = Ll / gl[:, None]
        E = Xl - Ll @ ((Lg.T @ Xl) / (Lg.T @ Ll))
        resid = float(np.sum(E * E / gl[:, None]))
        init = stationary_init(p)
        full = kalman_filter(Panel(X=X), p, init).loglik
        proj = kalman_filter(Panel(X=np.asarray(Xl - E, dtype=float)), p,
                             init).loglik
        assert abs((full - proj) + 0.5 * resid) <= 1e-10 * resid


class TestSmoother:
    def test_T1_smoother_equals_filter(self):
        draw = _draw(seed=8)
        p = draw.params
        panel = Panel(X=draw.panel.X[:, :1])
        filt = kalman_filter(panel, p, stationary_init(p))
        sm = kalman_smoother(filt, p)
        assert np.allclose(sm.F_smooth, filt.F_filt)
        assert np.allclose(sm.P_smooth, filt.P_filt)

    def test_endpoint_identity(self):
        draw = _draw(n=6, T=12, r=3, q=2, seed=9)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        sm = kalman_smoother(filt, draw.params)
        assert np.allclose(sm.F_smooth[:, -1], filt.F_filt[:, -1], atol=1e-12)
        assert np.allclose(sm.P_smooth[-1], filt.P_filt[-1], atol=1e-12)

    @pytest.mark.parametrize("r,q,tau,delta,seed", [
        (2, 2, 0.0, 0.0, 10),
        (3, 2, 0.0, 0.0, 11),
        (2, 1, 0.5, 0.2, 12),
        (4, 2, 0.5, 0.0, 13),
    ])
    def test_dense_oracle_equivalence(self, r, q, tau, delta, seed):
        """Smoothed means, MSEs and lag-1 cross-covariances against the
        direct joint-Gaussian projection (nT <= 60)."""
        draw = _draw(n=5, T=10, r=r, q=q, tau=tau, delta=delta, seed=seed)
        p = toeplitz_params(draw)
        init = stationary_init(p)
        filt = kalman_filter(draw.panel, p, init)
        sm = kalman_smoother(filt, p)
        pm, pc, _ = dense_joint_moments(draw.panel, p, init)
        F_o, P_o, C_o = oracle_state_blocks(pm, pc, r, draw.panel.T)
        assert np.max(np.abs(sm.F_smooth - F_o)) < 1e-8
        assert np.max(np.abs(sm.P_smooth - P_o)) < 1e-8
        assert np.max(np.abs(sm.C_lag1 - C_o)) < 1e-8
        # time-zero warm-start moments
        assert np.max(np.abs(sm.F0_smooth - pm[:r])) < 1e-8
        assert np.max(np.abs(sm.P0_smooth - pc[:r, :r])) < 1e-8

    def test_tiny_scalar_state_dense_case(self):
        draw = _draw(n=3, T=4, r=1, q=1, seed=14)
        p = draw.params
        init = stationary_init(p)
        filt = kalman_filter(draw.panel, p, init)
        sm = kalman_smoother(filt, p)
        pm, pc, _ = dense_joint_moments(draw.panel, p, init)
        F_o, _, _ = oracle_state_blocks(pm, pc, 1, 4)
        assert np.max(np.abs(sm.F_smooth - F_o)) < 1e-8

    def test_classical_equivalence_when_nonsingular(self):
        draw = _draw(n=8, T=15, r=3, q=3, seed=15)
        p = draw.params
        filt = kalman_filter(draw.panel, p, stationary_init(p))
        a = kalman_smoother(filt, p)
        b = kalman_smoother_classical(filt, p)
        assert np.max(np.abs(a.F_smooth - b.F_smooth)) < 1e-8
        assert np.max(np.abs(a.P_smooth - b.P_smooth)) < 1e-8
        assert np.max(np.abs(a.C_lag1 - b.C_lag1)) < 1e-8
        assert np.max(np.abs(a.F0_smooth - b.F0_smooth)) < 1e-8

    def test_smoothing_never_increases_uncertainty(self):
        draw = _draw(n=10, T=40, r=3, q=2, seed=16)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        sm = kalman_smoother(filt, draw.params)
        for t in range(40):
            assert np.trace(sm.P_smooth[t]) <= np.trace(filt.P_filt[t]) + 1e-10


class TestWoodbury:
    @staticmethod
    def _check(rng, n, m, rank):
        b = rng.uniform(0.5, 2.0, n)
        C = rng.standard_normal((n, m))
        G = rng.standard_normal((m, rank))
        A = G @ G.T
        direct = np.linalg.inv(np.diag(b) + C @ A @ C.T)
        wb = woodbury_inverse(b, C, A)
        assert np.max(np.abs(wb - direct)) / np.max(np.abs(direct)) < 1e-10

    def test_identity_against_direct_inverse(self, rng):
        self._check(rng, 12, 4, 4)

    def test_identity_with_singular_A(self, rng):
        self._check(rng, 10, 3, 1)

    def test_zero_A_reduces_to_diagonal(self):
        b = np.array([2.0, 4.0])
        out = woodbury_inverse(b, np.ones((2, 1)), np.zeros((1, 1)))
        assert np.allclose(out, np.diag([0.5, 0.25]))


def _recursion_loop(M, b, Q, backward=False):
    """x_t = M_t x_{t-1} + b_t and N_t = M_t N_{t-1} M_t' + Q_t one step at
    a time from zero, or with ``backward`` the same steps over reversed
    time, x_t = M_t x_{t+1} + b_t from x_T = 0."""
    x, N = np.zeros(b.shape[1]), np.zeros(Q.shape[1:])
    xs, Ns = np.empty_like(b), np.empty_like(Q)
    for t in (reversed(range(len(b))) if backward else range(len(b))):
        xs[t] = x = M[t] @ x + b[t]
        Ns[t] = N = M[t] @ N @ M[t].T + Q[t]
    return xs, Ns


def _recursion_case(T, r):
    rng = np.random.default_rng(100 * T + r)
    M = 0.9 * rng.standard_normal((T, r, r)) / np.sqrt(r)
    b = rng.standard_normal((T, r))
    G = rng.standard_normal((T, r, r))
    return M, b, G @ np.swapaxes(G, 1, 2)


class TestBidiagonalSolve:
    """The data recursions of the filter (forward) and the smoother
    (backward) as one band triangular solve each."""

    @pytest.mark.parametrize("T", [0, 1, 2, 3, 4, 7, 64, 101])
    @pytest.mark.parametrize("r", [1, 4, 8])
    @pytest.mark.parametrize("uplo", ["L", "U"])
    def test_matches_a_plain_loop(self, uplo, r, T):
        M, b, Q = _recursion_case(T, r)
        x = _bidiagonal_solve(M, b, uplo)
        x_ref = _recursion_loop(M, b, Q, backward=uplo == "U")[0]
        assert x.shape == (T, r)
        if T:
            assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))

    def test_leaves_its_inputs_alone(self):
        M, b, _ = _recursion_case(7, 4)
        M0, b0 = M.copy(), b.copy()
        for uplo in ("L", "U"):
            _bidiagonal_solve(M, b, uplo)
        assert np.array_equal(M, M0) and np.array_equal(b, b0)


class TestScan:
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 7, 64, 101])
    @pytest.mark.parametrize("r", [1, 4, 8])
    def test_matches_a_plain_loop(self, T, r):
        M, b, Q = _recursion_case(T, r)
        N = _scan(M, Q)
        N_ref = _recursion_loop(M, b, Q)[1]
        assert np.max(np.abs(N - N_ref)) <= 1e-13 * np.max(np.abs(N_ref))


def _riccati_case(name):
    """Inputs (A, HH', P_{0|0}, V_k, D_k, T) of the Riccati pass."""
    rng = np.random.default_rng(41)
    if name in ("q_lt_r", "q_eq_r", "T0", "T1", "T2", "T3"):
        q = 4 if name == "q_eq_r" else 2
        p = _draw(n=100, T=100, r=4, q=q, tau=0.5, delta=0.2, seed=42).params
        T = int(name[1]) if name[0] == "T" else 100
        P0 = stationary_init(p).P0
    elif name == "r8_late_freeze":
        # a weakly loaded, persistent eighth factor: the gain freezes late
        Lam = rng.standard_normal((30, 8))
        Lam[:, -1] *= 0.2
        p = DfmParams(Lambda=Lam, A=np.diag(np.linspace(0.5, 0.9, 8)),
                      H=rng.standard_normal((8, 4)) / 2.0, gamma_e=np.ones(30))
        T, P0 = 300, np.eye(8)
    elif name == "explosive":
        p = DfmParams(Lambda=rng.standard_normal((5, 2)), A=1.05 * np.eye(2),
                      H=np.eye(2), gamma_e=np.ones(5))
        T, P0 = 60, np.eye(2)
    elif name in ("not_pd", "non_finite"):
        # the inputs of the filter's error-path tests
        lam = np.random.default_rng(0).standard_normal((5, 1))
        if name == "not_pd":
            p = DfmParams(Lambda=np.hstack([lam, 1e2 * lam[::-1]]),
                          A=np.diag([0.5, 10.0]), H=np.array([[1.0], [0.0]]),
                          gamma_e=np.ones(5))
            P0 = np.diag([1.0, -5e-9])
        else:
            p = DfmParams(Lambda=np.hstack([lam, 0.0 * lam]),
                          A=np.diag([0.5, 1e70]), H=np.eye(2), gamma_e=np.ones(5))
            P0 = np.eye(2)
        T = 6
    else:
        panel, p, init = _special_case(name)
        T, P0 = panel.T, init.P0
    Lw = p.Lambda / np.sqrt(p.gamma_e)[:, None]
    d, Vk = _observed_directions(Lw.T @ Lw)
    return p.A, p.H @ p.H.T, P0, Vk, d, T


@pytest.mark.parametrize("d, kept", [([1e-12, 1.0], 1), ([1e-12, 100.0], 1),
                                     ([2e-12, 1.0], 2), ([0.0, 0.0], 0),
                                     ([-2.0, -1.0], 0)])
def test_rank_rule_keeps_eigenvalues_above_1e12_of_the_largest(d, kept):
    """A direction is observed when its D_k exceeds 1e-12 D_max, strictly,
    and none is when D_max is not positive."""
    assert _observed_directions(np.diag(d))[0].size == kept


def _freeze_index(P_pred, T_ok):
    """First t from which every P_{t|t-1} repeats its predecessor (None
    if the pass never froze)."""
    t = T_ok
    while t > 1 and np.array_equal(P_pred[t - 1], P_pred[t - 2]):
        t -= 1
    return t if t < T_ok else None


class TestRiccati:
    @pytest.mark.parametrize("name", [
        "q_lt_r", "q_eq_r", "r8_late_freeze", "rank1_loadings", "zero_loadings",
        "random_walk", "explosive", "T0", "T1", "T2", "T3", "not_pd", "non_finite"])
    def test_matches_the_step_loop(self, name):
        """The prefix-doubling pass against the one-step-per-time-point
        loop: the same stop and reason, every array within 1e-12 relative.
        Both freeze once consecutive P_{t|t-1} agree to round-off, which
        each reaches through its own rounding; in slowly converging cases
        the two can freeze one step apart."""
        args = _riccati_case(name)
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = _riccati(*args), riccati_step_loop(*args)
        T_ok = ref[4]
        assert got[4:] == ref[4:]
        assert name not in ("not_pd", "non_finite") or T_ok < args[-1]
        frz_got, frz_ref = _freeze_index(got[0], T_ok), _freeze_index(ref[0], T_ok)
        assert (frz_got is None) == (frz_ref is None)
        assert frz_ref is None or abs(frz_got - frz_ref) <= 1
        assert name != "r8_late_freeze" or frz_ref > 100
        for a, b in zip(got[:4], ref[:4]):
            a, b = a[:T_ok], b[:T_ok]
            if b.size:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _filter_only_output():
    """The filter run of a ``filter_only`` Monte Carlo replication."""
    draw = _draw(n=15, T=30, r=4, q=2, tau=0.5, delta=0.2, seed=18)
    return kalman_filter(draw.panel, draw.params, stationary_init(draw.params))


class TestSteadyState:
    @pytest.mark.parametrize("q,message", [
        (0, "q must be >= 1, got 0"),
        (1.5, "q must be an integer, got 1.5"),
    ])
    def test_bad_shock_count_refused(self, q, message):
        """q = 0 used to divide the traces by zero."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            steady_state_diagnostics(_filter_only_output(), q)

    def test_matches_the_per_step_loop(self):
        filt = _filter_only_output()
        diag = steady_state_diagnostics(filt, 2)
        t_bar = None
        for t in range(1, filt.T):
            if np.linalg.norm(filt.P_pred[t] - filt.P_pred[t - 1], 2) < 1e-8:
                t_bar = t + 1
                break
        assert t_bar is not None and diag.t_bar == t_bar
        k = min(filt.T - 1, 5)
        assert np.array_equal(diag.tr_pred, [np.trace(filt.P_pred[t]) / 2
                                             for t in range(1, k + 1)])
        assert np.array_equal(diag.tr_filt, [np.trace(filt.P_filt[t]) * filt.n / 2
                                             for t in range(1, k + 1)])

    def test_a_step_of_exactly_the_tolerance_is_not_steady(self):
        """t_bar needs a step below 1e-8: P_{t|t-1} = 0, 1e-8, 1e-8 is steady
        from the third period, not the second."""
        P = np.array([0.0, 1e-8, 1e-8]).reshape(3, 1, 1)
        diag = steady_state_diagnostics(SimpleNamespace(T=3, n=1, P_pred=P, P_filt=P), 1)
        assert diag.t_bar == 3

    def test_t_bar_is_none_when_never_reached(self):
        """With zero loadings and A = I nothing is observed, and P_{t|t-1}
        grows by HH' = I every step."""
        p = DfmParams(Lambda=np.zeros((4, 2)), A=np.eye(2), H=np.eye(2),
                      gamma_e=np.ones(4))
        filt = kalman_filter(Panel(X=np.zeros((4, 10))), p,
                             InitState(F0=np.zeros(2), P0=np.eye(2)))
        assert np.allclose(np.diff(filt.P_pred, axis=0), np.eye(2))
        assert steady_state_diagnostics(filt, 2).t_bar is None

    def test_A_zero_reaches_steady_state_at_t2(self):
        p = DfmParams(Lambda=np.ones((4, 2)), A=np.zeros((2, 2)),
                      H=np.eye(2), gamma_e=np.ones(4))
        panel = Panel(X=np.zeros((4, 10)))
        filt = kalman_filter(panel, p, InitState(F0=np.zeros(2), P0=np.eye(2)))
        diag = steady_state_diagnostics(filt, 2)
        assert diag.t_bar == 2
        # P_pred = HH' = I for every t >= 2 when A = 0
        assert np.allclose(filt.P_pred[1:], np.eye(2))

    def test_short_filter_reports_its_T_minus_1_traces(self):
        """At T = 4 there are three periods after the first to report."""
        draw = _draw(n=10, T=4, r=3, q=2, seed=17)
        filt = kalman_filter(draw.panel, draw.params, stationary_init(draw.params))
        diag = steady_state_diagnostics(filt, 2)
        assert diag.tr_pred.shape == diag.tr_filt.shape == (3,)
        assert np.array_equal(diag.tr_filt,
                              np.trace(filt.P_filt[1:], axis1=1, axis2=2) * filt.n / 2)

    def test_traces_reported_up_to_five(self):
        draw = _draw(n=10, T=30, r=3, q=2, seed=17)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        diag = steady_state_diagnostics(filt, 2)
        assert diag.tr_pred.shape == (5,)
        assert diag.tr_filt.shape == (5,)
        assert np.all(diag.tr_pred > 0)
