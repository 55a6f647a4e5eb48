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
    kalman_smoother_classical,
    oracle_state_blocks,
    woodbury_inverse,
)


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
            init = stationary_init(draw.params)
            filt = kalman_filter(draw.panel, draw.params, init)
            _, _, ll = dense_joint_moments(draw.panel, draw.params, init)
            assert abs(filt.loglik - ll) < 1e-6

    def test_prediction_mse_norm_monotone(self):
        draw = _draw(n=20, T=50, r=3, q=2, seed=6)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        norms = [np.linalg.norm(P, 2) for P in filt.P_pred]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10

    def test_P_matrices_symmetric_psd(self):
        draw = _draw(n=10, T=30, r=3, q=2, seed=7)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        for P in list(filt.P_pred) + list(filt.P_filt):
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

    def test_singular_noise_flags_time_index(self):
        p = DfmParams(Lambda=np.ones((3, 1)), A=np.array([[0.5]]),
                      H=np.ones((1, 1)), gamma_e=np.zeros(3))
        with pytest.raises(FilterNumericalError) as err:
            kalman_filter(Panel(X=np.zeros((3, 4))), p,
                          InitState(F0=[0.0], P0=[[1.0]]))
        assert err.value.t == 1


def _special_case(name):
    """Inputs that exercise the collapse and the gain freeze: loadings of
    rank 1 and 0, a stationary model long enough to freeze the gain, and
    a random walk whose P_{t|t-1} is still growing at the end."""
    rng = np.random.default_rng(31)
    if name == "stationary_long":
        draw = _draw(n=5, T=150, r=3, q=2, tau=0.5, delta=0.2, seed=32)
        return draw.panel, draw.params, stationary_init(draw.params)
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
        assert np.max(np.abs(sm.C_lag1[1:] - C_o[1:])) < 1e-8

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
        p = draw.params
        init = stationary_init(p)
        filt = kalman_filter(draw.panel, p, init)
        sm = kalman_smoother(filt, p)
        pm, pc, _ = dense_joint_moments(draw.panel, p, init)
        F_o, P_o, C_o = oracle_state_blocks(pm, pc, r, draw.panel.T)
        assert np.max(np.abs(sm.F_smooth - F_o)) < 1e-8
        assert np.max(np.abs(sm.P_smooth - P_o)) < 1e-8
        assert np.max(np.abs(sm.C_lag1[1:] - C_o[1:])) < 1e-8
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
        assert np.max(np.abs(a.C_lag1[1:] - b.C_lag1[1:])) < 1e-8
        assert np.max(np.abs(a.F0_smooth - b.F0_smooth)) < 1e-8

    def test_smoothing_never_increases_uncertainty(self):
        draw = _draw(n=10, T=40, r=3, q=2, seed=16)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        sm = kalman_smoother(filt, draw.params)
        for t in range(40):
            assert np.trace(sm.P_smooth[t]) <= np.trace(filt.P_filt[t]) + 1e-10


class TestWoodbury:
    def test_identity_against_direct_inverse(self, rng):
        n, m = 12, 4
        b = rng.uniform(0.5, 2.0, n)
        C = rng.standard_normal((n, m))
        G = rng.standard_normal((m, m))
        A = G @ G.T
        direct = np.linalg.inv(np.diag(b) + C @ A @ C.T)
        wb = woodbury_inverse(b, C, A)
        rel = np.max(np.abs(wb - direct)) / np.max(np.abs(direct))
        assert rel < 1e-10

    def test_identity_with_singular_A(self, rng):
        n, m = 10, 3
        b = rng.uniform(0.5, 2.0, n)
        C = rng.standard_normal((n, m))
        G = rng.standard_normal((m, 1))
        A = G @ G.T  # rank 1
        direct = np.linalg.inv(np.diag(b) + C @ A @ C.T)
        wb = woodbury_inverse(b, C, A)
        assert np.max(np.abs(wb - direct)) / np.max(np.abs(direct)) < 1e-10

    def test_zero_A_reduces_to_diagonal(self):
        b = np.array([2.0, 4.0])
        out = woodbury_inverse(b, np.ones((2, 1)), np.zeros((1, 1)))
        assert np.allclose(out, np.diag([0.5, 0.25]))


class TestSteadyState:
    def test_A_zero_reaches_steady_state_at_t2(self):
        p = DfmParams(Lambda=np.ones((4, 2)), A=np.zeros((2, 2)),
                      H=np.eye(2), gamma_e=np.ones(4))
        panel = Panel(X=np.zeros((4, 10)))
        filt = kalman_filter(panel, p, InitState(F0=np.zeros(2), P0=np.eye(2)))
        diag = steady_state_diagnostics(filt, 2)
        assert diag.t_bar == 2
        # P_pred = HH' = I for every t >= 2 when A = 0
        assert np.allclose(filt.P_pred[1:], np.eye(2))

    def test_traces_reported_up_to_five(self):
        draw = _draw(n=10, T=30, r=3, q=2, seed=17)
        filt = kalman_filter(draw.panel, draw.params,
                             stationary_init(draw.params))
        diag = steady_state_diagnostics(filt, 2)
        assert diag.tr_pred.shape == (5,)
        assert diag.tr_filt.shape == (5,)
        assert np.all(diag.tr_pred > 0)
