import dataclasses
import warnings

import numpy as np
import pytest

from dfm_em import (
    DgpConfig,
    EmConfig,
    ModelDims,
    Panel,
    PcEstimate,
    draw_dgp,
    e_step,
    ecm_fit,
    em_fit,
    m_step,
    pc_estimate,
    ridge_fit,
)
from dfm_em import em as em_module
from dfm_em.em import AscentViolationError, EmDivergenceError, EmError, \
    SufficientStats, build_stats
from dfm_em.kalman import stationary_init
from dfm_em.model import ShapeError
from dfm_em.pca import _column_signs, _shock_loading
from conftest import dense_joint_moments, oracle_state_blocks, toeplitz_params, \
    traced_call

ALL_FITS = pytest.mark.parametrize("fit", [em_fit, ridge_fit, ecm_fit],
                                   ids=lambda f: f.__name__)


def _known_factor_stats(X, F):
    """Sufficient statistics in the known-factor limit (zero smoother MSE)."""
    T = X.shape[1]
    return SufficientStats(
        S_xF=X @ F.T,
        S_FF=F @ F.T,
        S_FF_lag=F[:, 1:] @ F[:, :-1].T,
        S_FF_head=F[:, 1:] @ F[:, 1:].T,
        S_FF_tail=F[:, :-1] @ F[:, :-1].T,
        S_P=np.zeros((F.shape[0], F.shape[0])),
        F_smooth=F,
    )


class TestEStep:
    def test_stats_match_dense_oracle(self):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=4, T=8, r=2, q=2), seed=1))
        p = draw.params
        init = stationary_init(p)
        smooth, loglik = e_step(draw.panel, p, init)
        stats = build_stats(draw.panel, smooth)
        pm, pc, ll = dense_joint_moments(draw.panel, p, init)
        F_o, P_o, C_o = oracle_state_blocks(pm, pc, 2, 8)
        S_FF_o = F_o @ F_o.T + P_o.sum(axis=0)
        S_lag_o = F_o[:, 1:] @ F_o[:, :-1].T + C_o[1:].sum(axis=0)
        assert np.max(np.abs(stats.S_FF - S_FF_o)) < 1e-7
        assert np.max(np.abs(stats.S_FF_lag - S_lag_o)) < 1e-7
        assert abs(loglik - ll) < 1e-6

    def test_head_and_tail_sums_match_dense_oracle(self):
        """S_FF_head sums F F' + P over t = 2..T and S_FF_tail over t = 1..T-1."""
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=4, T=8, r=2, q=2), seed=1))
        init = stationary_init(draw.params)
        stats = build_stats(draw.panel, e_step(draw.panel, draw.params, init)[0])
        F_o, P_o, _ = oracle_state_blocks(*dense_joint_moments(draw.panel, draw.params,
                                                               init)[:2], 2, 8)
        for got, t in ((stats.S_FF_head, slice(1, None)), (stats.S_FF_tail, slice(None, -1))):
            assert np.max(np.abs(got - F_o[:, t] @ F_o[:, t].T - P_o[t].sum(axis=0))) < 1e-7

    def test_noiseless_self_consistency(self, rng):
        n, T, r = 20, 60, 2
        Lam = rng.standard_normal((n, r))
        A = 0.5 * np.eye(r)
        F = np.zeros((r, T))
        for t in range(1, T):
            F[:, t] = A @ F[:, t - 1] + rng.standard_normal(r)
        X = Lam @ F
        from dfm_em.model import DfmParams

        p = DfmParams(Lambda=Lam, A=A, H=np.eye(r), gamma_e=np.full(n, 1e-6))
        smooth, _ = e_step(Panel(X=X), p, stationary_init(p))
        stats = build_stats(Panel(X=X), smooth)
        Lam_hat = np.linalg.solve(stats.S_FF, stats.S_xF.T).T
        assert np.max(np.abs(Lam_hat - Lam)) < 1e-6

    def test_T1_lag_stats_are_empty_sums(self):
        from dfm_em.model import DfmParams

        p = DfmParams(Lambda=np.ones((3, 1)), A=np.array([[0.5]]),
                      H=np.eye(1), gamma_e=np.ones(3))
        smooth, _ = e_step(Panel(X=np.ones((3, 1))), p,
                           stationary_init(p))
        stats = build_stats(Panel(X=np.ones((3, 1))), smooth)
        assert np.array_equal(stats.S_FF_lag, np.zeros((1, 1)))
        assert np.array_equal(stats.S_FF_head, np.zeros((1, 1)))

    def test_S_FF_positive_definite(self):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=10, T=30, r=3, q=2), seed=2))
        smooth, _ = e_step(draw.panel, draw.params,
                           stationary_init(draw.params))
        stats = build_stats(draw.panel, smooth)
        assert np.min(np.linalg.eigvalsh(stats.S_FF)) > 0


def _vector_stats(T, S_FF_head):
    """Statistics at which the M-step's A is 0 and its Gom is S_FF_head / T."""
    return SufficientStats(S_xF=np.zeros((5, 2)), S_FF=np.eye(2),
                           S_FF_lag=np.zeros((2, 2)), S_FF_head=S_FF_head,
                           S_FF_tail=np.eye(2), S_P=np.zeros((2, 2)),
                           F_smooth=np.zeros((2, T)))


class TestMStep:
    def test_known_factor_closed_forms(self, rng):
        """With zero smoother MSE the M-step reproduces the closed-form
        estimators obtained by treating the factors as observed."""
        n, T, r, q = 8, 40, 3, 3
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        X = Lam @ F + 0.5 * rng.standard_normal((n, T))
        stats = _known_factor_stats(X, F)
        out = m_step(stats, Panel(X=X), q)

        Lam_star = np.linalg.solve(F @ F.T, F @ X.T).T
        assert np.max(np.abs(out.Lambda - Lam_star)) < 1e-10

        resid = X - Lam_star @ F
        gamma_star = np.mean(resid**2, axis=1)
        assert np.max(np.abs(out.gamma_e - gamma_star)) < 1e-10

        A_star = (F[:, 1:] @ F[:, :-1].T) @ np.linalg.inv(F[:, :-1] @ F[:, :-1].T)
        assert np.max(np.abs(out.A - A_star)) < 1e-10

        vres = F[:, 1:] - A_star @ F[:, :-1]
        Gom_star = vres @ vres.T / T
        assert np.max(np.abs(out.H @ out.H.T - Gom_star)) < 1e-10

    def test_q_equals_r_loads_the_unshrunk_eigenpairs(self):
        """At q = r, H is the start's shock loading of Gom, with no shrink:
        here A = 0 and Gom = S_FF_head / T, of eigenvalues 3 +- sqrt(2)."""
        T = 10
        stats = _vector_stats(T, T * np.array([[4.0, 1.0], [1.0, 2.0]]))
        out = m_step(stats, Panel(X=np.zeros((5, T))), q=2)
        Gom = stats.S_FF_head / T
        assert np.array_equal(out.H, _shock_loading(Gom, 2)[0])
        assert np.max(np.abs(out.H @ out.H.T - Gom)) < 1e-12

    @pytest.mark.parametrize("head,q", [(np.diag([9.0, 1.0]), 1),
                                        (np.diag([1.0, -1e-3]), 2)],
                             ids=["q_below_r", "negative_at_q_equal_r"])
    def test_no_clamp_warning(self, head, q):
        """The warning is for the q < r shrink only: none when the top-q
        eigenvalues clear it, and none when a negative eigenvalue of Gom
        is clamped at q = r."""
        T = 10
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = m_step(_vector_stats(T, T * head), Panel(X=np.zeros((5, T))), q=q)
        assert np.all(np.isfinite(out.H)) and np.max(np.abs(out.H)) > 0.0

    def test_top_eigenpair_q_less_r(self):
        """H loads the top eigenpair, its eigenvalue shrunk by 0.1/T and
        signed by its first nonzero entry: in the second input that is
        row 1, since row 0 is zero."""
        T = 10
        X = np.zeros((5, T))
        h = np.sqrt(9.0 - 0.1 / T)
        for head, want in ((np.diag([9.0, 1.0]), [[h], [0.0]]),
                           (np.diag([1.0, 9.0]), [[0.0], [h]])):
            out = m_step(_vector_stats(T, T * head), Panel(X=X), q=1)
            assert np.allclose(out.H, want, atol=1e-12)

    def test_eigenvalue_clamp_warns(self):
        """Gom's top eigenvalue 1e-9 lies below the shrink 0.1/T = 0.01."""
        T = 10
        stats = _vector_stats(T, T * np.diag([1e-9, 1e-10]))
        with pytest.warns(RuntimeWarning):
            out = m_step(stats, Panel(X=np.zeros((5, T))), q=1)
        assert np.allclose(out.H, 0.0)

    @pytest.mark.parametrize("singular", ["S_FF", "S_FF_tail"])
    def test_singular_moment_raises_em_error(self, singular):
        T = 10
        fields = dict(S_xF=np.zeros((5, 2)), S_FF=np.eye(2),
                      S_FF_lag=np.zeros((2, 2)), S_FF_head=np.eye(2),
                      S_FF_tail=np.eye(2), S_P=np.zeros((2, 2)),
                      F_smooth=np.zeros((2, T)))
        fields[singular] = np.zeros((2, 2))
        with pytest.raises(EmError, match=f"{singular} numerically singular"):
            m_step(SufficientStats(**fields), Panel(X=np.zeros((5, T))), q=2)

    def test_gamma_exactly_diagonal(self):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=10, T=30, r=2, q=2),
                                  tau=0.5, seed=3))
        p = toeplitz_params(draw)
        smooth, _ = e_step(draw.panel, p, stationary_init(p))
        stats = build_stats(draw.panel, smooth)
        out = m_step(stats, draw.panel, 2)
        assert out.gamma_factors is None
        assert np.all(out.gamma_e > 0)


class TestEmConfig:
    @pytest.mark.parametrize("kw,message", [
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"epsilon": True}, "epsilon must be positive and finite, got True"),
        ({"epsilon": "1e-4"}, "epsilon must be a finite real number, got '1e-4'"),
        ({"epsilon": None}, "epsilon must be a finite real number, got None"),
        ({"epsilon": np.nan}, "epsilon must be a finite real number, got nan"),
        ({"epsilon": 0.0}, "epsilon must be positive and finite, got 0.0"),
    ])
    def test_invalid_config_refused_when_built(self, kw, message):
        """A fractional max_iter used to fail only after the PC start, True
        passed as 1, and a string or None epsilon raised an untyped
        TypeError."""
        with pytest.raises(ValueError, match=f"^{message}"):
            EmConfig(**kw)


class TestEmFit:
    def test_allocates_a_quarter_panel_beyond_its_outputs(self):
        """A diagonal fit holds no n x T array besides the panel: the PC
        start, the variance floor and every residual sum run by row
        blocks. The centred copy of the PC start alone was X.nbytes."""
        dims = ModelDims(n=4000, T=200, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=7))
        panel = Panel(X=draw.panel.X)  # its variance not yet computed
        _, peak, retained = traced_call(em_fit, panel, dims)
        assert peak <= retained + 0.25 * panel.X.nbytes

    def test_q_equals_r_keeps_the_start_sign_convention(self):
        """Each column of H has a positive first nonzero entry, as at the
        principal-components start, after every M-step at q = r."""
        dims = ModelDims(n=20, T=60, r=3, q=3)
        res = em_fit(draw_dgp(DgpConfig(dims=dims, seed=4)).panel, dims)
        assert res.iters >= 1
        assert np.array_equal(_column_signs(res.params.H), np.ones(3))

    def test_near_noiseless_variances_sit_on_the_floor(self):
        """On a near-noiseless panel every idiosyncratic variance is floored
        at 1e-8 of its series' sample variance, exactly."""
        rng = np.random.default_rng(3)
        n, T, r = 20, 80, 2
        Lam = rng.standard_normal((n, r))
        F = np.zeros((r, T))
        for t in range(1, T):
            F[:, t] = 0.6 * F[:, t - 1] + rng.standard_normal(r)
        panel = Panel(X=Lam @ F + 1e-6 * rng.standard_normal((n, T)))
        res = em_fit(panel, ModelDims(n=n, T=T, r=r, q=r))
        assert np.array_equal(res.params.gamma_e, 1e-8 * panel.var)

    def test_noiseless_recovery(self, rng):
        n, T, r = 20, 80, 2
        Lam = rng.standard_normal((n, r))
        A = 0.6 * np.eye(r)
        F = np.zeros((r, T))
        for t in range(1, T):
            F[:, t] = A @ F[:, t - 1] + rng.standard_normal(r)
        X = Lam @ F + 1e-4 * rng.standard_normal((n, T))
        res = em_fit(Panel(X=X), ModelDims(n=n, T=T, r=r, q=r))
        chi_hat = res.params.Lambda @ res.factors.F_smooth
        rmse = np.sqrt(np.mean((chi_hat - X) ** 2))
        assert res.converged
        assert rmse < 1e-3

    def test_loglik_nondecreasing(self):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=30, T=60, r=4, q=2),
                                  tau=0.5, delta=0.2, seed=4))
        res = em_fit(draw.panel, ModelDims(n=30, T=60, r=4, q=2),
                     EmConfig(max_iter=40))
        tr = res.loglik_trace
        assert np.all(np.diff(tr) >= -1e-8 * np.abs(tr[:-1]))

    @ALL_FITS
    def test_max_iter_honored(self, fit):
        dims = ModelDims(n=20, T=50, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=5))
        res = fit(draw.panel, dims, EmConfig(epsilon=1e-15, max_iter=3))
        assert res.iters == 3
        assert not res.converged
        assert res.loglik_trace.size == res.iters + 1

    @ALL_FITS
    def test_unit_root_initial_var(self, fit):
        """A unit-root initial VAR has no stationary state covariance; the
        first filter run then starts from P0 = I."""
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=3))
        pc = pc_estimate(draw.panel, dims.r, dims.q)
        res = fit(draw.panel, dims, EmConfig(max_iter=5),
                  init=dataclasses.replace(pc, A0=np.eye(dims.r)))
        assert res.loglik_trace.size >= 2
        assert np.all(np.isfinite(res.loglik_trace))

    @ALL_FITS
    def test_explosive_initial_var(self, fit):
        """An explosive initial VAR has no stationary state covariance
        either (the Lyapunov solution is indefinite); the first filter run
        also starts from P0 = I."""
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=3))
        pc = pc_estimate(draw.panel, dims.r, dims.q)
        res = fit(draw.panel, dims, EmConfig(max_iter=5),
                  init=dataclasses.replace(pc, A0=1.05 * np.eye(dims.r)))
        assert res.loglik_trace.size >= 2
        assert np.all(np.isfinite(res.loglik_trace))

    @ALL_FITS
    def test_warm_start_hand_over(self, monkeypatch, fit):
        """Iteration 0's filter starts from the PC factor value and the
        stationary covariance of the initial VAR; iteration k + 1's from
        iteration k's smoothed time-zero moments, bit for bit."""
        dims = ModelDims(n=20, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=3))
        pc = pc_estimate(draw.panel, dims.r, dims.q)
        real, seen = em_module.e_step, []

        def recording_e_step(panel, params, init):
            out = real(panel, params, init)
            seen.append((init, out[0]))
            return out

        monkeypatch.setattr(em_module, "e_step", recording_e_step)
        res = fit(draw.panel, dims, EmConfig(epsilon=1e-15, max_iter=4), init=pc)
        assert res.iters == 4 and len(seen) == 5
        p0 = stationary_init(dataclasses.replace(
            draw.params, A=pc.A0, H=pc.H0)).P0
        assert np.array_equal(seen[0][0].F0, pc.Ftilde[:, 0])
        assert np.array_equal(seen[0][0].P0, p0)
        for (_, smooth), (init, _) in zip(seen, seen[1:]):
            assert np.array_equal(init.F0, smooth.F0_smooth)
            assert np.array_equal(init.P0, smooth.P0_smooth)
        assert res.factors is seen[-1][1]

    @ALL_FITS
    def test_statistics_formed_once_per_m_step(self, monkeypatch, fit):
        """Each M-step forms the statistics it reads, once, and the last,
        converged E-step, which has no M-step, forms none."""
        dims = ModelDims(n=20, T=40, r=2, q=2)
        panel = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=3)).panel
        real, calls = em_module.build_stats, []

        def counted(panel, smooth):
            calls.append(smooth)
            return real(panel, smooth)

        monkeypatch.setattr(em_module, "build_stats", counted)
        res = fit(panel, dims)
        assert res.converged and len(calls) == res.iters >= 2
        assert all(smooth is not res.factors for smooth in calls)

    def test_permutation_equivariance(self):
        dims = ModelDims(n=15, T=40, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=6))
        # permutation fixing the first series, so the eigenvector sign
        # convention (anchored on series 1) is unaffected
        perm = np.concatenate([[0], np.arange(1, 15)[::-1]])
        res_a = em_fit(draw.panel, dims, EmConfig(max_iter=10, epsilon=1e-12))
        res_b = em_fit(Panel(X=draw.panel.X[perm]), dims,
                       EmConfig(max_iter=10, epsilon=1e-12))
        assert np.max(np.abs(res_a.params.Lambda[perm] - res_b.params.Lambda)) < 1e-8
        assert np.max(np.abs(res_a.params.gamma_e[perm] - res_b.params.gamma_e)) < 1e-8
        assert np.max(np.abs(res_a.factors.F_smooth - res_b.factors.F_smooth)) < 1e-8
        assert abs(res_a.loglik_trace[-1] - res_b.loglik_trace[-1]) < 1e-8 * abs(
            res_a.loglik_trace[-1])

    def test_truth_is_near_stationary_point(self):
        dims = ModelDims(n=100, T=100, r=4, q=4)
        draw = draw_dgp(DgpConfig(dims=dims, seed=7))
        p = draw.params
        init = PcEstimate(Lambda0=p.Lambda, Ftilde=draw.factors, A0=p.A,
                          H0=p.H, GammaE0=np.array(p.gamma_e),
                          eigvals=np.arange(4, 0, -1.0))
        res = em_fit(draw.panel, dims, EmConfig(epsilon=1e-15, max_iter=3),
                     init=init)
        tr = res.loglik_trace
        rel = np.abs(np.diff(tr)) / np.abs(tr[:-1])
        # per-iteration relative change collapses within 3 iterations
        assert np.all(np.diff(rel) < 0)
        assert rel[-1] < 1e-4


def _patch_logliks(monkeypatch, values):
    """Make the k-th E-step of the EM loop report ``values[k]`` (the last
    value from then on) as its log-likelihood."""
    real, seen = em_module.e_step, []

    def e_step_stub(panel, params, init=None):
        smooth, _ = real(panel, params, init)
        seen.append(values[min(len(seen), len(values) - 1)])
        return smooth, seen[-1]

    monkeypatch.setattr(em_module, "e_step", e_step_stub)


class TestFitFailures:
    dims = ModelDims(n=20, T=40, r=2, q=2)

    def _panel(self):
        return draw_dgp(DgpConfig(dims=self.dims, seed=9)).panel

    def test_falling_loglik_raises_ascent_violation(self, monkeypatch):
        _patch_logliks(monkeypatch, [-100.0, -200.0])
        with pytest.raises(AscentViolationError) as err:
            em_fit(self._panel(), self.dims, EmConfig(max_iter=5))
        assert err.value.iteration == 1

    @pytest.mark.parametrize("fall, raises", [(0.5e-8, False), (1e-8, False), (2e-8, True)])
    def test_ascent_slack_boundary(self, monkeypatch, fall, raises):
        """The guard forgives a fall of up to 1e-8 of |l|: a fall of half
        that, or of exactly that, at iteration 2 is kept, and one of twice
        that raises there."""
        _patch_logliks(monkeypatch, [-1000.0, -990.0, -990.0 - fall * 990.0])
        if raises:
            with pytest.raises(AscentViolationError) as err:
                em_fit(self._panel(), self.dims, EmConfig(max_iter=5))
            assert err.value.iteration == 2
        else:
            res = em_fit(self._panel(), self.dims, EmConfig(max_iter=5))
            assert res.loglik_trace.tolist() == [-1000.0, -990.0, -990.0 - fall * 990.0]
            assert res.converged and res.iters == 2

    @pytest.mark.parametrize("fit", [ridge_fit, ecm_fit],
                             ids=lambda f: f.__name__)
    def test_ridge_and_ecm_do_not_guard_ascent(self, monkeypatch, fit):
        """Neither ascends the likelihood itself, so a fall is not an error."""
        _patch_logliks(monkeypatch, [-100.0, -200.0])
        res = fit(self._panel(), self.dims, EmConfig(max_iter=5))
        assert res.loglik_trace.tolist() == [-100.0, -200.0, -200.0]
        assert res.converged

    def test_zero_sum_logliks_stop(self, monkeypatch):
        """With l_1 + l_0 = 0 the relative change has no denominator; the
        stop rule reads it as zero, so the fit stops, converged."""
        _patch_logliks(monkeypatch, [-1.0, 1.0])
        res = em_fit(self._panel(), self.dims, EmConfig(max_iter=5))
        assert res.loglik_trace.tolist() == [-1.0, 1.0]
        assert res.converged and res.iters == 1

    def test_relative_change_of_epsilon_does_not_stop(self, monkeypatch):
        """|l_1 - l_0| / |l_1 + l_0| = 2 / 4 is not below epsilon = 0.5,
        so the fit goes on to the flat step."""
        _patch_logliks(monkeypatch, [-3.0, -1.0])
        res = em_fit(self._panel(), self.dims, EmConfig(epsilon=0.5, max_iter=5))
        assert res.loglik_trace.tolist() == [-3.0, -1.0, -1.0]
        assert res.converged and res.iters == 2

    def test_nonfinite_loglik_raises_divergence(self, monkeypatch):
        _patch_logliks(monkeypatch, [-100.0, np.nan])
        with pytest.raises(EmDivergenceError) as err:
            em_fit(self._panel(), self.dims, EmConfig(max_iter=5))
        assert err.value.iteration == 1

    @ALL_FITS
    def test_init_of_other_ranks_refused(self, fit):
        """An r = 3 start under r = 4 dims once fitted r = 3 and reported
        converged=True."""
        dims = ModelDims(n=30, T=60, r=4, q=2)
        panel = draw_dgp(DgpConfig(dims=dims, seed=1)).panel
        with pytest.raises(ShapeError, match=r"^init Lambda0 has shape \(30, 3\) "
                                             r"but ModelDims\(n=30, T=60, r=4, q=2\) "
                                             r"needs \(30, 4\)$"):
            fit(panel, dims, init=pc_estimate(panel, 3, 2))

    @ALL_FITS
    @pytest.mark.parametrize("name", ["Lambda0", "Ftilde", "A0", "H0", "GammaE0"])
    def test_init_field_shapes_refused_before_any_work(self, monkeypatch, fit, name):
        monkeypatch.setattr(em_module, "e_step", lambda *args: pytest.fail("the loop ran"))
        shape = {"Lambda0": (20, 3), "Ftilde": (2, 39), "A0": (2, 1),
                 "H0": (2, 1), "GammaE0": (19,)}[name]
        init = dataclasses.replace(pc_estimate(self._panel(), 2, 2),
                                   **{name: np.zeros(shape)})
        with pytest.raises(ShapeError, match=f"^init {name} has shape"):
            fit(self._panel(), self.dims, init=init)

    @ALL_FITS
    @pytest.mark.parametrize("wrong", [{"n": 300}, {"T": 39}])
    def test_dims_must_match_panel(self, fit, wrong):
        """ridge_fit's n^2/T rule reads dims, so a mismatch would silently
        change its regularization."""
        dims = dataclasses.replace(self.dims, **wrong)
        with pytest.raises(ShapeError, match="does not match the 20 x 40 panel"):
            fit(self._panel(), dims)
