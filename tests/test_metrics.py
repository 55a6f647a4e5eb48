import contextlib
from dataclasses import replace

import numpy as np
import pytest

from dfm_em import (
    BURN_IN_T,
    DEFAULT_ALPHAS,
    HIST_EDGES,
    DgpConfig,
    EmConfig,
    McCell,
    ModelDims,
    ZAccumulator,
    asvar_matrices,
    common_mse,
    draw_dgp,
    ecm_fit,
    em_fit,
    ridge_fit,
    run_cell,
    trace_statistic,
    z_scores,
)
from dfm_em.em import EmResult
from dfm_em.kalman import SmootherOutput
from dfm_em.metrics import _NORMAL_QUANTILES
from dfm_em.model import DfmParams, _row_blocks
from dfm_em.simulate import stream
from conftest import ar1_precision, dense_gamma, traced_call


def _make_result(Lambda, F, gamma_e, A=None, H=None, gamma_factors=None,
                 rho=None):
    n, r = Lambda.shape
    T = F.shape[1]
    params = DfmParams(
        Lambda=Lambda,
        A=0.5 * np.eye(r) if A is None else A,
        H=np.eye(r) if H is None else H,
        gamma_e=gamma_e,
        rho=rho,
        gamma_factors=gamma_factors,
    )
    smooth = SmootherOutput(
        F_smooth=F,
        P_smooth=np.zeros((T, r, r)),
        C_lag1=np.zeros((T, r, r)),
        F0_smooth=np.zeros(r),
        P0_smooth=np.eye(r),
    )
    return EmResult(params=params, factors=smooth,
                    loglik_trace=np.zeros(1), iters=0, converged=True)


def _coverage(Z):
    acc = ZAccumulator()
    acc.update(Z)
    return acc.table()


class TestTraceStatistic:
    def test_self_is_one(self, rng):
        F = rng.standard_normal((3, 40))
        assert trace_statistic(F, F) == 1.0

    def test_invertible_rotation_invariance(self, rng):
        F = rng.standard_normal((3, 40))
        R = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        a = trace_statistic(F, F)
        b = trace_statistic(F, (R @ F))
        assert abs(a - b) < 1e-10

    def test_orthogonal_estimate_is_zero(self):
        true = np.array([[1.0, 0.0]])  # k=1, T=2
        est = np.array([[0.0, 1.0]])
        assert trace_statistic(true, est) == 0.0

    def test_orientation_agnostic(self, rng):
        F = rng.standard_normal((2, 30))
        G = rng.standard_normal((2, 30))
        assert np.isclose(trace_statistic(F, G),
                          trace_statistic(F.T, G.T))

    def test_rank_deficient_estimate_raises(self, rng):
        F = rng.standard_normal((2, 30))
        bad = np.vstack([F[0], F[0]])
        with pytest.raises(np.linalg.LinAlgError):
            trace_statistic(F, bad)

    @pytest.mark.parametrize("small, refused", [(1e-10, True), (1.5e-6, False)])
    def test_rank_tolerance_is_1e12_of_the_trace(self, small, refused):
        """G = diag(1e6, small) is rank deficient when small is under 1e-12
        of its trace, and not when small is over it."""
        Mh = np.diag([1e3, np.sqrt(small), 0.0])[:, :2]
        with (pytest.raises(np.linalg.LinAlgError) if refused else contextlib.nullcontext()):
            trace_statistic(np.eye(3, 2), Mh)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            trace_statistic(np.zeros((2, 10)), np.zeros((3, 10)))

    def test_value_capped_at_one(self, rng):
        """An estimate spanning the true space gives 1 up to round-off; on
        about a fifth of these draws the uncapped ratio lands above 1."""
        for _ in range(50):
            F = rng.standard_normal((3, 40))
            R = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            assert 1.0 - 1e-12 < trace_statistic(F, R @ F) <= 1.0


class TestMse:
    def test_equal_is_zero(self, rng):
        chi = rng.standard_normal((4, 9))
        assert common_mse(chi, chi) == 0.0

    def test_unit_offset_is_one(self, rng):
        chi = rng.standard_normal((4, 9))
        assert np.isclose(common_mse(chi, chi + 1.0), 1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            common_mse(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_relative_is_ratio(self):
        rep = run_cell(McCell(label="c", n=12, T=25, r=2, q=2), B=2, base_seed=0)
        assert np.isclose(rep.stats["rel_mse"],
                          rep.stats["mse_em"] / rep.stats["mse_pc"], rtol=1e-12)


class TestAsvar:
    def test_all_ones_case(self):
        """r=1, F == 1, lambda == 1, gamma == 1: every inner matrix is the
        scalar 1, so W = V = 1 for all (i, t)."""
        n, T = 7, 11
        res = _make_result(np.ones((n, 1)), np.ones((1, T)), np.ones(n))
        W, V = asvar_matrices(res)
        assert np.allclose(W, 1.0, atol=1e-12)
        assert np.allclose(V, 1.0, atol=1e-12)
        assert W.shape == (n,) and V.shape == (n, T)

    def test_nonnegative(self, rng):
        n, r, T = 10, 2, 30
        res = _make_result(rng.standard_normal((n, r)),
                           rng.standard_normal((r, T)),
                           rng.uniform(0.5, 1.5, n))
        W, V = asvar_matrices(res)
        assert np.all(W >= 0) and np.all(V >= 0)

    def test_W_scale_equivariance(self, rng):
        """Scaling the loadings by c and the idiosyncratic variances by c^2
        (as a rescaled panel would) scales W by c^2."""
        n, r, T = 8, 2, 20
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        gam = rng.uniform(0.5, 1.5, n)
        c = 3.0
        W1, _ = asvar_matrices(_make_result(Lam, F, gam))
        W2, _ = asvar_matrices(_make_result(c * Lam, F, c**2 * gam))
        assert np.allclose(W2, c**2 * W1)

    def test_gls_v_at_rho_zero_matches_diag_ols(self, rng):
        """Where the rule switches: the AR(1)-weighted ("gls_v") V that any
        nonzero rho selects agrees at rho = 1e-300 with the white
        ("diag_ols") V of rho = 0, and W does not read rho."""
        n, r, T = 6, 2, 25
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        gam = rng.uniform(0.5, 1.5, n)
        W0, V0 = asvar_matrices(_make_result(Lam, F, gam))
        Wg, Vg = asvar_matrices(_make_result(Lam, F, gam, rho=np.full(n, 1e-300)))
        assert np.max(np.abs(Vg - V0)) < 1e-10
        assert np.max(np.abs(Wg - W0)) < 1e-10

    def test_gls_v_on_em_fit_matches_diag_ols(self):
        """An em_fit has a diagonal Gamma and rho = 0: W and V are the
        diagonal, serially uncorrelated ("diag_ols") formulas, bitwise,
        and the AR(1) weighting of rho = 1e-300 moves V by round-off. At
        seed 18, W from Lambda * (1 / gamma) differs from W0 in the last
        bit, so the bitwise check pins the division."""
        dims = ModelDims(n=20, T=50, r=2, q=2)
        for seed in (16, 18):
            draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, seed=seed))
            res = em_fit(draw.panel, dims, EmConfig(max_iter=10))
            Lam, F, g = res.params.Lambda, res.factors.F_smooth, res.params.gamma_e
            inner_W = Lam.T @ (Lam / g[:, None]) / dims.n
            W0 = np.einsum("ir,ir->i", Lam, np.linalg.solve(inner_W, Lam.T).T)
            base = np.einsum("rt,rt->t", F, np.linalg.solve(F @ F.T / dims.T, F))
            V0 = g[:, None] * base[None, :]
            W, V = asvar_matrices(res)
            assert np.array_equal(W, W0) and np.array_equal(V, V0)
            tiny = replace(res, params=replace(res.params, rho=np.full(dims.n, 1e-300)))
            Wg, Vg = asvar_matrices(tiny)
            assert np.array_equal(Wg, W0)
            assert np.max(np.abs(Vg - V0)) < 1e-10 * np.max(V0)

    @staticmethod
    def _check_gls_v(dims, seed, max_iter):
        """V_it = F_t' (F P_i F' / T)^{-1} F_t with P_i the dense AR(1)
        precision of series i's fitted (rho_i, gamma_i), for an ECM fit."""
        draw = draw_dgp(DgpConfig(dims=dims, delta=0.2, seed=seed))
        res = ecm_fit(draw.panel, dims, EmConfig(max_iter=max_iter))
        rho, gam = res.params.rho, res.params.gamma_e
        assert np.all(rho != 0.0)
        F = res.factors.F_smooth
        _, V = asvar_matrices(res)
        for i in range(dims.n):
            inner = F @ ar1_precision(rho[i], gam[i], dims.T) @ F.T / dims.T
            want = np.einsum("rt,rt->t", F, np.linalg.solve(inner, F))
            assert np.max(np.abs(V[i] - want)) < 1e-10 * np.max(want)

    def test_gls_v_on_ecm_fit_matches_dense_oracle(self):
        self._check_gls_v(ModelDims(n=12, T=40, r=2, q=2), 17, 10)

    def test_gls_v_over_row_blocks_matches_dense_oracle(self):
        """At n = 600, T = 60, r = 2 the AR(1) V is solved in three row
        blocks, and every series, the last block's too, matches."""
        dims = ModelDims(n=600, T=60, r=2, q=2)
        assert len(_row_blocks(dims.n, dims.r * dims.T)) == 3
        self._check_gls_v(dims, 5, 5)

    def test_gls_v_holds_no_n_by_r_by_T_array(self, rng):
        """The AR(1) V is solved by row blocks, so beyond W and V the call
        holds under half a panel; one solve against all n series held an
        n x r x T array and peaked at 4 panels beyond them at r = 4."""
        n, r, T = 2000, 4, 300
        res = _make_result(rng.standard_normal((n, r)),
                           rng.standard_normal((r, T)),
                           rng.uniform(0.5, 1.5, n), rho=rng.uniform(0.2, 0.6, n))
        (_, V), peak, retained = traced_call(asvar_matrices, res)
        assert peak <= retained + 0.5 * V.nbytes

    def test_ridge_w_full_covariance(self, rng):
        """The factors (1, 0) of I take the Woodbury route to W and give
        the W of the diagonal I to 1e-12, and the same white V."""
        n, r, T = 5, 1, 10
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        res = _make_result(Lam, F, None, gamma_factors=(1.0, np.zeros((n, 1))))
        W, V = asvar_matrices(res)
        W0, V0 = asvar_matrices(_make_result(Lam, F, np.ones(n)))
        assert np.max(np.abs(W - W0)) <= 1e-12 * np.max(np.abs(W0))
        assert np.array_equal(V, V0)

    def test_ridge_w_factored_matches_dense(self):
        """W from the factors (c, B) of a ridge fit at n > T + r equals W
        from the same Gamma solved dense, and V is that of the diagonal
        of Gamma."""
        dims = ModelDims(n=30, T=12, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, tau=0.5, delta=0.2, seed=29))
        res = ridge_fit(draw.panel, dims, EmConfig(max_iter=3))
        p = res.params
        assert p.gamma_factors is not None
        Lam = p.Lambda
        inner = Lam.T @ np.linalg.solve(dense_gamma(p), Lam) / dims.n
        W0 = np.einsum("ir,ir->i", Lam, np.linalg.solve(inner, Lam.T).T)
        W, V = asvar_matrices(res)
        assert np.max(np.abs(W - W0)) <= 1e-12 * np.max(np.abs(W0))
        diagonal = replace(res, params=replace(p, gamma_factors=None))
        assert np.array_equal(V, asvar_matrices(diagonal)[1])


class TestZScores:
    def test_exact_estimate_gives_zero(self, rng):
        n, T = 6, 20
        Lam = rng.standard_normal((n, 1))
        F = rng.standard_normal((1, T))
        res = _make_result(Lam, F, np.ones(n))
        Z = z_scores(res, Lam @ F)
        assert np.allclose(Z, 0.0)

    def test_translation_detection(self, rng):
        n, T = 6, 20
        Lam = rng.standard_normal((n, 1))
        F = rng.standard_normal((1, T))
        res = _make_result(Lam, F, np.ones(n))
        chi = Lam @ F
        base = np.mean(z_scores(res, chi))
        shifted = np.mean(z_scores(res, chi - 0.5))
        assert shifted > base

    def test_shape_mismatch_raises(self, rng):
        res = _make_result(np.ones((3, 1)), np.ones((1, 5)), np.ones(3))
        with pytest.raises(ValueError):
            z_scores(res, np.zeros((3, 6)))

    def test_matches_the_paper_variance_by_hand(self):
        """Z_it = (chihat_it - chi_it) / sqrt(W_i / n + V_it / T) with
        W_i = lambda_i' (Lambda' Gamma^{-1} Lambda / n)^{-1} lambda_i and
        V_it = gamma_i F_t' (F F' / T)^{-1} F_t, worked out entry by entry
        with the 2 x 2 inverses written out, on a fixed diagonal fit."""
        lam = [[1.0, 0.0], [0.5, 1.0], [2.0, -1.0]]
        gamma = [1.0, 2.0, 0.5]
        F = [[1.0, -1.0, 2.0, 0.5], [0.0, 1.0, 1.0, -2.0]]
        chi = [[0.3, -0.2, 1.0, 0.0], [1.5, 0.1, -0.4, 2.0], [-1.0, 0.7, 0.2, 0.9]]
        n, T = 3, 4

        def inv2(a, b, d):  # inverse of the symmetric [[a, b], [b, d]]
            det = a * d - b * b
            return d / det, -b / det, a / det

        def quad(v, m):  # v' m v for m = (m11, m12, m22)
            return m[0] * v[0] ** 2 + 2.0 * m[1] * v[0] * v[1] + m[2] * v[1] ** 2

        Mi = inv2(*(sum(l[j] * l[k] / g for l, g in zip(lam, gamma)) / n
                    for j, k in ((0, 0), (0, 1), (1, 1))))
        Si = inv2(*(sum(F[j][t] * F[k][t] for t in range(T)) / T
                    for j, k in ((0, 0), (0, 1), (1, 1))))
        want = np.empty((n, T))
        for i in range(n):
            for t in range(T):
                f = (F[0][t], F[1][t])
                chihat = lam[i][0] * f[0] + lam[i][1] * f[1]
                var = quad(lam[i], Mi) / n + gamma[i] * quad(f, Si) / T
                want[i, t] = (chihat - chi[i][t]) / var ** 0.5
        res = _make_result(np.array(lam), np.array(F), np.array(gamma))
        got = z_scores(res, np.array(chi))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


class TestCoverage:
    def test_quantiles_equal_scipy_stats_bitwise(self):
        from scipy.stats import norm

        expected = norm.ppf(np.asarray(DEFAULT_ALPHAS))
        got = np.array(_NORMAL_QUANTILES)
        assert got.tobytes() == expected.tobytes()

    def test_iid_normal_null(self):
        # 100 series x 1004 periods: 10^5 pooled entries after burn-in
        Z = stream(0).standard_normal((100, BURN_IN_T - 1 + 1000))
        table = _coverage(Z)
        assert table.count == 100 * 1000
        i95 = table.alphas.index(0.95)
        assert abs(table.C[i95] - 0.95) < 0.01
        assert abs(table.mean) < 0.01
        assert abs(table.std - 1.0) < 0.01
        assert abs(table.kurtosis - 3.0) < 0.1
        assert abs(table.skewness) < 0.02

    def test_monotone_in_alpha(self, rng):
        Z = rng.standard_normal((20, 200))
        table = _coverage(Z)
        # alphas are printed in decreasing order, so C must be nonincreasing
        assert np.all(np.diff(table.C) <= 0)

    def test_degenerate_zero_sample(self):
        Z = np.zeros((4, 30))
        table = _coverage(Z)
        for alpha, c in zip(table.alphas, table.C):
            assert c == (1.0 if alpha > 0.5 else 0.0)
        assert table.mean == 0.0 and table.std == 0.0
        assert table.skewness == 0.0 and table.kurtosis == 0.0

    def test_burn_in_excludes_early_columns(self):
        Z = np.zeros((3, 30))
        Z[:, : BURN_IN_T - 1] = 1e6  # contaminate only the burn-in columns
        table = _coverage(Z)
        assert table.mean == 0.0
        assert table.count == 3 * (30 - (BURN_IN_T - 1))


class TestZAccumulator:
    def test_update_keeps_periods_five_on(self):
        """Pooled statistics start at t = 5 (1-indexed): a 3 x 10 update
        counts 3 * 6 values, those of columns 5..10."""
        acc = ZAccumulator()
        acc.update(np.tile(np.arange(10.0), (3, 1)))
        assert acc.count == 18
        assert acc.s1 == 3 * (4 + 5 + 6 + 7 + 8 + 9)

    def test_merge_equals_single_update(self, rng):
        Z = rng.standard_normal((10, 100))
        whole = ZAccumulator()
        whole.update(Z)
        a, b = ZAccumulator(), ZAccumulator()
        a.update(Z[:5])
        b.update(Z[5:])
        merged = a.merge(b)
        assert merged.count == whole.count
        assert np.isclose(merged.s1, whole.s1)
        assert np.isclose(merged.s3, whole.s3)
        assert np.isclose(merged.s4, whole.s4)
        assert np.array_equal(merged.below, whole.below)
        assert np.array_equal(merged.hist, whole.hist)

    def test_merge_is_order_free(self, rng):
        parts = [rng.standard_normal((4, 50)) for _ in range(3)]
        accs = []
        for Z in parts:
            acc = ZAccumulator()
            acc.update(Z)
            accs.append(acc)
        ab_c = accs[0].merge(accs[1]).merge(accs[2])
        c_ba = accs[2].merge(accs[1]).merge(accs[0])
        assert np.array_equal(ab_c.below, c_ba.below)
        assert np.array_equal(ab_c.hist, c_ba.hist)
        t1, t2 = ab_c.table(), c_ba.table()
        assert np.isclose(t1.std, t2.std)

    def test_cdf_counts_include_the_quantile_itself(self):
        acc = ZAccumulator()
        acc.update(np.full((1, BURN_IN_T), _NORMAL_QUANTILES[0]))
        assert acc.below[0] == 1

    def test_table_moments_are_the_sample_moments(self, rng):
        """Skewness and kurtosis of a skewed sample, from the power sums."""
        Z = rng.exponential(size=(4, 60))
        d = Z[:, BURN_IN_T - 1:] - Z[:, BURN_IN_T - 1:].mean()
        table = _coverage(Z)
        assert np.isclose(table.skewness, np.mean(d**3) / np.mean(d**2) ** 1.5, rtol=1e-9)
        assert np.isclose(table.kurtosis, np.mean(d**4) / np.mean(d**2) ** 2, rtol=1e-9)

    def test_empty_table_raises(self):
        with pytest.raises(ValueError):
            ZAccumulator().table()


class TestZHistogram:
    def test_known_bin(self):
        Z = np.full((1, BURN_IN_T), -10.0)
        Z[0, -1] = 0.05  # single kept entry, lands in [0.0, 0.1)
        acc = ZAccumulator()
        acc.update(Z)
        counts = acc.hist
        j = np.searchsorted(HIST_EDGES, 0.05) - 1
        assert counts[j] == 1
        assert counts.sum() == 1  # the -10 entries are out of range or burned

    def test_edges_fixed_grid(self):
        assert HIST_EDGES[0] == -5.0 and HIST_EDGES[-1] == 5.0
        assert np.allclose(np.diff(HIST_EDGES), 0.1)

    def test_default_alphas_order(self):
        assert DEFAULT_ALPHAS == (0.99, 0.95, 0.90, 0.84, 0.16, 0.10, 0.05, 0.01)
