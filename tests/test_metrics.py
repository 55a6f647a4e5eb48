import numpy as np
import pytest

from dfm_em import (
    ArIdioState,
    BURN_IN_T,
    DEFAULT_ALPHAS,
    HIST_EDGES,
    McCell,
    TraceStat,
    ZAccumulator,
    asvar_matrices,
    common_mse,
    run_cell,
    trace_statistic,
    z_scores,
)
from dfm_em.em import EmResult
from dfm_em.kalman import InitState, SmootherOutput
from dfm_em.model import DfmParams
from dfm_em.simulate import stream


def _make_result(Lambda, F, gamma_e, A=None, H=None, extras=None):
    n, r = Lambda.shape
    T = F.shape[1]
    params = DfmParams(
        Lambda=Lambda,
        A=0.5 * np.eye(r) if A is None else A,
        H=np.eye(r) if H is None else H,
        gamma_e=gamma_e,
    )
    smooth = SmootherOutput(
        F_smooth=F,
        P_smooth=np.zeros((T, r, r)),
        C_lag1=np.zeros((T, r, r)),
        F0_smooth=np.zeros(r),
        P0_smooth=np.eye(r),
    )
    return EmResult(params=params, factors=smooth,
                    loglik_trace=np.zeros(1), iters=0, converged=True,
                    filter_init=InitState(F0=np.zeros(r), P0=np.eye(r)),
                    extras=extras or {})


def _coverage(Z):
    acc = ZAccumulator()
    acc.update(Z)
    return acc.table()


class TestTraceStatistic:
    def test_self_is_one(self, rng):
        F = rng.standard_normal((3, 40))
        assert trace_statistic(F, F).value == 1.0

    def test_invertible_rotation_invariance(self, rng):
        F = rng.standard_normal((3, 40))
        R = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        a = trace_statistic(F, F).value
        b = trace_statistic(F, (R @ F)).value
        assert abs(a - b) < 1e-10

    def test_orthogonal_estimate_is_zero(self):
        true = np.array([[1.0, 0.0]])  # k=1, T=2
        est = np.array([[0.0, 1.0]])
        assert trace_statistic(true, est).value == 0.0

    def test_orientation_agnostic(self, rng):
        F = rng.standard_normal((2, 30))
        G = rng.standard_normal((2, 30))
        assert np.isclose(trace_statistic(F, G).value,
                          trace_statistic(F.T, G.T).value)

    def test_rank_deficient_estimate_raises(self, rng):
        F = rng.standard_normal((2, 30))
        bad = np.vstack([F[0], F[0]])
        with pytest.raises(np.linalg.LinAlgError):
            trace_statistic(F, bad)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            trace_statistic(np.zeros((2, 10)), np.zeros((3, 10)))

    def test_value_capped_at_one(self):
        with pytest.raises(ValueError):
            TraceStat(value=1.5)


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
        n, r, T = 6, 2, 25
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        gam = rng.uniform(0.5, 1.5, n)
        extras = {"ar_idio": ArIdioState(rho_hat=np.zeros(n), gamma_hat=gam)}
        res = _make_result(Lam, F, gam, extras=extras)
        W0, V0 = asvar_matrices(res, "diag_ols")
        Wg, Vg = asvar_matrices(res, "gls_v")
        assert np.max(np.abs(Vg - V0)) < 1e-10
        assert np.max(np.abs(Wg - W0)) < 1e-10

    def test_ridge_w_requires_full_covariance(self, rng):
        res = _make_result(rng.standard_normal((5, 1)),
                           rng.standard_normal((1, 10)), np.ones(5))
        with pytest.raises(ValueError):
            asvar_matrices(res, "ridge_w")

    def test_ridge_w_full_covariance(self, rng):
        n, r, T = 5, 1, 10
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        res = _make_result(Lam, F, np.eye(n))
        W, _ = asvar_matrices(res, "ridge_w")
        # with identity covariance the ridge form equals the diagonal form
        W0, _ = asvar_matrices(_make_result(Lam, F, np.ones(n)), "diag_ols")
        assert np.allclose(W, W0)

    def test_unknown_mode_raises(self, rng):
        res = _make_result(np.ones((3, 1)), np.ones((1, 5)), np.ones(3))
        with pytest.raises(ValueError):
            asvar_matrices(res, "bogus")


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


class TestCoverage:
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

    def test_burn_in_excludes_early_columns(self):
        Z = np.zeros((3, 30))
        Z[:, : BURN_IN_T - 1] = 1e6  # contaminate only the burn-in columns
        table = _coverage(Z)
        assert table.mean == 0.0
        assert table.count == 3 * (30 - (BURN_IN_T - 1))


class TestZAccumulator:
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

    def test_mismatched_levels_refuse_merge(self):
        a = ZAccumulator(alphas=(0.95, 0.05))
        b = ZAccumulator()
        with pytest.raises(ValueError):
            a.merge(b)

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
