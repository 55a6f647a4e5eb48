import contextlib

import numpy as np
import pytest

from dfm_em import (
    DgpConfig,
    IdentificationError,
    ModelDims,
    Panel,
    draw_dgp,
    pc_estimate,
    trace_statistic,
    var_from_factors,
)
from dfm_em.pca import _column_signs, _shock_loading, _sign_fix_columns
from dfm_em.simulate import stream
from dfm_em.model import _row_blocks
from conftest import traced_call


def _dense_pc(X, r):
    """(eigvals, Lambda0, Ftilde, GammaE0) from a centred copy of the panel
    and every eigenpair of Xc Xc' / T."""
    T = X.shape[1]
    Xc = X - X.mean(axis=1, keepdims=True)
    w, V = np.linalg.eigh(Xc @ Xc.T / T)
    w, V = w[::-1][:r], _sign_fix_columns(V[:, ::-1][:, :r])
    Lam = V * np.sqrt(w)
    F = Lam.T @ Xc / w[:, None]
    return w, Lam, F, ((Xc - Lam @ F) ** 2).mean(axis=1)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestPcEstimate:
    def test_noiseless_panel_recovered_exactly(self, rng):
        n, T, r = 20, 40, 3
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        X = Lam @ F
        est = pc_estimate(Panel(X=X), r, 2)
        Xc = X - X.mean(axis=1, keepdims=True)
        assert np.max(np.abs(est.Lambda0 @ est.Ftilde - Xc)) < 1e-8
        assert np.all(est.GammaE0 < 1e-10)

    def test_eigvals_strictly_decreasing(self, rng):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=40, T=60, r=3, q=2), seed=1))
        est = pc_estimate(draw.panel, 3, 2)
        assert np.all(np.diff(est.eigvals) < 0)

    def test_sign_convention(self, rng):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=40, T=60, r=3, q=2), seed=2))
        est = pc_estimate(draw.panel, 3, 2)
        # Lambda0 = V M^{1/2}, so row 1 of V positive means row 1 of
        # Lambda0 positive
        assert np.all(est.Lambda0[0] > 0)

    @pytest.mark.parametrize("n,T", [(30, 60), (60, 30)])
    def test_sign_convention_skips_a_zero_first_series(self, n, T):
        """With the first series identically zero, each loading column is
        signed by its first nonzero row, on both Gram branches."""
        rng = np.random.default_rng(5)
        X = (rng.standard_normal((n, 2)) @ rng.standard_normal((2, T))
             + 0.3 * rng.standard_normal((n, T)))
        X[0] = 0.0
        est = pc_estimate(Panel(X=X), 2, 2)
        assert np.all(est.Lambda0[0] == 0.0)
        assert np.all(est.Lambda0[1] > 0)

    def test_loadings_gram_diagonal(self):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=100, T=120, r=4, q=4), seed=3))
        est = pc_estimate(draw.panel, 4, 4)
        G = est.Lambda0.T @ est.Lambda0
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(G))

    def test_factor_sample_covariance_near_identity(self):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=150, T=150, r=3, q=3), seed=4))
        est = pc_estimate(draw.panel, 3, 3)
        S = est.Ftilde @ est.Ftilde.T / est.Ftilde.shape[1]
        assert np.all(np.diag(S) > 0.9)
        assert np.all(np.diag(S) < 1.1)

    def test_gram_duality_matches_direct(self, rng):
        """n > T path (Gram matrix) equals the direct n x n decomposition."""
        n, T, r = 30, 20, 2
        Lam = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        X = Lam @ F + 0.3 * rng.standard_normal((n, T))
        est_dual = pc_estimate(Panel(X=X), r, 2)  # n > T: dual route

        # force the direct route by transposing shapes via padding time
        Xc = X - X.mean(axis=1, keepdims=True)
        w, V = np.linalg.eigh(Xc @ Xc.T / T)
        w, V = w[::-1][:r], V[:, ::-1][:, :r]
        s = np.sign(V[0])
        s[s == 0] = 1.0
        V = V * s
        Lam_direct = V * np.sqrt(w)
        assert np.max(np.abs(est_dual.Lambda0 - Lam_direct)) < 1e-8

    @pytest.mark.parametrize("n,T", [(30, 60), (60, 30)])
    def test_eigvals_match_a_full_eigendecomposition(self, n, T):
        """The top-r subset of the Gram spectrum, on both Gram branches
        (n <= T and n > T), against every eigenvalue of X X'/T."""
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=n, T=T, r=3, q=2),
                                  tau=0.5, delta=0.2, seed=21))
        est = pc_estimate(draw.panel, 3, 2)
        Xc = draw.panel.X - draw.panel.X.mean(axis=1, keepdims=True)
        full = np.linalg.eigh(Xc @ Xc.T / T)[0][::-1][:3]
        assert np.max(np.abs(est.eigvals - full)) <= 1e-12 * full[0]

    def test_trace_statistic_on_dgp_draws(self):
        """Estimated factor space tracks the truth on clean draws."""
        vals = []
        for seed in range(1, 21):
            draw = draw_dgp(DgpConfig(dims=ModelDims(n=100, T=100, r=4, q=4),
                                      seed=seed))
            est = pc_estimate(draw.panel, 4, 4)
            vals.append(trace_statistic(draw.factors, est.Ftilde))
        assert np.mean(vals) > 0.85

    def test_white_noise_panel_no_recovery(self, rng):
        X = rng.standard_normal((20, 50))
        est = pc_estimate(Panel(X=X), 1, 1)
        tr = trace_statistic(X[3:4], est.Ftilde)
        assert tr < 1.0

    def test_eigenvalue_tie_raises(self):
        # rows 2-4 of an 8x8 Hadamard matrix: zero mean, mutually
        # orthogonal, equal norm -> perfectly tied sample spectrum
        H = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                      [1, -1, 1, -1, 1, -1, 1, -1],
                      [1, 1, -1, -1, 1, 1, -1, -1],
                      [1, -1, -1, 1, 1, -1, -1, 1]], dtype=float)
        X = H[1:]  # 3 series, T = 8
        with pytest.raises(IdentificationError):
            pc_estimate(Panel(X=X), 2, 1)

    def test_tie_tolerance_is_relative_to_the_top_eigenvalue(self):
        """Orthogonal rows give the Gram diag(5000, 5000 + 1e-10, 0.01):
        the gap is under 1e-12 of 5000, so the top two are tied."""
        X = np.array([[100.0, -100.0, 0.0, 0.0], [0.0, 0.0, 100.0 + 1e-12, -100.0 - 1e-12],
                      [0.1, 0.1, -0.1, -0.1]])
        with pytest.raises(IdentificationError, match="tie at position r=1"):
            pc_estimate(Panel(X=X), 1, 1)

    def test_fewer_than_r_positive_eigenvalues_raises(self, rng):
        """r = n skips the tie check; a constant series leaves a zero
        eigenvalue among the r."""
        X = rng.standard_normal((3, 10))
        X[2] = 1.0
        with pytest.raises(IdentificationError, match="fewer than r positive"):
            pc_estimate(Panel(X=X), 3, 1)

    @pytest.mark.parametrize("r,q,message", [
        (2, 3, "need q <= r <= n, got q=3, r=2, n=20"),
        (25, 1, "need q <= r <= n, got q=1, r=25, n=20"),
        (2.5, 1, "r must be an integer, got 2.5"),
        (0, 1, "r must be >= 1, got 0"),
        (2, True, "q must be an integer, got True"),
        (2, 0, "q must be >= 1, got 0"),
    ])
    def test_bad_ranks_refused_before_any_work(self, rng, monkeypatch, r, q, message):
        """q > r used to return a 2-column H0, and r > n a 20 x 20 Lambda0."""
        import dfm_em.pca as pca

        monkeypatch.setattr(pca, "_leading_eigpairs",
                            lambda *args: pytest.fail("the eigendecomposition ran"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            pc_estimate(Panel(X=rng.standard_normal((20, 40))), r, q)

    def test_T_too_short(self):
        with pytest.raises(ValueError):
            pc_estimate(Panel(X=np.zeros((10, 4))), 3, 2)

    def test_T_of_r_plus_two_is_long_enough(self, rng):
        assert pc_estimate(Panel(X=rng.standard_normal((10, 5))), 3, 2).Ftilde.shape == (3, 5)

    def test_sign_stability_of_common_component(self, rng):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=30, T=60, r=2, q=2), seed=5))
        est = pc_estimate(draw.panel, 2, 2)
        chi = est.Lambda0 @ est.Ftilde
        X2 = np.array(draw.panel.X)
        X2[7] = -X2[7]
        est2 = pc_estimate(Panel(X=X2), 2, 2)
        chi2 = est2.Lambda0 @ est2.Ftilde
        mask = np.ones(30, dtype=bool)
        mask[7] = False
        assert np.max(np.abs(chi[mask] - chi2[mask])) < 1e-8


class TestStreamedPcStart:
    """The PC start never forms the centred panel: the Gram, the loadings
    and the residual variances are reduced from centred blocks in cache,
    row blocks when n > T and column blocks otherwise."""

    @pytest.mark.parametrize("n,T", [(700, 150), (150, 700), (400, 400)])
    def test_matches_the_dense_centred_reference(self, n, T):
        assert len(_row_blocks(max(n, T), min(n, T))) >= 3
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=n, T=T, r=4, q=2),
                                  tau=0.5, delta=0.2, seed=13))
        est = pc_estimate(draw.panel, 4, 2)
        w, Lam, F, gamma = _dense_pc(draw.panel.X, 4)
        assert _rel(est.eigvals, w) <= 1e-12
        assert _rel(est.Lambda0, Lam) <= 1e-10
        assert _rel(est.Ftilde, F) <= 1e-10
        assert _rel(est.GammaE0, gamma) <= 1e-10

    def test_square_panel_residual_sums_start_from_zero(self, rng):
        """At n = T the residual sums accumulate over column blocks from
        zeros. NumPy hands a freed small buffer to the next array of its
        size, so NaN buffers of n doubles freed just before the call would
        show in GammaE0 if the sums started from uninitialized memory."""
        X = rng.standard_normal((100, 100))
        dirty = [np.full(100, np.nan) for _ in range(8)]
        del dirty
        est = pc_estimate(Panel(X=X), 2, 2)
        assert _rel(est.GammaE0, _dense_pc(X, 2)[3]) <= 1e-10

    @pytest.mark.parametrize("n,T", [(700, 150), (150, 700)])
    def test_large_means_cost_no_digits(self, n, T):
        """Series whose means are 1e6 standard deviations give the centred
        panel's residual variances: every block is centred before its
        Gram and its residual are formed. The centred panel lies on the
        grid of the shifted one, so the shift itself is exact and only the
        centring's rounding is left (about 2e-15 here); subtracting the
        mean only after L F, as X - (L F + mu 1'), reads 1e-11 to 4e-11,
        and an uncentred Gram far more."""
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=n, T=T, r=4, q=2),
                                  tau=0.5, delta=0.2, seed=17))
        X = draw.panel.X
        mean = 1e6 * X.std(axis=1)[:, None]
        grid = np.spacing(mean)
        Xc = np.round((X - X.mean(axis=1, keepdims=True)) / grid) * grid
        far = Xc + mean
        assert np.array_equal(far - mean, Xc)
        want = pc_estimate(Panel(X=Xc), 4, 2).GammaE0
        got = pc_estimate(Panel(X=far), 4, 2).GammaE0
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("n,T", [(4000, 200), (200, 4000)])
    def test_allocates_a_quarter_panel_beyond_its_outputs(self, n, T):
        """A centred copy of the panel alone would be a whole X.nbytes."""
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=n, T=T, r=2, q=2), seed=5))
        _, peak, retained = traced_call(pc_estimate, draw.panel, 2, 2)
        assert peak <= retained + 0.25 * draw.panel.X.nbytes


class TestVarFromFactors:
    @pytest.mark.parametrize("q,message", [
        (3, "need q <= r <= n, got q=3, r=2, n=2"),
        (0, "q must be >= 1, got 0"),
        (1.0, "q must be an integer, got 1.0"),
    ])
    def test_bad_shock_count_refused(self, rng, q, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            var_from_factors(rng.standard_normal((2, 30)), q)

    def test_one_time_point_raises(self):
        with pytest.raises(ValueError, match="at least two time points"):
            var_from_factors(np.ones((2, 1)), 1)

    def test_short_samples_by_hand(self):
        """T = 2 is enough for the lag-one fit; at T = 3 the shock
        covariance divides the squared residuals 0.1 and -0.2 by T - 1."""
        assert var_from_factors(np.array([[1.0, 0.5]]), 1)[0].tolist() == [[0.5]]
        A, _, Gom = var_from_factors(np.array([[1.0, 0.5, 0.0]]), 1)
        assert np.allclose([A[0, 0], Gom[0, 0]], [0.4, (0.1**2 + 0.2**2) / 2], rtol=1e-12)

    @pytest.mark.parametrize("a, b, singular", [(1e3, 1e-4, True), (1.0, 1.5e-10**0.5, False)])
    def test_singularity_tolerance_is_1e10_of_the_trace(self, a, b, singular):
        """The lagged second moments diag(2 a^2, 2 b^2) are singular when 2 b^2
        is under 1e-10 of the trace: 2e-8 of 2e6 is, 3e-10 of 2 is not."""
        F = np.array([[a, 0.0, a, 0.0, 0.0], [0.0, b, 0.0, b, 0.0]])
        with (pytest.raises(np.linalg.LinAlgError, match="singular") if singular
              else contextlib.nullcontext()):
            var_from_factors(F, 1)

    def test_degenerate_input_raises(self):
        F = np.zeros((2, 10))
        F[:, 0] = [1.0, 2.0]  # rank-deficient lag matrix
        with pytest.raises(np.linalg.LinAlgError):
            var_from_factors(F, 1)

    def test_iid_factors_give_near_zero_A(self):
        F = stream(42).standard_normal((2, 10000))
        A, H, Gom = var_from_factors(F, 2)
        assert np.max(np.abs(A)) < 2 * 3 / np.sqrt(10000)

    def test_long_sample_consistency(self):
        """A long draw's factor path gives back its A and HH'."""
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=5, T=50000, r=2, q=2), seed=8))
        p = draw.params
        A, H, _ = var_from_factors(draw.factors, 2)
        assert np.linalg.norm(A - p.A) < 0.02
        assert np.linalg.norm(H @ H.T - p.H @ p.H.T) < 0.05

    def test_sign_fix_finds_the_first_nonzero_row(self):
        V = np.array([[0.0, 1.0, 0.0, -0.5],
                      [-2.0, -1.0, 0.0, 0.0],
                      [1.0, 3.0, 0.0, 2.0]])
        want = np.array([[0.0, 1.0, 0.0, 0.5],
                         [2.0, -1.0, 0.0, 0.0],
                         [-1.0, 3.0, 0.0, -2.0]])
        assert np.array_equal(_sign_fix_columns(V), want)
        assert _column_signs(V).tolist() == [-1.0, 1.0, 1.0, -1.0]  # +1 for a zero column

    def test_zero_eigenvalue_is_not_clamped(self):
        """Only w - shrink < 0 is clamped: an exact zero eigenvalue is not."""
        assert _shock_loading(np.diag([1.0, 0.0]), 2)[1] is False

    def test_H_sign_convention(self, rng):
        F = stream(7).standard_normal((3, 500))
        _, H, _ = var_from_factors(F, 2)
        for j in range(2):
            nz = np.flatnonzero(H[:, j])
            assert H[nz[0], j] > 0
