import dataclasses

import numpy as np
import pytest

from dfm_em import (
    DfmParams,
    ModelDims,
    Panel,
    ShapeError,
    validate,
)
from dfm_em import em
from dfm_em.em import SufficientStats, m_step
from dfm_em.kalman import _whitener
from dfm_em.model import _BLOCK_ELEMS, STABILITY_TOL, _buffered_blocks, _row_blocks


def _params(n=6, r=2, q=2, A=None, H=None, gamma=None, rho=None):
    return DfmParams(
        Lambda=np.ones((n, r)),
        A=0.5 * np.eye(r) if A is None else A,
        H=np.eye(r)[:, :q] if H is None else H,
        gamma_e=np.ones(n) if gamma is None else gamma,
        rho=rho,
    )


class TestModelDims:
    def test_valid(self):
        d = ModelDims(n=10, T=50, r=3, q=2)
        assert (d.n, d.T, d.r, d.q) == (10, 50, 3, 2)

    @pytest.mark.parametrize("n,T,r,q", [
        (3, 50, 3, 2),   # r must be < n
        (10, 50, 2, 3),  # q must be <= r
        (10, 1, 2, 2),   # T >= 2
        (10, 50, 0, 0),  # r >= 1
    ])
    def test_invalid(self, n, T, r, q):
        with pytest.raises(ValueError):
            ModelDims(n=n, T=T, r=r, q=q)


class TestValidate:
    def test_all_constraints_slack(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        assert validate(_params(), dims) == []

    def test_unit_eigenvalue_flags_stability(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        bad = _params(A=np.eye(2))
        msgs = validate(bad, dims)
        assert any("A not stable" in m for m in msgs)

    def test_bounds_themselves_are_violations(self):
        """A spectral radius of exactly 1 - STABILITY_TOL and |rho_i| = 1
        are refused, not only values past them."""
        p = _params(A=np.diag([1.0 - STABILITY_TOL, 0.5]), rho=np.eye(1, 6)[0])
        msgs = validate(p, ModelDims(n=6, T=10, r=2, q=2))
        assert any("A not stable" in m for m in msgs)
        assert "idiosyncratic AR coefficient |rho_i| >= 1" in msgs

    def test_rank_deficient_H(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        H = np.ones((2, 2))  # duplicate columns
        msgs = validate(_params(H=H), dims)
        assert any("rank-deficient" in m for m in msgs)

    def test_explosive_rho(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        msgs = validate(_params(rho=np.full(6, 1.5)), dims)
        assert any("rho" in m for m in msgs)

    def test_nonpositive_gamma(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        g = np.ones(6)
        g[3] = 0.0
        msgs = validate(_params(gamma=g), dims)
        assert any("non-positive" in m for m in msgs)

    def test_shape_mismatch_raises(self):
        dims = ModelDims(n=7, T=10, r=2, q=2)
        with pytest.raises(ShapeError):
            validate(_params(n=6), dims)

    @pytest.mark.parametrize("field, bad, match", [
        ("A", np.eye(3), "^A shape"),
        ("H", np.eye(2)[:, :1], "^H shape"),
        ("gamma_e", np.ones(5), "^gamma_e shape"),
        # a full Gamma^e is refused when built: it is given by its factors
        ("gamma_e", np.eye(6), "^gamma_e must be 1-D .* gamma_factors"),
        ("rho", np.zeros(5), "^rho shape"),
    ], ids=["A", "H", "gamma_e_diagonal", "gamma_e_full", "rho"])
    def test_each_shape_mismatch_names_its_field(self, field, bad, match):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        with pytest.raises(ShapeError, match=match):
            validate(dataclasses.replace(_params(), **{field: bad}), dims)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["gamma_e", "rho", "Lambda", "A", "H"])
    def test_nonfinite_field_is_a_violation(self, field, bad):
        """A NaN or inf entry is reported before the eigen and rank checks,
        which would raise on it or pass it."""
        dims = ModelDims(n=6, T=10, r=2, q=2)
        p = _params(rho=np.zeros(6))
        value = getattr(p, field).copy()
        value.flat[1] = bad
        assert validate(dataclasses.replace(p, **{field: value}), dims) == [
            f"{field} not finite"]

    def _factored(self, n=6, c=2.0, B=None):
        B = np.diag([1.0, 2.0, 0.5])[:, :2] if B is None else B
        B = np.vstack([B, np.zeros((n - B.shape[0], B.shape[1]))])
        return dataclasses.replace(_params(n=n), gamma_e=None,
                                   gamma_factors=(c, B))

    def test_factored_gamma_slack(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        p = self._factored()
        assert validate(p, dims) == []
        assert np.array_equal(p.gamma_e, [3.0, 6.0, 2.0, 2.0, 2.0, 2.0])

    def test_factors_with_wrong_row_count_raise(self):
        dims = ModelDims(n=7, T=10, r=2, q=2)
        p = dataclasses.replace(self._factored(), Lambda=np.ones((7, 2)),
                                rho=np.zeros(7))
        with pytest.raises(ShapeError, match="^gamma_factors B shape"):
            validate(p, dims)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_c(self, c):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        B = 3.0 * np.kron(np.eye(2), np.ones((3, 1)))  # every row nonzero
        msgs = validate(self._factored(c=c, B=B), dims)
        assert msgs == ["gamma_factors c not positive"]

    def test_factor_columns_not_orthogonal(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1e-4, 1e-4]])
        # off-diagonal 1e-8 of the largest diagonal entry
        assert validate(self._factored(B=B), dims) == [
            "gamma_factors B'B not diagonal"]
        # 1e-12 of it is within the tolerance
        B[2] = 1e-4, 1e-8
        assert validate(self._factored(B=B), dims) == []

    @pytest.mark.parametrize("scale, off, flagged", [
        (1.0, 1e-10, False), (1.0, 1.5e-10, True), (10.0, 5e-10, False)])
    def test_off_diagonal_tolerance_is_1e10_of_the_largest_entry(self, scale, off, flagged):
        """B = [[s, e], [0, s]] gives B'B the off-diagonal s e, which may
        reach 1e-10 of its largest entry (s^2 in floats), boundary included."""
        B = np.array([[scale, off], [0.0, scale]])
        assert validate(self._factored(B=B), ModelDims(n=6, T=10, r=2, q=2)) == (
            ["gamma_factors B'B not diagonal"] if flagged else [])

    def test_pure(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        p = _params(A=np.eye(2))
        assert validate(p, dims) == validate(p, dims)


class TestDfmParams:
    def test_one_dimensional_Lambda_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="^Lambda must be a 2-D array, got ndim=1$"):
            DfmParams(Lambda=np.ones(6), A=0.5 * np.eye(2), H=np.eye(2),
                      gamma_e=np.ones(6))

    @pytest.mark.parametrize("c", [[0.5], np.full((1, 1), 0.5), [0.5, 0.5]])
    def test_gamma_c_not_a_scalar_is_a_shape_error(self, c):
        """A c of two entries once raised float()'s TypeError."""
        with pytest.raises(ShapeError, match="^gamma_factors c must be 0-d, got ndim="):
            DfmParams(Lambda=np.ones((6, 2)), A=0.5 * np.eye(2), H=np.eye(2),
                      gamma_factors=(c, np.zeros((6, 1))))


class TestGammaFactors:
    def test_gamma_e_is_the_diagonal(self, rng):
        B = rng.standard_normal((6, 3))
        p = _params(gamma=None)
        f = DfmParams(Lambda=p.Lambda, A=p.A, H=p.H, gamma_factors=(0.5, B))
        assert np.array_equal(f.gamma_e, np.sum(B * B, axis=1) + 0.5)
        assert f.gamma_e.ndim == 1 and f.gamma_factors is not None
        assert not (f.gamma_e.flags.writeable or B.flags.writeable)

    def test_gamma_e_over_row_blocks_is_bitwise(self, rng):
        """The diagonal is squared and summed block by block of rows, each
        row whole, so a B of four row blocks gives the bits of the whole
        B o B row sums."""
        n, m = 3 * (_BLOCK_ELEMS // 300) + 1, 300
        assert len(_row_blocks(n, m)) == 4
        B = rng.standard_normal((n, m))
        p = _params(n=n, gamma=None)
        f = DfmParams(Lambda=p.Lambda, A=p.A, H=p.H, gamma_factors=(0.5, B))
        assert np.array_equal(f.gamma_e, np.sum(B * B, axis=1) + 0.5)

    def test_replace_keeps_the_factors(self, rng):
        p = _params()
        f = dataclasses.replace(p, gamma_e=None,
                                gamma_factors=(0.5, rng.standard_normal((6, 3))))
        kept = dataclasses.replace(f, A=0.2 * np.eye(2))
        assert kept.gamma_factors[1] is f.gamma_factors[1]
        assert np.array_equal(kept.gamma_e, f.gamma_e)

    @pytest.mark.parametrize("shape", ["diagonal", "full"])
    def test_disagreeing_gamma_e_raises(self, rng, shape):
        B = rng.standard_normal((6, 3))
        diag = np.sum(B * B, axis=1) + 0.5
        gamma = (np.nextafter(diag, np.inf) if shape == "diagonal"
                 else 0.5 * np.eye(6) + B @ B.T)
        with pytest.raises(ValueError, match="not the diagonal of gamma_factors"):
            dataclasses.replace(_params(), gamma_e=gamma,
                                gamma_factors=(0.5, B))


class TestPanel:
    def test_one_dimensional_X_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="^X must be a 2-D array, got ndim=1$"):
            Panel(X=np.zeros(4))

    def test_nonfinite_rejected(self):
        X = np.zeros((3, 4))
        X[1, 2] = np.nan
        with pytest.raises(ValueError):
            Panel(X=X)

    def test_names_must_match_the_series(self):
        with pytest.raises(ShapeError, match="names length"):
            Panel(X=np.zeros((3, 4)), names=("a", "b"))

    def test_default_names(self):
        p = Panel(X=np.zeros((3, 4)))
        assert p.names == ("x1", "x2", "x3")
        assert (p.n, p.T) == (3, 4)

    def test_immutable(self):
        p = Panel(X=np.zeros((3, 4)))
        with pytest.raises(ValueError):
            p.X[0, 0] = 1.0

    def test_variance_is_computed_once_and_read_only(self, rng):
        p = Panel(X=rng.standard_normal((3, 4)))
        assert np.array_equal(p.var, p.X.var(axis=1))
        assert p.var is p.var
        with pytest.raises(ValueError):
            p.var[0] = 1.0


    @pytest.mark.parametrize("n,T", [(700, 150), (3 * (_BLOCK_ELEMS // 150), 150),
                                     (4, _BLOCK_ELEMS + 1)])
    def test_variance_over_row_blocks_is_bitwise(self, n, T):
        """Each row is reduced whole, block by block, as X.var(axis=1)
        reduces it."""
        assert len(_row_blocks(n, T)) >= 3
        X = np.random.default_rng(n).standard_normal((n, T)) * 3.0 + 1e3
        assert np.array_equal(Panel(X=X).var, X.var(axis=1))


class TestRowBlocks:
    @pytest.mark.parametrize("n,m,elems,rows", [
        (10, 4, 12, 3),     # a partial last block
        (9, 4, 12, 3),      # n an exact multiple of the rows
        (3, 20, 12, 1),     # rows longer than the budget: one row a block
        (2, 4, 64, 16),     # one block
    ])
    def test_slices_cover_the_rows_in_order(self, n, m, elems, rows):
        blocks = _row_blocks(n, m, elems)
        assert blocks[0] == slice(0, min(rows, n))
        assert all(b.stop - b.start <= rows for b in blocks)
        assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]),
                              np.arange(n))

    def test_buffered_views_are_the_blocks_of_one_buffer(self):
        """Each view holds its block's rows, C-ordered, at the head of one
        buffer sized by the first block."""
        n, m = 3 * (_BLOCK_ELEMS // 300) + 1, 300
        got = [(b, v.base, v) for b, v in _buffered_blocks(n, m)]
        assert [b for b, _, _ in got] == _row_blocks(n, m) and len(got) >= 3
        buf = got[0][1]
        assert buf.size == got[0][0].stop * m
        for b, base, v in got:
            assert base is buf and v.flags.c_contiguous
            assert v.shape == (b.stop - b.start, m) and np.shares_memory(v, buf[:m])


_ROWS_300 = _BLOCK_ELEMS // 300  # rows per block at T = 300


def _gamma_update(X, L, F):
    """m_step's gamma at S_FF = I, S_xF = L and S_P = 0, where its loadings
    are exactly L: the row sums of (X - L F)^2 over T, floored."""
    r = L.shape[1]
    I = np.eye(r)
    stats = SufficientStats(S_xF=L, S_FF=I, S_FF_lag=0.5 * I, S_FF_head=I,
                            S_FF_tail=I, S_P=np.zeros((r, r)), F_smooth=F)
    return m_step(stats, Panel(X=X), r).gamma_e


def _diagonal_norms(X, L, F, gamma):
    """The filter's norms sum_i (X - L F)_it^2 / gamma_i for a diagonal Gamma."""
    r = L.shape[1]
    p = DfmParams(Lambda=L, A=0.5 * np.eye(r), H=np.eye(r), gamma_e=gamma)
    return _whitener(p)[2](X, L, F)


class TestSqResidualSums:
    """The package's squared residual sums over row blocks
    (model._residual_blocks), at their two call sites: the row sums of
    m_step's gamma update and the 1/gamma-weighted column sums of the
    filter's norms for a diagonal Gamma."""

    @pytest.mark.parametrize("n,T,r,zero", [
        (50, 100, 3, False),                   # one block
        (3 * _ROWS_300, 300, 4, False),        # n an exact multiple of the rows
        (3 * _ROWS_300 + 1, 300, 4, False),    # one row past that multiple
        (3, _BLOCK_ELEMS + 1, 2, False),       # T over the budget: one row a block
        (3 * _ROWS_300 + 1, 300, 1, False),    # r = 1
        (3 * _ROWS_300 + 1, 300, 3, True),     # L = 0
    ])
    def test_matches_the_whole_residual(self, n, T, r, zero):
        rng = np.random.default_rng(n + T + r)
        X = rng.standard_normal((n, T))
        L = np.zeros((n, r)) if zero else rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        gamma = rng.uniform(0.5, 1.5, n)
        sq = (X - L @ F) ** 2
        for got, want in ((_gamma_update(X, L, F), sq.sum(axis=1) / T),
                          (_diagonal_norms(X, L, F, gamma),
                           (sq / gamma[:, None]).sum(axis=0))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("noise", [1.0, 1e-9])
    def test_row_sums_over_blocks(self, noise, monkeypatch):
        """The row sums, reduced by one einsum per block, and the weighted
        column sums agree with the whole squared residual also when the
        noise is many orders below L F (with the gamma floor patched out:
        it would raise the row sums there)."""
        monkeypatch.setattr(em, "_floor_gamma", lambda gamma, panel: gamma)
        n, T, r = 3 * _ROWS_300 + 7, 300, 8
        rng = np.random.default_rng(7)
        L = rng.standard_normal((n, r))
        F = rng.standard_normal((r, T))
        X = L @ F + noise * rng.standard_normal((n, T))
        gamma = rng.uniform(0.5, 1.5, n)
        sq = (X - L @ F) ** 2
        want = sq.sum(1) / T
        assert np.max(np.abs(_gamma_update(X, L, F) - want) / want) <= 1e-14
        want = (sq / gamma[:, None]).sum(0)
        assert np.max(np.abs(_diagonal_norms(X, L, F, gamma) - want) / want) <= 1e-13
