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
from dfm_em.model import _BLOCK_ELEMS, _sq_residual_sums


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

    def test_pure(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        p = _params(A=np.eye(2))
        assert validate(p, dims) == validate(p, dims)


class TestGammaFactors:
    def test_gamma_e_is_the_diagonal(self, rng):
        B = rng.standard_normal((6, 3))
        p = _params(gamma=None)
        f = DfmParams(Lambda=p.Lambda, A=p.A, H=p.H, gamma_factors=(0.5, B))
        assert np.array_equal(f.gamma_e, np.sum(B * B, axis=1) + 0.5)
        assert f.gamma_e.ndim == 1 and f.gamma_factors is not None
        assert not (f.gamma_e.flags.writeable or B.flags.writeable)

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


_ROWS_300 = _BLOCK_ELEMS // 300  # rows per block at T = 300


class TestSqResidualSums:
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
        w = rng.uniform(0.5, 1.5, n)
        sq = (X - L @ F) ** 2
        for got, want in ((_sq_residual_sums(X, L, F), sq.sum(axis=1)),
                          (_sq_residual_sums(X, L, F, w), w @ sq)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / want) <= 1e-13
