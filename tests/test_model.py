import numpy as np
import pytest

from dfm_em import (
    DfmParams,
    FactorPath,
    ModelDims,
    Panel,
    ShapeError,
    common_component,
    validate,
)


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

    def test_pure(self):
        dims = ModelDims(n=6, T=10, r=2, q=2)
        p = _params(A=np.eye(2))
        assert validate(p, dims) == validate(p, dims)


class TestPanel:
    def test_nonfinite_rejected(self):
        X = np.zeros((3, 4))
        X[1, 2] = np.nan
        with pytest.raises(ValueError):
            Panel(X=X)

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


class TestCommonComponent:
    def test_scalar_product(self):
        p = _params(n=1, r=1, q=1, A=np.array([[0.5]]), H=np.eye(1),
                    gamma=np.ones(1))
        out = common_component(p, FactorPath(F=np.array([[2.0, 3.0]])))
        assert np.array_equal(out, [[2.0, 3.0]])

    def test_zero_factors(self):
        p = _params()
        out = common_component(p, FactorPath(F=np.zeros((2, 5))))
        assert np.array_equal(out, np.zeros((6, 5)))

    def test_matches_triple_loop(self, rng):
        Lam = rng.standard_normal((3, 2))
        F = rng.standard_normal((2, 4))
        p = DfmParams(Lambda=Lam, A=0.5 * np.eye(2), H=np.eye(2),
                      gamma_e=np.ones(3))
        out = common_component(p, FactorPath(F=F))
        naive = np.zeros((3, 4))
        for i in range(3):
            for t in range(4):
                for j in range(2):
                    naive[i, t] += Lam[i, j] * F[j, t]
        assert np.allclose(out, naive)

    def test_bilinear(self, rng):
        Lam = rng.standard_normal((4, 2))
        F1 = rng.standard_normal((2, 5))
        F2 = rng.standard_normal((2, 5))
        base = DfmParams(Lambda=Lam, A=0.5 * np.eye(2), H=np.eye(2),
                         gamma_e=np.ones(4))
        scaled = DfmParams(Lambda=3.0 * Lam, A=0.5 * np.eye(2), H=np.eye(2),
                           gamma_e=np.ones(4))
        assert np.allclose(common_component(scaled, FactorPath(F=F1)),
                           3.0 * common_component(base, FactorPath(F=F1)))
        assert np.allclose(
            common_component(base, FactorPath(F=F1 + F2)),
            common_component(base, FactorPath(F=F1))
            + common_component(base, FactorPath(F=F2)),
        )

    def test_rotation_invariance(self, rng):
        Lam = rng.standard_normal((5, 3))
        F = rng.standard_normal((3, 7))
        K = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        a = DfmParams(Lambda=Lam, A=0.3 * np.eye(3), H=np.eye(3),
                      gamma_e=np.ones(5))
        b = DfmParams(Lambda=Lam @ K, A=0.3 * np.eye(3), H=np.eye(3),
                      gamma_e=np.ones(5))
        out_a = common_component(a, FactorPath(F=F))
        out_b = common_component(b, FactorPath(F=np.linalg.solve(K, F)))
        assert np.allclose(out_a, out_b, atol=1e-10)

    def test_shape_mismatch(self):
        p = _params()
        with pytest.raises(ShapeError):
            common_component(p, FactorPath(F=np.zeros((3, 5))))


class TestIdioCovariance:
    def test_reduces_to_gamma_e_when_rho_zero(self):
        p = _params()
        assert np.array_equal(p.idio_covariance(), p.gamma_e)

    def test_ar1_scaling(self):
        rho = np.array([0.5, 0.0, -0.3])
        p = DfmParams(Lambda=np.ones((3, 1)), A=np.array([[0.5]]),
                      H=np.eye(1), gamma_e=np.array([2.0, 1.0, 4.0]), rho=rho)
        expected = np.array([2.0, 1.0, 4.0]) / (1.0 - rho**2)
        assert np.allclose(p.idio_covariance(), expected)

    def test_full_variant(self):
        G = np.array([[1.0, 0.5], [0.5, 1.0]])
        rho = np.array([0.5, 0.2])
        p = DfmParams(Lambda=np.ones((2, 1)), A=np.array([[0.5]]),
                      H=np.eye(1), gamma_e=G, rho=rho)
        out = p.idio_covariance()
        assert np.isclose(out[0, 1], 0.5 / (1.0 - 0.5 * 0.2))
        assert np.isclose(out[0, 0], 1.0 / (1.0 - 0.25))
