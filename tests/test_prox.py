import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcot.prox import Penalty, penalty_value, prox_apply


def subproblem(p, point, t):
    return lambda q: penalty_value(p, q) + 0.5 * t * float(((q - point) ** 2).sum())


def dense_search_confirms(p, point, t, rng, n_samples=4000, radius=1.0):
    """prox output attains the subproblem minimum vs random perturbations."""
    phi = subproblem(p, point, t)
    q_star = prox_apply(p, point, t)
    best = phi(q_star)
    for _ in range(n_samples):
        candidate = q_star + radius * rng.standard_normal(point.shape) * rng.random()
        if p.kind == "nonneg":
            candidate = np.maximum(candidate, 0.0)
        assert best <= phi(candidate) + 1e-6
    return q_star


class TestPenaltyValue:
    def test_l1_zero(self):
        assert penalty_value(Penalty.l1(2.0), np.zeros((3, 3))) == 0.0

    def test_nuclear_diagonal(self):
        assert np.isclose(penalty_value(Penalty.nuclear(1.0), np.diag([3.0, 4.0])), 7.0)

    def test_nuclear_needs_matrix(self):
        with pytest.raises(ValueError):
            penalty_value(Penalty.nuclear(1.0), np.zeros((2, 2, 2)))

    def test_nonneg_indicator(self):
        assert penalty_value(Penalty.nonneg(), np.array([0.0, 2.0])) == 0.0
        assert penalty_value(Penalty.nonneg(), np.array([-1.0, 2.0])) == np.inf

    def test_frob_sq(self, rng):
        x = rng.standard_normal((2, 3))
        assert np.isclose(penalty_value(Penalty.frob_sq(0.5), x), 0.5 * (x**2).sum())

    def test_sparse_group_lasso_value(self):
        p = Penalty.sparse_group_lasso(2.0, groups=[[0, 1], [2, 3]])
        x = np.array([3.0, 4.0, 0.0, 0.0])
        expected = 2.0 * (0.5 * 7.0 + 0.5 * 5.0)
        assert np.isclose(penalty_value(p, x), expected)

    def test_disjoint_groups_required(self):
        with pytest.raises(ValueError):
            Penalty.sparse_group_lasso(1.0, groups=[[0, 1], [1, 2]])

    def test_sparse_group_lasso_split_is_fixed(self):
        with pytest.raises(TypeError):
            Penalty.sparse_group_lasso(1.0, groups=[[0]], mix=0.5)
        with pytest.raises(TypeError):
            Penalty("sparse_group_lasso", 1.0, mix=0.5)


class TestProxApply:
    def test_l1_scalar_grid_oracle(self):
        p = Penalty.l1(1.0)
        point = np.array([2.0])
        got = prox_apply(p, point, 2.0)  # threshold weight/t = 0.5
        assert np.isclose(got[0], 1.5)
        qs = np.linspace(-4, 4, 80001)
        vals = [subproblem(p, point, 2.0)(np.array([q])) for q in qs]
        assert np.isclose(qs[int(np.argmin(vals))], got[0], atol=1e-4)

    def test_zero_weight_is_identity_bitwise(self, rng):
        point = rng.standard_normal((3, 2))
        for p in [Penalty.none(), Penalty.l1(0.0), Penalty.frob_sq(0.0),
                  Penalty.nuclear(0.0), Penalty("nonneg", 0.0)]:
            assert np.array_equal(prox_apply(p, point, 1.0), point)

    def test_frob_sq_shrinks(self, rng):
        point = rng.standard_normal((2, 2))
        got = prox_apply(Penalty.frob_sq(1.5), point, 2.0)
        assert np.allclose(got, point * 2.0 / (2.0 + 3.0))

    def test_svt_diagonal(self):
        got = prox_apply(Penalty.nuclear(1.0), np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(got, np.diag([2.0, 0.0]), atol=1e-12)

    def test_nonneg_projection(self):
        got = prox_apply(Penalty.nonneg(), np.array([-1.0, 2.0]), 1.0)
        assert np.array_equal(got, np.array([0.0, 2.0]))

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            prox_apply(Penalty.l1(1.0), np.zeros(2), 0.0)

    def test_svt_preserves_singular_subspaces(self, rng):
        point = rng.standard_normal((5, 4))
        shrunk = prox_apply(Penalty.nuclear(0.7), point, 1.0)
        u0, s0, v0 = np.linalg.svd(point, full_matrices=False)
        rebuilt = (u0 * np.maximum(s0 - 0.7, 0.0)) @ v0
        assert np.allclose(shrunk, rebuilt, atol=1e-8)
        assert np.linalg.norm(u0.T @ u0 - np.eye(4)) <= 1e-8

    @pytest.mark.parametrize(
        "penalty",
        [
            Penalty.l1(0.8),
            Penalty.frob_sq(0.6),
            Penalty.nonneg(),
            Penalty.sparse_group_lasso(0.5, groups=[[0, 1, 2], [3, 4]]),
        ],
    )
    def test_optimality_vs_dense_search(self, penalty, rng):
        point = rng.standard_normal(6)
        dense_search_confirms(penalty, point, 1.3, rng)

    def test_nuclear_optimality_vs_dense_search(self, rng):
        point = rng.standard_normal((3, 2))
        dense_search_confirms(Penalty.nuclear(0.5), point, 1.1, rng, n_samples=2000)

    @pytest.mark.parametrize(
        "penalty",
        [Penalty.l1(0.8), Penalty.frob_sq(0.6), Penalty.nonneg(),
         Penalty.sparse_group_lasso(0.5, groups=[[0, 1], [2, 3]])],
    )
    @given(st.integers(0, 2**31))
    def test_nonexpansive(self, penalty, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.standard_normal(5), gen.standard_normal(5)
        pa, pb = prox_apply(penalty, a, 1.0), prox_apply(penalty, b, 1.0)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_group_lasso_kills_small_groups(self):
        # the l1 part leaves (0.5, 0.5) of the first group, below the group
        # threshold 2
        p = Penalty.sparse_group_lasso(4.0, groups=[[0, 1], [2, 3]])
        point = np.array([2.5, 2.5, 10.0, 10.0])
        got = prox_apply(p, point, 1.0)
        assert np.array_equal(got[:2], np.zeros(2))
        assert np.all(got[2:] > 0)


class TestNuclearNonFinite:
    """``np.linalg.svd`` may never return on an ``inf`` entry, so the nuclear
    branches must not call it on a non-finite point."""

    @pytest.fixture
    def no_lapack(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite point")

        monkeypatch.setattr(np.linalg, "svd", svd)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_prox_returns_point_unchanged(self, value, no_lapack):
        point = np.ones((16, 3))
        point[0, 0] = value
        got = prox_apply(Penalty.nuclear(1.0), point, 1.0)
        np.testing.assert_array_equal(got, point)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_value_is_weighted_frobenius_norm(self, value, no_lapack):
        point = np.ones((16, 3))
        point[0, 0] = value
        np.testing.assert_equal(penalty_value(Penalty.nuclear(2.0), point), value)
