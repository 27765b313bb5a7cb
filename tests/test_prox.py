import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcot.model import SliceGroup, SubjectPartition
from dcot.prox import Penalty, penalty_value, prox_apply

# ties columns 0 and 1 of a matrix point: its groups are those two columns,
# and column 2 takes only the l1 part
COLUMNS = SubjectPartition(1, ((0, 1),))


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
        p = Penalty.sparse_group_lasso(2.0, COLUMNS)
        x = np.array([[3.0, 0.0], [4.0, 0.0]])
        expected = 2.0 * (0.5 * 7.0 + 0.5 * 5.0)
        assert np.isclose(penalty_value(p, x), expected)

    def test_disjoint_groups_required(self):
        # the groups are a partition's tied slices, which cannot overlap
        with pytest.raises(ValueError, match="overlap"):
            Penalty.sparse_group_lasso(1.0, SubjectPartition(1, ((0, 1), (1, 2))))

    def test_sparse_group_lasso_split_is_fixed(self):
        with pytest.raises(TypeError):
            Penalty.sparse_group_lasso(1.0, COLUMNS, mix=0.5)
        with pytest.raises(TypeError):
            Penalty("sparse_group_lasso", 1.0, COLUMNS, mix=0.5)

    def test_partition_goes_with_sparse_group_lasso_only(self):
        with pytest.raises(ValueError, match="needs a partition"):
            Penalty("sparse_group_lasso", 1.0)
        with pytest.raises(ValueError, match="takes no partition"):
            Penalty("l1", 1.0, COLUMNS)

    @pytest.mark.parametrize("shape", [(2,), (2, 1)])
    def test_partition_must_fit_the_point(self, shape):
        # COLUMNS ties column 1, which a 1-column or 1-D point lacks
        p = Penalty.sparse_group_lasso(1.0, COLUMNS)
        with pytest.raises(ValueError, match="out of range"):
            penalty_value(p, np.ones(shape))
        with pytest.raises(ValueError, match="out of range"):
            prox_apply(p, np.ones(shape), 1.0)


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
            Penalty.sparse_group_lasso(0.5, COLUMNS),
        ],
    )
    def test_optimality_vs_dense_search(self, penalty, rng):
        point = rng.standard_normal((2, 3))
        dense_search_confirms(penalty, point, 1.3, rng)

    def test_nuclear_optimality_vs_dense_search(self, rng):
        point = rng.standard_normal((3, 2))
        dense_search_confirms(Penalty.nuclear(0.5), point, 1.1, rng, n_samples=2000)

    @pytest.mark.parametrize(
        "penalty",
        [Penalty.l1(0.8), Penalty.frob_sq(0.6), Penalty.nonneg(),
         Penalty.sparse_group_lasso(0.5, COLUMNS)],
    )
    @given(st.integers(0, 2**31))
    def test_nonexpansive(self, penalty, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.standard_normal((2, 3)), gen.standard_normal((2, 3))
        pa, pb = prox_apply(penalty, a, 1.0), prox_apply(penalty, b, 1.0)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_group_lasso_kills_small_groups(self):
        # the l1 part leaves (0.5, 0.5) of the first group, below the group
        # threshold 2
        p = Penalty.sparse_group_lasso(4.0, COLUMNS)
        point = np.array([[2.5, 10.0], [2.5, 10.0]])
        got = prox_apply(p, point, 1.0)
        assert np.array_equal(got[:, 0], np.zeros(2))
        assert np.all(got[:, 1] > 0)

    @pytest.mark.parametrize("shape, part", [
        ((3, 3, 4), SubjectPartition(2, ((0, 1, 2),))),
        ((2, 3, 2, 2), SubjectPartition(3, (SliceGroup((0, 1), fixed=(0, 1)),
                                            SliceGroup((0, 1), fixed=(0, 0))))),
        ((4, 3, 3), SubjectPartition(0, ((0, 1), (2, 3)))),
    ])
    def test_matches_flat_index_reference_bitwise(self, rng, shape, part):
        # the reference indexes the first-mode-fastest flattened point with one
        # index array per tied slice, as the penalty once did
        flat_groups = []
        for g in part.groups:
            for i in g.indices:
                mask = np.zeros(shape, dtype=bool)
                sel = [slice(None)] * len(shape)
                sel[part.mode] = i
                if g.fixed is not None:
                    sel[g.fixed[0]] = g.fixed[1]
                mask[tuple(sel)] = True
                flat_groups.append(np.flatnonzero(mask.ravel(order="F")))
        for _ in range(200):
            weight, t = 3.0 * rng.random(), 0.2 + 3.0 * rng.random()
            point = rng.standard_normal(shape) * 3.0 * rng.random()
            flat = point.ravel(order="F")
            want_value = 0.5 * float(np.abs(flat).sum())
            for g in flat_groups:
                want_value += 0.5 * float(np.linalg.norm(flat[g]))
            lam = weight / t
            flat = np.sign(flat) * np.maximum(np.abs(flat) - 0.5 * lam, 0.0)
            for g in flat_groups:
                norm = float(np.linalg.norm(flat[g]))
                flat[g] *= 0.0 if norm == 0.0 else max(0.0, 1.0 - 0.5 * lam / norm)
            p = Penalty.sparse_group_lasso(weight, part)
            assert penalty_value(p, point) == weight * want_value
            assert np.array_equal(prox_apply(p, point, t),
                                  flat.reshape(shape, order="F"))

    def test_group_lasso_shrinks_each_tied_slice(self, rng):
        # fixed-index groups: slices h[m, :, k] over k, separately for m = 0, 1;
        # h[2] is untied and takes only the elementwise shrink
        part = SubjectPartition(2, (SliceGroup((0, 1), fixed=(0, 0)),
                                    SliceGroup((1, 2), fixed=(0, 1))))
        point = rng.standard_normal((3, 4, 3)) * 2.0
        got = prox_apply(Penalty.sparse_group_lasso(3.0, part), point, 2.0)
        soft = np.sign(point) * np.maximum(np.abs(point) - 0.75, 0.0)
        want = soft.copy()
        for m, k in [(0, 0), (0, 1), (1, 1), (1, 2)]:
            norm = np.linalg.norm(soft[m, :, k])
            want[m, :, k] *= max(0.0, 1.0 - 0.75 / norm)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        value = penalty_value(Penalty.sparse_group_lasso(3.0, part), point)
        groups = sum(np.linalg.norm(point[m, :, k])
                     for m, k in [(0, 0), (0, 1), (1, 1), (1, 2)])
        assert np.isclose(value, 3.0 * (0.5 * np.abs(point).sum() + 0.5 * groups))


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
