import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import traced_memory
from dcot.model import (
    DcotModel,
    InitStrategy,
    SliceGroup,
    SubjectPartition,
    init_factors,
    initial_model,
    project_core,
    reconstruct,
    tie_heterogeneous_core,
    tie_satisfied,
)
from dcot.tensor import multilinear_product


def random_model(rng, shape=(4, 3, 3), ranks=(2, 2, 2), partition=None):
    factors = [rng.standard_normal((s, r)) for s, r in zip(shape, ranks)]
    g = rng.standard_normal(ranks)
    h = rng.standard_normal(ranks)
    if partition is not None:
        h = tie_heterogeneous_core(h, partition)
    return DcotModel(factors, g, h, partition)


class TestReconstruct:
    def test_identity_factors_zero_h(self, rng):
        g = rng.standard_normal((3, 3))
        model = DcotModel([np.eye(3), np.eye(3)], g, np.zeros((3, 3)))
        assert np.allclose(reconstruct(model), g)

    def test_equal_cores_double(self, rng):
        model = random_model(rng)
        twin = DcotModel(model.factors, model.core_g, model.core_g.copy())
        assert np.allclose(
            reconstruct(twin), 2 * multilinear_product(model.core_g, model.factors)
        )

    def test_matches_elementwise_sum_oracle(self, rng):
        model = random_model(rng, shape=(3, 2, 2), ranks=(2, 2, 2))
        expected = oracles.multilinear_oracle(model.core_g + model.core_h, model.factors)
        assert np.allclose(reconstruct(model), expected, atol=1e-12)

    def test_linear_in_cores(self, rng):
        model = random_model(rng)
        g2 = np.random.default_rng(5).standard_normal(model.ranks)
        lhs = reconstruct(DcotModel(model.factors, model.core_g + g2, model.core_h))
        rhs = reconstruct(model) + reconstruct(
            DcotModel(model.factors, g2, np.zeros(model.ranks))
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestInitFactors:
    def test_hosvd_rank_one(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(4)
        t = np.outer(a, b)
        u1 = init_factors(t, [1, 1])[0][:, 0]
        # independent oracle: power iteration on the Gram matrix
        gram = t @ t.T
        v = oracles.power_iteration_top_eigvec(gram)
        v = v if abs(v @ a) > 0 and np.dot(v, a) > 0 else -v
        direction = a / np.linalg.norm(a)
        assert min(np.linalg.norm(u1 - direction), np.linalg.norm(u1 + direction)) < 1e-8
        assert min(np.linalg.norm(v - direction), np.linalg.norm(v + direction)) < 1e-8

    def test_hosvd_orthonormal_columns(self, rng):
        t = rng.standard_normal((5, 4, 3))
        for n, u in enumerate(init_factors(t, [3, 2, 2])):
            assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-8

    def test_rank_exceeds_mode(self, rng):
        with pytest.raises(ValueError):
            init_factors(rng.standard_normal((3, 3)), [4, 2])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["hosvd"])
    def test_non_finite_data_rejected(self, value, kind, rng):
        # hosvd once handed such data to LAPACK, which raised "Eigenvalues
        # did not converge"
        x = rng.standard_normal((6, 5, 4))
        x[3, 2, 1] = value
        with pytest.raises(ValueError, match="data tensor has non-finite values"):
            init_factors(x, [2, 2, 2])
        with pytest.raises(ValueError, match="data tensor has non-finite values"):
            initial_model(x, [2, 2, 2], InitStrategy(kind))

    def test_one_matricization_live_at_a_time(self, rng):
        # each mode's matricization is a copy of x, released once its Gram is formed
        x = rng.standard_normal((24, 24, 24))
        with traced_memory() as mem:
            init_factors(x, [3, 3, 3])
        assert mem.peak < 1.25 * x.nbytes

    def test_hosvd_is_the_only_start(self):
        # the identity and random starts are gone, and so is the seed
        for kind in ("identity", "random"):
            with pytest.raises(ValueError, match="unknown init strategy"):
                InitStrategy(kind)
        with pytest.raises(TypeError):
            InitStrategy("hosvd", seed=0)


class TestProjectCore:
    def test_identity_factors(self, rng):
        t = rng.standard_normal((3, 4))
        assert np.allclose(project_core(t, [np.eye(3), np.eye(4)]), t)

    def test_zero_tensor(self):
        assert np.allclose(project_core(np.zeros((2, 2)), [np.eye(2), np.eye(2)]), 0)

    def test_full_rank_hosvd_reconstructs(self, rng):
        x = rng.standard_normal((4, 3, 2))
        factors = init_factors(x, list(x.shape))
        g = project_core(x, factors)
        model = DcotModel(factors, g, np.zeros_like(g))
        assert np.linalg.norm(reconstruct(model) - x) < 1e-8


class TestPartitionAndTie:
    def test_group_validation(self):
        with pytest.raises(ValueError):
            SliceGroup(())
        with pytest.raises(ValueError):
            SliceGroup((1, 1))
        with pytest.raises(ValueError):
            SubjectPartition(0, (SliceGroup((0, 1)), SliceGroup((1, 2))))
        with pytest.raises(ValueError):
            SubjectPartition(0, (SliceGroup((0,), fixed=(0, 1)),))

    @pytest.mark.parametrize("fixed", [(2,), (0, 1, 5)], ids=["short", "long"])
    def test_fixed_must_be_a_mode_index_pair(self, fixed):
        # neither indexed past its end nor cut to its first two entries
        with pytest.raises(ValueError, match=r"^fixed must be a \(mode, index\) pair"):
            SliceGroup((0, 1), fixed=fixed)

    def test_fixed_index_groups_share_one_fixed_mode(self):
        # with one fixed mode, a slice is claimed by at most one group
        with pytest.raises(ValueError, match="one fixed mode"):
            SubjectPartition(2, (SliceGroup((0, 1), fixed=(0, 0)),
                                 SliceGroup((2, 3), fixed=(1, 0))))
        part = SubjectPartition(2, (SliceGroup((0, 1), fixed=(1, 0)),
                                    SliceGroup((0, 1), fixed=(1, 1)), SliceGroup((2, 3))))
        assert part.slices == (
            ((slice(None), 0, 0), (slice(None), 0, 1)),
            ((slice(None), 1, 0), (slice(None), 1, 1)),
            ((slice(None), slice(None), 2), (slice(None), slice(None), 3)),
        )
        claimed = np.zeros((2, 2, 4), dtype=int)
        for group in part.slices:
            for s in group:
                claimed[s] += 1
        assert claimed.max() == 1

    def test_slices_leave_later_modes_implicit(self, rng):
        # a mode-0 tie indexes h[i], which is h[i, :, :] on a 3-way core
        part = SubjectPartition(0, (SliceGroup((0, 2)),))
        assert part.slices == (((0,), (2,)),)
        h = rng.standard_normal((3, 2, 2))
        tied = tie_heterogeneous_core(h, part)
        assert np.array_equal(tied[0, :, :], (h[0, :, :] + h[2, :, :]) / 2)

    def test_out_of_range(self):
        part = SubjectPartition(0, (SliceGroup((0, 5)),))
        with pytest.raises(ValueError):
            part.validate_shape((3, 3))

    def test_already_tied_unchanged(self, rng):
        part = SubjectPartition(0, (SliceGroup((0, 1)),))
        h = rng.standard_normal((3, 2))
        h[1] = h[0]
        assert np.array_equal(tie_heterogeneous_core(h, part), h)

    def test_mean_of_two_slices(self):
        part = SubjectPartition(0, (SliceGroup((0, 1)),))
        h = np.array([[1.0, 2.0], [3.0, 6.0]])
        tied = tie_heterogeneous_core(h, part)
        assert np.allclose(tied[0], [2.0, 4.0])
        assert np.array_equal(tied[0], tied[1])

    def test_untouched_outside_groups(self, rng):
        part = SubjectPartition(0, (SliceGroup((0, 1)),))
        h = rng.standard_normal((4, 2))
        tied = tie_heterogeneous_core(h, part)
        assert np.array_equal(tied[2:], h[2:])

    @given(st.integers(0, 2**31))
    def test_idempotent_bitwise(self, seed):
        gen = np.random.default_rng(seed)
        part = SubjectPartition(
            1, (SliceGroup((0, 1, 2)), SliceGroup((3,)))
        )
        h = gen.standard_normal((2, 5, 2))
        once = tie_heterogeneous_core(h, part)
        twice = tie_heterogeneous_core(once, part)
        assert np.array_equal(once, twice)
        assert tie_satisfied(once, part)

    def test_fixed_index_groups(self, rng):
        # tie slices (mode 1) separately within each index of mode 0
        part = SubjectPartition(
            1,
            (SliceGroup((0, 1), fixed=(0, 0)), SliceGroup((0, 1), fixed=(0, 1))),
        )
        h = rng.standard_normal((2, 2, 3))
        tied = tie_heterogeneous_core(h, part)
        assert np.array_equal(tied[0, 0], tied[0, 1])
        assert np.array_equal(tied[1, 0], tied[1, 1])
        assert not np.array_equal(tied[0, 0], tied[1, 0])
        assert np.allclose(tied[0, 0], h[0].mean(axis=0))

    def test_model_requires_tied_core(self, rng):
        part = SubjectPartition(0, (SliceGroup((0, 1)),))
        factors = [rng.standard_normal((4, 3)), rng.standard_normal((3, 2))]
        h = rng.standard_normal((3, 2))
        with pytest.raises(ValueError):
            DcotModel(factors, np.zeros((3, 2)), h, part)


def test_initial_model_cores_are_projection(rng):
    x = rng.standard_normal((4, 3, 3))
    model = initial_model(x, [2, 2, 2], InitStrategy("hosvd"))
    g = project_core(x, model.factors)
    assert np.allclose(model.core_g, g)
    assert np.allclose(model.core_h, g)
