import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from dcot.losses import ObservationSet
from dcot.similarity import (
    ModeSimilarity,
    SimilarityModel,
    label_consistency,
    mode_similarity,
    smoothing_moments,
)


class TestModeSimilarity:
    def test_identical_features_give_one(self):
        feats = np.ones((4, 2))
        sim = mode_similarity(feats)
        assert np.allclose(sim.s, 1.0)

    def test_gaussian_at_one_bandwidth_distance(self):
        feats = np.array([[0.0], [2.0]])
        sim = mode_similarity(feats, bandwidths=[2.0])
        assert np.isclose(sim.s[0, 1], np.exp(-0.5))
        assert np.isclose(sim.s[0, 0], 1.0)

    def test_multi_bandwidth_average(self):
        feats = np.array([[0.0], [1.0]])
        sim = mode_similarity(feats, bandwidths=[1.0, 2.0])
        expected = 0.5 * (np.exp(-0.5) + np.exp(-0.125))
        assert np.isclose(sim.s[0, 1], expected)

    def test_unknown_kernel(self):
        # the kernel is always gaussian: there is no kernel to choose
        with pytest.raises(TypeError):
            mode_similarity(np.ones((2, 1)), kernel="gaussian", bandwidths=[1.0])

    def test_default_bandwidths_symmetric_psd_entries(self, rng):
        feats = rng.standard_normal((6, 3))
        sim = mode_similarity(feats)
        assert np.allclose(sim.s, sim.s.T)
        assert (sim.s >= 0).all() and (sim.s <= 1 + 1e-12).all()

    def test_empty_features_error(self):
        with pytest.raises(ValueError):
            mode_similarity(np.zeros((0, 2)))

    def test_nonpositive_bandwidth_error(self):
        with pytest.raises(ValueError):
            mode_similarity(np.ones((2, 1)), bandwidths=[0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSimilarity(s=np.array([[1.0, 0.5], [0.4, 1.0]]), c=np.ones((2, 2)))
        with pytest.raises(ValueError):
            ModeSimilarity(s=np.ones((2, 2)), c=2 * np.ones((2, 2)))


class TestLabelConsistency:
    def test_all_same_cluster(self):
        c = label_consistency([1, 1, 1])
        assert np.allclose(c, 0.8)

    def test_all_distinct(self):
        c = label_consistency([0, 1, 2])
        assert np.allclose(c[~np.eye(3, dtype=bool)], 0.2)
        assert np.allclose(np.diag(c), 0.8)

    def test_block_indicator(self):
        c = label_consistency([0, 0, 1, 1])
        same = np.block(
            [[np.ones((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), np.ones((2, 2))]]
        )
        assert np.array_equal(c, np.where(same == 1, 0.8, 0.2))


@pytest.mark.parametrize("call", [
    lambda: mode_similarity(np.ones((2, 1)), xi=0.3),
    lambda: mode_similarity(np.ones((2, 1)), labels=[0, 1], same=0.8),
    lambda: mode_similarity(np.ones((2, 1)), labels=[0, 1], diff=0.2),
    lambda: label_consistency([0, 1], same=0.8),
    lambda: label_consistency([0, 1], diff=0.2),
    lambda: SimilarityModel([mode_similarity(np.ones((2, 1)))], neighbor_cap=32),
    lambda: SimilarityModel([mode_similarity(np.ones((2, 1)))], normalized=True),
    lambda: SimilarityModel.neutral((2,), normalized=True),
    lambda: SimilarityModel.neutral((2,), cap=32),
], ids=["xi", "same", "diff", "label-same", "label-diff", "neighbor_cap", "normalized",
        "neutral-normalized", "neutral-cap"])
def test_weight_rule_takes_no_parameters(call):
    with pytest.raises(TypeError):
        call()


class TestSmoothingWeights:
    def test_uniform_when_all_ones(self, rng):
        shape = (3, 4)
        sim = oracles.similarity_ones(shape)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        w = oracles.smoothing_weights(sim, (1, 2), omega)
        assert len(w) == 12
        assert all(np.isclose(wt, 1.0 / 12) for _, wt in w)

    def test_zero_label_annihilates(self, rng):
        shape = (2, 2)
        modes = [
            ModeSimilarity(s=np.ones((2, 2)), c=np.array([[1.0, 0.0], [0.0, 1.0]])),
            ModeSimilarity(s=np.ones((2, 2)), c=np.ones((2, 2))),
        ]
        sim = SimilarityModel(per_mode=modes)
        omega = ObservationSet.from_dense(rng.standard_normal(shape))
        weights = dict(oracles.smoothing_weights(sim, (0, 0), omega))
        assert (1, 0) not in weights
        assert (1, 1) not in weights

    def test_two_source_hand_product(self):
        # source (1,1) has per-mode factors (0.5, 0.5), source (0,0) has
        # (1, 1): products 0.25 vs 1.0, normalized to 0.2 / 0.8
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        modes = [
            ModeSimilarity(s=s, c=np.ones((2, 2))),
            ModeSimilarity(s=s, c=np.ones((2, 2))),
        ]
        sim = SimilarityModel(per_mode=modes)
        omega = ObservationSet.from_entries([((0, 0), 1.0), ((1, 1), 2.0)], (2, 2))
        got = dict(oracles.smoothing_weights(sim, (0, 0), omega))
        assert np.isclose(got[(1, 1)], 0.2)
        assert np.isclose(got[(0, 0)], 0.8)

    def test_normalization_sums_to_one(self, rng):
        shape = (4, 3, 2)
        feats = [rng.standard_normal((s, 2)) for s in shape]
        sim = SimilarityModel(per_mode=[mode_similarity(f) for f in feats])
        x = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.6
        mask.flat[0] = True
        omega = ObservationSet.from_dense(x, mask)
        for target in [(0, 0, 0), (3, 2, 1), (1, 1, 1)]:
            w = oracles.smoothing_weights(sim, target, omega)
            assert abs(sum(wt for _, wt in w) - 1.0) <= 1e-10

    def test_raw_weight_symmetry_under_truncation(self, rng):
        # modes above the 32-neighbor cap, so truncation drops pairs; the raw
        # (pre-normalization) weight is the product of the truncated factors
        shape = (40, 36)
        sim = SimilarityModel(per_mode=[
            mode_similarity(rng.standard_normal((n, 2)), labels=rng.integers(0, 3, n))
            for n in shape])
        assert all((f == 0).any() for f in sim._factors)

        def raw(a, b):
            return math.prod(f[i, j] for f, i, j in zip(sim._factors, a, b))

        for _ in range(200):
            a, b = (tuple(int(rng.integers(n)) for n in shape) for _ in range(2))
            assert raw(a, b) == raw(b, a)

    def test_neighbor_cap_respected(self, rng):
        n = 40
        sim = SimilarityModel(per_mode=[mode_similarity(rng.standard_normal((n, 2)))])
        full = sim.per_mode[0].s
        for i in range(n):
            idx, vals = oracles.neighbors(sim, 0, i)
            assert len(idx) <= 32
            assert np.all(np.diff(vals) <= 0)
            # a retained neighbor is among the 32 strongest of its row
            assert np.isin(idx, np.argsort(-full[i], kind="stable")[:32]).all()

    def test_degenerate_target_falls_back_to_uniform(self, rng):
        # neutral similarity: unobserved targets have zero raw weight
        shape = (3, 3)
        sim = SimilarityModel.neutral(shape)
        omega = ObservationSet.from_entries([((0, 0), 2.0), ((1, 1), 4.0)], shape)
        w = oracles.smoothing_weights(sim, (2, 2), omega)
        assert len(w) == 2
        assert all(np.isclose(wt, 0.5) for _, wt in w)

    def test_degenerate_observed_target_uses_own_entry(self):
        shape = (3, 3)
        sim = SimilarityModel.neutral(shape)
        omega = ObservationSet.from_entries([((0, 0), 2.0), ((1, 1), 4.0)], shape)
        w = dict(oracles.smoothing_weights(sim, (1, 1), omega))
        assert np.isclose(w[(1, 1)], 1.0)

    def test_target_out_of_range(self):
        sim = SimilarityModel.neutral((2, 2))
        omega = ObservationSet.from_entries([((0, 0), 1.0)], (2, 2))
        with pytest.raises(ValueError):
            oracles.smoothing_weights(sim, (2, 0), omega)

    def test_empty_omega_error(self):
        sim = SimilarityModel.neutral((2, 2))
        omega = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), (2, 2))
        with pytest.raises(ValueError):
            oracles.smoothing_weights(sim, (0, 0), omega)


class TestSmoothingMoments:
    @given(st.integers(0, 2**31))
    def test_matches_per_target_weights(self, seed):
        gen = np.random.default_rng(seed)
        shape = (3, 2, 2)
        feats = [gen.standard_normal((s, 2)) for s in shape]
        sim = SimilarityModel(per_mode=[mode_similarity(f) for f in feats])
        x = gen.standard_normal(shape)
        mask = gen.random(shape) < 0.7
        mask.flat[0] = True
        omega = ObservationSet.from_dense(x, mask)
        mom = smoothing_moments(sim, omega)
        for target in [(0, 0, 0), (2, 1, 1), (1, 0, 1)]:
            pairs = oracles.smoothing_weights(sim, target, omega)
            w = sum(wt for _, wt in pairs)
            m = sum(wt * x[idx] for idx, wt in pairs)
            weight_sum = np.broadcast_to(mom.weight_sum, shape)
            assert np.isclose(weight_sum[target], w, atol=1e-10)
            assert np.isclose(mom.weighted_x[target], m, atol=1e-10)

    def test_neutral_reduces_to_unsmoothed(self, rng):
        # with delta weights the argmin of the smoothed gaussian loss on the
        # observed cells is the data itself
        shape = (3, 3)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        mom = smoothing_moments(SimilarityModel.neutral(shape), omega)
        assert np.allclose(mom.weighted_x, x)
        assert np.allclose(mom.weight_sum, 1.0)

    @staticmethod
    def similarity(kind, shape, gen):
        if kind == "neutral":
            return SimilarityModel.neutral(shape)
        per_mode = [mode_similarity(gen.standard_normal((n, 2))) for n in shape]
        if kind == "blind-index":
            # index 0 of mode 0 has no neighbor, itself included, so every
            # target on that slice is degenerate, observed or not
            s = per_mode[0].s.copy()
            s[0, :] = s[:, 0] = 0.0
            per_mode[0] = ModeSimilarity(s=s, c=per_mode[0].c)
        return SimilarityModel(per_mode=per_mode)

    @pytest.mark.parametrize("kind", ["kernel", "neutral", "blind-index"])
    @pytest.mark.parametrize("shape", [(5, 4), (4, 3, 3), (3, 3, 2, 2)])
    def test_bitwise_equal_to_the_dense_build(self, kind, shape):
        gen = np.random.default_rng(7)
        sim = self.similarity(kind, shape, gen)
        x = gen.standard_normal(shape)
        mask = gen.random(shape) < 0.6
        mask.flat[0] = True
        mask.flat[-1] = False
        omega = ObservationSet.from_dense(x, mask)
        w, m1, x2_total, degenerate = oracles.smoothing_moments_dense(sim, omega)
        mom = smoothing_moments(sim, omega)
        assert np.broadcast_to(mom.weight_sum, shape).tobytes() == w.tobytes()
        assert mom.weighted_x.shape == shape
        assert mom.weighted_x.tobytes() == m1.tobytes()
        assert mom.x2_total == x2_total
        assert mom.degenerate == degenerate
        # no dense all-ones weight tensor is stored
        assert mom.weight_sum.size == 1
        if kind in ("neutral", "blind-index"):
            assert degenerate > 0

    def test_build_holds_at_most_four_dense_arrays(self):
        # the three moments and one free buffer; the masks and index arrays
        # add well under half an array
        shape = (24, 24, 24)
        gen = np.random.default_rng(3)
        sim = self.similarity("kernel", shape, gen)
        omega = ObservationSet.from_dense(gen.standard_normal(shape),
                                          gen.random(shape) < 0.5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            smoothing_moments(sim, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 4.5 * 8 * math.prod(shape)
