import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from dcot.losses import ObservationSet
from dcot.similarity import (
    SimilarityModel,
    label_consistency,
    mode_similarity,
    smoothing_moments,
)


class TestModeSimilarity:
    def test_identical_features_give_one(self):
        feats = np.ones((4, 2))
        assert np.allclose(mode_similarity(feats), 1.0)

    def test_gaussian_at_one_bandwidth_distance(self):
        feats = np.array([[0.0], [2.0]])
        s = mode_similarity(feats, bandwidths=[2.0])
        assert np.isclose(s[0, 1], np.exp(-0.5))
        assert np.isclose(s[0, 0], 1.0)

    def test_multi_bandwidth_average(self):
        feats = np.array([[0.0], [1.0]])
        s = mode_similarity(feats, bandwidths=[1.0, 2.0])
        expected = 0.5 * (np.exp(-0.5) + np.exp(-0.125))
        assert np.isclose(s[0, 1], expected)

    def test_unknown_kernel(self):
        # the kernel is always gaussian: there is no kernel to choose
        with pytest.raises(TypeError):
            mode_similarity(np.ones((2, 1)), kernel="gaussian", bandwidths=[1.0])

    def test_default_bandwidths_symmetric_psd_entries(self, rng):
        feats = rng.standard_normal((6, 3))
        s = mode_similarity(feats)
        assert np.array_equal(s, s.T)
        assert (s >= 0).all() and (s <= 1 + 1e-12).all()

    def test_labels_multiply_the_kernel(self, rng):
        # one weight matrix per mode: the kernel times the label factor
        feats, labels = rng.standard_normal((6, 2)), [0, 0, 1, 1, 2, 0]
        kernel = mode_similarity(feats, bandwidths=[1.0])
        weights = mode_similarity(feats, bandwidths=[1.0], labels=labels)
        assert weights.tobytes() == (kernel * label_consistency(labels)).tobytes()
        with pytest.raises(ValueError, match="one id per feature vector"):
            mode_similarity(feats, labels=[0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_error(self, bad):
        # rejected before any arithmetic, so no RuntimeWarning either
        feats = np.arange(8.0).reshape(4, 2)
        feats[2, 1] = bad
        with pytest.raises(ValueError, match="feature values must be finite"):
            mode_similarity(feats)

    def test_empty_features_error(self):
        with pytest.raises(ValueError):
            mode_similarity(np.zeros((0, 2)))

    def test_nonpositive_bandwidth_error(self):
        with pytest.raises(ValueError):
            mode_similarity(np.ones((2, 1)), bandwidths=[0.0])

    def test_validation(self):
        # each mode's weight matrix is checked once, when the model is built;
        # an inf entry once passed and made every moment NaN
        for matrix, message in [
            (np.ones((2, 3)), "square"),
            (np.array([[1.0, 0.5], [0.4, 1.0]]), "symmetric"),
            (np.array([[1.0, -0.5], [-0.5, 1.0]]), "nonnegative"),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), "finite"),
            (np.array([[np.nan, 0.5], [0.5, 1.0]]), "finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                SimilarityModel(per_mode=[np.eye(2), matrix])


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
        sim = SimilarityModel(per_mode=[np.array([[1.0, 0.0], [0.0, 1.0]]),
                                        np.ones((2, 2))])
        omega = ObservationSet.from_dense(rng.standard_normal(shape))
        weights = dict(oracles.smoothing_weights(sim, (0, 0), omega))
        assert (1, 0) not in weights
        assert (1, 1) not in weights

    def test_two_source_hand_product(self):
        # source (1,1) has per-mode factors (0.5, 0.5), source (0,0) has
        # (1, 1): products 0.25 vs 1.0, normalized to 0.2 / 0.8
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        sim = SimilarityModel(per_mode=[s, s])
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
        assert all((f == 0).any() for f in sim.per_mode)

        def raw(a, b):
            return math.prod(f[i, j] for f, i, j in zip(sim.per_mode, a, b))

        for _ in range(200):
            a, b = (tuple(int(rng.integers(n)) for n in shape) for _ in range(2))
            assert raw(a, b) == raw(b, a)

    def test_neighbor_cap_respected(self, rng):
        n = 40
        full = mode_similarity(rng.standard_normal((n, 2)))
        sim = SimilarityModel(per_mode=[full])
        for i in range(n):
            idx, vals = oracles.neighbors(sim, 0, i)
            assert len(idx) <= 32
            assert np.all(np.diff(vals) <= 0)
            # a retained neighbor is among the 32 strongest of its row
            assert np.isin(idx, np.argsort(-full[i], kind="stable")[:32]).all()

    @pytest.mark.parametrize("n", [33, 40, 64])
    def test_truncation_tie_rule(self, n):
        # small integer weights tie across the 32-neighbor cut, and zeros sit
        # among them; the stable ranking keeps the lower column of a tie, as
        # the lexsort over (-value, column) did
        gen = np.random.default_rng(n)
        cut_ties = 0
        for _ in range(20):
            a = gen.integers(1, 4, (n, n))
            f = (a + a.T).astype(float)
            zero = gen.random((n, n)) < 0.03
            f[zero | zero.T] = 0.0
            got = SimilarityModel(per_mode=[f]).per_mode[0]
            assert got.tobytes() == oracles.truncate_lexsort(f).tobytes()
            ranked = -np.sort(-f, axis=1)
            cut_ties += np.count_nonzero((ranked[:, 31] == ranked[:, 32]) & (ranked[:, 32] > 0))
        assert cut_ties > 0

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
            # the loss functions take a unit weight per target
            assert np.isclose(sum(wt for _, wt in pairs), 1.0, atol=1e-10)
            m = sum(wt * x[idx] for idx, wt in pairs)
            assert np.isclose(mom.weighted_x[target], m, atol=1e-10)

    def test_neutral_reduces_to_unsmoothed(self, rng):
        # with delta weights the argmin of the smoothed gaussian loss on the
        # observed cells is the data itself
        shape = (3, 3)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        mom = smoothing_moments(SimilarityModel.neutral(shape), omega)
        assert np.allclose(mom.weighted_x, x)

    @staticmethod
    def similarity(kind, shape, gen):
        if kind == "neutral":
            return SimilarityModel.neutral(shape)
        per_mode = [mode_similarity(gen.standard_normal((n, 2))) for n in shape]
        if kind == "blind-index":
            # index 0 of mode 0 has no neighbor, itself included, so every
            # target on that slice is degenerate, observed or not
            per_mode[0][0, :] = per_mode[0][:, 0] = 0.0
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
        w, m1, degenerate = oracles.smoothing_moments_dense(sim, omega)
        mom = smoothing_moments(sim, omega)
        # every target's weights sum to one, fallback included, so the
        # moments store no weight sums and the losses take a unit weight
        assert np.all(w == 1.0)
        assert mom.weighted_x.shape == shape
        assert mom.weighted_x.tobytes() == m1.tobytes()
        assert mom.degenerate == degenerate
        if kind in ("neutral", "blind-index"):
            assert degenerate > 0

    def test_build_holds_at_most_three_dense_arrays(self):
        # w and the two buffers: m1 is built in the buffer w's build left
        # free.  With degenerate targets their mask adds an eighth of an array
        shape = (24, 24, 24)
        for kind, bound in (("kernel", 3.25), ("neutral", 3.3), ("blind-index", 3.3)):
            gen = np.random.default_rng(3)
            sim = self.similarity(kind, shape, gen)
            omega = ObservationSet.from_dense(gen.standard_normal(shape),
                                              gen.random(shape) < 0.5)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                mom = smoothing_moments(sim, omega)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (mom.degenerate > 0) == (kind != "kernel")
            assert peak - base <= bound * 8 * math.prod(shape), kind

    @pytest.mark.parametrize("kind", ["kernel", "blind-index"])
    def test_build_makes_two_moments(self, kind, monkeypatch):
        # the weight sum and the first moment: N mode products each
        import dcot.similarity

        shape = (4, 3, 5)
        gen = np.random.default_rng(5)
        sim = self.similarity(kind, shape, gen)
        omega = ObservationSet.from_dense(gen.standard_normal(shape), gen.random(shape) < 0.6)
        calls = []
        real = dcot.similarity.n_mode_product

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(dcot.similarity, "n_mode_product", counted)
        smoothing_moments(sim, omega)
        assert calls == [0, 1, 2] * 2
