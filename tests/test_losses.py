import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from dcot.losses import (
    DomainError,
    LossFamily,
    ObservationSet,
    loss_curvature,
    loss_curvature_min,
    loss_gradient,
    loss_lipschitz,
    loss_value,
)
from dcot.similarity import (
    Moments,
    ModeSimilarity,
    SimilarityModel,
    mode_similarity,
    smoothing_moments,
)


def make_problem(rng, shape=(3, 3, 3), density=0.7, family="gaussian"):
    x = rng.standard_normal(shape)
    if family == "bernoulli":
        x = (x > 0).astype(float)
    elif family == "poisson":
        x = rng.poisson(3.0, shape).astype(float)
    elif family == "gamma":
        x = rng.gamma(2.0, 1.0, shape) + 0.1
    mask = rng.random(shape) < density
    mask.flat[0] = True
    omega = ObservationSet.from_dense(x, mask)
    feats = [rng.standard_normal((s, 2)) for s in shape]
    sim = SimilarityModel(per_mode=[mode_similarity(f) for f in feats])
    return omega, smoothing_moments(sim, omega)


def positive_z(rng, shape, low=0.5, high=3.0):
    return low + (high - low) * rng.random(shape)


class TestObservationSet:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet.from_entries([((0, 0), 1.0), ((0, 0), 2.0)], (2, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet.from_entries([((2, 0), 1.0)], (2, 2))

    def test_sparse_huge_shape_checks_duplicates_quickly(self):
        shape = (10**6, 10**6, 10**3)
        idx = np.array([[0, 0, 0], [10**6 - 1, 10**6 - 1, 999], [5, 7, 9]])
        started = time.perf_counter()
        assert len(ObservationSet(idx, np.ones(3), shape)) == 3
        assert time.perf_counter() - started < 0.5
        with pytest.raises(ValueError, match="duplicate"):
            ObservationSet(np.vstack([idx, idx[2]]), np.ones(4), shape)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet.from_entries([((0, 0), np.nan)], (2, 2))

    def test_family_domains(self):
        omega = ObservationSet.from_entries([((0,), 0.5)], (2,))
        LossFamily("gaussian").validate_observations(omega)
        with pytest.raises(DomainError):
            LossFamily("bernoulli").validate_observations(omega)
        with pytest.raises(DomainError):
            LossFamily("poisson").validate_observations(omega)
        neg = ObservationSet.from_entries([((0,), -1.0)], (2,))
        with pytest.raises(DomainError):
            LossFamily("gamma").validate_observations(neg)


def sample_oracle(kind, rng, mean, sigma):
    """The noise draw ``synthesize`` made before the families owned it."""
    if kind == "gaussian":
        return mean + sigma * rng.standard_normal(mean.shape)
    if kind == "bernoulli":
        return rng.binomial(1, 1.0 / (1.0 + np.exp(-mean))).astype(float)
    if kind == "poisson":
        return rng.poisson(mean).astype(float)
    return rng.gamma(shape=1.0, scale=np.maximum(mean, 1e-6))


FAMILIES = ["gaussian", "bernoulli", "poisson", "gamma"]


class TestFamilyRules:
    def test_bounded_families(self):
        assert [k for k in FAMILIES if LossFamily(k).bounded] == ["poisson", "gamma"]

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_sample_is_the_old_draw_bitwise(self, kind):
        mean = np.abs(np.random.default_rng(3).standard_normal((4, 5))) + 0.1
        rng_new, rng_old = np.random.default_rng(9), np.random.default_rng(9)
        got = LossFamily(kind).sample(rng_new, mean, 0.3)
        want = sample_oracle(kind, rng_old, mean, 0.3)
        assert got.tobytes() == want.tobytes()
        # the same RNG calls: both generators end in the same state
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        LossFamily(kind).validate_observations(ObservationSet.from_dense(got))


class TestLossValue:
    def test_gaussian_at_mean_is_variance(self, rng):
        shape = (3, 3)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        # uniform weights over observations
        mom = smoothing_moments(oracles.similarity_ones(shape), omega)
        z = np.full(shape, x.mean())
        value = loss_value(LossFamily("gaussian"), mom, z)
        assert np.isclose(value, x.var())

    @pytest.mark.parametrize("kind", ["neutral", "kernel", "zero-row"])
    def test_gaussian_matches_per_cell_formula(self, kind, rng):
        # sum over every target t and observed source j of w(t, j) (z_t - x_j)^2
        shape = (3, 4, 2)
        x = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.5
        mask.flat[0] = True
        omega = ObservationSet.from_dense(x, mask)
        feats = [rng.standard_normal((s, 2)) for s in shape]
        if kind == "neutral":
            # every unobserved target is degenerate
            sim = SimilarityModel.neutral(shape)
        elif kind == "kernel":
            sim = SimilarityModel([mode_similarity(f) for f in feats])
        else:
            # index 0 of mode 0 pools from nothing: degenerate observed and
            # unobserved targets next to ordinary ones
            zero_row = ModeSimilarity(s=np.diag([0.0, 1.0, 1.0]), c=np.ones((3, 3)))
            sim = SimilarityModel([zero_row] + [mode_similarity(f) for f in feats[1:]])
        mom = smoothing_moments(sim, omega)
        assert (mom.degenerate > 0) == (kind != "kernel")
        z = rng.standard_normal(shape)
        total = 0.0
        for t in np.ndindex(shape):
            for j, w in oracles.smoothing_weights(sim, t, omega):
                total += w * (z[t] - x[j]) ** 2
        got = loss_value(LossFamily("gaussian"), mom, z)
        assert got == pytest.approx(total / x.size, rel=1e-12)

    def test_bernoulli_at_zero_is_log2(self, rng):
        shape = (2, 3)
        x = (rng.random(shape) > 0.5).astype(float)
        omega = ObservationSet.from_dense(x)
        mom = smoothing_moments(oracles.similarity_ones(shape), omega)
        value = loss_value(LossFamily("bernoulli"), mom, np.zeros(shape))
        assert np.isclose(value, np.log(2.0) - x.mean() * 0.0 + 0.0 - (0.0))
        assert np.isclose(value, np.log(2.0))

    def test_poisson_plugin(self):
        shape = (2, 2)
        x = np.full(shape, 3.0)
        omega = ObservationSet.from_dense(x)
        mom = smoothing_moments(oracles.similarity_ones(shape), omega)
        value = loss_value(LossFamily("poisson"), mom, np.full(shape, 3.0))
        assert np.isclose(value, 3.0 - 3.0 * np.log(3.0))

    def test_domain_violation(self, rng):
        omega, mom = make_problem(rng, family="poisson")
        z = -np.ones(omega.shape)
        with pytest.raises(DomainError):
            loss_value(LossFamily("poisson"), mom, z)
        with pytest.raises(DomainError):
            loss_gradient(LossFamily("gamma"), mom, z)

    def test_shape_mismatch(self, rng):
        omega, mom = make_problem(rng)
        with pytest.raises(ValueError):
            loss_value(LossFamily("gaussian"), mom, np.zeros((2, 2)))

    def test_gaussian_convex_midpoint(self, rng):
        omega, mom = make_problem(rng)
        fam = LossFamily("gaussian")
        z1, z2 = rng.standard_normal(omega.shape), rng.standard_normal(omega.shape)
        mid = loss_value(fam, mom, 0.5 * (z1 + z2))
        avg = 0.5 * (loss_value(fam, mom, z1) + loss_value(fam, mom, z2))
        assert mid <= avg + 1e-12


class TestLossGradient:
    def test_gaussian_zero_at_weighted_mean(self, rng):
        omega, mom = make_problem(rng)
        grad = loss_gradient(LossFamily("gaussian"), mom, mom.weighted_x)
        assert np.abs(grad).max() < 1e-14

    def test_poisson_zero_at_weighted_mean(self, rng):
        omega, mom = make_problem(rng, family="poisson")
        z = np.maximum(mom.weighted_x, 1e-6)
        grad = loss_gradient(LossFamily("poisson"), mom, z)
        # zero wherever the weighted mean is interior (positive)
        interior = mom.weighted_x > 1e-6
        assert np.abs(grad[interior]).max() < 1e-12

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_matches_finite_differences(self, family, rng):
        omega, mom = make_problem(rng, family=family)
        fam = LossFamily(family)
        if family in ("poisson", "gamma"):
            z = positive_z(rng, omega.shape)
        else:
            z = rng.standard_normal(omega.shape)
        grad = loss_gradient(fam, mom, z)
        fd = oracles.central_difference(lambda zz: loss_value(fam, mom, zz), z)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-5

    def test_descent_direction(self, rng):
        omega, mom = make_problem(rng)
        fam = LossFamily("gaussian")
        z = rng.standard_normal(omega.shape)
        grad = loss_gradient(fam, mom, z)
        before = loss_value(fam, mom, z)
        after = loss_value(fam, mom, z - 1e-3 * grad)
        assert after < before


class TestLossCurvature:
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_matches_finite_differences(self, family, rng):
        omega, mom = make_problem(rng, family=family)
        fam = LossFamily(family)
        if family in ("poisson", "gamma"):
            z = positive_z(rng, omega.shape)
        else:
            z = rng.standard_normal(omega.shape)
        curv = loss_curvature(fam, mom, z)
        # the Hessian is diagonal: cell t's gradient moves only with z_t
        h = 1e-5
        fd = (loss_gradient(fam, mom, z + h)
              - loss_gradient(fam, mom, z - h)) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(curv - fd).max() / denom < 1e-5

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_min_bounds_curvature_on_domain(self, family, rng):
        omega, mom = make_problem(rng, family=family)
        fam = LossFamily(family)
        z_min = 0.05
        low = loss_curvature_min(fam, mom, z_min)
        grid = np.geomspace(z_min, 1e3, 400) if family in ("poisson", "gamma") else \
            np.linspace(-20.0, 20.0, 401)
        curv = np.stack([loss_curvature(fam, mom, np.full(omega.shape, q))
                         for q in grid])
        assert np.all(curv >= low - 1e-12)
        if family == "gamma":  # the bound is attained, so it is the minimum
            assert np.abs(curv.min(axis=0) - low).max() <= 1e-3 * np.abs(low).max()


class TestLossLipschitz:
    def test_gaussian_normalized(self, rng):
        shape = (2, 2, 2)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        mom = smoothing_moments(SimilarityModel.neutral(shape), omega)
        lf = loss_lipschitz(LossFamily("gaussian"), mom)
        assert np.isclose(lf, 2.0 / 8.0)

    def test_bernoulli_single_cell(self):
        shape = (1,)
        omega = ObservationSet.from_entries([((0,), 1.0)], shape)
        mom = smoothing_moments(SimilarityModel.neutral(shape), omega)
        lf = loss_lipschitz(LossFamily("bernoulli"), mom)
        assert np.isclose(lf, 0.25)

    def test_unnormalized_scales_linearly(self, rng):
        omega = ObservationSet.from_dense(rng.standard_normal((3, 3)))
        full, _ = oracles.per_cell_moments(rng, omega)
        half = replace(full, weight_sum=0.5 * full.weight_sum,
                       weighted_x=0.5 * full.weighted_x, x2_total=0.5 * full.x2_total)
        for kind in ("gaussian", "bernoulli"):
            lf_full = loss_lipschitz(LossFamily(kind), full)
            assert lf_full > 0
            assert np.isclose(lf_full, 2.0 * loss_lipschitz(LossFamily(kind), half))

    def test_positive_families_need_floor(self, rng):
        omega, mom = make_problem(rng, family="poisson")
        with pytest.raises(ValueError):
            loss_lipschitz(LossFamily("poisson"), mom)
        lf = loss_lipschitz(LossFamily("poisson"), mom, z_min=0.5)
        assert lf > 0

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_bounds_actual_gradient_jumps(self, family, rng):
        omega, mom = make_problem(rng, family=family)
        fam = LossFamily(family)
        z_min = 0.5
        lf = loss_lipschitz(fam, mom, z_min=z_min)
        for _ in range(10):
            z1 = positive_z(rng, omega.shape) if family in ("poisson", "gamma") else \
                rng.standard_normal(omega.shape)
            z2 = positive_z(rng, omega.shape) if family in ("poisson", "gamma") else \
                rng.standard_normal(omega.shape)
            g1 = loss_gradient(fam, mom, z1)
            g2 = loss_gradient(fam, mom, z2)
            lhs = np.linalg.norm(g1 - g2)
            assert lhs <= lf * np.linalg.norm(z1 - z2) + 1e-12


# the per-pair integrand f(x; z) of each family (see dcot.losses)
INTEGRANDS = {
    "gaussian": lambda x, z: (z - x) ** 2,
    "bernoulli": lambda x, z: math.log1p(math.exp(z)) - x * z,
    "poisson": lambda x, z: z - x * math.log(z),
    "gamma": lambda x, z: math.log(z + 1e-6) + x / (z + 1e-6),
}


class TestPerCellWeights:
    """A dense, non-uniform ``weight_sum`` that is zero on one cell.

    ``smoothing_moments`` always normalizes, so only moments built directly
    carry per-cell weight sums; the loss functions and the gaussian z step
    must handle them all the same.
    """

    def problem(self, rng, family):
        omega, _ = make_problem(rng, family=family)
        mom, pairs = oracles.per_cell_moments(rng, omega)
        assert np.unique(mom.weight_sum).size > 2 and mom.weight_sum.min() == 0.0
        z = positive_z(rng, omega.shape) if LossFamily(family).bounded else \
            rng.standard_normal(omega.shape)
        return omega, mom, pairs, z

    @pytest.mark.parametrize("family", FAMILIES)
    def test_value_matches_pair_sum(self, family, rng):
        omega, mom, pairs, z = self.problem(rng, family)
        f = INTEGRANDS[family]
        total = sum(pairs[t][j] * f(x, z[t]) for t in np.ndindex(omega.shape)
                    for j, x in enumerate(omega.values.tolist()))
        got = loss_value(LossFamily(family), mom, z)
        assert got == pytest.approx(total / mom.count, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_derivatives_match_finite_differences(self, family, rng):
        omega, mom, _, z = self.problem(rng, family)
        fam = LossFamily(family)
        grad = loss_gradient(fam, mom, z)
        fd = oracles.central_difference(lambda zz: loss_value(fam, mom, zz), z)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5
        h = 1e-5
        fd = (loss_gradient(fam, mom, z + h) - loss_gradient(fam, mom, z - h)) / (2 * h)
        curv = loss_curvature(fam, mom, z)
        assert np.abs(curv - fd).max() / np.abs(fd).max() < 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    def test_curvature_bounds(self, family, rng):
        omega, mom, _, _ = self.problem(rng, family)
        fam = LossFamily(family)
        z_min = 0.05
        grid = np.geomspace(z_min, 1e3, 200) if fam.bounded else np.linspace(-20, 20, 201)
        curv = np.stack([loss_curvature(fam, mom, np.full(omega.shape, q)) for q in grid])
        assert np.all(curv >= loss_curvature_min(fam, mom, z_min) - 1e-12)
        assert curv.max() <= loss_lipschitz(fam, mom, z_min=z_min) * (1 + 1e-12)


EPS = np.finfo(float).eps
# the bernoulli logits where exp, expit and logaddexp are exact, saturate or
# overflow, beside ordinary values
EDGE_LOGITS = [800.0, -800.0, 40.0, -40.0, 1e-300, -1e-300, 0.0, -0.0]


def unit_moments(shape):
    """Moments whose bernoulli gradient is ``p`` and whose loss is ``log(1 + exp(z))``."""
    return Moments(weight_sum=np.ones((1,) * len(shape)), weighted_x=np.zeros(shape),
                   x2_total=0.0, count=1)


class TestOnePassMatchesReference:
    """The derivative pass against the earlier whole-array forms in ``oracles``.

    Poisson and gamma (and gaussian) keep their arithmetic, so they are
    bitwise equal; bernoulli takes ``exp`` and ``log1p`` from numpy instead
    of ``scipy.special.expit`` and ``np.logaddexp``, which round differently.
    """

    @pytest.mark.parametrize("family", ["gaussian", "poisson", "gamma"])
    @pytest.mark.parametrize("weights", ["normalized", "per-cell"])
    def test_bitwise_equal(self, family, weights, rng):
        omega, mom = make_problem(rng, shape=(4, 3, 5), family=family)
        if weights == "per-cell":
            mom, _ = oracles.per_cell_moments(rng, omega)
        fam = LossFamily(family)
        z = positive_z(rng, omega.shape, 1e-3, 5.0) if fam.bounded else \
            rng.standard_normal(omega.shape)
        if fam.bounded:
            z.flat[:2] = (0.0, 1e-14)  # below poisson's floor
        assert np.array_equal(loss_gradient(fam, mom, z),
                              oracles.loss_gradient_reference(fam, mom, z))
        assert np.array_equal(loss_curvature(fam, mom, z),
                              oracles.loss_curvature_reference(fam, mom, z))

    def test_bernoulli_within_4_ulp(self, rng):
        z = np.concatenate([EDGE_LOGITS, 3.0 * rng.standard_normal(200),
                            rng.uniform(-800.0, 800.0, 200)])
        fam, mom = LossFamily("bernoulli"), unit_moments(z.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = loss_gradient(fam, mom, z)
            curv = loss_curvature(fam, mom, z)
            soft = np.array([loss_value(fam, unit_moments((1,)), np.array([q])) for q in z])
        p_ref = oracles.loss_gradient_reference(fam, mom, z)
        assert np.all(np.abs(p - p_ref) <= 4 * np.spacing(p_ref))
        soft_ref = np.logaddexp(0.0, z)
        assert np.all(np.abs(soft - soft_ref) <= 4 * np.spacing(soft_ref))
        # p (1 - p): p's 4 ulp carried through 1 - p
        curv_ref = oracles.loss_curvature_reference(fam, mom, z)
        assert np.all(np.abs(curv - curv_ref) <= 4 * (np.spacing(curv_ref) + EPS * p_ref))
        assert p[0] == 1.0 and p[1] == 0.0 and curv[0] == curv[1] == 0.0

    @pytest.mark.parametrize("weights", ["normalized", "per-cell"])
    def test_bernoulli_problem_within_4_ulp_of_its_terms(self, weights, rng):
        omega, mom = make_problem(rng, shape=(4, 3, 5), family="bernoulli")
        if weights == "per-cell":
            mom, _ = oracles.per_cell_moments(rng, omega)
        fam = LossFamily("bernoulli")
        z = 4.0 * rng.standard_normal(omega.shape)
        z.flat[:len(EDGE_LOGITS)] = EDGE_LOGITS
        w, m1, count = mom.weight_sum, mom.weighted_x, mom.count
        grad = loss_gradient(fam, mom, z)
        scale = (np.abs(w) + np.abs(m1)) / count
        assert np.all(np.abs(grad - oracles.loss_gradient_reference(fam, mom, z))
                      <= 4 * EPS * scale)
        curv = loss_curvature(fam, mom, z)
        assert np.all(np.abs(curv - oracles.loss_curvature_reference(fam, mom, z))
                      <= 4 * EPS * scale)
        terms = float((np.abs(w * np.logaddexp(0.0, z)) + np.abs(m1 * z)).sum()) / count
        assert abs(loss_value(fam, mom, z) - oracles.bernoulli_loss_reference(mom, z)) \
            <= 4 * EPS * terms
