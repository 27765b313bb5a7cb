import math
import time
import warnings

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
    SimilarityModel,
    mode_similarity,
    smoothing_moments,
)


def draw(rng, shape, family):
    """A value of ``family``'s domain on every cell of ``shape``."""
    x = rng.standard_normal(shape)
    if family == "bernoulli":
        x = (x > 0).astype(float)
    elif family == "poisson":
        x = rng.poisson(3.0, shape).astype(float)
    elif family == "gamma":
        x = rng.gamma(2.0, 1.0, shape) + 0.1
    return x


def make_problem(rng, shape=(3, 3, 3), density=0.7, family="gaussian"):
    x = draw(rng, shape, family)
    mask = rng.random(shape) < density
    mask.flat[0] = True
    omega = ObservationSet.from_dense(x, mask)
    feats = [rng.standard_normal((s, 2)) for s in shape]
    sim = SimilarityModel(per_mode=[mode_similarity(f) for f in feats])
    return omega, smoothing_moments(sim, omega).weighted_x


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
    def test_gaussian_at_target_is_zero(self, rng):
        # the gaussian loss is ||z - m1||^2 / count, without the smoothing
        # variance: under uniform weights the target is the mean everywhere
        shape = (3, 3)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        m1 = smoothing_moments(oracles.similarity_ones(shape), omega).weighted_x
        assert np.allclose(m1, x.mean())
        assert loss_value(LossFamily("gaussian"), m1, m1) == 0.0
        z = m1 + 0.5
        assert loss_value(LossFamily("gaussian"), m1, z) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("kind", ["neutral", "kernel", "zero-row"])
    def test_gaussian_matches_per_cell_formula(self, kind, rng):
        # sum over every target t and observed source j of w(t, j) (z_t - x_j)^2,
        # less the smoothing variance, which does not move with z
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
            zero_row = np.diag([0.0, 1.0, 1.0])
            sim = SimilarityModel([zero_row] + [mode_similarity(f) for f in feats[1:]])
        mom = smoothing_moments(sim, omega)
        assert (mom.degenerate > 0) == (kind != "kernel")
        z = rng.standard_normal(shape)
        total = 0.0
        for t in np.ndindex(shape):
            for j, w in oracles.smoothing_weights(sim, t, omega):
                total += w * (z[t] - x[j]) ** 2
        want = total / x.size - oracles.smoothing_variance(sim, omega)
        got = loss_value(LossFamily("gaussian"), mom.weighted_x, z)
        assert got == pytest.approx(want, rel=1e-12)

    def test_bernoulli_at_zero_is_log2(self, rng):
        shape = (2, 3)
        x = (rng.random(shape) > 0.5).astype(float)
        omega = ObservationSet.from_dense(x)
        m1 = smoothing_moments(oracles.similarity_ones(shape), omega).weighted_x
        value = loss_value(LossFamily("bernoulli"), m1, np.zeros(shape))
        assert np.isclose(value, np.log(2.0) - x.mean() * 0.0 + 0.0 - (0.0))
        assert np.isclose(value, np.log(2.0))

    def test_poisson_plugin(self):
        shape = (2, 2)
        x = np.full(shape, 3.0)
        omega = ObservationSet.from_dense(x)
        m1 = smoothing_moments(oracles.similarity_ones(shape), omega).weighted_x
        value = loss_value(LossFamily("poisson"), m1, np.full(shape, 3.0))
        assert np.isclose(value, 3.0 - 3.0 * np.log(3.0))

    def test_domain_violation(self, rng):
        omega, m1 = make_problem(rng, family="poisson")
        z = -np.ones(omega.shape)
        with pytest.raises(DomainError):
            loss_value(LossFamily("poisson"), m1, z)
        with pytest.raises(DomainError):
            loss_gradient(LossFamily("gamma"), m1, z)

    def test_shape_mismatch(self, rng):
        omega, m1 = make_problem(rng)
        with pytest.raises(ValueError):
            loss_value(LossFamily("gaussian"), m1, np.zeros((2, 2)))

    def test_gaussian_convex_midpoint(self, rng):
        omega, m1 = make_problem(rng)
        fam = LossFamily("gaussian")
        z1, z2 = rng.standard_normal(omega.shape), rng.standard_normal(omega.shape)
        mid = loss_value(fam, m1, 0.5 * (z1 + z2))
        avg = 0.5 * (loss_value(fam, m1, z1) + loss_value(fam, m1, z2))
        assert mid <= avg + 1e-12


class TestLossGradient:
    def test_gaussian_zero_at_weighted_mean(self, rng):
        omega, m1 = make_problem(rng)
        grad = loss_gradient(LossFamily("gaussian"), m1, m1)
        assert np.abs(grad).max() < 1e-14

    def test_poisson_zero_at_weighted_mean(self, rng):
        omega, m1 = make_problem(rng, family="poisson")
        z = np.maximum(m1, 1e-6)
        grad = loss_gradient(LossFamily("poisson"), m1, z)
        # zero wherever the weighted mean is interior (positive)
        interior = m1 > 1e-6
        assert np.abs(grad[interior]).max() < 1e-12

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_matches_finite_differences(self, family, rng):
        omega, m1 = make_problem(rng, family=family)
        fam = LossFamily(family)
        if family in ("poisson", "gamma"):
            z = positive_z(rng, omega.shape)
        else:
            z = rng.standard_normal(omega.shape)
        grad = loss_gradient(fam, m1, z)
        fd = oracles.central_difference(lambda zz: loss_value(fam, m1, zz), z)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-5

    def test_descent_direction(self, rng):
        omega, m1 = make_problem(rng)
        fam = LossFamily("gaussian")
        z = rng.standard_normal(omega.shape)
        grad = loss_gradient(fam, m1, z)
        before = loss_value(fam, m1, z)
        after = loss_value(fam, m1, z - 1e-3 * grad)
        assert after < before


class TestLossCurvature:
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_matches_finite_differences(self, family, rng):
        omega, m1 = make_problem(rng, family=family)
        fam = LossFamily(family)
        if family in ("poisson", "gamma"):
            z = positive_z(rng, omega.shape)
        else:
            z = rng.standard_normal(omega.shape)
        curv = loss_curvature(fam, m1, z)
        # the Hessian is diagonal: cell t's gradient moves only with z_t
        h = 1e-5
        fd = (loss_gradient(fam, m1, z + h)
              - loss_gradient(fam, m1, z - h)) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(curv - fd).max() / denom < 1e-5

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_min_bounds_curvature_on_domain(self, family, rng):
        omega, m1 = make_problem(rng, family=family)
        fam = LossFamily(family)
        z_min = 0.05
        low = loss_curvature_min(fam, m1, z_min)
        grid = np.geomspace(z_min, 1e3, 400) if family in ("poisson", "gamma") else \
            np.linspace(-20.0, 20.0, 401)
        curv = np.stack([loss_curvature(fam, m1, np.full(omega.shape, q))
                         for q in grid])
        assert np.all(curv >= low - 1e-12)
        if family == "gamma":  # the bound is attained, so it is the minimum
            assert np.abs(curv.min(axis=0) - low).max() <= 1e-3 * np.abs(low).max()


class TestLossLipschitz:
    def test_gaussian_normalized(self, rng):
        shape = (2, 2, 2)
        x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        m1 = smoothing_moments(SimilarityModel.neutral(shape), omega).weighted_x
        lf = loss_lipschitz(LossFamily("gaussian"), m1)
        assert np.isclose(lf, 2.0 / 8.0)

    def test_bernoulli_single_cell(self):
        shape = (1,)
        omega = ObservationSet.from_entries([((0,), 1.0)], shape)
        m1 = smoothing_moments(SimilarityModel.neutral(shape), omega).weighted_x
        lf = loss_lipschitz(LossFamily("bernoulli"), m1)
        assert np.isclose(lf, 0.25)

    def test_positive_families_need_floor(self, rng):
        omega, m1 = make_problem(rng, family="poisson")
        with pytest.raises(ValueError):
            loss_lipschitz(LossFamily("poisson"), m1)
        lf = loss_lipschitz(LossFamily("poisson"), m1, z_min=0.5)
        assert lf > 0

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_bounds_actual_gradient_jumps(self, family, rng):
        omega, m1 = make_problem(rng, family=family)
        fam = LossFamily(family)
        z_min = 0.5
        lf = loss_lipschitz(fam, m1, z_min=z_min)
        for _ in range(10):
            z1 = positive_z(rng, omega.shape) if family in ("poisson", "gamma") else \
                rng.standard_normal(omega.shape)
            z2 = positive_z(rng, omega.shape) if family in ("poisson", "gamma") else \
                rng.standard_normal(omega.shape)
            g1 = loss_gradient(fam, m1, z1)
            g2 = loss_gradient(fam, m1, z2)
            lhs = np.linalg.norm(g1 - g2)
            assert lhs <= lf * np.linalg.norm(z1 - z2) + 1e-12


# the per-pair integrand f(x; z) of each family (see dcot.losses)
INTEGRANDS = {
    "gaussian": lambda x, z: (z - x) ** 2,
    "bernoulli": lambda x, z: math.log1p(math.exp(z)) - x * z,
    "poisson": lambda x, z: z - x * math.log(z),
    "gamma": lambda x, z: math.log(z + 1e-6) + x / (z + 1e-6),
}


def one_degenerate_problem(rng, family, shape=(3, 3, 3)):
    """Kernel weights under which one target, cell ``(0, 0, 0)``, is degenerate.

    Index 0 of every mode is its own only neighbor, so that target pools
    from itself alone, and it is not observed; every other target pools
    from the observed cell of its pattern of zero indices in ``[:2, :2, :2]``.
    Returns the observations, the similarity and the smoothed target.
    """
    x = draw(rng, shape, family)
    mask = rng.random(shape) < 0.7
    mask[:2, :2, :2] = True
    mask[0, 0, 0] = False
    omega = ObservationSet.from_dense(x, mask)
    per_mode = [mode_similarity(rng.standard_normal((s, 2))) for s in shape]
    for f in per_mode:
        f[0, 1:] = f[1:, 0] = 0.0
    sim = SimilarityModel(per_mode)
    mom = smoothing_moments(sim, omega)
    assert mom.degenerate == 1
    return omega, sim, mom.weighted_x


class TestPerCellWeights:
    """The loss functions against each target cell's own smoothing weights.

    The weights are normalized kernel weights (``oracles.smoothing_weights``)
    with one degenerate target, which takes the fallback's uniform weights.
    """

    def problem(self, rng, family):
        omega, sim, m1 = one_degenerate_problem(rng, family)
        z = positive_z(rng, omega.shape) if LossFamily(family).bounded else \
            rng.standard_normal(omega.shape)
        return omega, sim, m1, z

    @pytest.mark.parametrize("family", FAMILIES)
    def test_value_matches_pair_sum(self, family, rng):
        # the gaussian value leaves out the smoothing variance, which does
        # not move with z
        omega, sim, m1, z = self.problem(rng, family)
        f, x = INTEGRANDS[family], omega.to_dense()
        total = sum(w * f(x[j], z[t]) for t in np.ndindex(omega.shape)
                    for j, w in oracles.smoothing_weights(sim, t, omega))
        want = total / m1.size
        if family == "gaussian":
            want -= oracles.smoothing_variance(sim, omega)
        got = loss_value(LossFamily(family), m1, z)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_derivatives_match_finite_differences(self, family, rng):
        omega, _, m1, z = self.problem(rng, family)
        fam = LossFamily(family)
        grad = loss_gradient(fam, m1, z)
        fd = oracles.central_difference(lambda zz: loss_value(fam, m1, zz), z)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5
        h = 1e-5
        fd = (loss_gradient(fam, m1, z + h) - loss_gradient(fam, m1, z - h)) / (2 * h)
        curv = loss_curvature(fam, m1, z)
        assert np.abs(curv - fd).max() / np.abs(fd).max() < 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    def test_curvature_bounds(self, family, rng):
        omega, _, m1, _ = self.problem(rng, family)
        fam = LossFamily(family)
        z_min = 0.05
        grid = np.geomspace(z_min, 1e3, 200) if fam.bounded else np.linspace(-20, 20, 201)
        curv = np.stack([loss_curvature(fam, m1, np.full(omega.shape, q)) for q in grid])
        assert np.all(curv >= loss_curvature_min(fam, m1, z_min) - 1e-12)
        assert curv.max() <= loss_lipschitz(fam, m1, z_min=z_min) * (1 + 1e-12)


EPS = np.finfo(float).eps
# the bernoulli logits where exp, expit and logaddexp are exact, saturate or
# overflow, beside ordinary values
EDGE_LOGITS = [800.0, -800.0, 40.0, -40.0, 1e-300, -1e-300, 0.0, -0.0]


def per_cell(fn, family, z):
    """``fn(family, target, z)`` on each cell of ``z`` alone, at a one-cell zero target.

    The count is one, so the bernoulli gradient is ``p`` and the loss
    ``log(1 + exp(z))``, unscaled.
    """
    return np.array([np.asarray(fn(family, np.zeros(1), np.array([q]))).item() for q in z])


class TestOnePassMatchesReference:
    """The derivative pass against the earlier whole-array forms in ``oracles``.

    Poisson and gamma (and gaussian) keep their arithmetic, so they are
    bitwise equal; bernoulli takes ``exp`` and ``log1p`` from numpy instead
    of ``scipy.special.expit`` and ``np.logaddexp``, which round differently.
    The problem checks run on kernel weights, with and without a degenerate
    target.
    """

    @staticmethod
    def problem(rng, family, weights):
        if weights == "degenerate":
            omega, _, m1 = one_degenerate_problem(rng, family, shape=(4, 3, 5))
            return omega, m1
        return make_problem(rng, shape=(4, 3, 5), family=family)

    @pytest.mark.parametrize("family", ["gaussian", "poisson", "gamma"])
    @pytest.mark.parametrize("weights", ["normalized", "degenerate"])
    def test_bitwise_equal(self, family, weights, rng):
        omega, m1 = self.problem(rng, family, weights)
        fam = LossFamily(family)
        z = positive_z(rng, omega.shape, 1e-3, 5.0) if fam.bounded else \
            rng.standard_normal(omega.shape)
        if fam.bounded:
            z.flat[:2] = (0.0, 1e-14)  # below poisson's floor
        assert np.array_equal(loss_gradient(fam, m1, z),
                              oracles.loss_gradient_reference(fam, m1, z))
        assert np.array_equal(loss_curvature(fam, m1, z),
                              oracles.loss_curvature_reference(fam, m1, z))

    def test_bernoulli_within_4_ulp(self, rng):
        z = np.concatenate([EDGE_LOGITS, 3.0 * rng.standard_normal(200),
                            rng.uniform(-800.0, 800.0, 200)])
        fam = LossFamily("bernoulli")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = per_cell(loss_gradient, fam, z)
            curv = per_cell(loss_curvature, fam, z)
            soft = per_cell(loss_value, fam, z)
        p_ref = per_cell(oracles.loss_gradient_reference, fam, z)
        assert np.all(np.abs(p - p_ref) <= 4 * np.spacing(p_ref))
        soft_ref = np.logaddexp(0.0, z)
        assert np.all(np.abs(soft - soft_ref) <= 4 * np.spacing(soft_ref))
        # p (1 - p): p's 4 ulp carried through 1 - p
        curv_ref = per_cell(oracles.loss_curvature_reference, fam, z)
        assert np.all(np.abs(curv - curv_ref) <= 4 * (np.spacing(curv_ref) + EPS * p_ref))
        assert p[0] == 1.0 and p[1] == 0.0 and curv[0] == curv[1] == 0.0

    @pytest.mark.parametrize("weights", ["normalized", "degenerate"])
    def test_bernoulli_problem_within_4_ulp_of_its_terms(self, weights, rng):
        omega, m1 = self.problem(rng, "bernoulli", weights)
        fam = LossFamily("bernoulli")
        z = 4.0 * rng.standard_normal(omega.shape)
        z.flat[:len(EDGE_LOGITS)] = EDGE_LOGITS
        count = m1.size
        grad = loss_gradient(fam, m1, z)
        scale = (1.0 + np.abs(m1)) / count
        assert np.all(np.abs(grad - oracles.loss_gradient_reference(fam, m1, z))
                      <= 4 * EPS * scale)
        curv = loss_curvature(fam, m1, z)
        assert np.all(np.abs(curv - oracles.loss_curvature_reference(fam, m1, z))
                      <= 4 * EPS * scale)
        terms = float((np.logaddexp(0.0, z) + np.abs(m1 * z)).sum()) / count
        assert abs(loss_value(fam, m1, z) - oracles.bernoulli_loss_reference(m1, z)) \
            <= 4 * EPS * terms
