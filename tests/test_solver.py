import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import traced_memory
from dcot.losses import (
    DomainError,
    LossFamily,
    ObservationSet,
    initial_fill,
    loss_curvature_min,
    loss_gradient,
    loss_lipschitz,
    loss_value,
)
from dcot.model import (
    DcotModel,
    InitStrategy,
    SliceGroup,
    SubjectPartition,
    initial_model,
    project_core,
    reconstruct,
    tie_heterogeneous_core,
    tie_satisfied,
)
from dcot.prox import Penalty, prox_apply
from dcot.similarity import SimilarityModel, smoothing_moments
from dcot.solver import (
    _LIPSCHITZ_SAFETY,
    _TOL_STEP,
    BlockPenalties,
    ConvergenceTrace,
    SolverAbort,
    SolverConfig,
    _core_norms,
    _power_start,
    _spectral_norm,
    _sweep_tail,
    core_gradient,
    estimate_moduli,
    factor_gradient,
    lagrangian_value,
    solve,
    update_cores,
    update_factor,
    update_z,
)
from dcot.evaluate import SynthSpec, rmse, synthesize
from dcot.tensor import (
    _unfold,
    frob_inner,
    frob_norm,
    matricize,
    multilinear_product,
    n_mode_product,
)


def random_state(rng, shape=(3, 2, 2), ranks=(2, 2, 2), partition=None):
    factors = [rng.standard_normal((s, r)) for s, r in zip(shape, ranks)]
    g = rng.standard_normal(ranks)
    h = rng.standard_normal(ranks)
    if partition is not None:
        from dcot.model import tie_heterogeneous_core

        h = tie_heterogeneous_core(h, partition)
    model = DcotModel(factors, g, h, partition)
    z = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    return model, z, y


def project_others(model, target, mode):
    """``target`` contracted with every factor's transpose but ``mode``'s."""
    others = [None if t == mode else u.T for t, u in enumerate(model.factors)]
    return multilinear_product(target, others)


def grams_of(model):
    """The factor Grams ``U_t^T U_t``."""
    return [u.T @ u for u in model.factors]


def factor_grad(model, z, y, gamma, mode):
    """``factor_gradient`` at the state ``(z, y)``: project ``z + y / gamma`` first."""
    return factor_gradient(model, project_others(model, z + y / gamma, mode), gamma, mode,
                           grams_of(model))


def core_grad(model, z, y, gamma):
    """``core_gradient`` at the state ``(z, y)``: project ``z + y / gamma`` first."""
    return core_gradient(model.core_g + model.core_h, grams_of(model),
                         project_core(z + y / gamma, model.factors), gamma)


def coupling_value(model, z, y, gamma):
    r = reconstruct(model) - z - y / gamma
    return 0.5 * gamma * float((r**2).sum())


class TestResidualTensor:
    def test_feasible_zero_dual(self, rng):
        model, _, _ = random_state(rng)
        z = reconstruct(model)
        assert np.allclose(oracles.residual_tensor(model, z, np.zeros_like(z), 2.0), 0.0)

    def test_dual_cancellation(self, rng):
        model, z, _ = random_state(rng)
        gamma = 1.7
        y = gamma * (reconstruct(model) - z)
        assert np.abs(oracles.residual_tensor(model, z, y, gamma)).max() < 1e-12

    def test_direct_formula(self, rng):
        model, z, y = random_state(rng)
        gamma = 0.9
        expected = gamma * (
            multilinear_product(model.core_g + model.core_h, model.factors) - z
            - y / gamma
        )
        assert np.allclose(oracles.residual_tensor(model, z, y, gamma), expected,
                           atol=1e-12)


class TestGradients:
    def test_zero_residual_means_zero_gradients(self, rng):
        model, _, _ = random_state(rng)
        z = reconstruct(model)
        y = np.zeros_like(z)
        for n in range(3):
            assert np.abs(factor_grad(model, z, y, 1.0, n)).max() < 1e-12
        assert np.abs(core_grad(model, z, y, 1.0)).max() < 1e-12

    def test_factor_gradient_linear_in_residual(self, rng):
        model, z, y = random_state(rng)
        g1 = factor_grad(model, z, y, 1.0, 0)
        # doubling gamma and y doubles the residual tensor, hence the gradient
        g2 = factor_grad(model, z, 2 * y, 2.0, 0)
        assert np.allclose(g2, 2 * g1, atol=1e-10)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_factor_gradient_matches_finite_differences(self, mode, rng):
        model, z, y = random_state(rng, shape=(4, 3, 2), ranks=(2, 2, 2))
        gamma = 1.3

        def value(u):
            probe = model.copy()
            probe.factors[mode] = u
            return coupling_value(probe, z, y, gamma)

        grad = factor_grad(model, z, y, gamma, mode)
        fd = oracles.central_difference(value, model.factors[mode])
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-5

    def test_core_gradient_matches_finite_differences(self, rng):
        model, z, y = random_state(rng, shape=(4, 3, 2), ranks=(2, 2, 2))
        gamma = 0.8

        def value_g(g):
            probe = model.copy()
            probe.core_g = g
            return coupling_value(probe, z, y, gamma)

        grad = core_grad(model, z, y, gamma)
        fd = oracles.central_difference(value_g, model.core_g)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-5

    def test_core_gradient_shared_between_cores(self, rng):
        model, z, y = random_state(rng)
        gamma = 1.1

        def value_h(h):
            probe = model.copy()
            probe.core_h = h
            return coupling_value(probe, z, y, gamma)

        grad = core_grad(model, z, y, gamma)
        fd = oracles.central_difference(value_h, model.core_h)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-5

    def test_core_gradient_is_projection_for_orthonormal_factors(self, rng):
        shape, ranks = (4, 4, 3), (2, 2, 2)
        factors = [np.linalg.qr(rng.standard_normal((s, r)))[0] for s, r in zip(shape, ranks)]
        model = DcotModel(factors, rng.standard_normal(ranks), rng.standard_normal(ranks))
        z = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        m = oracles.residual_tensor(model, z, y, 1.6)
        assert np.allclose(core_grad(model, z, y, 1.6), project_core(m, factors),
                           atol=1e-12)


class TestCoreSpaceGradients:
    """The core-space gradients against the residual-space loop oracle."""

    CASES = [
        ((5, 4), (3, 2), None),
        ((5, 4), (2, 3), SubjectPartition(1, (SliceGroup((0, 2)),))),
        ((4, 3, 5), (2, 3, 1), None),
        ((4, 3, 5), (3, 2, 2), SubjectPartition(0, (SliceGroup((0, 1, 2)),))),
        ((3, 4, 2, 3), (2, 3, 1, 2), None),
        ((3, 4, 2, 3), (2, 1, 2, 3),
         SubjectPartition(3, (SliceGroup((0, 1), fixed=(0, 0)),
                             SliceGroup((1, 2), fixed=(0, 1))))),
    ]

    @staticmethod
    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("shape,ranks,part", CASES)
    def test_match_residual_oracle(self, shape, ranks, part, rng):
        model, z, y = random_state(rng, shape=shape, ranks=ranks, partition=part)
        gamma = 1.7
        for mode in range(len(shape)):
            got = factor_grad(model, z, y, gamma, mode)
            want = oracles.factor_gradient_oracle(model, z, y, gamma, mode)
            assert got.shape == model.factors[mode].shape
            assert self.rel_err(got, want) < 1e-12
        want = oracles.core_gradient_oracle(model, z, y, gamma)
        assert self.rel_err(core_grad(model, z, y, gamma), want) < 1e-12


class TestBlockUpdates:
    def test_no_penalty_zero_gradient_keeps_factor(self, rng):
        model, _, _ = random_state(rng)
        z = reconstruct(model)
        y = np.zeros_like(z)
        got = update_factor(model, project_others(model, z + y, 0), 1.0, 0, 2.0,
                            Penalty.none(), grams_of(model))
        assert np.allclose(got, model.factors[0], atol=1e-12)

    def test_no_penalty_is_exact_gradient_step(self, rng):
        model, z, y = random_state(rng)
        rho = 3.0
        grad = factor_grad(model, z, y, 1.0, 1)
        got = update_factor(model, project_others(model, z + y, 1), 1.0, 1, rho,
                            Penalty.none(), grams_of(model))
        assert np.allclose(got, model.factors[1] - grad / rho, atol=1e-12)

    def test_l1_penalty_is_soft_thresholded_step(self, rng):
        model, z, y = random_state(rng)
        rho, pen = 2.5, Penalty.l1(0.7)
        grad = factor_grad(model, z, y, 1.0, 0)
        expected = prox_apply(pen, model.factors[0] - grad / rho, rho)
        got = update_factor(model, project_others(model, z + y, 0), 1.0, 0, rho, pen,
                            grams_of(model))
        assert np.array_equal(got, expected)

    def test_cores_fixed_point_when_feasible(self, rng):
        part = SubjectPartition(0, (SliceGroup((0, 1)),))
        model, _, _ = random_state(rng, partition=part)
        z = reconstruct(model)
        y = np.zeros_like(z)
        g, h = update_cores(model, project_core(z + y, model.factors), 1.0, 2.0,
                            Penalty.none(), Penalty.none(), grams=grams_of(model))
        assert np.allclose(g, model.core_g, atol=1e-12)
        assert np.allclose(h, model.core_h, atol=1e-12)
        assert tie_satisfied(h, part)

    def test_subject_core_step_sees_new_shared_core(self, rng):
        # Gauss-Seidel order: the H gradient is taken after the G step
        model, z, y = random_state(rng)
        gamma, rho = 1.3, 2.0
        g, h = update_cores(model, project_core(z + y / gamma, model.factors), gamma,
                            rho, Penalty.none(), Penalty.none(), grams=grams_of(model))
        assert np.allclose(g, model.core_g - core_grad(model, z, y, gamma) / rho,
                           atol=1e-12)
        moved = DcotModel(model.factors, g, model.core_h)
        assert np.allclose(h, model.core_h - core_grad(moved, z, y, gamma) / rho,
                           atol=1e-12)

    def test_huge_l1_zeroes_core(self, rng):
        model, z, y = random_state(rng)
        g, _ = update_cores(model, project_core(z + y, model.factors), 1.0, 1.0,
                            Penalty.l1(1e6), Penalty.none(), grams=grams_of(model))
        assert np.array_equal(g, np.zeros_like(g))

    def test_tie_constraint_bitwise_after_update(self, rng):
        part = SubjectPartition(1, (SliceGroup((0, 1)),))
        model, z, y = random_state(rng, partition=part)
        _, h = update_cores(model, project_core(z + y / 1.3, model.factors), 1.3, 2.0,
                            Penalty.none(), Penalty.l1(0.1), grams=grams_of(model))
        assert tie_satisfied(h, part)

    def test_freeze_h_moves_only_shared_core(self, rng):
        model, z, y = random_state(rng)
        args = (model, project_core(z + y / 1.3, model.factors), 1.3, 2.0,
                Penalty.l1(0.1), Penalty.l1(0.1))
        g, h = update_cores(*args, grams=grams_of(model))
        g_frozen, h_frozen = update_cores(*args, grams=grams_of(model), freeze_h=True)
        assert h_frozen is model.core_h
        assert not np.array_equal(h, model.core_h)
        assert np.array_equal(g_frozen, g)
        with pytest.raises(TypeError):
            update_cores(*args, grams_of(model), True)

    def test_cores_leave_input_model_unchanged(self, rng):
        part = SubjectPartition(1, (SliceGroup((0, 1)),))
        model, z, y = random_state(rng, partition=part)
        before = model.copy()
        update_cores(model, project_core(z + y / 1.3, model.factors), 1.3, 2.0,
                     Penalty.l1(0.1), Penalty.l1(0.1), grams=grams_of(model))
        assert np.array_equal(model.core_g, before.core_g)
        assert np.array_equal(model.core_h, before.core_h)
        assert all(np.array_equal(a, b) for a, b in zip(model.factors, before.factors))


    @pytest.mark.parametrize("freeze_h", [False, True], ids=["moving-h", "freeze-h"])
    @pytest.mark.parametrize("tied", [False, True], ids=["no-partition", "partition"])
    def test_shared_grams_match_replace_reference_bitwise(self, freeze_h, tied, rng):
        # the block steps as they were taken before the sweep shared its Grams:
        # every gradient formed its own, and the H step went through a second
        # model holding the new shared core
        part = SubjectPartition(1, (SliceGroup((0, 1)),)) if tied else None
        model, z, y = random_state(rng, partition=part)
        gamma, rho = 1.3, 2.0
        pen_g, pen_h = Penalty.l1(0.1), Penalty.l1(0.1)
        projected = project_core(z + y / gamma, model.factors)

        def core_gradient_reference(m):
            grad = multilinear_product(m.core_g + m.core_h, [u.T @ u for u in m.factors])
            grad -= projected
            grad *= gamma
            return grad

        g_want = prox_apply(pen_g, model.core_g - core_gradient_reference(model) / rho,
                            rho)
        moved = replace(model, core_g=g_want)
        h_want = prox_apply(pen_h, moved.core_h - core_gradient_reference(moved) / rho,
                            rho)
        if tied:
            h_want = tie_heterogeneous_core(h_want, part)
        grams = grams_of(model)
        g, h = update_cores(model, projected, gamma, rho, pen_g, pen_h,
                            freeze_h=freeze_h, grams=grams)
        assert np.array_equal(g, g_want)
        if freeze_h:
            assert h is model.core_h
        else:
            assert np.array_equal(h, h_want)

        for mode in range(3):
            others = project_others(model, z + y / gamma, mode)
            s = model.core_g + model.core_h
            gram = multilinear_product(
                s, [None if t == mode else u.T @ u for t, u in enumerate(model.factors)])
            inner = model.factors[mode] @ matricize(gram, mode)
            inner -= matricize(others, mode)
            want = gamma * (inner @ matricize(s, mode).T)
            assert np.array_equal(factor_gradient(model, others, gamma, mode, grams), want)
            assert np.array_equal(
                update_factor(model, others, gamma, mode, rho, pen_g, grams),
                prox_apply(pen_g, model.factors[mode] - want / rho, rho))


def link_buffer(target, u_last):
    """An array for the sweep's first link ``target x_N U_N^T``, as the tails take it."""
    return np.empty(target.shape[:-1] + (u_last.shape[1],))


def newton_solve(family, m1, omega, center, gamma, z0, z_floor=1e-6):
    """``update_z`` with its step count dropped."""
    return update_z(family, m1, omega, center, gamma, z0, z_floor=z_floor, steps=[])


class TestUpdateZ:
    def make(self, rng, family="gaussian", shape=(2, 3, 2)):
        model, z, y = random_state(rng, shape=shape, ranks=(2, 2, 2))
        if family in ("poisson", "gamma"):
            x = rng.poisson(3.0, shape).astype(float) if family == "poisson" else \
                rng.gamma(2.0, 1.0, shape) + 0.1
        elif family == "bernoulli":
            x = (rng.random(shape) > 0.5).astype(float)
        else:
            x = rng.standard_normal(shape)
        omega = ObservationSet.from_dense(x)
        m1 = smoothing_moments(oracles.similarity_ones(shape), omega).weighted_x
        return model, z, y, omega, m1

    def test_gamma_to_infinity_limit(self, rng):
        model, z, y, omega, m1 = self.make(rng)
        gamma = 1e8
        center = reconstruct(model) - y / gamma
        got = oracles.gaussian_z_step(m1, gamma, center)
        assert np.abs(got - center).max() < 1e-6

    def test_closed_form_matches_newton(self, rng):
        model, z, y, omega, m1 = self.make(rng)
        fam = LossFamily("gaussian")
        center = reconstruct(model) - y / 0.7
        closed = oracles.gaussian_z_step(m1, 0.7, center)
        newton = newton_solve(fam, m1, omega, center, 0.7, z)
        assert np.abs(closed - newton).max() < 1e-8

    def test_scalar_grid_oracle(self, rng):
        shape = (1,)
        model = DcotModel([np.array([[1.0]])], np.array([0.3]), np.array([0.2]))
        omega = ObservationSet.from_entries([((0,), 1.7)], shape)
        m1 = smoothing_moments(SimilarityModel.neutral(shape), omega).weighted_x
        fam = LossFamily("gaussian")
        z = np.array([0.0])
        y = np.array([0.4])
        gamma = 0.9
        center = reconstruct(model) - y / gamma
        got = oracles.gaussian_z_step(m1, gamma, center)
        qs = np.linspace(-5, 5, 200001)
        vals = [
            loss_value(fam, m1, np.array([q]))
            + 0.5 * gamma * (q - center[0]) ** 2
            for q in qs
        ]
        assert abs(got[0] - qs[int(np.argmin(vals))]) < 1e-4

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "gamma"])
    def test_newton_first_order_condition(self, family, rng):
        model, z, y, omega, m1 = self.make(rng, family=family)
        fam = LossFamily(family)
        gamma = 0.8
        z0 = np.abs(z) + 0.5 if family in ("poisson", "gamma") else z
        center = reconstruct(model) - y / gamma
        got = newton_solve(fam, m1, omega, center, gamma, z0, z_floor=1e-8)
        grad = loss_gradient(fam, m1, got) + gamma * (got - center)
        interior = got > 1e-8 if family in ("poisson", "gamma") else np.ones_like(got, bool)
        assert np.abs(grad[interior]).max() <= 1e-6 + 1e-12
        # a cell held at the floor is optimal only if the objective rises above it
        assert np.all(grad[~interior] >= 0)

    @pytest.mark.parametrize("family", ["poisson", "gamma"])
    def test_newton_floor_is_active_constraint(self, family, rng):
        model, z, y, omega, m1 = self.make(rng, family=family)
        fam = LossFamily(family)
        gamma, floor = 0.8, 0.5
        # centers far below the floor pin some cells to it
        y = y + 5.0 * gamma * (rng.random(y.shape) < 0.5)
        center = reconstruct(model) - y / gamma
        got = newton_solve(fam, m1, omega, center, gamma, np.abs(z) + 1.0, z_floor=floor)
        grad = loss_gradient(fam, m1, got) + gamma * (got - center)
        at_floor = got <= floor
        assert got.min() >= floor and at_floor.any()
        assert np.all(grad[at_floor] >= 0)
        tol = 1e-8 * max(1.0, np.sqrt(np.mean(omega.values**2)))
        assert np.abs(grad[~at_floor]).max() <= tol

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "gamma"])
    def test_newton_matches_reference(self, family, rng):
        model, z, y, omega, m1 = self.make(rng, family=family, shape=(4, 3, 5))
        fam, gamma, floor = LossFamily(family), 0.8, 1e-2
        center = reconstruct(model) - y / gamma
        z0 = np.abs(z) if fam.bounded else 4.0 * z
        steps = []
        got = update_z(fam, m1, omega, center, gamma, z0, z_floor=floor, steps=steps)
        want, k, _ = oracles.newton_z_reference(fam, m1, omega, center, gamma, z0, floor)
        assert steps == [k] and k > 0
        if fam.bounded:  # the same arithmetic
            assert np.array_equal(got, want)
        else:  # p from numpy's exp in place of scipy's expit
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    def test_newton_bisection_matches_reference(self, rng):
        # a gamma just above the gamma family's negative curvature, and a far
        # start, send some cells' Newton steps out of their brackets
        model, _, _, omega, m1 = self.make(rng, family="gamma", shape=(4, 3, 5))
        fam, floor = LossFamily("gamma"), 0.1
        gamma = -1.5 * loss_curvature_min(fam, m1, floor).min()
        center = rng.gamma(1.0, 1.0, omega.shape)
        z0 = floor + 10.0 * rng.random(omega.shape)
        steps = []
        got = update_z(fam, m1, omega, center, gamma, z0, z_floor=floor, steps=steps)
        want, k, bisected = oracles.newton_z_reference(fam, m1, omega, center, gamma, z0,
                                                       floor)
        assert bisected > 0
        assert steps == [k]
        assert np.array_equal(got, want)

    def test_newton_gives_up_naming_z_block(self, rng):
        model, z, y, omega, m1 = self.make(rng, family="bernoulli")
        center = reconstruct(model)
        center.flat[0] = np.nan
        with pytest.raises(SolverAbort, match="z block"):
            newton_solve(LossFamily("bernoulli"), m1, omega, center, 0.8, z)

    def test_newton_non_finite_gradient_on_floor_aborts(self, rng):
        model, z, y, omega, m1 = self.make(rng, family="poisson")
        center = reconstruct(model)
        center.flat[0] = -np.inf
        with pytest.raises(SolverAbort, match="not finite"), np.errstate(invalid="ignore"):
            newton_solve(LossFamily("poisson"), m1, omega, center, 5.0, z, z_floor=1e-2)

    def test_newton_rejects_nonconvex_subproblem(self, rng):
        model, z, y, omega, m1 = self.make(rng, family="gamma")
        # the gamma loss is not convex: near z = 3 m1 / w its curvature is
        # negative by far more than this gamma
        with pytest.raises(ValueError, match="strongly convex"):
            newton_solve(LossFamily("gamma"), m1, omega, reconstruct(model), 1e-6, z + 1.0)


class TestUpdateDual:
    """The dual step ``u -= r`` that the sweep's tail takes (``_sweep_tail``)."""

    @staticmethod
    def dual_step(recon, z_new, u):
        """``u`` after the tail, given the z step ``z_new`` (the Newton path)."""
        u_last = np.ones((recon.shape[-1], 1))
        _sweep_tail(recon.copy(), np.zeros_like(z_new), z_new.copy(), u, u_last,
                    link_buffer(recon, u_last))
        return u

    def test_feasible_keeps_dual(self, rng):
        model, _, u = random_state(rng)
        z = reconstruct(model)
        assert np.array_equal(self.dual_step(reconstruct(model), z, u.copy()), u)

    def test_zero_dual_unit_gamma(self, rng):
        model, z, _ = random_state(rng)
        got = self.dual_step(reconstruct(model), z, np.zeros_like(z))
        assert np.allclose(got, -(reconstruct(model) - z), atol=1e-12)

    def test_steps_in_place_against_residual(self, rng):
        model, z, u = random_state(rng)
        recon = reconstruct(model)
        want = u - (recon - z)
        got = self.dual_step(recon, z, u)
        assert got is u
        assert np.array_equal(got, want)

    def test_optimality_identity_after_exact_z_step(self, rng):
        # with an exact z step from the center recon - u, the tail's dual
        # step leaves the new dual at minus the loss gradient at the new z
        model, z, u, omega, m1 = TestUpdateZ().make(rng)
        fam = LossFamily("gaussian")
        gamma = 0.6
        recon = reconstruct(model)
        z_new = newton_solve(fam, m1, omega, recon - u, gamma, z)
        self.dual_step(recon, z_new, u)
        grad = loss_gradient(fam, m1, z_new)
        assert np.abs(gamma * u + grad).max() <= 1e-8


class TestLagrangian:
    @staticmethod
    def value(model, r, u, gamma, loss, penalties):
        """``lagrangian_value`` from the residual ``r`` and the scaled dual ``u``."""
        return lagrangian_value(model, gamma, loss, penalties, frob_inner(r, r),
                                frob_inner(u, r))

    def test_feasible_no_penalties_is_loss(self, rng):
        model, _, y, omega, m1 = TestUpdateZ().make(rng)
        z = reconstruct(model)
        loss = loss_value(LossFamily("gaussian"), m1, z)
        r = reconstruct(model) - z
        got = self.value(model, r, y / 1.2, 1.2, loss, BlockPenalties())
        assert np.isclose(got, loss_value(LossFamily("gaussian"), m1, z), atol=1e-12)

    def test_dual_shift_invariant_at_feasible_point(self, rng):
        model, _, y, omega, m1 = TestUpdateZ().make(rng)
        z = reconstruct(model)
        r = reconstruct(model) - z
        loss = loss_value(LossFamily("gaussian"), m1, z)
        a = self.value(model, r, y, 1.2, loss, BlockPenalties())
        b = self.value(model, r, y + 3.0, 1.2, loss, BlockPenalties())
        assert np.isclose(a, b, atol=1e-10)

    def test_term_by_term_oracle(self, rng):
        from dcot.prox import penalty_value

        model, z, y, omega, m1 = TestUpdateZ().make(rng)
        fam = LossFamily("gaussian")
        pen = BlockPenalties(g=Penalty.l1(0.3), h=Penalty.frob_sq(0.2),
                             factors=Penalty.l1(0.05))
        gamma = 0.9
        r = reconstruct(model) - z
        got = self.value(model, r, y / gamma, gamma, loss_value(fam, m1, z), pen)
        expected = (
            loss_value(fam, m1, z)
            + penalty_value(pen.g, model.core_g)
            + penalty_value(pen.h, model.core_h)
            + sum(penalty_value(pen.factors, u) for u in model.factors)
            - float((y * r).sum())
            + 0.5 * gamma * float((r**2).sum())
        )
        assert np.isclose(got, expected, atol=1e-10)

    def test_indicator_violation_is_infinite(self, rng):
        model, z, y, omega, m1 = TestUpdateZ().make(rng)
        model.core_g[0, 0, 0] = -1.0
        pen = BlockPenalties(g=Penalty.nonneg())
        loss = loss_value(LossFamily("gaussian"), m1, z)
        r = reconstruct(model) - z
        assert self.value(model, r, y, 1.0, loss, pen) == np.inf


def factor_norms(model):
    return [_spectral_norm(u) for u in model.factors]


class TestEstimateModuli:
    def make_target(self, rng, shape=(3, 2, 2)):
        omega = ObservationSet.from_dense(rng.standard_normal(shape))
        return smoothing_moments(SimilarityModel.neutral(shape), omega).weighted_x

    def test_zero_model_floor(self, rng):
        shape, ranks = (3, 3), (2, 2)
        model = DcotModel([np.zeros((3, 2))] * 2, np.zeros(ranks), np.zeros(ranks))
        omega = ObservationSet.from_dense(rng.standard_normal(shape))
        m1 = smoothing_moments(SimilarityModel.neutral(shape), omega).weighted_x
        moduli = estimate_moduli(model, SolverConfig(), LossFamily("gaussian"), m1,
                                 factor_norms(model))
        assert moduli.core == 1e-8
        assert moduli.factors == (1e-8, 1e-8)

    def test_single_mode_hand_computation(self, rng):
        core = np.array([1.0, -2.0])
        model = DcotModel([rng.standard_normal((4, 2))], core.copy(), core.copy())
        omega = ObservationSet.from_dense(rng.standard_normal((4,)))
        m1 = smoothing_moments(SimilarityModel.neutral((4,)), omega).weighted_x
        got = estimate_moduli(model, SolverConfig(), LossFamily("gaussian"), m1,
                              factor_norms(model))
        s = model.core_g + model.core_h
        assert np.isclose(got.factors[0], _LIPSCHITZ_SAFETY * got.gamma * float(s @ s),
                          rtol=1e-6)

    def test_doubling_gamma_doubles_moduli(self, rng, monkeypatch):
        import dcot.solver

        # gamma is 2.1 L_F: doubling the loss's Lipschitz bound doubles it
        model, z, y = random_state(rng)
        m1 = self.make_target(rng)
        fam = LossFamily("gaussian")
        got = []
        for lf in (1.0, 2.0):
            monkeypatch.setattr(dcot.solver, "loss_lipschitz", lambda *a, **k: lf)
            got.append(estimate_moduli(model, SolverConfig(), fam, m1, factor_norms(model)))
        a, b = got
        assert b.gamma == 2 * a.gamma
        assert np.isclose(b.core, 2 * a.core, rtol=1e-6)
        assert np.allclose(np.array(b.factors), 2 * np.array(a.factors), rtol=1e-6)

    def test_gamma_lifted_above_loss_lipschitz(self, rng):
        # a split family's gamma is lifted above 2 L_F; the gaussian coupling
        # is the loss itself, so its gamma is L_F
        model, _, _ = random_state(rng)
        m1 = self.make_target(rng)
        fam = LossFamily("bernoulli")
        moduli = estimate_moduli(model, SolverConfig(), fam, m1, factor_norms(model))
        assert moduli.gamma > 2.0 * loss_lipschitz(fam, m1)
        fam = LossFamily("gaussian")
        moduli = estimate_moduli(model, SolverConfig(), fam, m1, factor_norms(model))
        assert moduli.gamma == loss_lipschitz(fam, m1)


def assert_matches_power_iteration(a, label):
    """``_spectral_norm`` against the loop in ``oracles.power_iteration_run``.

    Equal where the loop's branch fixes the value (zero input, the zero
    test, the Frobenius fallback), within 1e-14 relative otherwise, and
    settled at the loop's step: the loop's budget is just enough, one step
    less falls back.
    """
    with np.errstate(over="ignore"):
        want, step = oracles.power_iteration_run(a)
    got = _spectral_norm(a)
    if step is None or want == 0.0:
        assert got == want, label
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), label
    if step:
        at_step = _spectral_norm(a, iters=step)
        assert at_step == pytest.approx(got, rel=1e-14, abs=0.0), label
        assert _spectral_norm(a, iters=step - 1) == float(np.linalg.norm(a)), label
    return step


def near_orthonormal(rng, rows, eps):
    q, _ = np.linalg.qr(rng.standard_normal((rows, 3)))
    return q + eps * rng.standard_normal((rows, 3))


class TestSpectralNorm:
    def matrices(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((60, 3)))
        return {
            "random-60x3": rng.standard_normal((60, 3)),
            "random-3x9": rng.standard_normal((3, 9)),
            "near-orthonormal-60x3": q + 1e-3 * rng.standard_normal((60, 3)),
            "rank-1": np.outer(rng.standard_normal(7), rng.standard_normal(4)),
            "zero": np.zeros((5, 3)),
            "4x2": rng.standard_normal((4, 2)),
            "1-d-core": rng.standard_normal(6),
        }

    def test_matches_oracle(self, rng):
        for name, a in self.matrices(rng).items():
            assert_matches_power_iteration(a, name)
        assert _spectral_norm(np.empty((0, 3))) == 0.0
        # where the loop's w . w overflows it returns inf; where it underflows,
        # its zero test returns 0.0
        wide = rng.standard_normal((30, 3))
        assert _spectral_norm(1e100 * wide) == math.inf
        assert oracles.power_iteration_run(1e-100 * wide) == (0.0, 1)
        assert_matches_power_iteration(1e-100 * wide, "underflow")

    def test_seeded_sweep_matches_oracle(self):
        rng = np.random.default_rng(9)
        cases = []
        for rows in (60, 30, 16):
            cases += [(f"factor-{rows}x3", rng.standard_normal((rows, 3)))
                      for _ in range(250)]
        cases += [("matricization-3x9", rng.standard_normal((3, 9)))
                  for _ in range(250)]
        for rows in (60, 30, 16):
            cases += [(f"near-orthonormal-{rows}x3",
                       near_orthonormal(rng, rows, 10.0 ** rng.uniform(-4, -1)))
                      for _ in range(200)]
        for rank, shape in ((1, (16, 3)), (2, (16, 3)), (1, (3, 9)), (2, (3, 9))):
            cases += [(f"rank-{rank}-{shape}",
                       rng.standard_normal((shape[0], rank))
                       @ rng.standard_normal((rank, shape[1])))
                      for _ in range(50)]
        cases += [("tiny", 1e-6 * rng.standard_normal((16, 3))) for _ in range(100)]
        cases += [("1-d", rng.standard_normal(int(rng.integers(1, 10))))
                  for _ in range(100)]
        for scale in (1e100, 1e-100):
            cases += [(f"scale-{scale:g}", scale * rng.standard_normal((30, 3)))
                      for _ in range(100)]
        assert len(cases) >= 2000
        steps = [assert_matches_power_iteration(a, f"{name} #{i}")
                 for i, (name, a) in enumerate(cases)]
        assert steps.count(None) >= 0.25 * len(cases)
        tiny = [a for name, a in cases if name == "tiny"]
        assert all(np.linalg.norm(a.T @ (a @ _power_start(3))) <= 1e-8 for a in tiny)

    def test_non_finite_input_returns_frobenius_norm(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite input")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        for entries, want in (((math.inf,), math.inf), ((math.nan,), math.nan),
                              ((math.inf, -math.inf), math.inf)):
            a = np.ones((16, 3))
            a[4, : len(entries)] = entries
            with np.errstate(invalid="ignore"):
                np.testing.assert_equal(oracles.power_iteration_oracle(a), want)
            np.testing.assert_equal(_spectral_norm(a), want)

    def test_squares_that_leave_the_float_range_skip_lapack(self, rng, monkeypatch):
        # finite entries whose squares sum to inf (or all underflow to 0) give
        # the loop's answer from the Frobenius sum alone: inf (0.0)
        wide = rng.standard_normal((30, 3))
        cases = {"overflow": (1e200 * wide, math.inf), "underflow": (1e-200 * wide, 0.0)}
        with np.errstate(over="ignore", invalid="ignore"):
            for name, (a, want) in cases.items():
                assert oracles.power_iteration_oracle(a) == want, name

        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        for name, (a, want) in cases.items():
            assert _spectral_norm(a) == want, name

    def test_near_orthonormal_takes_frobenius_fallback(self, rng):
        a = self.matrices(rng)["near-orthonormal-60x3"]
        assert _spectral_norm(a) == float(np.linalg.norm(a))
        assert _spectral_norm(a) > 1.7 * np.linalg.norm(a, 2)


class TestCoreNorms:
    def cores(self, rng):
        return {
            "1-way": rng.standard_normal(4),
            "2-way-unequal": rng.standard_normal((2, 5)),
            "3-way-equal": rng.standard_normal((3, 3, 3)),
            "3-way-unequal": rng.standard_normal((2, 4, 3)),
            "4-way-unequal": rng.standard_normal((3, 1, 2, 4)),
            "rank-1": np.einsum("i,j,k->ijk", *(rng.standard_normal(r) for r in (3, 2, 4))),
            "ones-mode": rng.standard_normal((1, 1, 1)),
        }

    @staticmethod
    def exact(s):
        return [float(np.linalg.norm(_unfold(s, n), 2)) for n in range(s.ndim)]

    def test_equal_the_exact_norm_of_every_unfolding(self, rng):
        for name, s in self.cores(rng).items():
            got = _core_norms(s)
            assert len(got) == s.ndim, name
            np.testing.assert_allclose(got, self.exact(s), rtol=1e-12, atol=0.0,
                                       err_msg=name)
        assert _core_norms(np.zeros((2, 3, 4))) == [0.0, 0.0, 0.0]

    def test_exact_at_every_finite_scale(self, rng):
        # the power estimate squares the norm and reads inf (0.0) here
        s = rng.standard_normal((3, 2, 4))
        for scale in (1e300, 1e100, 1e-100, 1e-300):
            np.testing.assert_allclose(_core_norms(scale * s), self.exact(scale * s),
                                       rtol=1e-12, atol=0.0, err_msg=f"{scale:g}")

    def test_one_eigvalsh_call_for_all_modes(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        for s in self.cores(rng).values():
            before = len(calls)
            _core_norms(s)
            assert len(calls) == before + 1

    def test_non_finite_core_skips_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite core")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        for entries, want in (((math.inf,), math.inf), ((-math.inf,), math.inf),
                              ((math.nan,), math.nan), ((math.inf, math.nan), math.nan)):
            s = np.ones((3, 2, 2))
            s.flat[: len(entries)] = entries
            np.testing.assert_equal(_core_norms(s), [want] * 3)


def planted_problem(seed=1, shape=(8, 8, 8), sigma=0.0, missing=0.0, family="gaussian"):
    part = SubjectPartition(0, (SliceGroup((0, 1)), SliceGroup((2,)),))
    spec = SynthSpec(shape=shape, ranks=(3, 3, 3), partition=part,
                     subject_core_scale=1.0, noise_family=family, noise_sigma=sigma,
                     missing_fraction=missing, seed=seed)
    return synthesize(spec), part


def sweep_iterates(omega, init, family, sim, config):
    """The ``z`` of the same solve stopped after 0, 1, ..., ``config.max_iters`` sweeps."""
    return [solve(omega, init, family, sim, replace(config, max_iters=k)).z
            for k in range(config.max_iters + 1)]


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` to record its calls; the list gains an entry per call."""
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def tiny_moduli(monkeypatch, factor=None, core=None):
    """Make every factor (core) modulus ``factor`` (``core``) when not ``None``."""
    import dcot.solver

    if factor is not None:
        monkeypatch.setattr(dcot.solver, "_factor_modulus", lambda *args: factor)
    if core is not None:
        monkeypatch.setattr(dcot.solver, "_core_modulus", lambda *args: core)


@pytest.mark.parametrize("name, value", [("gamma", 1.0), ("rho_g", 1.0), ("rho_h", 1.0),
                                         ("rho_factors", (1.0, 1.0, 1.0)),
                                         ("lipschitz_safety", 1.1),
                                         ("tol_primal", 1e-6), ("tol_step", 1e-8)])
def test_removed_step_size_fields_rejected(name, value):
    # the step sizes come from the problem (estimate_moduli), and the
    # stopping tolerances are module constants
    with pytest.raises(TypeError):
        SolverConfig(**{name: value})


class TestSolve:
    def test_zero_iterations_returns_init(self, rng):
        data, part = planted_problem()
        init = initial_model(data.observed.to_dense(0.0), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        res = solve(data.observed, init, LossFamily("gaussian"),
                    SimilarityModel.neutral(data.observed.shape),
                    SolverConfig(max_iters=0))
        assert len(res.trace) == 1
        assert np.array_equal(res.model.core_g, init.core_g)
        assert all(np.array_equal(a, b) for a, b in zip(res.model.factors, init.factors))

    @pytest.mark.parametrize("neutral", [False, True], ids=["kernel", "neutral"])
    def test_result_reports_degenerate_targets(self, neutral):
        data, part = planted_problem(sigma=0.05, missing=0.3)
        omega = data.observed
        sim = SimilarityModel.neutral(omega.shape) if neutral else oracles.planted_similarity(data)
        init = initial_model(omega.to_dense(0.0), (3, 3, 3), InitStrategy("hosvd"), part)
        res = solve(omega, init, LossFamily("gaussian"), sim, SolverConfig(max_iters=2))
        want = smoothing_moments(sim, omega).degenerate
        assert res.degenerate == want
        if neutral:  # every unobserved cell is a degenerate target
            assert want == math.prod(omega.shape) - len(omega)

    def test_poisson_data_all_zero_rejected(self, rng):
        # the smoothed target is zero everywhere, so the loss's Lipschitz
        # bound and gamma are 0: the first factor step divided by zero and
        # the solve aborted on non-finite values
        shape = (6, 5, 4)
        omega = ObservationSet.from_dense(np.zeros(shape), rng.random(shape) < 0.7)
        init = initial_model(np.zeros(shape), (2, 2, 2), InitStrategy("hosvd"))
        with pytest.raises(DomainError, match="poisson observations are all zero"):
            solve(omega, init, LossFamily("poisson"), SimilarityModel.neutral(shape),
                  SolverConfig(max_iters=3))
        # one nonzero observation is data
        omega = ObservationSet(omega.indices, np.eye(1, len(omega))[0], shape)
        res = solve(omega, init, LossFamily("poisson"), SimilarityModel.neutral(shape),
                    SolverConfig(max_iters=3))
        assert np.isfinite(res.z).all()

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson", "gamma"])
    def test_result_reports_newton_steps_per_sweep(self, family):
        data, part = planted_problem(missing=0.3, family=family)
        omega = data.observed
        fam = LossFamily(family)
        init = initial_model(omega.to_dense(initial_fill(omega, fam)), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        res = solve(omega, init, fam, oracles.planted_similarity(data),
                    SolverConfig(max_iters=6, z_floor=1e-2))
        if family == "gaussian":  # the closed-form z step takes no Newton step
            assert res.newton_steps == ()
        else:
            assert len(res.newton_steps) == res.trace.rows[-1].iteration == 6
            assert all(isinstance(k, int) and 0 <= k < 100 for k in res.newton_steps)
            assert sum(res.newton_steps) > 0

    def test_planted_noiseless_recovery(self):
        data, part = planted_problem()
        init = initial_model(data.observed.to_dense(0.0), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        res = solve(data.observed, init, LossFamily("gaussian"),
                    SimilarityModel.neutral(data.observed.shape),
                    SolverConfig(max_iters=500))
        assert res.trace.rows[-1].primal_residual <= 1e-6
        assert rmse(reconstruct(res.model), data.observed) <= 1e-4
        if res.converged:
            last = res.trace.rows[-1]
            total = np.sqrt(last.z_step**2 + last.factor_step**2
                            + last.core_g_step**2 + last.core_h_step**2)
            assert total <= _TOL_STEP

    def test_deterministic_trace(self):
        data, part = planted_problem(seed=3, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        cfg = SolverConfig(max_iters=40)
        fam, sim = LossFamily("gaussian"), oracles.planted_similarity(data)
        a = solve(data.observed, init, fam, sim, cfg)
        b = solve(data.observed, init, fam, sim, cfg)
        for ra, rb in zip(a.trace.rows, b.trace.rows):
            assert ra.lagrangian == rb.lagrangian
            assert ra.primal_residual == rb.primal_residual

    def test_tie_preserved_every_iteration(self):
        data, part = planted_problem(seed=5, sigma=0.1, missing=0.3)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)

        # run iteration by iteration via max_iters steps and check the tie
        sim = oracles.planted_similarity(data)
        for iters in (1, 3, 7):
            res = solve(data.observed, init, LossFamily("gaussian"), sim,
                        SolverConfig(max_iters=iters))
            assert tie_satisfied(res.model.core_h, part)

    @pytest.mark.usefixtures("full_length")
    def test_descent_and_dual_primal_bound(self):
        from dcot.losses import loss_lipschitz

        data, part = planted_problem(seed=2, sigma=0.05, missing=0.3)
        sim = oracles.planted_similarity(data)
        m1 = smoothing_moments(sim, data.observed).weighted_x
        lf = loss_lipschitz(LossFamily("gaussian"), m1)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        cfg = SolverConfig(max_iters=60, fixed_moduli=True)
        res = solve(data.observed, init, LossFamily("gaussian"), sim, cfg)
        lag = res.trace.column("lagrangian")
        assert np.all(np.diff(lag) <= 1e-10)
        dy = res.trace.column("dual_step")[1:]
        dz = res.trace.column("z_step")[1:]
        assert np.all(dy <= lf * dz + 1e-8)

    @pytest.mark.usefixtures("full_length")
    def test_bernoulli_descent_and_dual_primal_bound(self):
        from dcot.losses import loss_lipschitz

        # the z step is exact, so y = -grad F(z) holds and bounds the dual step
        fam = LossFamily("bernoulli")
        data, part = planted_problem(seed=7, shape=(10, 10, 10), sigma=0.05,
                                     missing=0.3, family="bernoulli")
        sim = oracles.planted_similarity(data)
        m1 = smoothing_moments(sim, data.observed).weighted_x
        lf = loss_lipschitz(fam, m1)
        init = initial_model(data.observed.to_dense(0.0), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        cfg = SolverConfig(max_iters=200, fixed_moduli=True)
        res = solve(data.observed, init, fam, sim, cfg)
        assert res.moduli.gamma == pytest.approx(2.1 * lf)
        lag = res.trace.column("lagrangian")
        assert len(lag) == 201
        assert np.all(np.diff(lag) <= 1e-10)
        dy = res.trace.column("dual_step")[1:]
        dz = res.trace.column("z_step")[1:]
        assert np.all(dy <= lf * dz + 1e-8)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", ["poisson", "gamma"])
    def test_positive_families_solve_on_default_settings(self, family, seed):
        data, part = planted_problem(seed=seed, shape=(12, 12, 12), missing=0.5,
                                     family=family)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        cfg = SolverConfig(max_iters=20, z_floor=1e-2)
        res = solve(data.observed, init, LossFamily(family), oracles.planted_similarity(data), cfg)
        assert len(res.trace) == 21
        assert np.isfinite(res.z).all() and res.z.min() >= 1e-2

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("family", ["poisson", "gamma"])
    def test_positive_families_solve_on_default_floor(self, family, seed):
        # gamma >= 2.1 L_F scales like 1 / z_floor**2 (poisson) or faster
        # (gamma); at the default floor the rounding of gamma * (z - center)
        # exceeded the absolute Newton tolerance and the first z step aborted
        part = SubjectPartition(2, (SliceGroup((0, 1, 2)),))
        spec = SynthSpec(shape=(30, 30, 30), ranks=(3, 3, 3), partition=part,
                         noise_family=family, missing_fraction=0.5, seed=seed)
        data = synthesize(spec)
        omega = data.observed
        init = initial_model(omega.to_dense(float(omega.values.mean())), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        res = solve(omega, init, LossFamily(family), SimilarityModel.neutral(omega.shape),
                    SolverConfig(max_iters=20))
        assert res.reason == "max_iters" and len(res.trace) == 21
        assert np.isfinite(res.z).all() and res.z.min() >= SolverConfig().z_floor

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_one_way_factor_step_takes_the_target(self, family, rng, monkeypatch):
        # a 1-way model has no chain link: its one factor step takes the
        # target z + y / gamma itself, as the core steps' projection's input
        import dcot.solver

        x = rng.standard_normal(7)
        x = (x > 0).astype(float) if family == "bernoulli" else x
        omega = ObservationSet.from_dense(x, rng.random(7) < 0.7)
        init = DcotModel([rng.standard_normal((7, 2))], rng.standard_normal(2), np.zeros(2))
        fam, sim = LossFamily(family), SimilarityModel.neutral((7,))
        real, inputs = dcot.solver.update_factor, []

        def factor_step(model, projected, *args):
            inputs.append(projected.copy())
            return real(model, projected, *args)

        monkeypatch.setattr(dcot.solver, "update_factor", factor_step)
        cfg = SolverConfig(max_iters=3)
        solve(omega, init, fam, sim, cfg)
        monkeypatch.undo()
        for k, got in enumerate(inputs):
            res = solve(omega, init, fam, sim, replace(cfg, max_iters=k))
            want = res.z + res.y / res.moduli.gamma
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_freeze_h_keeps_zero_core(self):
        data, part = planted_problem(seed=4, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        res = solve(data.observed, init, LossFamily("gaussian"), oracles.planted_similarity(data),
                    SolverConfig(max_iters=10, freeze_h=True))
        assert np.array_equal(res.model.core_h, np.zeros((3, 3, 3)))

    @pytest.mark.usefixtures("full_length")
    @pytest.mark.parametrize("freeze_h", [False, True])
    def test_one_reconstruction_and_one_loss_per_sweep(self, freeze_h, monkeypatch):
        import dcot.solver

        data, part = planted_problem(seed=4, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        calls = {"reconstruct": 0, "loss_value": 0}

        def counting(name):
            real = getattr(dcot.solver, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(dcot.solver, name, counting(name))
        iters = 5
        fam, sim = LossFamily("gaussian"), oracles.planted_similarity(data)
        cfg = SolverConfig(max_iters=iters,
                           freeze_h=freeze_h)
        res = solve(data.observed, init, fam, sim, cfg)
        assert len(res.trace) == iters + 1
        # gradients and the gaussian loss are taken in core space, so no
        # sweep reconstructs: the one reconstruction is the result's z
        assert calls["reconstruct"] == 1
        # no row calls loss_value; every row holds its value to rounding
        assert calls["loss_value"] == 0
        m1 = smoothing_moments(sim, data.observed).weighted_x
        for row, z in zip(res.trace.rows, sweep_iterates(data.observed, init, fam,
                                                         sim, cfg)):
            assert row.loss == pytest.approx(loss_value(fam, m1, z), rel=1e-12, abs=0)

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_final_row_matches_returned_state(self, family):
        data, part = planted_problem(seed=3, sigma=0.05, missing=0.3, family=family)
        fill = 0.0 if family == "bernoulli" else float(data.observed.values.mean())
        init = initial_model(data.observed.to_dense(fill), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        fam, sim = LossFamily(family), oracles.planted_similarity(data)
        res = solve(data.observed, init, fam, sim, SolverConfig(max_iters=15))
        last = res.trace.rows[-1]
        m1 = smoothing_moments(sim, data.observed).weighted_x
        loss = loss_value(fam, m1, res.z)
        primal = frob_norm(reconstruct(res.model) - res.z)
        if family == "gaussian":
            # the gaussian loss is taken in core space: the same value, formed
            # by other arithmetic; z is the reconstruction, so the primal
            # residual is 0
            assert last.loss == pytest.approx(loss, rel=1e-12, abs=0)
            assert last.primal_residual == pytest.approx(primal, rel=1e-12, abs=0)
        else:
            assert last.loss == loss
            assert last.primal_residual == primal

    @pytest.mark.usefixtures("full_length")
    @pytest.mark.parametrize("neutral", [False, True], ids=["kernel", "neutral"])
    def test_gaussian_dual_is_minus_the_loss_gradient(self, neutral, monkeypatch):
        # the gaussian solve keeps no dual: it returns the reconstruction as
        # z and y = -grad F(z).  The returned dual must hold the identity,
        # and each sweep's target m1 is z + y / gamma of the state before it,
        # since gamma = L_F
        import dcot.solver

        data, part = planted_problem(seed=3, sigma=0.05, missing=0.3)
        omega, fam = data.observed, LossFamily("gaussian")
        sim = SimilarityModel.neutral(omega.shape) if neutral else \
            oracles.planted_similarity(data)
        m1 = smoothing_moments(sim, omega).weighted_x
        init = initial_model(omega.to_dense(initial_fill(omega, fam)), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        cfg = SolverConfig(max_iters=6)
        real, projections = dcot.solver.update_cores, []

        def core_step(model, projected, *args, **kwargs):
            projections.append((projected.copy(), [u.copy() for u in model.factors]))
            return real(model, projected, *args, **kwargs)

        monkeypatch.setattr(dcot.solver, "update_cores", core_step)
        solve(omega, init, fam, sim, cfg)
        monkeypatch.setattr(dcot.solver, "update_cores", real)
        assert len(projections) == cfg.max_iters
        for k in range(cfg.max_iters + 1):
            res = solve(omega, init, fam, sim, replace(cfg, max_iters=k))
            gap = np.abs(res.y + loss_gradient(fam, m1, res.z)).max()
            assert gap <= 1e-12 * np.abs(res.y).max()
            if k < cfg.max_iters:
                got, factors = projections[k]
                want = project_core(res.z + res.y / res.moduli.gamma, factors)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_pinned_moduli_are_the_initial_estimate(self, monkeypatch):
        import dcot.solver

        data, part = planted_problem(seed=4, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        fam, sim = LossFamily("gaussian"), oracles.planted_similarity(data)
        initial = estimate_moduli(init, SolverConfig(), fam,
                                  smoothing_moments(sim, data.observed).weighted_x,
                                  factor_norms(init))
        norms = count_calls(monkeypatch, dcot.solver, "_spectral_norm")
        core_norms = count_calls(monkeypatch, np.linalg, "eigvalsh")
        pinned = solve(data.observed, init, fam, sim,
                       SolverConfig(max_iters=5, fixed_moduli=True))
        # the estimate's three factor norms and one core-norm call (one
        # eigvalsh); a pinned sweep takes none
        assert (len(norms), len(core_norms)) == (3, 1)
        assert pinned.moduli == initial
        refreshed = solve(data.observed, init, fam, sim, SolverConfig(max_iters=5))
        assert refreshed.moduli.gamma == initial.gamma
        assert refreshed.moduli != initial

    @pytest.mark.usefixtures("full_length")
    @pytest.mark.parametrize("iters", [0, 3])
    def test_factor_norms_taken_once_at_set_up(self, iters, monkeypatch):
        import dcot.solver

        data, part = planted_problem(seed=4, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        norms = count_calls(monkeypatch, dcot.solver, "_spectral_norm")
        core_norms = count_calls(monkeypatch, np.linalg, "eigvalsh")
        solve(data.observed, init, LossFamily("gaussian"), oracles.planted_similarity(data),
              SolverConfig(max_iters=iters))
        # set-up: three factor norms, which estimate_moduli shares, and one
        # core-norm call (one eigvalsh); a refreshed sweep takes three factor
        # norms and one core-norm call
        assert (len(norms), len(core_norms)) == (3 + 3 * iters, 1 + iters)

    def test_divergence_safeguard_raises(self, monkeypatch):
        data, part = planted_problem(seed=6, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        # absurdly small moduli force uphill steps
        tiny_moduli(monkeypatch, 1e-9, 1e-9)
        cfg = SolverConfig(max_iters=200, fixed_moduli=True)
        with pytest.raises(SolverAbort), np.errstate(over="ignore", invalid="ignore"):
            solve(data.observed, init, LossFamily("gaussian"), oracles.planted_similarity(data),
                  cfg)

    def test_non_finite_core_fails_fast(self, monkeypatch):
        # the settings of test_divergence_safeguard_raises: the subject core
        # overflows in the first sweep, before any Lagrangian is formed
        data, part = planted_problem(seed=6, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        tiny_moduli(monkeypatch, 1e-9, 1e-9)
        cfg = SolverConfig(max_iters=200, fixed_moduli=True)
        with pytest.raises(SolverAbort) as info, np.errstate(over="ignore",
                                                             invalid="ignore"):
            solve(data.observed, init, LossFamily("gaussian"), oracles.planted_similarity(data),
                  cfg)
        assert str(info.value) == "core_h block: non-finite values at iteration 1"
        assert len(info.value.trace) == 1

    def test_nuclear_factor_overflow_names_block(self, monkeypatch):
        # the factor step overflows; its nuclear prox used to hand the inf
        # point to LAPACK, which raised "SVD did not converge"
        spec = SynthSpec(shape=(8, 8, 8), ranks=(2, 2, 2), noise_sigma=0.1,
                         missing_fraction=0.3, seed=0)
        omega = synthesize(spec).observed
        fam = LossFamily("gaussian")
        init = initial_model(omega.to_dense(initial_fill(omega, fam)), (2, 2, 2),
                             InitStrategy("hosvd"))
        tiny_moduli(monkeypatch, factor=1e-300)
        cfg = SolverConfig(penalties=BlockPenalties(factors=Penalty.nuclear(1e-3)))
        with pytest.raises(SolverAbort) as info, np.errstate(over="ignore",
                                                             invalid="ignore"):
            solve(omega, init, fam, SimilarityModel.neutral(omega.shape), cfg)
        assert str(info.value) == "factor 1 block: non-finite values at iteration 1"

    @pytest.mark.parametrize("position,block", [
        (0, "factor 0"), (1, "factor 1"), (2, "factor 2"), (3, "core_g"), (4, "core_h"),
    ])
    def test_non_finite_block_is_named(self, position, block, monkeypatch):
        import dcot.solver

        data, part = planted_problem(seed=4, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        real = dcot.solver.prox_apply
        calls = []

        # five prox steps per sweep (three factors, two cores); poison one of
        # the second sweep's
        def poisoned(*args):
            out = real(*args)
            calls.append(None)
            return out * np.nan if len(calls) == 5 + position + 1 else out

        monkeypatch.setattr(dcot.solver, "prox_apply", poisoned)
        with pytest.raises(SolverAbort) as info:
            solve(data.observed, init, LossFamily("gaussian"), oracles.planted_similarity(data),
                  SolverConfig(max_iters=10))
        assert str(info.value) == f"{block} block: non-finite values at iteration 2"
        assert len(info.value.trace) == 2

    @pytest.mark.parametrize("block,value", [
        ("factor 1", np.nan), ("core_g", np.inf), ("core_h", np.nan),
    ])
    def test_non_finite_initial_model_fails_up_front(self, block, value):
        data, part = planted_problem(seed=4, sigma=0.05, missing=0.2)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (3, 3, 3), InitStrategy("hosvd"), part)
        if block == "factor 1":
            init.factors[1][2, 0] = value
        else:
            # core slice 2 is its own group, so the tie on core_h still holds
            getattr(init, block)[2, 1, 0] = value
        with pytest.raises(ValueError) as info:
            solve(data.observed, init, LossFamily("gaussian"), oracles.planted_similarity(data),
                  SolverConfig(max_iters=10))
        assert str(info.value) == f"initial model {block} has non-finite values"

    def test_poisson_family_runs(self):
        part = SubjectPartition(0, (SliceGroup((0, 1)),))
        spec = SynthSpec(shape=(6, 6, 6), ranks=(2, 2, 2), partition=part,
                         noise_family="poisson", missing_fraction=0.2, seed=8)
        data = synthesize(spec)
        init = initial_model(data.observed.to_dense(float(data.observed.values.mean())),
                             (2, 2, 2), InitStrategy("hosvd"), part)
        # the curvature bound, and hence gamma, scales with 1/z_floor^2, so a
        # data-scale floor keeps the run usable
        cfg = SolverConfig(max_iters=15, z_floor=0.5)
        res = solve(data.observed, init, LossFamily("poisson"), oracles.planted_similarity(data),
                    cfg)
        assert np.isfinite(res.trace.column("lagrangian")).all()
        assert res.z.min() >= 0.5 - 1e-12


CHAIN_PROBLEMS = {
    "3-way": ((7, 6, 5), (2, 3, 2), SubjectPartition(2, (SliceGroup((0, 1)),))),
    "4-way": ((6, 5, 4, 3), (2, 3, 2, 2),
              SubjectPartition(3, (SliceGroup((0, 1), fixed=(0, 1)),))),
}


def chain_problem(shape, ranks, part, family="gaussian"):
    spec = SynthSpec(shape=shape, ranks=ranks, partition=part, noise_family=family,
                     noise_sigma=0.1, missing_fraction=0.3, seed=3)
    data = synthesize(spec)
    omega = data.observed
    init = initial_model(omega.to_dense(initial_fill(omega, LossFamily(family))),
                         ranks, InitStrategy("hosvd"), part)
    return omega, init, oracles.planted_similarity(data)


@pytest.mark.parametrize("problem", CHAIN_PROBLEMS.values(), ids=CHAIN_PROBLEMS)
class TestSweepChain:
    """The sweep's shared chain of mode products, observed inside ``solve``."""

    def test_gauss_seidel_gradients_and_shared_core_projection(self, problem,
                                                               monkeypatch):
        import dcot.solver

        omega, init, sim = chain_problem(*problem)
        fam = LossFamily("gaussian")
        m1 = smoothing_moments(sim, omega).weighted_x
        cfg = SolverConfig(max_iters=1)
        gamma = estimate_moduli(init, cfg, fam, m1, factor_norms(init)).gamma
        assert gamma == loss_lipschitz(fam, m1)
        # the gaussian sweep fits the fixed target m1 with gamma = L_F: the
        # coupling at z = m1 and y = 0
        z, y, target = m1, np.zeros_like(m1), m1
        errors, projections = {}, []
        real_factor, real_cores = dcot.solver.update_factor, dcot.solver.update_cores

        def factor_step(model, projected, gamma_, mode, rho, penalty, grams):
            # factors 0..mode-1 already hold this sweep's updates, and the
            # shared Grams are those of the current factors
            assert all(np.array_equal(g, u.T @ u) for g, u in zip(grams, model.factors))
            got = factor_gradient(model, projected, gamma_, mode, grams)
            want = oracles.factor_gradient_oracle(model, z, y, gamma, mode)
            errors[mode] = np.abs(got - want).max() / np.abs(want).max()
            return real_factor(model, projected, gamma_, mode, rho, penalty, grams)

        def core_step(model, projected, *args, **kwargs):
            projections.append(
                np.array_equal(projected, project_core(target, model.factors)))
            return real_cores(model, projected, *args, **kwargs)

        monkeypatch.setattr(dcot.solver, "update_factor", factor_step)
        monkeypatch.setattr(dcot.solver, "update_cores", core_step)
        solve(omega, init, fam, sim, cfg)
        assert sorted(errors) == list(range(len(omega.shape)))
        assert max(errors.values()) < 1e-12
        assert projections == [True]

    @pytest.mark.usefixtures("full_length")
    def test_gaussian_loss_is_the_dense_loss(self, problem):
        # the gaussian trace takes its loss from core space; every row, the
        # initial one included, holds the dense ||reconstruct(model) - m1||^2
        # / count of the model after that many sweeps
        omega, init, sim = chain_problem(*problem)
        fam = LossFamily("gaussian")
        m1 = smoothing_moments(sim, omega).weighted_x
        cfg = SolverConfig(max_iters=6)
        rows = solve(omega, init, fam, sim, cfg).trace.rows
        assert len(rows) == cfg.max_iters + 1
        for k, row in enumerate(rows):
            model = solve(omega, init, fam, sim, replace(cfg, max_iters=k)).model
            dense = float(((reconstruct(model) - m1) ** 2).sum()) / m1.size
            assert row.loss == pytest.approx(dense, rel=1e-12, abs=0)

    @pytest.mark.usefixtures("full_length")
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_one_full_size_mode_product_per_sweep(self, problem, family, monkeypatch):
        # the last factor's first product reads the target.  A split
        # family's first link comes from the sweep's tail, which takes it per
        # block; the gaussian sweep forms it from m1, a second full-size read
        import dcot.solver
        import dcot.tensor

        omega, init, sim = chain_problem(*problem, family)
        real = dcot.tensor._mode_product
        full_size = []

        def counting(t, u, mode, out=None):
            full_size.append(np.size(t) == math.prod(omega.shape))
            return real(t, u, mode, out=out)

        # the public forms call the kernel, so every product is counted once
        for module in (dcot.tensor, dcot.solver):
            monkeypatch.setattr(module, "_mode_product", counting)
        counts = []
        for iters in (0, 4):  # the set-up makes some before the sweeps
            full_size.clear()
            solve(omega, init, LossFamily(family), sim, SolverConfig(max_iters=iters))
            counts.append(sum(full_size))
        assert counts[1] - counts[0] == (8 if family == "gaussian" else 4)

    @pytest.mark.usefixtures("full_length")
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_sweep_validates_nothing(self, problem, family, monkeypatch):
        # solve checks its inputs once; the sweep calls the unchecked kernels.
        # Only the Newton path's reconstruct checks, the buffer it is given;
        # a gaussian solve reconstructs only its result
        import dcot.model
        import dcot.similarity
        import dcot.solver
        import dcot.tensor

        omega, init, sim = chain_problem(*problem, family)
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("n_mode_product", "matricize", "multilinear_product"):
            wrapper = counting(name, getattr(dcot.tensor, name))
            for module in (dcot.tensor, dcot.model, dcot.similarity, dcot.solver):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        counts = []
        for iters in (0, 4):
            calls.clear()
            solve(omega, init, LossFamily(family), sim, SolverConfig(max_iters=iters))
            counts.append(len(calls))
        assert counts[1] - counts[0] == (0 if family == "gaussian" else 4)


class TestSweepTail:
    """The split families' fused sweep tail against its whole-array steps.

    The oracle takes the whole-array tail and then the next sweep's first
    link with ``n_mode_product``; the tail does both per row block.  At
    these sizes a block's matrix products are bitwise the same rows of the
    whole products, so the iterates and the link are the oracle's; the sums
    add up by blocks, so they agree to rounding.  (BLAS may take a large
    whole product, or a one-row block, through another kernel, which rounds
    differently: with OpenBLAS 0.3.31 the link of a 60^3 tensor in blocks
    of 546 rows does.)
    """

    SHAPES = {"3-way": ((7, 6, 5), (2, 3, 2)), "4-way": ((6, 5, 4, 3), (2, 3, 2, 2))}

    # rows of 5 and 3 cells: 32768 is one block; neither divides 37 (blocks
    # of 7 and 12 rows, no partial block); 48 (9 and 16 rows) leaves a
    # partial last block on both shapes, 210 (42 and 70 rows) on the 4-way
    @pytest.mark.parametrize("block", [37, 210, 32768, 48])
    @pytest.mark.parametrize("path", ["newton"])  # the one path with a tail
    def test_matches_whole_array_steps(self, path, block, rng, monkeypatch):
        import dcot.solver

        for shape, ranks in self.SHAPES.values():
            u_last = random_state(rng, shape, ranks)[0].factors[-1]
            # recon (then the next target), z (then the z step), z_new and u
            want = [rng.standard_normal(shape) for _ in range(4)]
            got = [a.copy() for a in want]
            want_sums = oracles.sweep_tail_oracle(*want)
            monkeypatch.setattr(dcot.solver, "_BLOCK", block)
            got_sums = _sweep_tail(*got, u_last, link := link_buffer(got[0], u_last))
            monkeypatch.undo()
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert np.array_equal(link, n_mode_product(want[0], u_last.T, len(shape) - 1))
            np.testing.assert_allclose(got_sums, want_sums, rtol=1e-12, atol=0)


BLOCK_PROBLEMS = {
    "gaussian": ("gaussian", CHAIN_PROBLEMS["3-way"]),
    "bernoulli": ("bernoulli", CHAIN_PROBLEMS["3-way"]),
    "4-way": ("bernoulli", CHAIN_PROBLEMS["4-way"]),
}


@pytest.mark.parametrize("family, problem", BLOCK_PROBLEMS.values(), ids=BLOCK_PROBLEMS)
@pytest.mark.usefixtures("full_length")
def test_ragged_blocks_match_one_block(family, problem, monkeypatch):
    import dcot.solver

    shape, ranks, part = problem
    spec = SynthSpec(shape=shape, ranks=ranks, partition=part, noise_family=family,
                     noise_sigma=0.1, missing_fraction=0.3, seed=3)
    data = synthesize(spec)
    omega, fam, sim = data.observed, LossFamily(family), oracles.planted_similarity(data)
    init = initial_model(omega.to_dense(initial_fill(omega, fam)), ranks,
                         InitStrategy("hosvd"), part)
    m1 = smoothing_moments(sim, omega).weighted_x
    cfg = SolverConfig(max_iters=6)
    # a _BLOCK of 48 cells makes blocks of 9 rows of 5 (3-way) or 16 rows of 3
    # (4-way), the last one partial
    cells, ragged = math.prod(shape), 48
    assert (cells // shape[-1]) % (ragged // shape[-1])
    runs = {}
    for block in (cells, ragged):
        monkeypatch.setattr(dcot.solver, "_BLOCK", block)
        runs[block] = (solve(omega, init, fam, sim, cfg),
                       sweep_iterates(omega, init, fam, sim, cfg))
    (one, one_z), (many, many_z) = runs[cells], runs[ragged]
    for res in (one, many):
        assert np.array_equal(res.z, one.z) and np.array_equal(res.y, one.y)
        assert np.array_equal(res.model.core_g, one.model.core_g)
        assert np.array_equal(res.model.core_h, one.model.core_h)
        assert all(np.array_equal(a, b) for a, b in zip(res.model.factors, one.model.factors))
    for name in ConvergenceTrace.CSV_FIELDS:
        np.testing.assert_allclose(many.trace.column(name), one.trace.column(name),
                                   rtol=1e-12, atol=0)
    # the trace loss is loss_value's at every row: to rounding when the sums
    # run over several blocks, and on the gaussian path, whose loss comes
    # from core space and which has no blocks; bitwise in one block otherwise
    for row, z in zip(one.trace.rows, one_z):
        if family == "gaussian":
            assert row.loss == pytest.approx(loss_value(fam, m1, z), rel=1e-12, abs=0)
        else:
            assert row.loss == loss_value(fam, m1, z)
    for row, z in zip(many.trace.rows, many_z):
        assert row.loss == pytest.approx(loss_value(fam, m1, z), rel=1e-12, abs=0)


class TestDenseWorkingSet:
    """``prod(I)``-sized arrays, counted with tracemalloc at 24^3."""

    SHAPE = (24, 24, 24)

    def cell_bytes(self):
        return 8 * math.prod(self.SHAPE)

    def test_gaussian_loss_allocates_no_dense_temporary(self, rng):
        omega = ObservationSet.from_dense(rng.standard_normal(self.SHAPE),
                                          rng.random(self.SHAPE) < 0.5)
        m1 = smoothing_moments(SimilarityModel.neutral(self.SHAPE), omega).weighted_x
        z = rng.standard_normal(self.SHAPE)
        with traced_memory() as mem:
            loss_value(LossFamily("gaussian"), m1, z)
        assert mem.peak < self.cell_bytes()

    @pytest.mark.usefixtures("full_length")
    def test_solve_peak_is_the_documented_buffers(self, monkeypatch):
        import dcot.solver

        # the peak is reset at the first factor step, so the moments build and
        # the rest of the set-up stay out of it, and read when the result's z
        # is reconstructed, so z and y stay out too: it is the sweeps' own
        data, part = planted_problem(seed=2, shape=self.SHAPE, sigma=0.05, missing=0.5)
        omega = data.observed
        sim = SimilarityModel.neutral(self.SHAPE)
        init = initial_model(omega.to_dense(float(omega.values.mean())), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        m1 = smoothing_moments(sim, omega).weighted_x
        moments = m1.nbytes
        del m1
        real_step, real_reconstruct = dcot.solver.update_factor, dcot.solver.reconstruct
        sweep_start, sweep_peak = [], []

        def first_step(*args):
            if not sweep_start:
                mem.mark()
                sweep_start.append(mem.base)
            return real_step(*args)

        def result_z(*args, **kwargs):
            sweep_peak.append(mem.peak_so_far())
            return real_reconstruct(*args, **kwargs)

        monkeypatch.setattr(dcot.solver, "update_factor", first_step)
        monkeypatch.setattr(dcot.solver, "reconstruct", result_z)
        with traced_memory() as mem:
            solve(omega, init, LossFamily("gaussian"), sim, SolverConfig(max_iters=5))
        cell = self.cell_bytes()
        # the one reconstruction is the result's
        assert len(sweep_peak) == 1
        peak = sweep_peak[0]
        # beside weighted_x only core-sized and chain arrays, well under one
        # dense array at these ranks: the chain's first link is r_N / I_N =
        # 1/8 of one
        assert sweep_start[0] + peak - moments < 0.5 * cell
        assert peak < 0.5 * cell

    def test_gaussian_result_forms_y_in_the_target_buffer(self, monkeypatch):
        # from the result's reconstruction on, the solve adds z alone: y is
        # -grad F(z), with loss_gradient's arithmetic, in m1's buffer
        import dcot.solver

        data, part = planted_problem(seed=2, shape=self.SHAPE, sigma=0.05, missing=0.5)
        omega, fam = data.observed, LossFamily("gaussian")
        sim = SimilarityModel.neutral(self.SHAPE)
        init = initial_model(omega.to_dense(float(omega.values.mean())), (3, 3, 3),
                             InitStrategy("hosvd"), part)
        real_reconstruct, marks = dcot.solver.reconstruct, []

        def result_z(*args, **kwargs):
            mem.mark()
            marks.append(mem.base)
            return real_reconstruct(*args, **kwargs)

        monkeypatch.setattr(dcot.solver, "reconstruct", result_z)
        with traced_memory() as mem:
            res = solve(omega, init, fam, sim, SolverConfig(max_iters=3))
        assert len(marks) == 1
        assert mem.peak < 1.25 * self.cell_bytes()
        m1 = smoothing_moments(sim, omega).weighted_x
        assert res.y.tobytes() == (-loss_gradient(fam, m1, res.z)).tobytes()
