import numpy as np
import pytest

import oracles
from dcot.evaluate import (
    SplitSpec,
    SynthSpec,
    complement_set,
    grid_search,
    holdout_split,
    lambda_grid,
    rmse,
    synthesize,
)
from dcot.losses import LossFamily, ObservationSet
from dcot.model import SliceGroup, SubjectPartition, reconstruct, tie_satisfied
from dcot.prox import Penalty
from dcot.solver import BlockPenalties, SolverConfig


class TestRmse:
    def test_exact_match_is_zero(self, rng):
        x = rng.standard_normal((3, 3))
        omega = ObservationSet.from_dense(x)
        assert rmse(x, omega) == 0.0

    def test_constant_offset(self, rng):
        x = rng.standard_normal((3, 3))
        omega = ObservationSet.from_dense(x)
        assert np.isclose(rmse(x + 0.25, omega), 0.25)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 3))
        mask = rng.random((4, 3)) < 0.5
        mask.flat[0] = True
        omega = ObservationSet.from_dense(x, mask)
        z_hat = rng.standard_normal((4, 3))
        expected = oracles.rmse_oracle(z_hat, omega.indices, omega.values)
        assert np.isclose(rmse(z_hat, omega), expected, atol=1e-12)

    def test_empty_reference_error(self):
        empty = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), (2, 2))
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 2)), empty)


class TestHoldoutSplit:
    def test_sizes(self, rng):
        omega = ObservationSet.from_dense(rng.standard_normal((2, 5)))
        train, test = holdout_split(omega, SplitSpec(0.9, seed=1))
        assert (len(train), len(test)) == (9, 1)

    def test_deterministic(self, rng):
        omega = ObservationSet.from_dense(rng.standard_normal((4, 4)))
        a = holdout_split(omega, SplitSpec(0.75, seed=5))
        b = holdout_split(omega, SplitSpec(0.75, seed=5))
        assert np.array_equal(a[0].indices, b[0].indices)
        assert np.array_equal(a[1].values, b[1].values)

    def test_disjoint_exhaustive(self, rng):
        omega = ObservationSet.from_dense(rng.standard_normal((3, 4)))
        train, test = holdout_split(omega, SplitSpec(0.6, seed=2))
        all_rows = {tuple(r) for r in omega.indices}
        train_rows = {tuple(r) for r in train.indices}
        test_rows = {tuple(r) for r in test.indices}
        assert train_rows | test_rows == all_rows
        assert not train_rows & test_rows

    def test_degenerate_error(self):
        omega = ObservationSet.from_entries([((0,), 1.0)], (2,))
        with pytest.raises(ValueError):
            holdout_split(omega, SplitSpec(0.5))


class TestLambdaGrid:
    def test_exact_values(self):
        grid = lambda_grid()
        assert grid.shape == (61,)
        assert grid[30] == 1.0
        assert grid[0] == 1e-3
        assert grid[-1] == 1e3
        nu = np.arange(1, 62)
        assert np.array_equal(grid, 10.0 ** ((nu - 31) / 10.0))


class TestSynthesize:
    def spec(self, **kw):
        defaults = dict(
            shape=(6, 5, 4),
            ranks=(2, 2, 2),
            partition=SubjectPartition(0, (SliceGroup((0, 1)),)),
            seed=3,
        )
        defaults.update(kw)
        return SynthSpec(**defaults)

    def test_noiseless_full_observation(self):
        data = synthesize(self.spec())
        truth = data.ground_truth.to_dense()
        assert len(data.observed) == truth.size
        assert np.allclose(data.observed.to_dense(), truth)

    def test_truth_is_reconstruction_bitwise(self):
        data = synthesize(self.spec(noise_sigma=0.3, missing_fraction=0.4))
        assert np.array_equal(reconstruct(data.planted), data.ground_truth.to_dense())

    def test_zero_subject_scale_gives_plain_tucker(self):
        data = synthesize(self.spec(subject_core_scale=0.0))
        assert np.array_equal(data.planted.core_h, np.zeros((2, 2, 2)))

    def test_tie_constraint_holds(self):
        data = synthesize(self.spec())
        assert tie_satisfied(data.planted.core_h, data.planted.partition)

    def test_seed_reproducibility(self):
        a = synthesize(self.spec(noise_sigma=0.1, missing_fraction=0.3))
        b = synthesize(self.spec(noise_sigma=0.1, missing_fraction=0.3))
        assert np.array_equal(a.observed.values, b.observed.values)
        assert np.array_equal(a.observed.indices, b.observed.indices)

    def test_missing_fraction(self):
        data = synthesize(self.spec(missing_fraction=0.25))
        total = 6 * 5 * 4
        assert len(data.observed) == total - round(0.25 * total)

    def test_missing_fraction_leaving_no_observed_cell_rejected(self):
        # 0.95 of 8 cells rounds to 8 missing; 0.9 rounds to 7 and keeps one
        with pytest.raises(ValueError, match="missing_fraction 0.95 leaves no observed "
                                             "cell of 8"):
            SynthSpec(shape=(2, 2, 2), ranks=(1, 1, 1), missing_fraction=0.95)
        data = synthesize(SynthSpec(shape=(2, 2, 2), ranks=(1, 1, 1),
                                    missing_fraction=0.9))
        assert len(data.observed) == 1

    def test_orthonormal_factors(self):
        data = synthesize(self.spec())
        for u in data.planted.factors:
            assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) < 1e-10

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "gamma"])
    def test_families_in_domain(self, family):
        data = synthesize(self.spec(noise_family=family, partition=None))
        LossFamily(family).validate_observations(data.observed)

    def test_complement_set(self):
        data = synthesize(self.spec(missing_fraction=0.3))
        test = complement_set(data.observed, data.ground_truth)
        assert len(test) + len(data.observed) == data.ground_truth.to_dense().size
        assert not (data.observed.mask() & test.mask()).any()


class TestGridSearch:
    def setup_problem(self):
        spec = SynthSpec(shape=(7, 6, 5), ranks=(2, 2, 2), partition=None,
                         noise_sigma=0.1, missing_fraction=0.3, seed=11)
        return synthesize(spec)

    def test_single_point_returned(self):
        data = self.setup_problem()
        cfg = SolverConfig(max_iters=30,
                           penalties=BlockPenalties(g=Penalty.frob_sq(0.0)))
        result = grid_search(
            data.observed, SplitSpec(0.8, seed=1), LossFamily("gaussian"),
            oracles.planted_similarity(data), cfg, (2, 2, 2), lambdas=[0.01], blocks=("g",),
        )
        assert result.best.weights == {"g": 0.01}
        assert len(result.report) == 1

    def test_best_minimizes_validation_rmse(self):
        data = self.setup_problem()
        cfg = SolverConfig(max_iters=30,
                           penalties=BlockPenalties(g=Penalty.frob_sq(0.0)))
        result = grid_search(
            data.observed, SplitSpec(0.8, seed=1), LossFamily("gaussian"),
            oracles.planted_similarity(data), cfg, (2, 2, 2), lambdas=[1e-4, 1e-2, 1.0],
            blocks=("g",),
        )
        best = min(p.validation_rmse for p in result.report)
        assert result.best.validation_rmse == best

    def test_deterministic(self):
        data = self.setup_problem()
        cfg = SolverConfig(max_iters=20,
                           penalties=BlockPenalties(g=Penalty.frob_sq(0.0)))
        kwargs = dict(lambdas=[1e-3, 1e-1], blocks=("g",))
        sim = oracles.planted_similarity(data)
        a = grid_search(data.observed, SplitSpec(0.8, seed=2), LossFamily("gaussian"),
                        sim, cfg, (2, 2, 2), **kwargs)
        b = grid_search(data.observed, SplitSpec(0.8, seed=2), LossFamily("gaussian"),
                        sim, cfg, (2, 2, 2), **kwargs)
        assert [p.validation_rmse for p in a.report] == [p.validation_rmse for p in b.report]

    def test_tie_breaks_to_larger_weight(self):
        data = self.setup_problem()
        cfg = SolverConfig(max_iters=0,
                           penalties=BlockPenalties(g=Penalty.frob_sq(0.0)))
        # zero iterations: every grid point gives the same validation rmse
        result = grid_search(
            data.observed, SplitSpec(0.8, seed=1), LossFamily("gaussian"),
            oracles.planted_similarity(data), cfg, (2, 2, 2), lambdas=[1e-3, 1e-2, 1e-1],
            blocks=("g",),
        )
        assert result.best.weights["g"] == pytest.approx(1e-1)

    def test_bernoulli_start_fills_unobserved_with_zero(self, monkeypatch):
        import dcot.evaluate

        spec = SynthSpec(shape=(7, 6, 5), ranks=(2, 2, 2), partition=None,
                         noise_family="bernoulli", missing_fraction=0.3, seed=11)
        data = synthesize(spec)
        seen = []
        real = dcot.evaluate.initial_model

        def spy(x, *args, **kwargs):
            seen.append(np.array(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(dcot.evaluate, "initial_model", spy)
        split = SplitSpec(0.8, seed=1)
        grid_search(data.observed, split, LossFamily("bernoulli"), oracles.planted_similarity(data),
                    SolverConfig(max_iters=2), (2, 2, 2), lambdas=[0.01], blocks=("g",))
        train, _ = holdout_split(data.observed, split)
        assert len(seen) == 1
        assert np.array_equal(seen[0], train.to_dense(0.0))
        assert np.any(train.values == 1.0) and not train.mask().all()

    def test_one_start_per_search(self, monkeypatch):
        # every candidate starts from the same model of the training split,
        # built once: the report is the one a search per candidate gives
        import dcot.evaluate

        data = self.setup_problem()
        cfg = SolverConfig(max_iters=10, penalties=BlockPenalties(g=Penalty.frob_sq(0.0)))
        lambdas = np.geomspace(1e-4, 1e-1, 8)
        args = (data.observed, SplitSpec(0.8, seed=1), LossFamily("gaussian"),
                oracles.planted_similarity(data), cfg, (2, 2, 2))
        singles = [grid_search(*args, lambdas=[lam], blocks=("g",)).report[0]
                   for lam in lambdas]
        calls = []
        real = dcot.evaluate.initial_model

        def counted(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(dcot.evaluate, "initial_model", counted)
        for workers in (1, 2):
            calls.clear()
            result = grid_search(*args, lambdas=lambdas, blocks=("g",), workers=workers)
            assert len(calls) == 1
            assert result.report == tuple(singles)

    def test_empty_grid_error(self):
        data = self.setup_problem()
        cfg = SolverConfig(max_iters=5)
        with pytest.raises(ValueError):
            grid_search(data.observed, SplitSpec(0.8), LossFamily("gaussian"),
                        oracles.planted_similarity(data), cfg, (2, 2, 2), lambdas=[])
