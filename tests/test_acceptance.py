"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here and nowhere else.  Oracles are brute-force
loops from ``tests/oracles.py``; thresholds marked "confirmed" were
checked against independent reference runs before being frozen.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from dcot.cli import main
from dcot.evaluate import (
    SynthSpec,
    complement_set,
    lambda_grid,
    rmse,
    synthesize,
)
from dcot.losses import LossFamily, ObservationSet, loss_gradient, loss_lipschitz, loss_value
from dcot.model import (
    DcotModel,
    InitStrategy,
    SliceGroup,
    SubjectPartition,
    initial_model,
    project_core,
    reconstruct,
)
from dcot.prox import Penalty, penalty_value, prox_apply
from dcot.similarity import SimilarityModel, mode_similarity, smoothing_moments
from dcot.solver import (
    BlockPenalties,
    SolverConfig,
    core_gradient,
    factor_gradient,
    solve,
    update_z,
)
from dcot.tensor import (
    frob_inner,
    matricize,
    multilinear_product,
    n_mode_product,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# A core-mode partition with four tied groups: mode-1 slices tied within
# each fixed mode-0 index (3 x 3 cells split 3/1/2/3).
FOUR_GROUPS = SubjectPartition(
    1,
    (
        SliceGroup((0, 1, 2), fixed=(0, 0)),
        SliceGroup((0,), fixed=(0, 1)),
        SliceGroup((1, 2), fixed=(0, 1)),
        SliceGroup((0, 1, 2), fixed=(0, 2)),
    ),
)


def sharp_similarity(data, lo=0.02, hi=0.2):
    """Kernel similarity from the planted factor rows and labels, using a
    narrow multi-kernel bandwidth span (concentrated neighborhoods)."""
    per_mode = []
    for n, feats in enumerate(data.planted.factors):
        d = np.sqrt(((feats[:, None, :] - feats[None, :, :]) ** 2).sum(-1))
        med = float(np.median(d[np.triu_indices_from(d, 1)]))
        per_mode.append(
            mode_similarity(
                feats,
                bandwidths=np.geomspace(lo * med, hi * med, 10),
                labels=data.labels[n],
            )
        )
    return SimilarityModel(per_mode=per_mode)


def hosvd_init(omega, ranks, partition):
    fill = float(omega.values.mean())
    return initial_model(omega.to_dense(fill), ranks, InitStrategy("hosvd"), partition)


def test_algebra_oracle_suite():
    """Every shape with at most 4 modes and <= 64 cells, against loop oracles.

    The budget is CPU time of this process, so a loaded machine does not
    fail it.
    """
    started = time.process_time()
    rng = np.random.default_rng(0)
    shapes = oracles.small_shapes(64, 4)
    assert len(shapes) > 2000
    for shape in shapes:
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            m = matricize(t, mode)
            if not np.array_equal(oracles.fold(m, mode, shape), t):
                report("algebra-oracles", False, f"roundtrip broke at {shape}")
            if np.abs(m - oracles.matricize_oracle(t, mode)).max() > 1e-12:
                report("algebra-oracles", False, f"matricize broke at {shape}")
        mode = int(rng.integers(0, len(shape)))
        u = rng.standard_normal((int(rng.integers(1, 4)), shape[mode]))
        if np.abs(
            n_mode_product(t, u, mode) - oracles.n_mode_oracle(t, u, mode)
        ).max() > 1e-12:
            report("algebra-oracles", False, f"n-mode broke at {shape}")
        other = rng.standard_normal(shape)
        inner = oracles.inner_oracle(t, other)
        if abs(frob_inner(t, other) - inner) > 1e-12 * max(1.0, abs(inner)):
            report("algebra-oracles", False, f"inner broke at {shape}")
        ranks = tuple(min(s, 2) for s in shape)
        core = rng.standard_normal(ranks)
        factors = [rng.standard_normal((s, r)) for s, r in zip(shape, ranks)]
        if np.abs(
            multilinear_product(core, factors) - oracles.multilinear_oracle(core, factors)
        ).max() > 1e-12:
            report("algebra-oracles", False, f"multilinear broke at {shape}")
    elapsed = time.process_time() - started
    report(
        "algebra-oracles",
        elapsed < 5.0,
        f"{len(shapes)} shapes in {elapsed:.2f}s CPU (budget 5s)",
    )


def test_gradient_suite():
    """Coupling-term and loss-family gradients vs central finite differences."""
    started = time.time()
    rng = np.random.default_rng(1)
    shapes = [(4, 3, 2), (3, 3, 2), (2, 2, 2), (4, 2, 2), (3, 2, 2), (4, 3), (3, 2)]
    worst = 0.0

    def coupling(model, z, y, gamma):
        r = reconstruct(model) - z - y / gamma
        return 0.5 * gamma * float((r**2).sum())

    for i in range(20):
        shape = shapes[i % len(shapes)]
        ranks = tuple(min(2, s) for s in shape)
        model = DcotModel(
            [rng.standard_normal((s, r)) for s, r in zip(shape, ranks)],
            rng.standard_normal(ranks),
            rng.standard_normal(ranks),
        )
        z = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        gamma = 0.5 + rng.random()
        grams = [u.T @ u for u in model.factors]
        for mode in range(len(shape)):
            def f_u(u, mode=mode):
                probe = model.copy()
                probe.factors[mode] = u
                return coupling(probe, z, y, gamma)

            fd = oracles.central_difference(f_u, model.factors[mode])
            others = [None if t == mode else u.T for t, u in enumerate(model.factors)]
            projected = multilinear_product(z + y / gamma, others)
            got = factor_gradient(model, projected, gamma, mode, grams)
            worst = max(worst, np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12))

        def f_g(g):
            probe = model.copy()
            probe.core_g = g
            return coupling(probe, z, y, gamma)

        fd = oracles.central_difference(f_g, model.core_g)
        got = core_gradient(model.core_g + model.core_h, grams,
                            project_core(z + y / gamma, model.factors), gamma)
        worst = max(worst, np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12))

    for family in ("gaussian", "bernoulli", "poisson", "gamma"):
        fam = LossFamily(family)
        for i in range(20):
            shape = shapes[i % len(shapes)]
            x = {
                "gaussian": rng.standard_normal(shape),
                "bernoulli": (rng.random(shape) > 0.5).astype(float),
                "poisson": rng.poisson(3.0, shape).astype(float),
                "gamma": rng.gamma(2.0, 1.0, shape) + 0.1,
            }[family]
            mask = rng.random(shape) < 0.8
            mask.flat[0] = True
            omega = ObservationSet.from_dense(x, mask)
            feats = [rng.standard_normal((s, 2)) for s in shape]
            sim = SimilarityModel(per_mode=[mode_similarity(f) for f in feats])
            m1 = smoothing_moments(sim, omega).weighted_x
            z = (
                0.5 + 2.0 * rng.random(shape)
                if family in ("poisson", "gamma")
                else rng.standard_normal(shape)
            )
            fd = oracles.central_difference(lambda zz: loss_value(fam, m1, zz), z)
            got = loss_gradient(fam, m1, z)
            worst = max(worst, np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12))

    elapsed = time.time() - started
    report(
        "gradient-suite",
        worst < 1e-5 and elapsed < 30.0,
        f"max relative error {worst:.2e} in {elapsed:.1f}s (tol 1e-5, budget 30s)",
    )


def test_prox_oracle_suite():
    rng = np.random.default_rng(2)
    penalties = [
        Penalty.l1(0.8),
        Penalty.frob_sq(0.6),
        Penalty.nonneg(),
        # one group per tied column (0, 1 and 3); column 2 takes only the l1 part
        Penalty.sparse_group_lasso(0.5, SubjectPartition(1, ((0, 1), (3,)))),
    ]
    for p in penalties:
        for _ in range(5):
            point = rng.standard_normal((2, 4))
            t = 0.5 + rng.random()
            q_star = prox_apply(p, point, t)
            best = penalty_value(p, q_star) + 0.5 * t * float(((q_star - point) ** 2).sum())
            for _ in range(2000):
                cand = q_star + rng.standard_normal((2, 4)) * rng.random()
                if p.kind == "nonneg":
                    cand = np.maximum(cand, 0.0)
                val = penalty_value(p, cand) + 0.5 * t * float(((cand - point) ** 2).sum())
                if best > val + 1e-6:
                    report("prox-oracles", False, f"{p.kind} missed the minimum")
    # nuclear: random matrices plus the exact diagonal case
    for _ in range(5):
        point = np.random.default_rng(7).standard_normal((3, 2))
        q_star = prox_apply(Penalty.nuclear(0.5), point, 1.2)
        best = penalty_value(Penalty.nuclear(0.5), q_star) + 0.6 * float(
            ((q_star - point) ** 2).sum()
        )
        for _ in range(2000):
            cand = q_star + rng.standard_normal((3, 2)) * rng.random()
            val = penalty_value(Penalty.nuclear(0.5), cand) + 0.6 * float(
                ((cand - point) ** 2).sum()
            )
            if best > val + 1e-6:
                report("prox-oracles", False, "nuclear missed the minimum")
    svt = prox_apply(Penalty.nuclear(1.0), np.diag([3.0, 1.0]), 1.0)
    if not np.allclose(svt, np.diag([2.0, 0.0]), atol=1e-12):
        report("prox-oracles", False, f"SVT example returned {svt}")
    point = rng.standard_normal((3, 3))
    for p in [Penalty.none(), Penalty.l1(0.0), Penalty.frob_sq(0.0), Penalty.nuclear(0.0)]:
        if not np.array_equal(prox_apply(p, point, 1.0), point):
            report("prox-oracles", False, f"{p.kind} with zero weight not identity")
    report("prox-oracles", True, "dense-search optimality within 1e-6; SVT exact")


@pytest.mark.usefixtures("full_length")
def test_monotone_descent_and_dual_bound():
    started = time.time()
    spec = SynthSpec(
        shape=(10, 10, 10), ranks=(3, 3, 3), partition=FOUR_GROUPS,
        subject_core_scale=1.0, noise_sigma=0.05, missing_fraction=0.3, seed=7,
    )
    data = synthesize(spec)
    fam = LossFamily("gaussian")
    sim = oracles.planted_similarity(data)
    m1 = smoothing_moments(sim, data.observed).weighted_x
    lf = loss_lipschitz(fam, m1)
    cfg = SolverConfig(max_iters=200, fixed_moduli=True)
    res = solve(data.observed, hosvd_init(data.observed, spec.ranks, FOUR_GROUPS),
                fam, sim, cfg)
    # the gaussian family has no split: its coupling is the loss, with
    # gamma = L_F, and its dual step is 0 (the dual bound is checked on
    # bernoulli, in test_solver)
    assert res.moduli.gamma == lf
    lag = res.trace.column("lagrangian")
    increases = np.diff(lag)
    monotone = bool(np.all(increases <= 1e-10))
    elapsed = time.time() - started
    report(
        "monotone-descent",
        monotone and len(lag) == 201 and elapsed < 60.0,
        f"max Lagrangian increase {increases.max():.2e} (slack 1e-10); "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_planted_recovery():
    started = time.time()
    # noiseless, fully observed
    spec = SynthSpec(
        shape=(20, 20, 20), ranks=(3, 3, 3), partition=FOUR_GROUPS,
        subject_core_scale=1.0, noise_sigma=0.0, missing_fraction=0.0, seed=1,
    )
    data = synthesize(spec)
    fam = LossFamily("gaussian")
    res = solve(
        data.observed, hosvd_init(data.observed, spec.ranks, FOUR_GROUPS), fam,
        SimilarityModel.neutral(spec.shape), SolverConfig(max_iters=500),
    )
    train = rmse(reconstruct(res.model), data.observed)
    ok_clean = train <= 1e-4 and res.trace.rows[-1].iteration <= 500

    # sigma = 0.01 noise, 50% missing; threshold 3*sigma confirmed by
    # reference runs before freezing (observed ~0.012 at convergence)
    noisy = SynthSpec(
        shape=(20, 20, 20), ranks=(3, 3, 3), partition=FOUR_GROUPS,
        subject_core_scale=1.0, noise_sigma=0.01, missing_fraction=0.5, seed=1,
    )
    ndata = synthesize(noisy)
    nres = solve(
        ndata.observed, hosvd_init(ndata.observed, noisy.ranks, FOUR_GROUPS), fam,
        sharp_similarity(ndata), SolverConfig(max_iters=3000),
    )
    test_err = rmse(reconstruct(nres.model), complement_set(ndata.observed, ndata.ground_truth))
    ok_noisy = test_err <= 3 * noisy.noise_sigma
    elapsed = time.time() - started
    report(
        "planted-recovery",
        ok_clean and ok_noisy and elapsed < 120.0,
        f"clean train RMSE {train:.2e} (tol 1e-4); noisy test RMSE {test_err:.4f} "
        f"(tol {3 * noisy.noise_sigma}); {elapsed:.1f}s (budget 120s)",
    )


def test_heterogeneity_direction():
    """Tied-core benefit and smoothing benefit, each varying one factor."""
    part = SubjectPartition(2, (SliceGroup((0, 1, 2)),))
    fam = LossFamily("gaussian")
    dcot_ridge, tucker_ridge, dcot_plain, sdcot_plain = [], [], [], []
    for seed in range(5):
        spec = SynthSpec(
            shape=(12, 12, 12), ranks=(3, 3, 3), partition=part,
            subject_core_scale=1.0, noise_sigma=0.15, missing_fraction=0.5, seed=seed,
        )
        data = synthesize(spec)
        init = hosvd_init(data.observed, spec.ranks, part)
        neutral = SimilarityModel.neutral(spec.shape)
        test = complement_set(data.observed, data.ground_truth)

        # leg 1: ridge on the shared core and factors; the tied core is free.
        pen = BlockPenalties(g=Penalty.frob_sq(2e-3), factors=Penalty.frob_sq(2e-3))
        for frozen, bucket in ((False, dcot_ridge), (True, tucker_ridge)):
            cfg = SolverConfig(max_iters=400, penalties=pen, freeze_h=frozen,
                               fixed_moduli=True)
            res = solve(data.observed, init, fam, neutral, cfg)
            bucket.append(rmse(reconstruct(res.model), test))

        # leg 2: informative similarity vs none, no penalties.
        for sim, bucket in ((neutral, dcot_plain), (sharp_similarity(data), sdcot_plain)):
            res = solve(data.observed, init, fam, sim, SolverConfig(max_iters=300))
            bucket.append(rmse(reconstruct(res.model), test))

    med_dcot = float(np.median(dcot_ridge))
    med_tucker = float(np.median(tucker_ridge))
    smoothing_wins = int(np.sum(np.array(sdcot_plain) <= np.array(dcot_plain)))
    report(
        "heterogeneity-direction",
        med_dcot < med_tucker and smoothing_wins >= 3,
        f"median tied-core {med_dcot:.4f} < frozen-core {med_tucker:.4f}; "
        f"smoothing wins {smoothing_wins}/5 seeds",
    )


def test_gaussian_reaches_the_hooi_objective():
    # an unpenalized gaussian solve fits the best rank-(3, 3, 3) approximation
    # of the smoothed data m1, which HOOI computes directly.  The spec is the
    # benchmark's gauss-dense one at 20^3: noise sigma 10 % of the signal
    # RMS, half the cells missing, mode-3 slices 0-2 tied.  The first sweep
    # within 1e-3 was 605 / 306 / 654 / 1240 / 108 on seeds 1-5; the ADMM
    # with gamma = 2.1 L_F took 1925 / 714 / 1756 / more than 2000 / 1163
    started = time.time()
    budget, part = 1500, SubjectPartition(2, (SliceGroup((0, 1, 2)),))
    fam, worst = LossFamily("gaussian"), 0.0
    for seed in range(1, 6):
        spec = SynthSpec(shape=(20, 20, 20), ranks=(3, 3, 3), partition=part,
                         missing_fraction=0.5, seed=seed)
        rms = float(np.sqrt(np.mean(synthesize(spec).ground_truth.values**2)))
        spec = replace(spec, noise_sigma=0.1 * rms)
        data = synthesize(spec)
        sim = sharp_similarity(data)
        m1 = smoothing_moments(sim, data.observed).weighted_x
        res = solve(data.observed, hosvd_init(data.observed, spec.ranks, part), fam, sim,
                    SolverConfig(max_iters=budget))
        loss = float(((reconstruct(res.model) - m1) ** 2).sum()) / m1.size
        best = oracles.hooi(m1, spec.ranks, 100)
        worst = max(worst, (loss - best) / best)
    elapsed = time.time() - started
    report("hooi-objective", worst <= 1e-3,
           f"worst objective gap {worst:.2e} relative (tol 1e-3) within {budget} sweeps "
           f"on 5 seeds; {elapsed:.1f}s")


def test_lambda_grid_fidelity():
    grid = lambda_grid()
    nu = np.arange(1, 62)
    ok = (
        grid.shape == (61,)
        and np.array_equal(grid, 10.0 ** ((nu - 31) / 10.0))
        and grid[0] == 1e-3
        and grid[30] == 1.0
        and grid[60] == 1e3
    )
    report("lambda-grid", bool(ok), "61 points, endpoints 1e-3/1e3, midpoint 1.0")


def test_gaussian_z_update_cross_check():
    rng = np.random.default_rng(4)
    fam = LossFamily("gaussian")
    worst = 0.0
    for i in range(20):
        shape = [(2, 3, 2), (3, 2, 2), (4, 3, 2)][i % 3]
        ranks = tuple(2 for _ in shape)
        model = DcotModel(
            [rng.standard_normal((s, r)) for s, r in zip(shape, ranks)],
            rng.standard_normal(ranks),
            rng.standard_normal(ranks),
        )
        x = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.8
        mask.flat[0] = True
        omega = ObservationSet.from_dense(x, mask)
        feats = [rng.standard_normal((s, 2)) for s in shape]
        m1 = smoothing_moments(
            SimilarityModel(per_mode=[mode_similarity(f) for f in feats]), omega
        ).weighted_x
        z = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        gamma = 0.3 + rng.random()
        center = reconstruct(model) - y / gamma
        closed = oracles.gaussian_z_step(m1, gamma, center)
        newton = update_z(fam, m1, omega, center, gamma, z, z_floor=1e-6, steps=[])
        worst = max(worst, float(np.abs(closed - newton).max()))
    report("z-update-cross-check", worst <= 1e-8,
           f"max closed-form vs Newton gap {worst:.2e} (tol 1e-8)")


def test_cli_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def write_cfg(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    synth_payload = {
        "seed": 5,
        "output": "data",
        "synth": {
            "shape": [8, 7, 6], "ranks": [2, 2, 2],
            "partition": {"mode": 1, "groups": [[1, 2]]},
            "noise_sigma": 0.05, "missing_fraction": 0.3,
        },
    }
    assert main(["synth", "--config", write_cfg("synth.json", synth_payload)]) == 0
    assert main(["synth", "--config", write_cfg("synth.json", synth_payload),
                 "--output", "data2"]) == 0
    synth_deterministic = (
        (tmp_path / "data" / "observed.coo").read_bytes()
        == (tmp_path / "data2" / "observed.coo").read_bytes()
        and (tmp_path / "data" / "truth.dct").read_bytes()
        == (tmp_path / "data2" / "truth.dct").read_bytes()
    )

    fit = {
        "seed": 5,
        "output": None,
        "data": {"observations": "data/observed.coo"},
        "family": "gaussian",
        "ranks": [2, 2, 2],
        "partition": {"path": "data/partition.txt"},
        "similarity": {
            "kind": "kernel",
            "features": [f"data/features_mode{n}.txt" for n in (1, 2, 3)],
            "labels": [f"data/labels_mode{n}.txt" for n in (1, 2, 3)],
        },
        "solver": {"max_iters": 40},
    }
    fit["output"] = "run_a"
    assert main(["complete", "--config", write_cfg("fa.json", fit)]) == 0
    fit["output"] = "run_b"
    assert main(["complete", "--config", write_cfg("fb.json", fit)]) == 0

    trace_a = (tmp_path / "run_a" / "trace.csv").read_bytes()
    trace_b = (tmp_path / "run_b" / "trace.csv").read_bytes()
    byte_identical = trace_a == trace_b

    eval_cfg = write_cfg("eval.json", {
        "output": "eval",
        "evaluate": {"estimate": "run_a/z_hat.dct", "reference": "data/observed.coo"},
    })
    assert main(["evaluate", "--config", eval_cfg]) == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    report(
        "cli-end-to-end",
        synth_deterministic and byte_identical and summary["rmse"] < 1.0,
        f"synth outputs byte-identical: {synth_deterministic}; trace CSVs "
        f"byte-identical: {byte_identical}; eval rmse {summary['rmse']:.4f}",
    )
