"""The four benchmark workloads.

Each workload builds its inputs from the run seed through the public API
(``synthesize``, ``mode_similarity``, ``initial_model``, ``dcot synth``),
untimed, and then runs closed-loop ops: one op starts after the previous
one finished.  ``op(i, tracer)`` times op ``i``, checks its outputs and
returns an :class:`OpResult`; with a tracer it also records spans around
the benchmark's own calls into each layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dcot import cli, io
from dcot.evaluate import (
    SplitSpec,
    SynthSpec,
    complement_set,
    grid_search,
    holdout_split,
    rmse,
    synthesize,
)
from dcot.losses import LossFamily
from dcot.model import (
    DcotModel,
    InitStrategy,
    SliceGroup,
    SubjectPartition,
    initial_model,
    reconstruct,
    tie_satisfied,
)
from dcot.prox import Penalty
from dcot.similarity import SimilarityModel, mode_similarity, smoothing_moments
from dcot.solver import BlockPenalties, SolverConfig, solve
import calibrate
from tracing import time_to_tol

# Core partition shared by every workload: mode-3 slices {0, 1, 2} tied.
PARTITION = SubjectPartition(2, (SliceGroup((0, 1, 2)),))
RANKS = (3, 3, 3)
MISSING = 0.5
NOISE_SHARE = 0.1  # noise sigma as a share of the planted signal's RMS


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sub_seed(seed: int, *keys: int) -> int:
    """A dataset seed derived from the run seed and a dataset key."""
    return int(np.random.SeedSequence([abs(int(seed)), *keys]).generate_state(1)[0])


def gaussian_spec(size: int, seed: int):
    """Gaussian problem whose noise sigma is NOISE_SHARE of the signal RMS.

    Returns the spec and the noise-free data; the planted truth and the
    observed cells do not depend on the noise level.
    """
    base = synthesize(SynthSpec(shape=(size,) * 3, ranks=RANKS, partition=PARTITION,
                                missing_fraction=MISSING, seed=seed))
    sigma = NOISE_SHARE * math.sqrt(float(np.mean(base.ground_truth.values**2)))
    spec = SynthSpec(shape=(size,) * 3, ranks=RANKS, partition=PARTITION,
                     noise_sigma=sigma, missing_fraction=MISSING, seed=seed)
    return spec, base


def kernel_bandwidths(feats: np.ndarray) -> np.ndarray:
    """Ten bandwidths from 0.02 to 0.2 times the median feature distance."""
    d = np.sqrt(((feats[:, None, :] - feats[None, :, :]) ** 2).sum(-1))
    med = float(np.median(d[np.triu_indices_from(d, 1)]))
    return np.geomspace(0.02 * med, 0.2 * med, 10)


def build_similarity(data, tracer=None) -> SimilarityModel:
    """Per-mode kernel similarity with labels, as in scripts/rmse_vs_samples.py."""
    per_mode = []
    for n, feats in enumerate(data.planted.factors):
        bw = kernel_bandwidths(feats)
        per_mode.append(_call(tracer, "similarity.mode_similarity", mode_similarity,
                              feats, bandwidths=bw, labels=data.labels[n]))
    return SimilarityModel(per_mode=per_mode)


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def rel_err(z_hat: np.ndarray, reference) -> float:
    """RMSE on the reference cells over the RMS of their values."""
    return rmse(z_hat, reference) / math.sqrt(float(np.mean(reference.values**2)))


@dataclass
class OpResult:
    """One op: its timing, outputs fingerprint, and failure if any."""

    wall_s: float = 0.0
    setup_s: float | None = None
    heldout_rel_err: float | None = None
    fingerprint: dict = field(default_factory=dict)
    error: str | None = None  # exception or nonzero exit
    check: str | None = None  # failed output check
    walls: list = field(default_factory=list)
    tol_s: float | None = None
    reached_tol: bool | None = None
    iters: int | None = None
    family: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.check is None


def _exc_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _model_checks(model: DcotModel, z) -> str | None:
    if not all(np.isfinite(a).all() for a in (model.core_g, model.core_h, *model.factors, z)):
        return "model or z is not finite"
    if not tie_satisfied(model.core_h, PARTITION):
        return "core_h violates the partition tie"
    return None


class SolveWorkload:
    """In-process solves: similarity build, ``initial_model``, ``solve``.

    Op ``i`` runs on dataset ``i``, generated from the run seed when first
    needed (untimed), so the medians of a run pool several datasets.
    """

    name = ""
    calibrate_with = ("algebra",)  # calibrate.PARTS the ops' work is made of
    ceiling = 1.0  # sanity ceiling on heldout_rel_err
    peak_iters: int | None = None  # iteration cap of the tracemalloc op

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._cache: dict[int, tuple] = {}

    def spec(self, i: int) -> tuple[str, SynthSpec]:
        raise NotImplementedError

    def config(self, family: str, max_iters: int | None = None) -> SolverConfig:
        raise NotImplementedError

    def dataset(self, i: int) -> tuple:
        """(family, SynthData, held-out complement) of dataset ``i``."""
        if i not in self._cache:
            family, spec = self.spec(i)
            data = synthesize(spec)
            self._cache = {i: (family, data, complement_set(data.observed, data.ground_truth))}
        return self._cache[i]

    def op(self, i: int, tracer=None, peak: bool = False) -> OpResult:
        return self.solve_op(*self.dataset(i), tracer, peak)

    def solve_op(self, family, data, test, tracer=None, peak=False) -> OpResult:
        res = OpResult(family=family)
        omega = data.observed
        cfg = self.config(family, self.peak_iters if peak else None)
        t0 = time.perf_counter()
        try:
            sim = build_similarity(data, tracer)
            fill = 0.0 if family == "bernoulli" else float(omega.values.mean())
            init = _call(tracer, "model.initial_model", initial_model,
                         omega.to_dense(fill), RANKS, InitStrategy("hosvd"), PARTITION)
            out = _call(tracer, "solver.solve", solve, omega, init, LossFamily(family),
                        sim, cfg)
        except Exception as exc:  # a failed op is recorded, not fatal
            res.wall_s = time.perf_counter() - t0
            res.error = _exc_text(exc)
            res.fingerprint = {"error": res.error}
            return res
        res.wall_s = time.perf_counter() - t0
        res.walls = [r.wall_time for r in out.trace.rows[1:]]
        res.setup_s = res.wall_s - sum(res.walls)
        res.iters = len(res.walls)
        res.tol_s, res.reached_tol = time_to_tol(out.trace, omega)
        res.heldout_rel_err = rel_err(reconstruct(out.model), test)
        res.check = _model_checks(out.model, out.z)
        if res.check is None and not res.heldout_rel_err < self.ceiling:
            res.check = f"heldout_rel_err {res.heldout_rel_err:.4g} >= {self.ceiling}"
        res.fingerprint = {
            "lagrangian": repr(out.trace.rows[-1].lagrangian),
            "heldout_rel_err": repr(res.heldout_rel_err),
            "iters": res.iters,
            "reason": out.reason,
            "degenerate": smoothing_moments(sim, omega).degenerate,
        }
        return res


class GaussDense(SolveWorkload):
    """Gaussian 60^3, ranks (3,3,3), 50 % missing, cap 150 iterations."""

    name = "gauss-dense"
    ceiling = 0.5
    peak_iters = 5

    def spec(self, i):
        return "gaussian", gaussian_spec(60, sub_seed(self.seed, 1, i))[0]

    def config(self, family, max_iters=None):
        return SolverConfig(max_iters=max_iters or 150)


class GlmZstep(SolveWorkload):
    """Bernoulli, poisson and gamma at 30^3, cap 20, z_floor 1e-2 on positives.

    The timed ops are bernoulli solves.  One poisson and one gamma solve
    per run are probes, not ops: their failures (``InnerSolveError`` when
    this benchmark was written) go to the probe ledger of the run record,
    and they count in neither the ops' counts nor the timing metrics,
    because which of them fail depends on the seed, and a mix of families
    would make those metrics unsteady.
    """

    name = "glm-zstep"
    calibrate_with = ("algebra", "lbfgs")  # the z step is L-BFGS-B
    ceiling = 5.0
    peak_iters = 3
    probe_families = ("poisson", "gamma")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.probes = []
        for family in self.probe_families:
            data = synthesize(self._spec(family, 0))
            self.probes.append((family, data, complement_set(data.observed, data.ground_truth)))

    def _spec(self, family, i):
        return SynthSpec(shape=(30,) * 3, ranks=RANKS, partition=PARTITION,
                         noise_family=family, missing_fraction=MISSING,
                         seed=sub_seed(self.seed, 2, i))

    def spec(self, i):
        return "bernoulli", self._spec("bernoulli", i)

    def config(self, family, max_iters=None):
        floor = 1e-2 if family in ("poisson", "gamma") else 1e-6
        return SolverConfig(max_iters=max_iters or 20, z_floor=floor)

    def probe(self, j: int, tracer=None) -> OpResult:
        return self.solve_op(*self.probes[j], tracer)


class CliComplete:
    """``dcot complete`` in-process on ``dcot synth`` datasets (60^3).

    Set-up writes one dataset per ``dcot synth`` call; op ``i`` completes
    dataset ``i % len(datasets)``.
    """

    name = "cli-complete"
    calibrate_with = ("algebra", "text")  # about half the call is COO parsing
    ceiling = 0.6
    n_datasets = 5
    max_iters = 15

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.setup_samples = []  # seconds of each ``dcot synth`` call
        self.setup_kernels = []  # calibration kernel seconds just before each
        self.datasets = []  # (complete config, held-out complement)
        self.first_trace: dict[int, bytes] = {}
        for d in range(self.n_datasets):
            self.datasets.append(self._synth(sub_seed(seed, 3, d), self.dir / f"data{d}"))

    def _synth(self, seed: int, data_dir: Path):
        spec, base = gaussian_spec(60, seed)
        synth_cfg = data_dir.with_suffix(".synth.json")
        synth_cfg.write_text(json.dumps({
            "seed": seed, "output": data_dir.name,
            "synth": {"shape": list(spec.shape), "ranks": list(RANKS),
                      "partition": {"mode": 3, "groups": [[1, 2, 3]]},
                      "noise_sigma": spec.noise_sigma, "missing_fraction": MISSING},
        }))
        self.setup_kernels.append(calibrate.sample(self.calibrate_with))
        t0 = time.perf_counter()
        code = cli.main(["synth", "--config", str(synth_cfg), "--output", str(data_dir)])
        self.setup_samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"dcot synth exited with {code}")
        if not np.array_equal(io.read_dense(data_dir / "truth.dct"),
                              base.ground_truth.to_dense()):
            raise RuntimeError("dcot synth wrote another truth than synthesize()")
        bw = np.median([kernel_bandwidths(u) for u in base.planted.factors], axis=0)
        config = data_dir.with_suffix(".complete.json")
        config.write_text(json.dumps({
            "seed": 0, "output": "out",
            "data": {"observations": f"{data_dir.name}/observed.coo"},
            "family": "gaussian", "ranks": list(RANKS),
            "partition": {"path": f"{data_dir.name}/partition.txt"},
            "similarity": {
                "kind": "kernel",
                "features": [f"{data_dir.name}/features_mode{n}.txt" for n in (1, 2, 3)],
                "labels": [f"{data_dir.name}/labels_mode{n}.txt" for n in (1, 2, 3)],
                "bandwidths": bw.tolist(),
            },
            "solver": {"max_iters": self.max_iters},
        }))
        return config, complement_set(base.observed, base.ground_truth)

    def op(self, i: int, tracer=None, peak: bool = False) -> OpResult:
        d = i % len(self.datasets)
        config, test = self.datasets[d]
        res = OpResult(family="gaussian")
        out = self.dir / "out"
        if out.exists():
            shutil.rmtree(out)
        argv = ["complete", "--config", str(config), "--output", str(out)]
        t0 = time.perf_counter()
        try:
            code = _call(tracer, "cli.complete", cli.main, argv)
        except Exception as exc:
            code = None
            res.error = _exc_text(exc)
        res.wall_s = time.perf_counter() - t0
        if code != 0:
            res.error = res.error or f"dcot complete exited with {code}"
            res.fingerprint = {"error": res.error}
            return res
        res.check = self._check(out, d, test, res)
        return res

    def _check(self, out: Path, d: int, test, res: OpResult) -> str | None:
        core_g = io.read_dense(out / "model_g.dct")
        core_h = io.read_dense(out / "model_h.dct")
        factors = [io.read_dense(out / f"factor_{n}.dct") for n in (1, 2, 3)]
        model = DcotModel(factors, core_g, core_h)
        z_hat = io.read_dense(out / "z_hat.dct")
        trace = (out / "trace.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        res.iters = summary["iterations"]
        res.heldout_rel_err = rel_err(z_hat, test)
        res.fingerprint = {
            "lagrangian": trace.decode().strip().splitlines()[-1].split(",")[1],
            "heldout_rel_err": repr(res.heldout_rel_err),
            "iters": res.iters,
            "reason": summary["reason"],
            "trace_sha256": hashlib.sha256(trace).hexdigest(),
        }
        first = self.first_trace.setdefault(d, trace)
        if not np.array_equal(z_hat, reconstruct(model)):
            return "z_hat.dct differs from reconstruct of the written model"
        if trace != first:
            return "trace.csv differs between identical calls"
        problem = _model_checks(model, z_hat)
        if problem is None and not res.heldout_rel_err < self.ceiling:
            problem = f"heldout_rel_err {res.heldout_rel_err:.4g} >= {self.ceiling}"
        return problem


class GridSmall:
    """``grid_search`` on gaussian 16^3: 8 weights on g and h, 90/10 split.

    Op ``i`` searches dataset ``i`` with ``nproc`` pool workers.  Set-up is
    the similarity build the search is given.
    """

    name = "grid-small"
    calibrate_with = ("algebra",)
    ceiling = 0.6
    lambdas = np.geomspace(1e-4, 1e-1, 8)
    max_iters = 100
    peak_iters = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workers = nproc()
        self.split = SplitSpec(0.9, 0)
        self._cache: dict[int, object] = {}

    def dataset(self, i: int):
        if i not in self._cache:
            self._cache = {i: synthesize(gaussian_spec(16, sub_seed(self.seed, 4, i))[0])}
        return self._cache[i]

    def op(self, i: int, tracer=None, peak: bool = False, workers: int | None = None):
        data = self.dataset(i)
        cfg = SolverConfig(
            max_iters=self.peak_iters if peak else self.max_iters,
            penalties=BlockPenalties(g=Penalty.frob_sq(0.0), h=Penalty.frob_sq(0.0)),
        )
        if peak:  # tracemalloc sees only this process
            workers = 1
        res = OpResult(family="gaussian")
        t0 = time.perf_counter()
        sim = build_similarity(data, tracer)
        t1 = time.perf_counter()
        try:
            out = _call(tracer, "evaluate.grid_search", grid_search,
                        data.observed, self.split, LossFamily("gaussian"), sim,
                        cfg, RANKS, InitStrategy("hosvd"), PARTITION,
                        lambdas=self.lambdas, blocks=("g", "h"),
                        workers=workers or self.workers)
        except Exception as exc:
            res.wall_s = time.perf_counter() - t0
            res.error = _exc_text(exc)
            res.fingerprint = {"error": res.error}
            return res
        res.wall_s = time.perf_counter() - t0
        res.setup_s = t1 - t0
        val = holdout_split(data.observed, self.split)[1]
        res.heldout_rel_err = out.best.validation_rmse / math.sqrt(float(np.mean(val.values**2)))
        errs = [p.validation_rmse for p in out.report]
        res.fingerprint = {
            "validation_rmse": [repr(e) for e in errs],
            "best": {k: repr(v) for k, v in out.best.weights.items()},
        }
        if not all(math.isfinite(e) for e in errs):
            res.check = "a grid point failed (validation RMSE is not finite)"
        elif not res.heldout_rel_err < self.ceiling:
            res.check = f"heldout_rel_err {res.heldout_rel_err:.4g} >= {self.ceiling}"
        return res


WORKLOADS = {w.name: w for w in (GaussDense, GlmZstep, CliComplete, GridSmall)}

