"""Metrics, hold-out splitting, penalty-weight search, synthetic data.

The synthetic generator plants a double-core model with clustered factor
rows, draws noisy observations from the requested family, and masks a
fraction of cells uniformly at random.  It builds no similarity: the
cluster ids it returns and the planted factor rows are the truth, and a
similarity built from them uses oracle features.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .losses import LossFamily, ObservationSet, initial_fill
from .model import (DcotModel, InitStrategy, SubjectPartition, initial_model, reconstruct,
                    tie_heterogeneous_core)
from .similarity import SimilarityModel
from .solver import SolverAbort, SolverConfig, solve

log = logging.getLogger("dcot.evaluate")

# planted factor rows: up to this many label clusters per mode, and the
# standard deviation of a row around its cluster centroid
_LABEL_CLUSTERS = 4
_FEATURE_JITTER = 0.3


def rmse(z_hat: np.ndarray, reference: ObservationSet) -> float:
    """Root mean square error over the reference entries only."""
    if len(reference) == 0:
        raise ValueError("reference set is empty")
    z_hat = np.asarray(z_hat, dtype=float)
    if z_hat.shape != reference.shape:
        raise ValueError(
            f"estimate shape {z_hat.shape} does not match reference shape "
            f"{reference.shape}"
        )
    pred = z_hat[tuple(reference.indices.T)]
    return math.sqrt(float(np.mean((pred - reference.values) ** 2)))


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split of an observation set."""

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly in (0, 1)")


def holdout_split(
    omega: ObservationSet, spec: SplitSpec
) -> tuple[ObservationSet, ObservationSet]:
    """Disjoint, exhaustive, seed-deterministic split of the observations."""
    n = len(omega)
    if n < 2:
        raise ValueError("need at least two observations to split")
    k = int(round(spec.train_fraction * n))
    k = min(max(k, 1), n - 1)
    perm = np.random.default_rng(spec.seed).permutation(n)
    train_idx, test_idx = np.sort(perm[:k]), np.sort(perm[k:])
    train = ObservationSet(omega.indices[train_idx], omega.values[train_idx], omega.shape)
    test = ObservationSet(omega.indices[test_idx], omega.values[test_idx], omega.shape)
    return train, test


def complement_set(omega: ObservationSet, truth: ObservationSet) -> ObservationSet:
    """Entries of ``truth`` whose indices are *not* observed in ``omega``."""
    observed = omega.mask()
    keep = ~observed[tuple(truth.indices.T)]
    if not keep.any():
        raise ValueError("every truth entry is observed; nothing held out")
    return ObservationSet(truth.indices[keep], truth.values[keep], truth.shape)


def lambda_grid() -> np.ndarray:
    """The 61-point logarithmic weight grid ``10**((nu - 31) / 10)``."""
    nu = np.arange(1, 62)
    return 10.0 ** ((nu - 31) / 10.0)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a planted heterogeneous factorization problem."""

    shape: tuple[int, ...]
    ranks: tuple[int, ...]
    partition: SubjectPartition | None = None
    subject_core_scale: float = 1.0
    noise_family: str = "gaussian"
    noise_sigma: float = 0.0
    missing_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if len(self.shape) != len(self.ranks):
            raise ValueError("need one rank per mode")
        if any(r < 1 or r > s for r, s in zip(self.ranks, self.shape)):
            raise ValueError("ranks must satisfy 1 <= rank <= mode size")
        if not 0.0 <= self.missing_fraction < 1.0:
            raise ValueError("missing_fraction must lie in [0, 1)")
        # synthesize drops round(missing_fraction * total) cells
        total = math.prod(self.shape)
        if round(self.missing_fraction * total) == total:
            raise ValueError(f"missing_fraction {self.missing_fraction} leaves no "
                             f"observed cell of {total}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        LossFamily(self.noise_family)
        if self.partition is not None:
            self.partition.validate_shape(self.ranks)


class SynthData(NamedTuple):
    observed: ObservationSet
    ground_truth: ObservationSet
    planted: DcotModel
    labels: list[np.ndarray]


def _clustered_factor(rng, size, rank, clusters, jitter, orthonormal):
    labels = np.sort(rng.integers(0, clusters, size=size)) if clusters > 1 else np.zeros(size, dtype=int)
    centroids = rng.standard_normal((clusters, rank))
    rows = centroids[labels] + jitter * rng.standard_normal((size, rank))
    if orthonormal:
        q, r = np.linalg.qr(rows)
        # Fix the sign ambiguity for determinism across BLAS builds.
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs, labels
    rows = np.abs(rows)
    rows /= np.linalg.norm(rows, axis=0, keepdims=True)
    return rows, labels


def synthesize(spec: SynthSpec) -> SynthData:
    """Plant a model and draw observations from it.

    The ground truth is the full reconstruction of the planted model (so
    ``reconstruct(planted)`` equals the truth bitwise).  The gaussian and
    bernoulli families use random orthonormal factors; the bounded
    families (``LossFamily.bounded``) use nonnegative column-normalized
    factors and nonnegative cores so the natural parameter stays in domain.
    ``labels`` holds each mode's cluster ids of the planted factor rows.
    """
    rng = np.random.default_rng(spec.seed)
    family = LossFamily(spec.noise_family)
    factors, labels = [], []
    for n, size in enumerate(spec.shape):
        clusters = min(_LABEL_CLUSTERS, size)
        u, lab = _clustered_factor(
            rng, size, spec.ranks[n], clusters, _FEATURE_JITTER, not family.bounded
        )
        factors.append(u)
        labels.append(lab)
    core_g = rng.standard_normal(spec.ranks)
    core_h = rng.standard_normal(spec.ranks)
    if family.bounded:
        core_g, core_h = np.abs(core_g), np.abs(core_h)
    if spec.partition is not None:
        core_h = tie_heterogeneous_core(core_h, spec.partition)
    h_norm = float(np.linalg.norm(core_h))
    g_norm = float(np.linalg.norm(core_g))
    if h_norm > 0:
        core_h = core_h * (spec.subject_core_scale * g_norm / h_norm)
    planted = DcotModel(factors, core_g, core_h, spec.partition)
    z_star = reconstruct(planted)

    truth = ObservationSet.from_dense(z_star)
    total = int(np.prod(spec.shape))
    n_missing = int(round(spec.missing_fraction * total))
    flat = rng.permutation(total)
    kept = np.sort(flat[: total - n_missing])
    mask = np.zeros(total, dtype=bool)
    mask[kept] = True
    mask = mask.reshape(spec.shape)

    values = family.sample(rng, z_star[mask], spec.noise_sigma)
    observed = ObservationSet(np.argwhere(mask), values, spec.shape)
    return SynthData(observed, truth, planted, labels)


@dataclass(frozen=True)
class GridPoint:
    weights: dict
    validation_rmse: float
    converged: bool


@dataclass(frozen=True)
class GridSearchResult:
    best: GridPoint
    report: tuple[GridPoint, ...]


def _with_weights(config: SolverConfig, weights: dict) -> SolverConfig:
    pen = config.penalties
    new_g = replace(pen.g, weight=weights.get("g", pen.g.weight))
    new_h = replace(pen.h, weight=weights.get("h", pen.h.weight))
    new_f = replace(pen.factors, weight=weights.get("factors", pen.factors.weight))
    return replace(config, penalties=replace(pen, g=new_g, h=new_h, factors=new_f))


def _grid_eval(args):
    weights, train, test, family, sim, config, init = args
    cfg = _with_weights(config, weights)
    try:
        result = solve(train, init, family, sim, cfg)
    except SolverAbort as exc:
        log.warning("grid point %s failed: %s", weights, exc)
        return GridPoint(weights=weights, validation_rmse=math.inf, converged=False)
    return GridPoint(
        weights=weights,
        validation_rmse=rmse(reconstruct(result.model), test),
        converged=result.converged,
    )


def grid_search(
    omega: ObservationSet,
    split: SplitSpec,
    family: LossFamily,
    sim: SimilarityModel,
    config: SolverConfig,
    ranks,
    strategy: InitStrategy = InitStrategy("hosvd"),
    partition: SubjectPartition | None = None,
    lambdas: np.ndarray | None = None,
    blocks: tuple[str, ...] = ("g", "h", "factors"),
    workers: int = 1,
) -> GridSearchResult:
    """Pick penalty weights by validation RMSE on a hold-out split.

    One shared weight is swept over ``lambdas`` (the 61-point grid when
    omitted) and applied to every block named in ``blocks``.  Ties in
    validation RMSE go to the larger (more regularized) candidate.  When
    every candidate's solve aborts, so does the search (``SolverAbort``).
    Every candidate starts from the same model, built once from the
    training split (``solve`` copies its start).
    """
    lambdas = lambda_grid() if lambdas is None else np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("weight grid is empty")
    lambdas = np.sort(lambdas)
    train, test = holdout_split(omega, split)
    candidates = [{b: float(lam) for b in blocks} for lam in lambdas]
    init = initial_model(train.to_dense(initial_fill(train, family)),
                         tuple(int(r) for r in ranks), strategy, partition)
    jobs = [(weights, train, test, family, sim, config, init) for weights in candidates]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_grid_eval, jobs))
    else:
        points = [_grid_eval(job) for job in jobs]
    if all(math.isinf(p.validation_rmse) for p in points):
        raise SolverAbort("all grid evaluations failed")
    best = points[0]
    for p in points[1:]:
        if p.validation_rmse <= best.validation_rmse:
            best = p
    log.info("grid search selected %s (rmse %.4g)", best.weights, best.validation_rmse)
    return GridSearchResult(best=best, report=tuple(points))
