"""Per-mode kernel similarities and multiplicative smoothing weights.

The smoothing weight between a target cell ``(i_1, ..., i_N)`` and an
observed source cell ``(j_1, ..., j_N)`` is the product over modes of a
kernel similarity ``s[i_n, j_n]`` times a label-consistency factor
``c[i_n, j_n]`` (0.8 within a cluster, 0.2 across), normalized to sum to
one per target.  The full pairwise weight object is never materialized:
per-mode matrices are truncated to the strongest 32 neighbors per index,
and the weights are aggregated over all targets at once
(:func:`smoothing_moments`, which the loss functions use).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .losses import ObservationSet
from .tensor import n_mode_product

log = logging.getLogger("dcot.similarity")

# label-consistency factor of two indices in the same / different clusters
_LABEL_SAME, _LABEL_DIFF = 0.8, 0.2
# neighbors retained per index per mode (see SimilarityModel)
_NEIGHBOR_CAP = 32


@dataclass(frozen=True)
class ModeSimilarity:
    """Kernel similarities ``s`` and label constants ``c`` for one mode."""

    s: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("similarity matrix must be square")
        if c.shape != s.shape:
            raise ValueError("label matrix must match the similarity matrix")
        if not np.allclose(s, s.T, atol=1e-12):
            raise ValueError("similarity matrix must be symmetric")
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("label matrix must be symmetric")
        if np.any(s < 0):
            raise ValueError("similarity values must be nonnegative")
        if np.any((c < 0) | (c > 1)):
            raise ValueError("label constants must lie in [0, 1]")

    @property
    def size(self) -> int:
        return self.s.shape[0]


def mode_similarity(features, bandwidths=None, labels=None) -> ModeSimilarity:
    """Kernel similarity matrix for one mode from per-index feature vectors.

    ``s[i, j]`` is the average over the listed bandwidths ``h`` of the
    gaussian kernel ``exp(-u^2/2)`` at ``u = ||y_i - y_j|| / h``; the
    distances are symmetric bitwise, so ``s`` is too.  When
    ``bandwidths`` is omitted, ten geometrically spaced values spanning
    ``[0.1, 10]`` times the median pairwise distance are averaged.

    ``labels`` optionally supplies per-index cluster ids used to build the
    label-consistency matrix via :func:`label_consistency`; without labels
    the consistency factor is identically one.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    if feats.shape[0] == 0:
        raise ValueError("feature set is empty")
    diffs = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=-1))
    if bandwidths is None:
        off = dist[np.triu_indices_from(dist, k=1)]
        med = float(np.median(off)) if off.size else 0.0
        if med <= 0.0:
            med = 1.0
        bandwidths = np.geomspace(0.1 * med, 10.0 * med, 10)
    bandwidths = np.asarray(bandwidths, dtype=float)
    if bandwidths.size == 0 or np.any(bandwidths <= 0):
        raise ValueError("bandwidths must be positive")
    s = np.zeros_like(dist)
    for h in bandwidths:
        s += np.exp(-0.5 * (dist / h) ** 2)
    s /= bandwidths.size
    c = np.ones_like(s) if labels is None else label_consistency(labels)
    if c.shape != s.shape:
        raise ValueError("labels must provide one id per feature vector")
    return ModeSimilarity(s=s, c=c)


def label_consistency(labels) -> np.ndarray:
    """Matrix with 0.8 where cluster ids agree and 0.2 elsewhere."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a nonempty 1-d sequence")
    eq = labels[:, None] == labels[None, :]
    return np.where(eq, _LABEL_SAME, _LABEL_DIFF)


@dataclass(frozen=True)
class Moments:
    """Per-target smoothing aggregates over the observed entries.

    ``weight_sum[t] = sum_j w(t, j)`` and ``weighted_x[t] = sum_j w(t, j) x_j``,
    after normalization and the degenerate-target fallback.  ``weighted_x``
    has the data shape; ``weight_sum`` broadcasts against it.
    :func:`smoothing_moments` normalizes, so it stores the size-one array
    ``1.0`` (one axis of length one per mode); every reader also takes a
    per-cell ``weight_sum``, such as zero on cells that pool nothing.
    ``x2_total`` is the scalar ``sum_t sum_j w(t, j) x_j^2`` over every
    target, with the same normalization and fallback: the gaussian loss
    needs that second-moment term only as an additive constant, so no
    per-target array is kept.  ``count`` is the normalizing cell count
    ``prod(shape)`` used by the loss functions.
    """

    weight_sum: np.ndarray
    weighted_x: np.ndarray
    x2_total: float
    count: int
    degenerate: int = 0


@dataclass
class SimilarityModel:
    """Per-mode similarities combined lazily into multiplicative weights.

    At most 32 neighbors are retained per index per mode: entry ``(i, j)``
    of a mode's combined factor ``s * c`` survives only when it ranks in
    the top 32 of *both* row ``i`` and row ``j`` (keeping truncation
    symmetric).  The weights over observed sources are rescaled to sum to
    one for every target.

    Instances are immutable after construction (the truncated factors are
    precomputed once); sharing across threads is safe.
    """

    per_mode: list[ModeSimilarity]
    _factors: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.per_mode:
            raise ValueError("need at least one mode similarity")
        self._factors = [self._truncate(m.s * m.c) for m in self.per_mode]

    def _truncate(self, f: np.ndarray) -> np.ndarray:
        k = _NEIGHBOR_CAP
        n = f.shape[0]
        if k >= n:
            return f
        # Rank columns per row by (-value, column) for deterministic ties.
        order = np.lexsort((np.arange(n)[None, :].repeat(n, 0), -f), axis=1)
        keep = np.zeros_like(f, dtype=bool)
        rows = np.repeat(np.arange(n), k)
        keep[rows, order[:, :k].ravel()] = True
        keep &= keep.T
        return np.where(keep, f, 0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(m.size for m in self.per_mode)

    @classmethod
    def neutral(cls, shape) -> "SimilarityModel":
        """Delta weights: each cell is its own only neighbor per mode.

        An observed cell pools only its own observation, so its loss term is
        the plain (unsmoothed) one.  An unobserved cell has no observed
        neighbor: it is a degenerate smoothing target, which
        :func:`smoothing_moments` gives weight one spread uniformly over the
        observed entries, so its estimate is pulled toward their mean.  The
        loss is therefore not the plain loss over the observed entries
        alone: every unobserved cell adds an observed-mean term.
        """
        modes = [
            ModeSimilarity(s=np.eye(int(n)), c=np.ones((int(n), int(n))))
            for n in shape
        ]
        return cls(per_mode=modes)


def _check_omega(sim: SimilarityModel, omega: ObservationSet) -> None:
    if omega.shape != sim.shape:
        raise ValueError(
            f"observation shape {omega.shape} does not match similarity "
            f"shape {sim.shape}"
        )
    if len(omega) == 0:
        raise ValueError("observation set is empty")


def smoothing_moments(sim: SimilarityModel, omega: ObservationSet) -> Moments:
    """Aggregate smoothing weights over all target cells at once.

    Because the weight factorizes over modes, the per-target sums
    ``sum_j w(t, j) x_j^p`` are mode products of the observation indicator
    (and value) tensors with the truncated per-mode factor matrices; no
    pairwise object over cells is ever formed.  A degenerate target (every
    raw weight zero) falls back to weight one on its own entry when it is
    observed, otherwise to uniform weights over the observed entries
    (logged).  Every loss function
    of :mod:`dcot.losses` takes the result, so build it once per problem.

    Each moment is scattered into one buffer and contracted mode by mode
    into a second, the two trading roles; ``w``, ``m1`` and ``m2`` are
    built in that order, so at most four ``prod(I)`` arrays are live: the
    three moments and a free buffer.  The fallback indexes the observed
    entries directly, and normalization is one in-place division over every
    cell (fallback cells have weight one).  The result keeps no dense
    weight tensor (see :class:`Moments`).
    """
    _check_omega(sim, omega)
    idx = tuple(omega.indices.T)
    values = omega.values

    def moment(power: int, src: np.ndarray):
        # sum_j w(t, j) x_j^power, scattered into src and contracted between
        # it and a second buffer, made after the scatter's temporaries are
        # gone; returns the moment and the buffer left free
        src.fill(0.0)
        src[idx] = values**power
        dst = np.empty(sim.shape)
        for mode, f in enumerate(sim._factors):
            n_mode_product(src, f, mode, out=dst)
            src, dst = dst, src
        return src, dst

    w, spare = moment(0, np.empty(sim.shape))
    m1, spare = moment(1, spare)
    m2, spare = moment(2, spare)
    del spare

    bad = w <= 0.0
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        log.info("%d degenerate smoothing targets; using fallback", n_bad)
        w[bad] = 1.0
        m1[bad] = values.mean()
        m2[bad] = (values**2).mean()
        own = bad[idx]  # degenerate targets that are observed keep their value
        observed = tuple(i[own] for i in idx)
        m1[observed] = values[own]
        m2[observed] = values[own] ** 2
    np.divide(m1, w, out=m1)
    np.divide(m2, w, out=m2)
    return Moments(
        weight_sum=np.ones((1,) * len(sim.shape)),
        weighted_x=m1,
        x2_total=float(m2.sum()),
        count=int(np.prod(sim.shape)),
        degenerate=n_bad,
    )
