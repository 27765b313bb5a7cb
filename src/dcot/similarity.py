"""Per-mode kernel similarities and multiplicative smoothing weights.

The smoothing weight between a target cell ``(i_1, ..., i_N)`` and an
observed source cell ``(j_1, ..., j_N)`` is the product over modes of one
weight matrix per mode, normalized to sum to one per target.  A mode's
weight matrix (:func:`mode_similarity`) is a kernel similarity times a
label-consistency factor (0.8 within a cluster, 0.2 across).  The full
pairwise weight object is never materialized: per-mode matrices are
truncated to the strongest 32 neighbors per index, and the weights are
aggregated over all targets at once (:func:`smoothing_moments`).  Its
result is the smoothed target the loss functions fit: each target cell's
weighted mean of the observations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .losses import ObservationSet
from .tensor import _mode_product_in_place

log = logging.getLogger("dcot.similarity")

# label-consistency factor of two indices in the same / different clusters
_LABEL_SAME, _LABEL_DIFF = 0.8, 0.2
# neighbors retained per index per mode (see SimilarityModel)
_NEIGHBOR_CAP = 32


def mode_similarity(features, bandwidths=None, labels=None) -> np.ndarray:
    """One mode's weight matrix from per-index feature vectors.

    Entry ``[i, j]`` is the average over the listed bandwidths ``h`` of the
    gaussian kernel ``exp(-u^2/2)`` at ``u = ||y_i - y_j|| / h``, times the
    label-consistency factor of :func:`label_consistency` when ``labels``
    (per-index cluster ids) are given; the distances are symmetric
    bitwise, so the matrix is too.  When ``bandwidths`` is omitted, ten
    geometrically spaced values spanning ``[0.1, 10]`` times the median
    pairwise distance are averaged.  A non-finite feature value raises
    ``ValueError``.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    if feats.shape[0] == 0:
        raise ValueError("feature set is empty")
    if not np.isfinite(feats).all():
        raise ValueError("feature values must be finite")
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
    if labels is None:
        return s
    c = label_consistency(labels)
    if c.shape != s.shape:
        raise ValueError("labels must provide one id per feature vector")
    return s * c


def label_consistency(labels) -> np.ndarray:
    """Matrix with 0.8 where cluster ids agree and 0.2 elsewhere."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a nonempty 1-d sequence")
    eq = labels[:, None] == labels[None, :]
    return np.where(eq, _LABEL_SAME, _LABEL_DIFF)


@dataclass(frozen=True)
class Moments:
    """The smoothed target of the loss functions, with its fallback count.

    ``weighted_x[t] = sum_j w(t, j) x_j``, with the data's shape, after the
    degenerate-target fallback and the normalization that makes every
    target's weights ``w(t, .)`` sum to one.  Every integrand of
    :mod:`dcot.losses` is linear in ``x``, so the smoothed loss is the plain
    loss at this target, which the loss functions take.  ``degenerate`` is
    the number of targets that took the fallback.
    """

    weighted_x: np.ndarray
    degenerate: int = 0


@dataclass
class SimilarityModel:
    """Per-mode weight matrices combined lazily into multiplicative weights.

    Each matrix of ``per_mode`` must be square, finite, symmetric and
    nonnegative (``ValueError`` otherwise).  Only its truncation is kept:
    entry ``(i, j)`` survives when it ranks in the top 32 of *both* row
    ``i`` and row ``j`` (keeping truncation symmetric), ties ranked by
    column.  The weights over observed sources are rescaled to sum to one
    for every target.

    Instances are immutable after construction; sharing across threads is
    safe.
    """

    per_mode: list[np.ndarray]

    def __post_init__(self):
        if not self.per_mode:
            raise ValueError("need at least one mode similarity")
        self.per_mode = [_truncate(_checked(f)) for f in self.per_mode]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.per_mode)

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
        return cls(per_mode=[np.eye(int(n)) for n in shape])


def _checked(f) -> np.ndarray:
    f = np.array(f, dtype=float)  # a copy: the caller's matrix may change later
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("similarity matrix must be square")
    if not np.isfinite(f).all():
        raise ValueError("similarity values must be finite")
    if not np.allclose(f, f.T, atol=1e-12):
        raise ValueError("similarity matrix must be symmetric")
    if np.any(f < 0):
        raise ValueError("similarity values must be nonnegative")
    return f


def _truncate(f: np.ndarray) -> np.ndarray:
    k = _NEIGHBOR_CAP
    if k >= f.shape[0]:
        return f
    # a stable sort ranks tied columns by index
    top = np.argsort(-f, axis=1, kind="stable")[:, :k]
    keep = np.zeros(f.shape, dtype=bool)
    np.put_along_axis(keep, top, True, axis=1)
    keep &= keep.T
    return np.where(keep, f, 0.0)


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
    ``sum_j w(t, j)`` and ``sum_j w(t, j) x_j`` are mode products of the
    observation indicator and value tensors with the truncated per-mode
    factor matrices; no pairwise object over cells is ever formed.  A
    degenerate target (every raw weight zero) falls back to weight one on
    its own entry when it is observed, otherwise to uniform weights over
    the observed entries (logged).  Every loss function of
    :mod:`dcot.losses` takes the result's ``weighted_x``, so build it once
    per problem.

    Each moment is scattered into its own buffer and contracted there, mode
    by mode, through a scratch of at most ``_BLOCK`` cells
    (:func:`dcot.tensor._mode_product_in_place`).  ``w`` is built first,
    then ``m1``, so at most two ``prod(I)`` arrays are live, beside the
    scratch and the mask of degenerate targets (an eighth of one).  A
    contraction of at most ``_BLOCK`` cells is one block, and its result is
    the whole mode product's bitwise; a larger one matches it to rounding.
    The fallback indexes the observed entries directly, and normalization
    is one in-place division over every cell (fallback cells have weight
    one).  The result keeps no dense weight tensor (see :class:`Moments`).
    """
    _check_omega(sim, omega)
    idx = tuple(omega.indices.T)
    values = omega.values

    def moment(scattered) -> np.ndarray:
        # sum_j w(t, j) scattered_j: scattered, then contracted in place
        out = np.zeros(sim.shape)
        out[idx] = scattered
        for mode, f in enumerate(sim.per_mode):
            _mode_product_in_place(out, f, mode)
        return out

    w = moment(1.0)
    bad = w <= 0.0
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        log.info("%d degenerate smoothing targets; using fallback", n_bad)
        w[bad] = 1.0
        own = bad[idx]  # degenerate targets that are observed keep their value
        observed = tuple(i[own] for i in idx)
        own_values = values[own]
        del own
        mean = values.mean()  # taken before m1's buffer exists

    m1 = moment(values)
    if n_bad:
        m1[bad] = mean
        m1[observed] = own_values
    np.divide(m1, w, out=m1)
    return Moments(weighted_x=m1, degenerate=n_bad)
