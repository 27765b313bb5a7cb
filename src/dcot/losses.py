"""Smoothed negative log-likelihood losses over observed tensor entries.

Every cell of the estimate tensor ``z`` (observed or not) accrues loss
from the observed entries, weighted by the multiplicative smoothing
weights of :mod:`dcot.similarity`:

    value = (1 / prod(I_n)) * sum_t sum_{j in observed} w(t, j) * f(x_j; z_t)

with the per-family integrand ``f``:

* ``gaussian``:  ``(z - x)**2``
* ``bernoulli``: ``log(1 + exp(z)) - x * z``   (log-odds scale)
* ``poisson``:   ``z - x * log(z)``            (identity link, ``z >= 0``)
* ``gamma``:     ``log(z + eps) + x / (z + eps)``  (mean link, ``z >= 0``)

The returned value is a minimization objective (the likelihood's sign and
constant factors are absorbed).  The normalization is by the total cell
count, not the observation count, so unobserved cells participate; this
is what makes completion work.

The loss functions take those weights' per-cell sums, precomputed once per
problem as :class:`~dcot.similarity.Moments` by ``smoothing_moments``.
Their shapes come from ``weighted_x``: the weight sums ``weight_sum`` only
broadcast against it, and the array-valued functions return full
data-shape arrays all the same.  ``smoothing_moments`` normalizes, so it
stores the size-one ``1.0``; every formula here also takes a per-cell
``weight_sum`` (the ``w`` terms), as a ``Moments`` built directly may carry.

Every per-family rule lives here.  :class:`LossFamily` owns the family
list, the observation domain, whether ``z`` is bounded below (``bounded``)
and the synthetic noise draw (``sample``); :func:`initial_fill` gives the
start value of unobserved cells.  The solver and ``synthesize`` ask these
instead of comparing family names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import expit

if TYPE_CHECKING:  # similarity imports ObservationSet from this module
    from .similarity import Moments

_POISSON_FLOOR = 1e-12
# shift ``eps`` of the gamma integrand ``log(z + eps) + x / (z + eps)``
_GAMMA_EPSILON = 1e-6

_FAMILIES = ("gaussian", "bernoulli", "poisson", "gamma")


class DomainError(ValueError):
    """A value violates a loss family's domain."""


@dataclass(frozen=True)
class ObservationSet:
    """Observed entries of a tensor: integer index rows plus values."""

    indices: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        idx = np.atleast_2d(np.asarray(self.indices, dtype=np.int64))
        if idx.size == 0:
            idx = idx.reshape(0, len(self.shape))
        vals = np.asarray(self.values, dtype=float).ravel()
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "shape", shape)
        if idx.shape[1] != len(shape):
            raise ValueError(
                f"index rows have {idx.shape[1]} coordinates, shape has "
                f"{len(shape)} modes"
            )
        if idx.shape[0] != vals.shape[0]:
            raise ValueError("need one value per index row")
        if idx.size:
            if idx.min() < 0 or np.any(idx >= np.array(shape)):
                raise ValueError("observation index out of range")
            # sorted linear indices: O(n log n), nothing stored per tensor cell
            linear = np.sort(np.ravel_multi_index(tuple(idx.T), shape))
            if np.any(linear[1:] == linear[:-1]):
                raise ValueError("duplicate observation indices")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observation values must be finite")

    @classmethod
    def from_entries(cls, entries, shape) -> "ObservationSet":
        """Build from an iterable of ``(index tuple, value)`` pairs."""
        entries = list(entries)
        idx = np.array([e[0] for e in entries], dtype=np.int64).reshape(
            len(entries), len(shape)
        )
        vals = np.array([e[1] for e in entries], dtype=float)
        return cls(idx, vals, tuple(shape))

    @classmethod
    def from_dense(cls, x: np.ndarray, mask: np.ndarray | None = None) -> "ObservationSet":
        """Take every cell of ``x`` (or only those where ``mask`` is true)."""
        x = np.asarray(x, dtype=float)
        if mask is None:
            mask = np.ones(x.shape, dtype=bool)
        idx = np.argwhere(mask)
        return cls(idx, x[mask], x.shape)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        out = np.full(self.shape, float(fill))
        out[tuple(self.indices.T)] = self.values
        return out

    def mask(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out[tuple(self.indices.T)] = True
        return out


@dataclass(frozen=True)
class LossFamily:
    """One of the supported likelihood families plus its domain guard."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}, expected {_FAMILIES}")

    def validate_observations(self, omega: ObservationSet) -> None:
        v = omega.values
        if self.kind == "bernoulli" and not np.all((v == 0) | (v == 1)):
            raise DomainError("bernoulli observations must be 0 or 1")
        if self.kind == "poisson" and (np.any(v < 0) or np.any(v != np.round(v))):
            raise DomainError("poisson observations must be nonnegative integers")
        if self.kind == "gamma" and np.any(v <= 0):
            raise DomainError("gamma observations must be strictly positive")

    @property
    def bounded(self) -> bool:
        """Whether ``z`` must stay nonnegative (the solver keeps it above a floor)."""
        return self.kind in ("poisson", "gamma")

    def check_domain(self, z: np.ndarray) -> None:
        if self.bounded and np.any(z < 0):
            raise DomainError(f"{self.kind} loss requires z >= 0")

    def sample(self, rng: np.random.Generator, mean: np.ndarray, sigma: float) -> np.ndarray:
        """Observations drawn around ``mean`` (``sigma`` scales gaussian noise only)."""
        if self.kind == "gaussian":
            return mean + sigma * rng.standard_normal(mean.shape)
        if self.kind == "bernoulli":
            return rng.binomial(1, 1.0 / (1.0 + np.exp(-mean))).astype(float)
        if self.kind == "poisson":
            return rng.poisson(mean).astype(float)
        return rng.gamma(shape=1.0, scale=np.maximum(mean, 1e-6))


def initial_fill(omega: ObservationSet, family: LossFamily) -> float:
    """Start value of unobserved cells (``z`` and the initial model's input)."""
    if family.kind == "bernoulli" or not len(omega):
        return 0.0
    return float(omega.values.mean())


def _checked(family: LossFamily, mom: Moments, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    shape = mom.weighted_x.shape
    if z.shape != shape:
        raise ValueError(f"z shape {z.shape} does not match data shape {shape}")
    family.check_domain(z)
    return z


def gaussian_quadratic(w: np.ndarray, m1: np.ndarray, z: np.ndarray) -> float:
    """``sum w z^2 - 2 <m1, z>``: the terms of the gaussian loss that move with ``z``.

    ``z`` and ``m1`` hold the same cells, whole arrays or one flat block of
    each; ``w`` is size one or the weight sums of those cells.  Neither
    form makes a ``w * z`` temporary, so a whole-array call allocates no
    array of the data's size.
    """
    z, m1, w = z.ravel(), m1.ravel(), w.ravel()
    if w.size == 1:  # w factors out, and BLAS forms the rest
        quad = float(w[0]) * float(np.dot(z, z))
    else:
        quad = float(np.einsum(w, [0], z, [0], z, [0], []))
    return quad - 2.0 * float(np.dot(m1, z))


def loss_value(family: LossFamily, mom: Moments, z: np.ndarray) -> float:
    """Evaluate the smoothed loss from the precomputed smoothing moments."""
    z = _checked(family, mom, z)
    w, m1, count = mom.weight_sum, mom.weighted_x, mom.count
    if family.kind == "gaussian":
        # sum_t (w z^2 - 2 m1 z + m2), with the z-free term summed once
        return (gaussian_quadratic(w, m1, z) + mom.x2_total) / count
    if family.kind == "bernoulli":
        total = w * np.logaddexp(0.0, z) - m1 * z
    elif family.kind == "poisson":
        total = w * z - m1 * np.log(np.maximum(z, _POISSON_FLOOR))
    else:  # gamma
        zz = z + _GAMMA_EPSILON
        total = w * np.log(zz) + m1 / zz
    return float(total.sum()) / count


def loss_gradient(family: LossFamily, mom: Moments, z: np.ndarray) -> np.ndarray:
    """Elementwise gradient of :func:`loss_value` with respect to ``z``."""
    z = _checked(family, mom, z)
    w, m1, count = mom.weight_sum, mom.weighted_x, mom.count
    if family.kind == "gaussian":
        grad = 2.0 * (w * z - m1)
    elif family.kind == "bernoulli":
        grad = expit(z) * w - m1
    elif family.kind == "poisson":
        grad = w - m1 / np.maximum(z, _POISSON_FLOOR)
    else:  # gamma
        zz = z + _GAMMA_EPSILON
        grad = w / zz - m1 / zz**2
    return grad / count


def loss_curvature(family: LossFamily, mom: Moments, z: np.ndarray) -> np.ndarray:
    """Elementwise second derivative of :func:`loss_value` (its Hessian is diagonal).

    Nonnegative except for the ``gamma`` family, whose loss is not convex.
    """
    z = _checked(family, mom, z)
    w, m1, count = mom.weight_sum, mom.weighted_x, mom.count
    if family.kind == "gaussian":
        curv = np.broadcast_to(2.0 * w, z.shape)
    elif family.kind == "bernoulli":
        p = expit(z)
        curv = w * p * (1.0 - p)
    elif family.kind == "poisson":
        curv = m1 / np.maximum(z, _POISSON_FLOOR) ** 2
    else:  # gamma
        zz = z + _GAMMA_EPSILON
        curv = (2.0 * m1 / zz - w) / zz**2
    return curv / count


def loss_curvature_min(
    family: LossFamily, mom: Moments, z_min: float
) -> np.ndarray:
    """Per-cell minimum of :func:`loss_curvature` over ``z >= z_min``.

    Zero (a lower bound) for the convex families.  For ``gamma``, with
    ``u = 1 / (z + eps)`` the scaled curvature ``2 m1 u^3 - w u^2``
    decreases in ``u`` up to ``u = w / (3 m1)``, and ``u <= 1 / (z_min + eps)``.
    """
    w, m1, count = mom.weight_sum, mom.weighted_x, mom.count
    if family.kind != "gamma":
        return np.zeros(m1.shape)
    u_max = 1.0 / (z_min + _GAMMA_EPSILON)
    crit = np.divide(w, 3.0 * m1, out=np.full(m1.shape, np.inf), where=m1 > 0)
    u = np.minimum(crit, u_max)
    return (2.0 * m1 * u - w) * u**2 / count


def loss_lipschitz(
    family: LossFamily, mom: Moments, z_min: float | None = None
) -> float:
    """Upper bound on the Lipschitz constant of the loss gradient.

    The loss Hessian is diagonal, so the bound is the largest per-cell
    curvature.  The bounded families' curvatures blow up near zero, so
    they need a positive lower bound ``z_min`` on the entries of ``z``;
    the others ignore it.
    """
    w, m1, count = mom.weight_sum, mom.weighted_x, mom.count
    if family.kind == "gaussian":
        return 2.0 * float(w.max()) / count
    if family.kind == "bernoulli":
        return float(w.max()) / (4.0 * count)
    if z_min is None or z_min <= 0:
        raise ValueError(f"{family.kind} needs a positive lower bound z_min")
    if family.kind == "poisson":
        return float(m1.max()) / (count * z_min**2)
    zz = z_min + _GAMMA_EPSILON
    return (float(w.max()) / zz**2 + 2.0 * float(m1.max()) / zz**3) / count
