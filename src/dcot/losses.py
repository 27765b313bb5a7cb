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

Each integrand is linear in ``x``, and the weights sum to one per target,
so the loss is the plain one at the smoothed target
``m1_t = sum_j w(t, j) x_j``: ``(1 / prod(I_n)) * sum_t f(m1_t; z_t)``.  The
loss functions take that dense target, ``Moments.weighted_x`` of
``dcot.similarity.smoothing_moments``, built once per problem; the cell
count is its ``size``, and the array-valued functions return arrays of its
shape.  For the gaussian family this drops the constant of the second
moments, the smoothing variance ``(1 / prod(I_n)) * sum_t (m2_t - m1_t**2)``
with ``m2_t = sum_j w(t, j) x_j**2``: the value is ``||z - m1||**2 / prod(I_n)``,
which moves with ``z`` as the pair sum does.

Each family's derivatives are written once, in one derivative pass
(:class:`LossDerivatives`): it writes the gradient into a buffer and keeps
what the curvature needs, so a Newton evaluation makes one transcendental
pass and allocates nothing; :func:`loss_gradient` and
:func:`loss_curvature` call it.  The bernoulli forms take numpy's ``exp``
and ``log1p``: ``p = 1 / (1 + exp(-z))`` and
``log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|))``.  They agree with
``scipy.special.expit`` and ``np.logaddexp(0, z)`` to rounding (within
4 and 2 ulp over ``z`` in [-800, 800]) and cost several times less:
``logaddexp`` applies the same formula one element at a time.  The other
families' arithmetic is that of their whole-array expressions, so their
values are bitwise those.

Every per-family rule lives here.  :class:`LossFamily` owns the family
list, the observation domain, whether ``z`` is bounded below (``bounded``)
and the synthetic noise draw (``sample``); :func:`initial_fill` gives the
start value of unobserved cells.  The solver and ``synthesize`` ask these
instead of comparing family names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.kind == "poisson" and v.size and not v.any():
            # the smoothed target is then zero in every cell, and so is the
            # loss curvature that sets the solver's step parameters
            raise DomainError("poisson observations are all zero: the smoothed target "
                              "and the loss curvature vanish in every cell")
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


def _checked(family: LossFamily, target: np.ndarray, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != target.shape:
        raise ValueError(f"z shape {z.shape} does not match data shape {target.shape}")
    family.check_domain(z)
    return z


def loss_value(family: LossFamily, target: np.ndarray, z: np.ndarray) -> float:
    """Evaluate the smoothed loss at ``z`` from the smoothed target ``m1``."""
    z = _checked(family, target, z)
    m1 = target
    if family.kind == "gaussian":
        # ||z - m1||^2 = ||z||^2 - 2 <m1, z> + ||m1||^2, each a BLAS dot, so
        # no array of the data's size is made
        z, m1 = z.ravel(), m1.ravel()
        total = float(np.dot(z, z)) - 2.0 * float(np.dot(m1, z)) + float(np.dot(m1, m1))
        return total / m1.size
    if family.kind == "bernoulli":
        # log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|)), logaddexp's own
        # formula, but in whole-array passes
        total = np.abs(z)
        np.negative(total, out=total)
        np.exp(total, out=total)
        np.log1p(total, out=total)
        total += np.maximum(z, 0.0)
        total -= m1 * z
    elif family.kind == "poisson":
        total = z - m1 * np.log(np.maximum(z, _POISSON_FLOOR))
    else:  # gamma
        zz = z + _GAMMA_EPSILON
        total = np.log(zz) + m1 / zz
    return float(total.sum()) / m1.size


class LossDerivatives:
    """The loss gradient and curvature at one ``z``, in buffers of the data's shape.

    :meth:`at` is the family's one derivative pass: it writes the gradient
    of :func:`loss_value` into ``grad`` and keeps what :meth:`curvature`
    needs (bernoulli's ``p``, poisson's ``max(z, floor)``, gamma's
    ``z + eps``), so each family's formula is written once and a
    transcendental is evaluated once per ``z``.  Every pass writes into
    buffers allocated here, once.  ``at`` checks neither the shape nor the
    domain of ``z``; :func:`loss_gradient` and :func:`loss_curvature` do.
    """

    def __init__(self, family: LossFamily, target: np.ndarray):
        self.kind = family.kind
        self.target = target
        shape = target.shape
        self.grad = np.empty(shape)
        # p, max(z, floor) or z + eps; the gaussian curvature needs nothing
        self._state = np.empty(shape) if self.kind != "gaussian" else None
        self._tmp = np.empty(shape) if self.kind == "gamma" else None

    def at(self, z: np.ndarray) -> np.ndarray:
        """Write the gradient at ``z`` into ``grad`` (returned) and keep the curvature's terms."""
        m1 = self.target
        grad, state = self.grad, self._state
        if self.kind == "gaussian":
            np.subtract(z, m1, out=grad)
            grad *= 2.0
        elif self.kind == "bernoulli":
            # p = 1 / (1 + exp(-z)); exp overflows to inf, and p to 0, below
            # z = -709
            np.negative(z, out=state)
            with np.errstate(over="ignore"):
                np.exp(state, out=state)
            state += 1.0
            np.divide(1.0, state, out=state)
            np.subtract(state, m1, out=grad)
        elif self.kind == "poisson":
            np.maximum(z, _POISSON_FLOOR, out=state)
            np.divide(m1, state, out=grad)
            np.subtract(1.0, grad, out=grad)
        else:  # gamma: 1 / zz - m1 / zz^2
            np.add(z, _GAMMA_EPSILON, out=state)
            np.divide(1.0, state, out=grad)
            np.square(state, out=self._tmp)
            np.divide(m1, self._tmp, out=self._tmp)
            grad -= self._tmp
        grad /= m1.size
        return grad

    def curvature(self, out: np.ndarray) -> np.ndarray:
        """Write the curvature at the last :meth:`at`'s ``z`` into ``out`` (returned)."""
        m1 = self.target
        state = self._state
        if self.kind == "gaussian":
            out[...] = 2.0
        elif self.kind == "bernoulli":  # p (1 - p)
            np.subtract(1.0, state, out=out)
            out *= state
        elif self.kind == "poisson":  # m1 / max(z, floor)^2
            np.square(state, out=out)
            np.divide(m1, out, out=out)
        else:  # gamma: (2 m1 / zz - 1) / zz^2
            np.multiply(m1, 2.0, out=out)
            out /= state
            out -= 1.0
            np.square(state, out=self._tmp)
            out /= self._tmp
        out /= m1.size
        return out


def loss_gradient(family: LossFamily, target: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Elementwise gradient of :func:`loss_value` with respect to ``z``."""
    return LossDerivatives(family, target).at(_checked(family, target, z))


def loss_curvature(family: LossFamily, target: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Elementwise second derivative of :func:`loss_value` (its Hessian is diagonal).

    Nonnegative except for the ``gamma`` family, whose loss is not convex.
    """
    derivs = LossDerivatives(family, target)
    derivs.at(_checked(family, target, z))
    return derivs.curvature(np.empty(derivs.grad.shape))


def loss_curvature_min(
    family: LossFamily, target: np.ndarray, z_min: float
) -> np.ndarray:
    """Per-cell minimum of :func:`loss_curvature` over ``z >= z_min``.

    The result broadcasts against the data.  For the convex families it is
    zero (a lower bound), one size-one array, so a caller adding it to a
    scalar makes no array of the data's size.  For ``gamma``, with
    ``u = 1 / (z + eps)`` the scaled curvature ``2 m1 u^3 - u^2``
    decreases in ``u`` up to ``u = 1 / (3 m1)``, and ``u <= 1 / (z_min + eps)``.
    """
    m1 = target
    if family.kind != "gamma":
        return np.zeros((1,) * m1.ndim)
    u_max = 1.0 / (z_min + _GAMMA_EPSILON)
    crit = np.divide(1.0, 3.0 * m1, out=np.full(m1.shape, np.inf), where=m1 > 0)
    u = np.minimum(crit, u_max)
    return (2.0 * m1 * u - 1.0) * u**2 / m1.size


def loss_lipschitz(
    family: LossFamily, target: np.ndarray, z_min: float | None = None
) -> float:
    """Upper bound on the Lipschitz constant of the loss gradient.

    The loss Hessian is diagonal, so the bound is the largest per-cell
    curvature.  The bounded families' curvatures blow up near zero, so
    they need a positive lower bound ``z_min`` on the entries of ``z``;
    the others ignore it.
    """
    m1, count = target, target.size
    if family.kind == "gaussian":
        return 2.0 / count
    if family.kind == "bernoulli":
        return 1.0 / (4.0 * count)
    if z_min is None or z_min <= 0:
        raise ValueError(f"{family.kind} needs a positive lower bound z_min")
    if family.kind == "poisson":
        return float(m1.max()) / (count * z_min**2)
    zz = z_min + _GAMMA_EPSILON
    return (1.0 / zz**2 + 2.0 * float(m1.max()) / zz**3) / count
