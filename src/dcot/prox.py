"""Penalty functions and their proximal operators.

``prox_apply(p, point, t)`` solves

    argmin_q  p.weight * J(q) + (t / 2) * ||q - point||^2

so the penalty weight rides along separately from the proximal scale
``t``; the effective shrinkage of the l1 penalty, for instance, is
``weight / t``.  All proximal maps here are exact closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_KINDS = ("none", "l1", "frob_sq", "nuclear", "nonneg", "sparse_group_lasso")
# share of the sparse group lasso weight on its elementwise l1 part; the
# per-group l2 part takes the rest
_SGL_MIX = 0.5


@dataclass(frozen=True)
class Penalty:
    """A penalty kind plus its weight.

    ``groups`` (sparse group lasso only) lists index arrays into the
    flattened point, first-mode-fastest; the weight is split evenly between
    the elementwise l1 part and the per-group l2 part.
    """

    kind: str = "none"
    weight: float = 0.0
    groups: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.weight < 0:
            raise ValueError("penalty weight must be nonnegative")
        groups = tuple(np.asarray(g, dtype=np.int64) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if self.kind == "sparse_group_lasso":
            seen: set[int] = set()
            for g in groups:
                for i in g.tolist():
                    if i in seen:
                        raise ValueError("sparse group lasso groups must be disjoint")
                    seen.add(i)

    @classmethod
    def none(cls) -> "Penalty":
        return cls("none", 0.0)

    @classmethod
    def l1(cls, weight: float) -> "Penalty":
        return cls("l1", weight)

    @classmethod
    def frob_sq(cls, weight: float) -> "Penalty":
        return cls("frob_sq", weight)

    @classmethod
    def nuclear(cls, weight: float) -> "Penalty":
        return cls("nuclear", weight)

    @classmethod
    def nonneg(cls, weight: float = 1.0) -> "Penalty":
        return cls("nonneg", weight)

    @classmethod
    def sparse_group_lasso(cls, weight: float, groups) -> "Penalty":
        return cls("sparse_group_lasso", weight, tuple(groups))


def _flat(point: np.ndarray) -> np.ndarray:
    return np.asarray(point, dtype=float).ravel(order="F")


def penalty_value(p: Penalty, point: np.ndarray) -> float:
    """Evaluate ``weight * J(point)``; indicator violations return ``inf``."""
    point = np.asarray(point, dtype=float)
    if p.kind == "none" or p.weight == 0.0:
        return 0.0
    if p.kind == "l1":
        return p.weight * float(np.abs(point).sum())
    if p.kind == "frob_sq":
        return p.weight * float((point**2).sum())
    if p.kind == "nuclear":
        if point.ndim != 2:
            raise ValueError("nuclear penalty applies to matrices only")
        if not np.isfinite(point).all():
            # inf or nan, without LAPACK (see prox_apply)
            return p.weight * float(np.linalg.norm(point))
        return p.weight * float(np.linalg.svd(point, compute_uv=False).sum())
    if p.kind == "nonneg":
        return 0.0 if point.min(initial=0.0) >= 0.0 else math.inf
    # sparse group lasso
    flat = _flat(point)
    value = _SGL_MIX * float(np.abs(flat).sum())
    for g in p.groups:
        value += (1.0 - _SGL_MIX) * float(np.linalg.norm(flat[g]))
    return p.weight * value


def _soft(x: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def prox_apply(p: Penalty, point: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of ``p`` at ``point`` with scale ``t > 0``."""
    if t <= 0:
        raise ValueError("proximal scale t must be positive")
    point = np.asarray(point, dtype=float)
    if p.kind == "none" or p.weight == 0.0:
        return point
    lam = p.weight / t
    if p.kind == "l1":
        return _soft(point, lam)
    if p.kind == "frob_sq":
        return point * (t / (t + 2.0 * p.weight))
    if p.kind == "nuclear":
        if point.ndim != 2:
            raise ValueError("nuclear penalty applies to matrices only")
        if not np.isfinite(point).all():
            # np.linalg.svd may never return on an inf entry; the solver's
            # finiteness check names the block that overflowed
            return point
        u, s, vt = np.linalg.svd(point, full_matrices=False)
        return (u * np.maximum(s - lam, 0.0)) @ vt
    if p.kind == "nonneg":
        return np.maximum(point, 0.0)
    # sparse group lasso: elementwise shrink, then per-group block shrink
    # (exact for the l1 + group-l2 composite).
    flat = _soft(_flat(point), _SGL_MIX * lam)
    group_lam = (1.0 - _SGL_MIX) * lam
    for g in p.groups:
        norm = float(np.linalg.norm(flat[g]))
        flat[g] *= 0.0 if norm == 0.0 else max(0.0, 1.0 - group_lam / norm)
    return flat.reshape(point.shape, order="F")
