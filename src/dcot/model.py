"""The double-core decomposition object: factors, shared core, subject core.

A :class:`DcotModel` represents ``(G + H) x_1 U_1 ... x_N U_N`` where ``G``
is a core shared by the whole dataset and ``H`` is a second core whose
slices are constrained equal within declared subject groups.  Groups tie
slices of the *core*, along one mode, optionally restricted to a fixed
index of a second mode (which covers patterns such as "tie slices
``h[m, :, k, :]`` over ``k`` separately for each ``m``").
:attr:`SubjectPartition.slices` names the tied slices once; the tie and
the sparse group lasso (:mod:`.prox`) both read them from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import _multilinear, matricize, multilinear_product, n_mode_product


@dataclass(frozen=True)
class SliceGroup:
    """A set of slice indices (along the partition's mode) tied equal.

    ``fixed`` optionally restricts the tie to one index of another mode,
    given as ``(mode, index)``.
    """

    indices: tuple[int, ...]
    fixed: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not self.indices:
            raise ValueError("a slice group must be nonempty")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"duplicate indices in group {self.indices}")
        if self.fixed is not None:
            if len(self.fixed) != 2:
                raise ValueError(f"fixed must be a (mode, index) pair, got {self.fixed}")
            object.__setattr__(self, "fixed", (int(self.fixed[0]), int(self.fixed[1])))


@dataclass(frozen=True)
class SubjectPartition:
    """Disjoint groups of mode-``mode`` slices that must carry equal values.

    Every fixed-index group fixes the same mode, so no two tied slices meet.
    """

    mode: int
    groups: tuple[SliceGroup, ...]

    def __post_init__(self):
        groups = tuple(
            g if isinstance(g, SliceGroup) else SliceGroup(tuple(g))
            for g in self.groups
        )
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ValueError("partition needs at least one group")
        if len({g.fixed[0] for g in groups if g.fixed is not None}) > 1:
            raise ValueError("fixed-index groups must share one fixed mode")
        seen: set[tuple] = set()
        for g in groups:
            if g.fixed is not None and g.fixed[0] == self.mode:
                raise ValueError("fixed mode must differ from the tied mode")
            for i in g.indices:
                key = (g.fixed, i)
                if key in seen:
                    raise ValueError(
                        f"groups overlap at index {i} (fixed={g.fixed})"
                    )
                seen.add(key)
        # A plain group and a fixed-index group may not claim the same slice.
        plain = {i for g in groups if g.fixed is None for i in g.indices}
        for g in groups:
            if g.fixed is not None and plain.intersection(g.indices):
                raise ValueError("fixed-index groups overlap a plain group")

    @cached_property
    def slices(self) -> tuple[tuple[tuple, ...], ...]:
        """Per group, the index ``s`` of each tied slice ``h[s]`` (later modes implicit)."""
        fixed_mode = next((g.fixed[0] for g in self.groups if g.fixed is not None), self.mode)
        out = []
        for g in self.groups:
            sel: list = [slice(None)] * (max(self.mode, fixed_mode) + 1)
            if g.fixed is not None:
                sel[fixed_mode] = g.fixed[1]
            out.append(tuple(
                tuple(sel[:self.mode] + [i] + sel[self.mode + 1:]) for i in g.indices
            ))
        return tuple(out)

    def validate_shape(self, shape: tuple[int, ...]) -> None:
        """Check every index against the shape of the governed tensor."""
        if not 0 <= self.mode < len(shape):
            raise ValueError(f"partition mode {self.mode} out of range for {shape}")
        for g in self.groups:
            for i in g.indices:
                if not 0 <= i < shape[self.mode]:
                    raise ValueError(
                        f"group index {i} out of range for mode {self.mode} "
                        f"of size {shape[self.mode]}"
                    )
            if g.fixed is not None:
                fm, fi = g.fixed
                if not 0 <= fm < len(shape):
                    raise ValueError(f"fixed mode {fm} out of range for {shape}")
                if not 0 <= fi < shape[fm]:
                    raise ValueError(
                        f"fixed index {fi} out of range for mode {fm} "
                        f"of size {shape[fm]}"
                    )


@dataclass(frozen=True)
class InitStrategy:
    """How to initialize factor matrices; ``hosvd`` is the only start."""

    kind: str = "hosvd"

    def __post_init__(self):
        if self.kind != "hosvd":
            raise ValueError(f"unknown init strategy {self.kind!r}")


@dataclass
class DcotModel:
    """Factor matrices plus the shared core ``core_g`` and tied core ``core_h``."""

    factors: list[np.ndarray]
    core_g: np.ndarray
    core_h: np.ndarray
    partition: SubjectPartition | None = None

    def __post_init__(self):
        self.factors = [np.asarray(u, dtype=float) for u in self.factors]
        self.core_g = np.asarray(self.core_g, dtype=float)
        self.core_h = np.asarray(self.core_h, dtype=float)
        if self.core_g.shape != self.core_h.shape:
            raise ValueError("core_g and core_h must share a shape")
        if len(self.factors) != self.core_g.ndim:
            raise ValueError("need one factor matrix per core mode")
        for n, u in enumerate(self.factors):
            if u.ndim != 2 or u.shape[1] != self.core_g.shape[n]:
                raise ValueError(
                    f"factor {n} must be I_{n} x {self.core_g.shape[n]}, "
                    f"got {u.shape}"
                )
        if self.partition is not None:
            self.partition.validate_shape(self.core_h.shape)
            if not tie_satisfied(self.core_h, self.partition):
                raise ValueError("core_h violates its partition tie constraint")

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core_g.shape

    def copy(self) -> "DcotModel":
        return DcotModel(
            [u.copy() for u in self.factors],
            self.core_g.copy(),
            self.core_h.copy(),
            self.partition,
        )


def reconstruct(model: DcotModel, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate ``(core_g + core_h) x_1 U_1 ... x_N U_N``.

    The modes are applied in order; the last product writes into ``out``
    (a C-contiguous array of the data shape) when it is given.  The
    model's own arrays fit by construction, so the products before the
    last skip the argument checks.
    """
    last = len(model.factors) - 1
    partial = _multilinear(model.core_g + model.core_h, model.factors[:-1] + [None])
    return n_mode_product(partial, model.factors[last], last, out=out)


def init_factors(x: np.ndarray, ranks: list[int]) -> list[np.ndarray]:
    """Build initial factor matrices for data tensor ``x``.

    This is the ``hosvd`` start: the leading left singular vectors of each
    matricization (orthonormal columns, computed from the symmetric
    eigendecomposition of the Gram matrix).  A non-finite entry of ``x``
    raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("data tensor has non-finite values")
    ranks = [int(r) for r in ranks]
    if len(ranks) != x.ndim:
        raise ValueError("need one rank per mode")
    for n, r in enumerate(ranks):
        if r < 1 or r > x.shape[n]:
            raise ValueError(
                f"rank {r} invalid for mode {n} of size {x.shape[n]}"
            )
    factors = []
    for n in range(x.ndim):
        a = matricize(x, n)
        evals, evecs = np.linalg.eigh(a @ a.T)
        order = np.argsort(evals)[::-1][: ranks[n]]
        factors.append(np.ascontiguousarray(evecs[:, order]))
    return factors


def project_core(x: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Project ``x`` onto the basis of the factor matrices: ``x x_n U_n^T``."""
    return multilinear_product(x, [np.asarray(u, dtype=float).T for u in factors])


def tie_satisfied(h: np.ndarray, partition: SubjectPartition) -> bool:
    """True when every group's slices are bitwise equal."""
    h = np.asarray(h)
    for group in partition.slices:
        first = h[group[0]]
        if not all(np.array_equal(h[s], first) for s in group[1:]):
            return False
    return True


def tie_heterogeneous_core(h: np.ndarray, partition: SubjectPartition) -> np.ndarray:
    """Force equality of slices within each group of the partition.

    Each group's slices are replaced by their arithmetic mean, the
    Euclidean projection onto the tie constraint.  Slices outside every
    group are untouched.  Groups whose slices are already equal are left
    bitwise unchanged, which makes the operation idempotent.
    """
    h = np.asarray(h, dtype=float)
    partition.validate_shape(h.shape)
    out = h.copy()
    for group in partition.slices:
        first = out[group[0]]
        if all(np.array_equal(out[s], first) for s in group[1:]):
            continue
        value = sum(out[s] for s in group) / len(group)
        for s in group:
            out[s] = value
    return out


def initial_model(
    x: np.ndarray,
    ranks: list[int],
    strategy: InitStrategy,
    partition: SubjectPartition | None = None,
) -> DcotModel:
    """Factor init plus core init: both cores start from the projection of ``x``.

    The factors are the ``hosvd`` start of :func:`init_factors`, the only
    ``strategy``.  The subject core additionally has its tie constraint
    enforced so the returned model is valid.
    """
    factors = init_factors(x, ranks)
    g = project_core(x, factors)
    h = g.copy()
    if partition is not None:
        h = tie_heterogeneous_core(h, partition)
    return DcotModel(factors, g, h, partition)
