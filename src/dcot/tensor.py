"""Dense N-way tensor algebra: matricization and mode products.

Conventions used throughout the package:

* Tensors are ``numpy.ndarray`` objects holding ``float64`` values.  The
  logical linearization order of a tensor is first-mode-fastest, i.e.
  Fortran order over the mode tuple ``(I_1, ..., I_N)``.
* ``matricize(t, mode)`` sends entry ``(i_1, ..., i_N)`` to row ``i_mode``
  and column ``sum_{k != mode} i_k * prod_{m < k, m != mode} I_m``
  (0-based): the remaining modes are enumerated first-remaining-mode
  fastest.  This Fortran-order convention governs only ``matricize``:
  mode products contract the named axis directly and never matricize.
* Mode products view a C-ordered input as a stack of matrices and contract
  with one matrix product, so they copy no C-contiguous input and always
  return C-contiguous arrays; elementwise work against other C-ordered
  arrays then runs unstrided.
* Modes are 0-based everywhere in the Python API; 1-based indices appear
  only in on-disk file formats (see :mod:`dcot.io`).

All functions are pure: they never mutate their arguments, apart from the
``out`` buffer that :func:`n_mode_product` may be given, so concurrent use
is safe.  Floating-point results depend on summation order only through
ordinary rounding.
"""

from __future__ import annotations

import math

import numpy as np


def _check_mode(mode: int, ndim: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for a {ndim}-way tensor")


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of a dense tensor.

    The result has ``t.shape[mode]`` rows and ``prod(other dims)`` columns,
    with columns ordered first-remaining-mode fastest (see module docstring).
    One transpose brings ``mode`` to the front, the axes ``np.moveaxis``
    would give without its per-call argument normalization.
    """
    t = np.asarray(t, dtype=float)
    _check_mode(mode, t.ndim)
    axes = (mode, *range(mode), *range(mode + 1, t.ndim))
    # the column count is explicit: numpy cannot infer it when mode is empty
    cols = math.prod(t.shape[:mode] + t.shape[mode + 1 :])
    return t.transpose(axes).reshape((t.shape[mode], cols), order="F")


def n_mode_product(
    t: np.ndarray, u: np.ndarray, mode: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Multiply tensor ``t`` by matrix ``u`` along ``mode``.

    Contracts the columns of ``u`` with axis ``mode`` of ``t``, so that
    ``matricize(result, mode) == u @ matricize(t, mode)``; the result's
    shape replaces ``t.shape[mode]`` by ``u.shape[0]``.

    ``t`` is viewed as ``(prod(shape[:mode]), I_mode, prod(shape[mode+1:]))``
    and multiplied by ``u`` on the left, batched over the leading block; on
    the last mode it is the single product
    ``t.reshape(prod(shape[:-1]), I_mode) @ u.T``.  A C-contiguous ``t`` is
    not copied and the result is C-contiguous.  Sizes are passed explicitly
    (no ``-1``), so zero-length modes work.  ``out``, a C-contiguous float
    array of the result's shape, receives the result and is returned; the
    product is the same matrix product either way.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    _check_mode(mode, t.ndim)
    if u.ndim != 2:
        raise ValueError("mode product expects a matrix")
    if u.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix with {u.shape[1]} columns cannot act on mode {mode} "
            f"of size {t.shape[mode]}"
        )
    shape = t.shape
    lead = math.prod(shape[:mode])
    result_shape = shape[:mode] + (u.shape[0],) + shape[mode + 1 :]
    if out is not None and (
        out.shape != result_shape or out.dtype != float or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float {result_shape} array")
    if mode == t.ndim - 1:
        dest = None if out is None else out.reshape(lead, u.shape[0])
        result = np.matmul(t.reshape(lead, shape[mode]), u.T, out=dest)
    else:
        rest = math.prod(shape[mode + 1 :])
        dest = None if out is None else out.reshape(lead, u.shape[0], rest)
        result = np.matmul(u, t.reshape(lead, shape[mode], rest), out=dest)
    return result.reshape(result_shape) if out is None else out


def multilinear_product(
    core: np.ndarray, factors: list[np.ndarray | None]
) -> np.ndarray:
    """Apply one factor matrix per mode: ``core x_1 U_1 x_2 U_2 ...``.

    A ``None`` entry leaves its mode as it is.  The result does not depend
    on the order in which modes are applied (up to floating rounding).
    """
    core = np.asarray(core, dtype=float)
    if len(factors) != core.ndim:
        raise ValueError(
            f"expected {core.ndim} factor matrices, got {len(factors)}"
        )
    out = core
    for mode, u in enumerate(factors):
        if u is not None:
            out = n_mode_product(out, u, mode)
    return out


def frob_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product of two same-shape tensors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


def frob_norm(a: np.ndarray) -> float:
    """Frobenius norm ``sqrt(frob_inner(a, a))``, raveling ``a`` only once."""
    v = np.asarray(a, dtype=float).ravel()
    return math.sqrt(float(np.dot(v, v)))
