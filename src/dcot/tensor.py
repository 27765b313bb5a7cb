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

All public functions are pure: they never mutate their arguments, apart
from the ``out`` buffer that :func:`n_mode_product` may be given, so
concurrent use is safe.  The one kernel that writes over its input,
:func:`_mode_product_in_place`, works through a scratch of about
``_BLOCK`` cells; the solver's sweep tail and the dense writer of
:mod:`dcot.io` take the same block size.  Floating-point results depend
on summation order only through ordinary rounding.  The public functions check their arguments and then
call private unchecked kernels (``_unfold``, ``_mode_product``,
``_multilinear``) that do the work, so each operation has one
implementation; the solver, which checks its inputs once, calls the
kernels directly.
"""

from __future__ import annotations

import math

import numpy as np

# cells per block of the blockwise passes (see _mode_product_in_place): up to
# 256 KiB per float64 array, so a block stays in a core's L2 cache
_BLOCK = 32768


def _check_mode(mode: int, ndim: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for a {ndim}-way tensor")


def _check_factor(t: np.ndarray, u: np.ndarray, mode: int) -> None:
    _check_mode(mode, t.ndim)
    if u.ndim != 2:
        raise ValueError("mode product expects a matrix")
    if u.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix with {u.shape[1]} columns cannot act on mode {mode} "
            f"of size {t.shape[mode]}"
        )


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """:func:`matricize` without its checks, for a float array."""
    axes = (mode, *range(mode), *range(mode + 1, t.ndim))
    # the column count is explicit: numpy cannot infer it when mode is empty
    cols = math.prod(t.shape[:mode] + t.shape[mode + 1 :])
    return t.transpose(axes).reshape((t.shape[mode], cols), order="F")


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of a dense tensor.

    The result has ``t.shape[mode]`` rows and ``prod(other dims)`` columns,
    with columns ordered first-remaining-mode fastest (see module docstring).
    One transpose brings ``mode`` to the front, the axes ``np.moveaxis``
    would give without its per-call argument normalization.
    """
    t = np.asarray(t, dtype=float)
    _check_mode(mode, t.ndim)
    return _unfold(t, mode)


def _mode_product(
    t: np.ndarray, u: np.ndarray, mode: int, out: np.ndarray | None = None
) -> np.ndarray:
    """:func:`n_mode_product` without its checks, for float arrays that fit."""
    shape = t.shape
    lead = math.prod(shape[:mode])
    if mode == t.ndim - 1:
        dest = None if out is None else out.reshape(lead, u.shape[0])
        result = np.matmul(t.reshape(lead, shape[mode]), u.T, out=dest)
    else:
        rest = math.prod(shape[mode + 1 :])
        dest = None if out is None else out.reshape(lead, u.shape[0], rest)
        result = np.matmul(u, t.reshape(lead, shape[mode], rest), out=dest)
    if out is not None:
        return out
    return result.reshape(shape[:mode] + (u.shape[0],) + shape[mode + 1 :])


def _mode_product_in_place(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """``t x_mode u`` written over ``t``, for a square ``u`` and a C-contiguous float ``t``.

    The product mixes only the cells of one mode-``mode`` fiber, so it is
    taken a block at a time into a scratch of at most ``_BLOCK`` cells, or
    of one fiber where a fiber is longer, and copied back.  A block is
    whole slabs ``t[a]`` of the ``(lead, I_mode, rest)`` view of
    :func:`_mode_product` when one fits, else columns of one slab; on the
    last mode it is rows of the ``(lead, I_mode)`` view.  A block's product is the same matrix product
    over fewer rows or columns (Kolda & Bader), so a tensor of at most
    ``_BLOCK`` cells gets :func:`_mode_product`'s result bitwise, and a
    larger one gets it to rounding.  Returns ``t``.
    """
    if not t.size:
        return t
    shape, n = t.shape, u.shape[0]
    lead, rest = math.prod(shape[:mode]), math.prod(shape[mode + 1 :])
    last = mode == t.ndim - 1
    if last:
        rows, step = t.reshape(lead, n), max(1, _BLOCK // n)
        blocks = (rows[lo : lo + step] for lo in range(0, lead, step))
    elif n * rest <= _BLOCK:
        slabs, step = t.reshape(lead, n, rest), _BLOCK // (n * rest)
        blocks = (slabs[lo : lo + step] for lo in range(0, lead, step))
    else:
        slabs, step = t.reshape(lead, n, rest), max(1, _BLOCK // n)
        blocks = (slab[:, lo : lo + step] for slab in slabs for lo in range(0, rest, step))
    scratch = np.empty(min(max(_BLOCK, n), t.size))
    for block in blocks:
        out = scratch[: block.size].reshape(block.shape)
        if last:
            np.matmul(block, u.T, out=out)
        else:
            np.matmul(u, block, out=out)
        block[...] = out
    return t


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
    _check_factor(t, u, mode)
    result_shape = t.shape[:mode] + (u.shape[0],) + t.shape[mode + 1 :]
    if out is not None and (
        out.shape != result_shape or out.dtype != float or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float {result_shape} array")
    return _mode_product(t, u, mode, out)


def _multilinear(core: np.ndarray, factors: list[np.ndarray | None]) -> np.ndarray:
    """:func:`multilinear_product` without its checks, for float arrays that fit."""
    out = core
    for mode, u in enumerate(factors):
        if u is not None:
            out = _mode_product(out, u, mode)
    return out


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
    factors = [None if u is None else np.asarray(u, dtype=float) for u in factors]
    for mode, u in enumerate(factors):
        if u is not None:
            _check_factor(core, u, mode)
    return _multilinear(core, factors)


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
