"""Proximal block sweeps for penalized double-core factorization.

Each iteration sweeps the blocks in Gauss-Seidel order

    U_1, ..., U_N  ->  core_g  ->  core_h (tied)  [->  z  ->  dual],

where every factor/core update is one proximal gradient step on the
quadratic coupling term

    (gamma / 2) * || recon - T ||^2

toward a target ``T`` that the sweep holds fixed, linearized at the
current point with per-block step ``1 / rho``.  Only the rule that forms
``T`` differs between the families.

The gaussian loss is ``||X - m1||^2 / count``, already such a coupling,
with ``gamma = L_F = 2 / count`` and the fixed target ``T = m1``, the
smoothed data ``Moments.weighted_x`` (:mod:`dcot.losses`).  Its sweep is
the proximal alternating linearized minimization of Bolte, Sabach &
Teboulle 2014 (*Math. Program.*, PALM) on the loss plus the penalties: no
split, no ``z`` and no dual, so the trace's primal residual, z step and
dual step are 0 and its Lagrangian is the loss plus the penalties.

The other families split ``z`` from the reconstruction (linearized
multi-block ADMM), so that the loss stays out of the block steps: the
target is ``T = z + u`` for the scaled dual ``u = y / gamma`` (Boyd et al.
2011, *Distributed Optimization and Statistical Learning via ADMM*,
§3.1.1), ``gamma`` is ``2.1 L_F``, and after the core steps the ``z``
update minimizes the smoothed loss plus the coupling exactly (a
safeguarded per-cell Newton solve, :func:`update_z`) and the dual ascends
along the constraint residual.  ``solve`` builds ``m1`` once, and the
loss, the z step and the moduli take it.

The gradients are taken in core space (Kolda & Bader 2009, *Tensor
Decompositions and Applications*, SIAM Review): with ``S = core_g +
core_h``, the coupling gradient with respect to ``recon`` is
``gamma * (recon - T)``, and its pull-backs to the factors and cores need
only ``T`` contracted with factor transposes and ``S`` contracted with
factor Gram matrices ``U_t^T U_t``; ``gamma`` multiplies only core-sized
arrays.

One chain of mode products serves the whole sweep.  ``T`` is contracted
from the last mode down with the old factors, ``R_{N-1} = T`` and
``R_n = R_{n+1} x_{n+1} U_{n+1}^T``; factor ``n`` takes ``R_n`` contracted
with the already-updated ``U_0 .. U_{n-1}``, and the last factor's input,
contracted with its update, is ``P = project_core(T, factors)``, shared by
both core steps.  The gaussian sweep forms the first link
``R_{N-2} = m1 x_{N-1} U_{N-1}^T`` itself, so it reads ``m1`` twice (the
first link and the last factor's input) and writes no ``prod(I)`` array.
The split families' first link is formed by the previous sweep's tail
while the target's cells are in cache (before the first sweep, by one mode
product).  ``solve`` checks its inputs once; the sweep calls the unchecked
kernels of :mod:`dcot.tensor` (``_mode_product``, ``_unfold``,
``_multilinear``), which make the same matrix products as the public
functions.
One list of factor Grams serves the sweep as well: ``grams[n] = U_n^T U_n``
is formed once after factor ``n``'s update (and once before the first
sweep), and the later factor steps, both core steps and the gaussian
loss read it, so a sweep forms ``N`` Grams; the subject core's gradient is
taken at the core sum ``g_new + core_h`` with the same list.

The gaussian trace's loss comes from core space too:
``||X - m1||^2 = <S x_t U_t^T U_t, S> - 2 <S, P> + ||m1||^2`` for the
reconstruction ``X``, from the Grams and the core steps' own ``P`` (before
the first sweep, ``P`` of the initial factors).  The result's ``z`` is the
reconstruction and ``y = -grad F(z)``, each formed once when the solve
returns.

At grid-search sizes the tensor work is the small part of a sweep.  A
16^3 gaussian solve with ranks 3 (100 sweeps, one BLAS thread, a shared
2-core x86-64 machine) took about 40 ms; under cProfile the 606 calls of
:func:`_spectral_norm` were about half of it, the factor steps 15 %, the
core steps 10 % and the core-space loss 3 %.  Nearly all of that is the
fixed cost of numpy calls on arrays of a few dozen entries, so the sweep
makes as few of them as it can.  At 60^3 it still is the larger part: a
gaussian sweep took about 0.7 ms in the benchmark's gauss-dense runs, and
its two passes over ``m1`` about 0.2 ms of it (timed apart).

The split families keep ``z``, ``u``, the ``recon`` buffer and a
``spare`` one.  :func:`update_z` solves their z step over the whole array
from the proximal center ``recon - u`` (formed in ``spare``), so this path
reconstructs whole first; it returns a new array, which trades places
with the old ``z``.  Then :func:`_sweep_tail` takes the dual step
``u -= recon - z_new`` and forms the trace's sums, the next target
``z_new + u`` and the next first link by row blocks of the data's
``(prod(I_1 .. I_{N-1}), I_N)`` view, ``max(1, _BLOCK // I_N)`` rows each,
while a block is in cache; a block's matrix products are rows of the whole
ones (Kolda & Bader), so they give the whole products' values to
rounding.  The trace evaluates the loss at the new ``z``.  On the
benchmark's bernoulli 30^3 problem (20 sweeps, one BLAS thread, a shared
2-core x86-64 machine) a sweep's Newton solve takes one or two steps and
about 1.1 ms, and the trace's loss about 0.25 ms.  The Lagrangian, the
primal residual and the dual step share one ``<r, r>``.  The returned dual
is ``y = gamma * u``, formed in place.

Sign conventions: with the augmented Lagrangian written as
``F + penalties - <y, recon - z> + (gamma/2) ||recon - z||^2`` and the
dual update ``y <- y - gamma * (recon - z)``, solving the z block exactly
makes the new dual equal *minus* the loss gradient at the new ``z``,
which is what bounds dual steps by primal steps.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .losses import (
    LossDerivatives,
    LossFamily,
    ObservationSet,
    initial_fill,
    loss_curvature_min,
    loss_gradient,
    loss_lipschitz,
    loss_value,
)
from .model import DcotModel, reconstruct, tie_heterogeneous_core
from .prox import Penalty, penalty_value, prox_apply
from .similarity import SimilarityModel, smoothing_moments
from .tensor import _mode_product, _multilinear, _unfold, frob_inner, frob_norm

log = logging.getLogger("dcot.solver")

_MODULI_FLOOR = 1e-8
# the moduli's safety factor on each block's curvature bound; a modulus
# below the bound voids the descent step
_LIPSCHITZ_SAFETY = 1.1
_NEWTON_MAX_INNER = 100
# cells per block of the split families' sweep tail (see _row_blocks and
# _sweep_tail), which takes whole rows of I_N cells: up to 256 KiB per
# float64 array, so a block of the tail's arrays stays in a core's L2 cache
_BLOCK = 32768
# abort once the augmented Lagrangian exceeds this factor times (|L_0| + 1)
_DIVERGENCE_FACTOR = 10.0
# a solve stops once the primal residual is at most _TOL_PRIMAL_REL * ||x_Omega||
# and the block step at most _TOL_STEP
_TOL_PRIMAL_REL = 1e-6
_TOL_STEP = 1e-8


class SolverAbort(RuntimeError):
    """The augmented Lagrangian diverged past the safeguard, or the z block failed."""

    def __init__(self, message: str, trace: "ConvergenceTrace | None" = None):
        super().__init__(message)
        self.trace = trace


# the kind each block cannot take: a sparse group lasso's groups are tied
# core slices, and the nuclear norm is a matrix norm
_BLOCK_EXCLUDES = {"g": "nuclear", "h": "nuclear", "factors": "sparse_group_lasso"}


@dataclass(frozen=True)
class BlockPenalties:
    """Penalty per optimization block: shared core, subject core, factors.

    ``factors`` applies to every factor matrix.  A sparse group lasso on
    the factors, or ``nuclear`` on a core, is a ``ValueError`` naming the block.
    """

    g: Penalty = field(default_factory=Penalty.none)
    h: Penalty = field(default_factory=Penalty.none)
    factors: Penalty = field(default_factory=Penalty.none)

    def __post_init__(self):
        for block, kind in _BLOCK_EXCLUDES.items():
            if getattr(self, block).kind == kind:
                raise ValueError(f"block {block} takes no {kind} penalty")


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.  The step sizes are not among them: they come from the problem.

    :func:`estimate_moduli` sets ``gamma`` and the proximal moduli from the
    data and the current state.  By default the moduli are refreshed from
    the current state block by block inside every sweep (stale moduli can
    understate the curvature when factor norms drift and send the sweep
    uphill); ``fixed_moduli`` pins them to the initial estimate for the
    whole run.  Nor are the stopping tolerances: a solve stops once the
    primal residual is at most ``_TOL_PRIMAL_REL * ||x_Omega||`` and the
    block step at most ``_TOL_STEP`` (the gaussian family has no split, so
    its primal residual is 0 and only the block step counts).  ``z_floor``
    is the lower bound on ``z`` for the bounded families
    (``LossFamily.bounded``); the z block of the split families has no
    knobs, since :func:`update_z` solves it exactly.  ``freeze_h`` holds
    the subject core at zero (plain Tucker).
    """

    penalties: BlockPenalties = field(default_factory=BlockPenalties)
    max_iters: int = 500
    fixed_moduli: bool = False
    z_floor: float = 1e-6
    freeze_h: bool = False

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.z_floor > 0:
            raise ValueError("z_floor must be positive")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    lagrangian: float
    loss: float
    primal_residual: float
    z_step: float
    dual_step: float
    factor_step: float
    core_g_step: float
    core_h_step: float
    wall_time: float


class ConvergenceTrace:
    """Append-only per-iteration diagnostics.

    ``write_csv`` omits the wall-time column so that repeated runs with
    the same seeds produce byte-identical files.
    """

    CSV_FIELDS = tuple(f.name for f in fields(TraceRow) if f.name != "wall_time")

    def __init__(self):
        self.rows: list[TraceRow] = []

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def write_csv(self, path) -> None:
        lines = [",".join(self.CSV_FIELDS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    repr(float(getattr(r, f))) if f != "iteration" else str(r.iteration)
                    for f in self.CSV_FIELDS
                )
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Moduli:
    """Step parameters: the coupling weight ``gamma`` and the proximal moduli.

    ``gamma`` is also the split families' dual step; for the gaussian
    family, which has no split, it is ``L_F``.  ``core`` serves both
    cores; ``factors`` holds one modulus per mode.
    """

    gamma: float
    core: float
    factors: tuple[float, ...]


@dataclass(frozen=True)
class SolverResult:
    """What a solve returns.

    ``moduli`` are the step parameters the last sweep used: the initial
    estimate when ``fixed_moduli`` pins them or no sweep ran.
    ``degenerate`` is ``Moments.degenerate`` of the solve's smoothing
    moments: the number of targets that took the fallback weights.
    ``newton_steps`` holds the Newton steps of each sweep's z step
    (:func:`update_z`), one entry per sweep; it is empty for the gaussian
    family, which has no z step.  A gaussian solve keeps no ``z`` or dual:
    its ``z`` is the final reconstruction and ``y = -grad F(z)`` (see the
    module docstring), formed when it returns.
    """

    model: DcotModel
    z: np.ndarray
    trace: ConvergenceTrace
    y: np.ndarray
    moduli: Moduli
    converged: bool
    reason: str
    degenerate: int
    newton_steps: tuple[int, ...]


def factor_gradient(
    model: DcotModel, projected, gamma: float, mode: int, grams
) -> np.ndarray:
    """Gradient of the coupling term with respect to factor ``mode``.

    ``projected`` is the sweep's target ``T = z + y / gamma`` contracted
    with the transpose of every other factor, ``T x_{t!=n} U_t^T``.  In
    core space the gradient is
    ``gamma * (U_n [S x_{t!=n} U_t^T U_t]_(n) - projected_(n)) S_(n)^T``
    with ``S = core_g + core_h``: the reconstruction never appears.
    ``grams`` holds the factor Grams ``U_t^T U_t`` (entry ``mode`` is not
    read).
    """
    s = model.core_g + model.core_h
    gram = _multilinear(s, [None if t == mode else g for t, g in enumerate(grams)])
    inner = model.factors[mode] @ _unfold(gram, mode)
    inner -= _unfold(projected, mode)
    return gamma * (inner @ _unfold(s, mode).T)


def core_gradient(s: np.ndarray, grams, projected, gamma: float) -> np.ndarray:
    """Gradient of the coupling term w.r.t. either core (they coincide).

    ``gamma * (S x_1 U_1^T U_1 ... x_N U_N^T U_N - P)`` at the core sum
    ``S = core_g + core_h``, with the factor Grams ``grams[t] = U_t^T U_t``
    and ``P = project_core(T, factors)`` for the target
    ``T = z + y / gamma``: the adjoint factor maps applied to
    ``gamma * (recon - T)``, in core space.
    """
    grad = _multilinear(s, grams)
    grad -= projected
    grad *= gamma
    return grad


def update_factor(
    model: DcotModel, projected, gamma: float, mode: int, rho: float, penalty: Penalty,
    grams,
) -> np.ndarray:
    """One linearized proximal step on factor ``mode``.

    ``projected`` and ``grams`` are as for :func:`factor_gradient`.
    """
    if rho <= 0:
        raise ValueError("factor modulus must be positive")
    grad = factor_gradient(model, projected, gamma, mode, grams)
    return prox_apply(penalty, model.factors[mode] - grad / rho, rho)


def update_cores(
    model: DcotModel,
    projected,
    gamma: float,
    rho: float,
    penalty_g: Penalty,
    penalty_h: Penalty,
    *,
    grams,
    freeze_h: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximal steps on both cores, with the subject core tied afterwards.

    ``projected`` is ``project_core(T, model.factors)`` for the target
    ``T = z + y / gamma``.  The factors do not move between the two steps,
    so both share it and the factor Grams ``grams``; the subject core's
    gradient is taken at the core sum ``g_new + core_h`` after the shared
    core's update (Gauss-Seidel order).  Both steps take the core modulus
    ``rho``: the cores enter the coupling through the same map, so they
    share its curvature bound.  With ``freeze_h`` only the shared core
    moves and ``model.core_h`` is returned as it is.
    """
    if rho <= 0:
        raise ValueError("core modulus must be positive")
    g, h = model.core_g, model.core_h
    g_new = prox_apply(
        penalty_g, g - core_gradient(g + h, grams, projected, gamma) / rho, rho
    )
    if freeze_h:
        return g_new, h
    h_new = prox_apply(
        penalty_h, h - core_gradient(g_new + h, grams, projected, gamma) / rho, rho
    )
    if model.partition is not None:
        h_new = tie_heterogeneous_core(h_new, model.partition)
    return g_new, h_new


def update_z(
    family: LossFamily,
    m1: np.ndarray,
    omega: ObservationSet,
    center: np.ndarray,
    gamma: float,
    z0: np.ndarray,
    *,
    z_floor: float,
    steps: list[int],
) -> np.ndarray:
    """Solve the z block: ``F(z) + (gamma / 2) ||z - center||^2``, cell by cell.

    ``m1`` is the smoothed data the loss fits (``Moments.weighted_x``),
    ``center`` the proximal center ``recon - u`` for the scaled dual
    ``u = y / gamma``, and ``z0`` the warm start (``omega`` scales the
    tolerance).  :func:`solve` takes this
    step for every family but the gaussian, which has no z block.

    The loss Hessian is diagonal, so the problem is ``prod(I)`` independent
    1-D problems, each strongly convex on its domain (``z >= z_floor`` for
    poisson and gamma) with modulus ``mu = gamma + min curvature``.  All
    cells take Newton steps at once, projected onto the floor.  Each cell
    keeps a bracket around its minimizer: initially the strong-convexity
    bound ``|z - z*| <= |grad| / mu``, then shrunk by the sign of the
    gradient at every iterate.  A cell bisects its bracket where the Newton
    step leaves it or the curvature is not positive; plain Newton is not a
    contraction for the gamma family.  Stops when every cell's projected
    gradient is at most ``1e-8 * max(1, rms(x_Omega))`` plus
    ``8 * eps * gamma * (|z| + |center|)``, the rounding of
    ``gamma * (z - center)`` (``gamma`` grows like ``1 / z_floor**2`` or
    faster for poisson and gamma, so a fixed tolerance alone can sit below
    it); one step is exact for the gaussian family.  The number of Newton
    steps taken is appended to ``steps``.  Returns a new array.

    Each evaluation is one :class:`~dcot.losses.LossDerivatives` pass (one
    transcendental for bernoulli), whose stored terms give the step's
    curvature.  The buffers are allocated once per call and every pass
    writes into them.  ``lo <= z <= hi`` holds throughout, so the bracket
    updates are ``min``/``max`` passes against ``-inf * grad`` (``+inf``
    where the gradient is negative, ``-inf`` where it is positive, ``nan``
    where it is zero), which give the values of selecting by the
    gradient's sign without a select on a mask that changes at random from
    cell to cell.

    Raises :class:`SolverAbort` naming the z block when the gradient turns
    non-finite or the tolerance is not met within a fixed iteration cap.
    """
    mu = gamma + loss_curvature_min(family, m1, z_floor)
    if not np.all(mu > 0):
        raise ValueError(
            f"gamma {gamma:.3e} does not make the {family.kind} z subproblem "
            "strongly convex"
        )
    bounded = family.bounded
    floor = z_floor if bounded else -np.inf
    scale = float(np.sqrt(np.mean(omega.values**2))) if len(omega) else 1.0
    tol = 1e-8 * max(1.0, scale)
    rounding = 8.0 * np.finfo(float).eps * gamma

    derivs = LossDerivatives(family, m1)
    z = np.maximum(np.asarray(z0, dtype=float), floor)
    if z.shape != derivs.grad.shape:
        raise ValueError(f"z shape {z.shape} does not match data shape {derivs.grad.shape}")

    def gradient(z, work):  # F'(z) + gamma (z - center) into derivs.grad
        grad = derivs.at(z)
        np.subtract(z, center, out=work)
        work *= gamma
        grad += work
        return grad

    work = np.empty_like(z)
    grad = gradient(z, work)
    np.divide(grad, mu, out=work)  # the reach |z - z*| <= |grad| / mu
    lo = np.maximum(work, 0.0)
    np.subtract(z, lo, out=lo)
    np.maximum(lo, floor, out=lo)
    hi = np.minimum(work, 0.0)
    np.subtract(z, hi, out=hi)
    del mu
    spare = np.empty_like(z)
    abs_center = np.abs(center)
    ok = np.empty(z.shape, dtype=bool)
    inside = np.empty(z.shape, dtype=bool)
    for k in range(_NEWTON_MAX_INNER):
        # a cell on the floor with a positive gradient is optimal; what is
        # left is compared with the cell's tolerance
        if bounded:
            np.greater(z, floor, out=ok)
            np.multiply(grad, ok, out=work)
            np.negative(grad, out=spare)
            np.maximum(spare, work, out=work)
        else:  # max(-grad, grad)
            np.abs(grad, out=work)
        np.abs(z, out=spare)  # the allowed rounding * (|z| + |center|)
        spare += abs_center
        spare *= rounding
        work -= spare
        achieved = float(work.max()) - tol
        if not math.isfinite(achieved):
            raise SolverAbort("z block: the gradient is not finite")
        if achieved <= 0.0:
            steps.append(k)
            return z
        with np.errstate(invalid="ignore"):  # 0 * inf where the gradient is 0
            np.multiply(grad, -np.inf, out=work)
        np.minimum(z, work, out=spare)  # z where grad < 0, else -inf or nan
        np.fmax(lo, spare, out=lo)
        np.maximum(z, work, out=spare)  # z where grad > 0, else inf or nan
        np.fmin(hi, spare, out=hi)
        hess = derivs.curvature(work)
        hess += gamma
        np.greater(hess, 0.0, out=ok)
        step = np.divide(grad, hess, out=work)
        np.subtract(z, step, out=step)
        if bounded:
            np.maximum(step, floor, out=step)
        np.greater_equal(step, lo, out=inside)
        ok &= inside
        np.less_equal(step, hi, out=inside)
        ok &= inside
        if ok.all():
            z, work = step, z
        else:  # bisect where Newton fails
            np.add(lo, hi, out=z)
            z *= 0.5
            np.copyto(z, step, where=ok)
        grad = gradient(z, work)
    raise SolverAbort(
        f"z block: Newton solve ended {achieved:.3e} above the projected-gradient "
        f"tolerance in {_NEWTON_MAX_INNER} iterations"
    )


def lagrangian_value(
    model: DcotModel, gamma: float, loss: float, penalties: BlockPenalties,
    r_sq: float, u_r: float,
) -> float:
    """``loss + penalties - gamma <u, r> + (gamma/2) ||r||^2`` for ``r = recon - z``.

    ``u = y / gamma`` is the scaled dual, so the dual term is ``-<y, r>``.
    The caller passes the sums ``r_sq = ||r||^2``, which it shares with the
    primal residual, and ``u_r = <u, r>``.
    """
    value = loss
    value += penalty_value(penalties.g, model.core_g)
    value += penalty_value(penalties.h, model.core_h)
    for u_n in model.factors:
        value += penalty_value(penalties.factors, u_n)
    value -= gamma * u_r
    value += 0.5 * gamma * r_sq
    return value


def _row_blocks(rows: int, cols: int):
    """Blocks of ``max(1, _BLOCK // cols)`` rows of a ``(rows, cols)`` array.

    Yields each block's rows and its cells in the raveled array; the last
    block may be partial.
    """
    step = max(1, _BLOCK // max(cols, 1))
    for lo in range(0, rows, step):
        yield slice(lo, lo + step), slice(lo * cols, (lo + step) * cols)


def _sweep_tail(recon, z, z_new, u, u_last, link) -> tuple[float, float, float]:
    """The Newton families' sweep after their z step, one row block at a time.

    ``recon`` holds the reconstruction and ``z_new`` the z step
    (:func:`update_z`).  Per block, ``recon`` becomes the residual
    ``r = recon - z_new``, the scaled dual takes its ascent step ``u -= r``
    (``y <- y - gamma * r``), ``z`` becomes ``z - z_new``, the sums
    ``||z - z_new||^2``, ``||r||^2`` and ``<u, r>`` are added up,
    ``recon`` ends as the next target ``z_new + u``, and ``link`` takes
    the next sweep's first link ``target @ U_N``.  Per cell this is the
    arithmetic of the separate whole-array steps, so the iterates are
    bitwise theirs.
    """
    *lead, cols = recon.shape
    rows, rank = math.prod(lead), u_last.shape[1]
    # the sweep's arrays are C-contiguous, so these are views; made here,
    # they are gone again before the next sweep's factor steps
    rf, zf, nf, uf = (x.reshape(-1) for x in (recon, z, z_new, u))
    r2, l2 = recon.reshape(rows, cols), link.reshape(rows, rank)
    dz_sq = r_sq = u_r = 0.0
    for block, cells in _row_blocks(rows, cols):
        r, zb, new, ub = rf[cells], zf[cells], nf[cells], uf[cells]
        r -= new
        ub -= r
        zb -= new
        dz_sq += float(np.dot(zb, zb))
        r_sq += float(np.dot(r, r))
        u_r += float(np.dot(ub, r))
        np.add(new, ub, out=r)
        np.matmul(r2[block], u_last, out=l2[block])
    return dz_sq, r_sq, u_r


@functools.cache
def _power_start(n: int) -> np.ndarray:
    """Read-only unit start vector of the power iteration on ``n`` columns."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


@functools.cache
def _power_exponents(iters: int) -> np.ndarray:
    """Read-only column of the exponents ``4k``, ``k = 1 .. iters``, of ``q_k``."""
    e = (4 * np.arange(1, iters + 1))[:, None]
    e.flags.writeable = False
    return e


def _spectral_norm(a: np.ndarray, iters: int = 50, tol: float = 1e-8) -> float:
    """Spectral-norm estimate of a power iteration on the Gram matrix.

    The estimate is that of ``iters`` steps of ``w = a^T a v``,
    ``lam = ||w||``, ``v = w / lam`` from the unit vector
    :func:`_power_start`, stopped at the first step with
    ``|lam_k - lam_{k-1}| <= tol * max(lam_k, 1)`` (``lam_0 = 0``), which
    returns ``sqrt(lam_k)``.  The sequence is evaluated in closed form from
    one thin SVD ``a = U diag(s) V^T`` (Golub & Van Loan, *Matrix
    Computations*, §8.2): with ``c = (V^T v)^2`` and
    ``q_k = sum_i (s_i / s_0)^(4k) c_i`` (``q_0 = v . v``),
    ``lam_k^2 = s_0^4 q_k / q_{k-1}``.  The square is formed as the loop
    formed ``w . w``, so it overflows to ``inf`` and underflows to ``0.0``
    where the loop's did, and ``lam_1 = 0`` settles at once at ``0.0``.

    ``s[0]`` is the exact 2-norm.  The estimate is kept on purpose: when
    the sequence has not settled within the budget (``iters = 0``
    included) it falls back to the Frobenius norm (a valid upper bound).
    That happens often: on the benchmark's gauss-dense problem (60^3, ranks
    3, 150 iterations) 450 of 909 calls, every one a 60 x 3 factor norm,
    fell back, at up to 72 % above the exact 2-norm, which inflates the
    moduli built from them.  Exact norms change the solver's answers and
    its stopping iteration, so they are a change of their own.

    A refreshed solve makes ``2N`` calls per sweep on matrices of a few
    dozen entries, so the cost is per numpy call, not per entry: about 20
    calls (25-30 us on a 16 x 3 matrix, shared 2-core x86-64 machine), of
    which the SVD takes about two thirds.  One ``dot`` gives the Frobenius norm, in ``np.linalg.norm``'s
    own order, and serves the zero test, the finiteness guard and the
    fallback; the exponent column is cached and the first settled step is
    found by ``argmax``.  None of this moves the estimate: it is bitwise
    the one that separate reductions per test give.

    Input whose squares do not sum to a finite number returns that
    Frobenius norm (``inf`` or ``nan``) without calling LAPACK:
    ``np.linalg.svd`` may never return on an ``inf`` entry.  Where finite
    entries overflow the sum, the sequence gives ``inf`` too, since
    ``s_0^4`` overflows long before; where all squares underflow to a zero
    sum, it settles at ``0.0``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    # one errstate for the whole estimate: the Frobenius sum may overflow,
    # and so may s_0^4, with q_k / q_{k-1} at 0 / 0 past an underflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        flat = a.ravel(order="K")
        frob = math.sqrt(float(flat.dot(flat)))
        if frob == 0.0:
            return 0.0
        if iters < 1 or not math.isfinite(frob):
            return frob
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        v = _power_start(a.shape[1])
        q = np.empty(iters + 1)
        q[0] = v @ v
        q[1:] = (s / s[0]) ** _power_exponents(iters) @ (vt @ v) ** 2
        lam = np.zeros(iters + 1)
        lam[1:] = np.sqrt(s[0] ** 4 * (q[1:] / q[:-1]))
        step = abs(lam[1:] - lam[:-1])
    settled = step <= tol * np.maximum(lam[1:], 1.0)
    k = settled.argmax()
    return math.sqrt(lam[k + 1]) if settled[k] else frob


def _factor_modulus(
    gamma: float, core_sum: np.ndarray, u_norms: list[float], mode: int
) -> float:
    """Modulus of factor ``mode``, floored away from zero.

    ``safety * gamma`` times the squared spectral bound of its coupling map:
    the core-sum matricization times the other factors' norms.
    """
    others = math.prod(u_norms[:mode] + u_norms[mode + 1 :])
    bound = gamma * (_spectral_norm(_unfold(core_sum, mode)) * others) ** 2
    return max(bound * _LIPSCHITZ_SAFETY, _MODULI_FLOOR)


def _core_modulus(gamma: float, u_norms: list[float]) -> float:
    """Modulus of either core: ``safety * gamma * prod(factor norms)^2``, floored."""
    return max(gamma * math.prod(u_norms) ** 2 * _LIPSCHITZ_SAFETY, _MODULI_FLOOR)


def estimate_moduli(
    model: DcotModel, config: SolverConfig, family: LossFamily, m1: np.ndarray,
    u_norms: list[float],
) -> Moduli:
    """The step parameters at the current state.

    ``gamma`` is the loss gradient's Lipschitz bound ``L_F`` for the
    gaussian family, whose coupling is the loss itself, and ``2.1 * L_F``
    for the split families (``L_F`` taken at ``config.z_floor`` for the
    bounded ones).  Each
    block's modulus is ``gamma`` times the squared spectral-norm bound of
    its coupling map (core-sum matricization times the other factors for a
    factor block, the product of all factor norms for the cores),
    multiplied by ``_LIPSCHITZ_SAFETY`` and floored away from zero.
    ``m1`` is the smoothed data the loss fits, and ``u_norms`` holds the
    factors' norm bounds, ``_spectral_norm(U_n)``.
    """
    gamma = loss_lipschitz(family, m1, z_min=config.z_floor)
    if family.kind != "gaussian":
        gamma = 2.0 * gamma * 1.05
    s = model.core_g + model.core_h
    factors = tuple(_factor_modulus(gamma, s, u_norms, n) for n in range(len(u_norms)))
    return Moduli(gamma, _core_modulus(gamma, u_norms), factors)


def solve(
    omega: ObservationSet,
    init: DcotModel,
    family: LossFamily,
    sim: SimilarityModel,
    config: SolverConfig,
) -> SolverResult:
    """Run the full block sweep until tolerance or the iteration budget.

    The step sizes come from :func:`estimate_moduli`, refreshed inside
    every sweep unless ``config.fixed_moduli`` pins them.  Returns the
    final model, estimate ``z``, dual variable, per-iteration trace, the
    moduli the last sweep used and the smoothing's count of degenerate
    targets.
    """
    family.validate_observations(omega)
    if omega.shape != tuple(u.shape[0] for u in init.factors):
        raise ValueError("initial model shape does not match the data shape")
    smoothed = smoothing_moments(sim, omega)
    m1 = smoothed.weighted_x  # the smoothed data every family's loss fits
    model = init.copy()
    if config.freeze_h:
        model.core_h = np.zeros_like(model.core_h)
    blocks = [(f"factor {n}", u) for n, u in enumerate(model.factors)]
    blocks += [("core_g", model.core_g), ("core_h", model.core_h)]
    for name, block in blocks:
        if not np.isfinite(block).all():
            raise ValueError(f"initial model {name} has non-finite values")
    # the factors' norm bounds, which the moduli take at every refresh
    u_norms = [_spectral_norm(u_n) for u_n in model.factors]
    moduli = estimate_moduli(model, config, family, m1, u_norms)
    gamma = moduli.gamma
    gaussian = family.kind == "gaussian"
    tol_primal = _TOL_PRIMAL_REL * float(np.linalg.norm(omega.values))
    pen = config.penalties
    n_modes = len(model.factors)
    # the factor Grams U_t^T U_t, each formed once after its factor's update
    # and shared by the later factor steps, both core steps and the
    # gaussian loss
    grams = [u_n.T @ u_n for u_n in model.factors]

    trace = ConvergenceTrace()

    def diagnostics(it, loss, r_sq, u_r, steps, started):
        # one <r, r> gives the quadratic term, the primal residual and,
        # since y_new - y = -gamma * r, the dual step (row 0 took no step)
        primal = math.sqrt(r_sq)
        return TraceRow(
            iteration=it,
            lagrangian=lagrangian_value(model, gamma, loss, pen, r_sq, u_r),
            loss=loss,
            primal_residual=primal,
            z_step=steps[0],
            dual_step=gamma * primal if it else 0.0,
            factor_step=steps[1],
            core_g_step=steps[2],
            core_h_step=steps[3],
            wall_time=time.perf_counter() - started,
        )

    def check_finite(block, value, it):
        if not np.isfinite(value).all():
            raise SolverAbort(f"{block} block: non-finite values at iteration {it}", trace)

    newton_steps: list[int] = []
    started = time.perf_counter()
    if gaussian:
        # the loss ||X - m1||^2 / count in core space (see the module
        # docstring), from the core steps' projection P of m1
        m1_sq = frob_inner(m1, m1)

        def core_space_loss(projected):
            s = model.core_g + model.core_h
            recon_sq = frob_inner(_multilinear(s, grams), s)
            return (recon_sq - 2.0 * frob_inner(s, projected) + m1_sq) / m1.size

        loss = core_space_loss(_multilinear(m1, [u_n.T for u_n in model.factors]))
        # no split: the residual, the z step and the dual step stay 0, and
        # the target is m1 throughout
        dz_sq = r_sq = u_r = 0.0
        target = m1
    else:
        # observed values, initial_fill elsewhere; a bounded family's z
        # starts on its floor, so the first gradient (and the dual start)
        # stays bounded
        z = omega.to_dense(initial_fill(omega, family))
        if family.bounded:
            z = np.maximum(z, config.z_floor)
        u = loss_gradient(family, m1, z)
        u /= -gamma  # the scaled dual y / gamma, starting from y = -grad F(z)
        # the sweep buffers (see the module docstring): recon holds the
        # reconstruction, the residual and then the next target; spare and
        # z trade places
        recon, spare = np.empty_like(z), np.empty_like(z)
        r = reconstruct(model, out=recon)
        r -= z
        loss, r_sq, u_r = loss_value(family, m1, z), frob_inner(r, r), frob_inner(u, r)
        # the target z + u and the chain's first link target x_N U_N^T;
        # afterwards, each sweep's tail forms both
        target = np.add(z, u, out=recon)
        link = _mode_product(target, model.factors[-1].T, n_modes - 1)
        link_shape = link.shape
    row = diagnostics(0, loss, r_sq, u_r, (0.0,) * 4, started)
    trace.append(row)
    initial_lagr = row.lagrangian
    guard = _DIVERGENCE_FACTOR * (abs(initial_lagr) + 1.0)

    # Working copies of the moduli.  Unless fixed_moduli pins them, they are
    # refreshed from the current state inside the sweep: the coupling is
    # exactly quadratic in each block, so a bound computed at the block's
    # own evaluation point guarantees a descent step, while stale bounds
    # understate the curvature once factor norms drift.
    rho_factors = list(moduli.factors)
    rho_core = moduli.core
    refresh = not config.fixed_moduli

    converged = False
    reason = "max_iters"
    for k in range(1, config.max_iters + 1):
        # the coupling gradient is gamma * (recon - target), in core space.
        # The chain's links are target x_{t>n} U_t^T with the old factors,
        # built from the last mode down, so factor n pops its own link from
        # the end (freeing it once used) and contracts it with the updated
        # U_t^T, t < n.  The gaussian target m1 is fixed, so its first link
        # is formed here; a split family's comes from the last sweep's tail
        # (a 1-way model's only factor takes the target itself)
        if gaussian:
            link = _mode_product(target, model.factors[-1].T, n_modes - 1)
        suffix = [target, link][:n_modes]
        del link  # freed once the chain has used it; the tail writes the next
        for n in range(n_modes - 2, 0, -1):
            suffix.append(_mode_product(suffix[-1], model.factors[n].T, n))
        factor_sq = 0.0
        core_sum = model.core_g + model.core_h
        for n in range(n_modes):
            if refresh:
                rho_factors[n] = _factor_modulus(gamma, core_sum, u_norms, n)
            projected = suffix.pop()
            for t in range(n):
                projected = _mode_product(projected, model.factors[t].T, t)
            u_new = update_factor(
                model, projected, gamma, n, rho_factors[n], pen.factors, grams
            )
            check_finite(f"factor {n}", u_new, k)
            factor_sq += float(((u_new - model.factors[n]) ** 2).sum())
            model.factors[n] = u_new
            grams[n] = u_new.T @ u_new
            if refresh:
                u_norms[n] = _spectral_norm(u_new)
        # the last factor's input, contracted with its update, is
        # project_core(target, factors) in project_core's own order
        projected = _mode_product(projected, model.factors[-1].T, n_modes - 1)
        if refresh:
            rho_core = _core_modulus(gamma, u_norms)
        g_old, h_old = model.core_g, model.core_h
        g_new, h_new = update_cores(
            model, projected, gamma, rho_core, pen.g, pen.h,
            freeze_h=config.freeze_h, grams=grams,
        )
        check_finite("core_g", g_new, k)
        check_finite("core_h", h_new, k)
        model.core_g, model.core_h = g_new, h_new
        if gaussian:
            loss = core_space_loss(projected)
        else:
            # update_z needs the whole proximal center recon - u; it goes
            # into spare and has no name here, so that the buffer is freed
            # when spare and z trade places
            reconstruct(model, out=recon)
            try:
                z_new = update_z(family, m1, omega, np.subtract(recon, u, out=spare),
                                 gamma, z, z_floor=config.z_floor, steps=newton_steps)
            except SolverAbort as exc:
                raise SolverAbort(f"{exc} at iteration {k}", trace) from exc
            link = np.empty(link_shape)  # made after the z step's buffers are gone
            dz_sq, r_sq, u_r = _sweep_tail(recon, z, z_new, u, model.factors[-1], link)
            spare, z = z, z_new
            loss = loss_value(family, m1, z)

        steps = (
            math.sqrt(dz_sq),
            math.sqrt(factor_sq),
            frob_norm(g_new - g_old),
            frob_norm(h_new - h_old),
        )
        row = diagnostics(k, loss, r_sq, u_r, steps, started)
        trace.append(row)
        started = time.perf_counter()

        if not math.isfinite(row.lagrangian) or row.lagrangian > guard:
            raise SolverAbort(
                f"augmented Lagrangian diverged at iteration {k}: "
                f"{row.lagrangian:.3e} (initial {initial_lagr:.3e})",
                trace,
            )
        block_step = math.sqrt(
            steps[0] ** 2 + steps[1] ** 2 + steps[2] ** 2 + steps[3] ** 2
        )
        if row.primal_residual <= tol_primal and block_step <= _TOL_STEP:
            converged = True
            reason = "tolerance"
            break

    log.info(
        "solve finished after %d iterations (%s); primal residual %.3e",
        trace.rows[-1].iteration,
        reason,
        trace.rows[-1].primal_residual,
    )
    if gaussian:  # the reconstruction, and y = -grad F(z) in the gradient's buffer
        z = reconstruct(model)
        y = loss_gradient(family, m1, z)
        np.negative(y, out=y)
    else:
        y = np.multiply(u, gamma, out=u)  # back to the unscaled dual, in place
    return SolverResult(
        model=model, z=z, trace=trace, y=y,
        moduli=Moduli(gamma, rho_core, tuple(rho_factors)), converged=converged,
        reason=reason, degenerate=smoothed.degenerate, newton_steps=tuple(newton_steps),
    )
