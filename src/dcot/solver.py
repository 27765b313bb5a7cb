"""Linearized multi-block ADMM for penalized double-core factorization.

Each iteration sweeps the blocks in Gauss-Seidel order

    U_1, ..., U_N  ->  core_g  ->  core_h (tied)  ->  z  ->  dual,

where every factor/core update is one proximal gradient step on the
quadratic coupling term

    (gamma / 2) * || recon - z - u ||^2,

linearized at the current point with per-block step ``1 / rho``.  The dual
is kept in scaled form ``u = y / gamma`` (Boyd et al. 2011, *Distributed
Optimization and Statistical Learning via ADMM*, §3.1.1).  The ``z``
update minimizes smoothed loss + coupling exactly (a closed form for the
gaussian family, a safeguarded per-cell Newton solve otherwise) and the
dual ascends along the constraint residual.

The gradients are taken in core space (Kolda & Bader 2009, *Tensor
Decompositions and Applications*, SIAM Review): with the sweep's fixed
target ``T = z + u`` and ``S = core_g + core_h``, the coupling gradient
with respect to ``recon`` is ``gamma * (recon - T)``, and its pull-backs
to the factors and cores need only ``T`` contracted with factor
transposes and ``S`` contracted with factor Gram matrices ``U_t^T U_t``;
``gamma`` multiplies only core-sized arrays.

One chain of mode products serves the whole sweep.  ``T`` is contracted
from the last mode down with the old factors, ``R_{N-1} = T`` and
``R_n = R_{n+1} x_{n+1} U_{n+1}^T``; factor ``n`` takes ``R_n`` contracted
with the already-updated ``U_0 .. U_{n-1}``, and the last factor's input,
contracted with its update, is ``project_core(T, factors)``, shared by
both core steps.  Two contractions per sweep read a ``prod(I)`` tensor.
One list of factor Grams serves the sweep as well: ``grams[n] = U_n^T U_n``
is formed once after factor ``n``'s update (and once before the first
sweep), and the later factor steps and both core steps read it, so a sweep
forms ``N`` Grams; the subject core's gradient is taken at the core sum
``g_new + core_h`` with the same list.

At grid-search sizes the tensor work is the small part of a sweep.  A
16^3 gaussian solve with ranks 3 (100 sweeps, one BLAS thread, a shared
2-core x86-64 machine) took about 50 ms: the 606 calls of
:func:`_spectral_norm` about 44 % of it, the factor steps 15 %, the core
steps 10 %, the sweep's tail 6 % and the reconstruction 4 %.  Nearly all of
that is the fixed cost of numpy calls on arrays of a few dozen entries, so
the sweep makes as few of them as it can; at 60^3 the dense passes take
most of a sweep instead.

Besides ``z`` and ``u``, a solve allocates two dense buffers once:
``recon`` holds the target, then the reconstruction (the sweep's only
one, for the z step); ``spare`` receives the next ``z`` and trades
places with the old one.  After the reconstruction, one pass over blocks
of ``_BLOCK`` cells (:func:`_sweep_tail`) does the rest of the sweep while
a block is in cache: the gaussian z step into ``spare``, the residual
``r = recon - z_new`` in ``recon``, the dual step ``u -= r``, the z step
``z - z_new`` in the old ``z``, the sums the trace needs (``||z - z_new||^2``,
``||r||^2``, ``<u, r>`` and the gaussian loss's ``sum w z^2 - 2 <m1, z>``)
and the next target ``z_new + u`` in ``recon``.  So after the chain has
read the target twice and the reconstruction has written ``recon``, a
gaussian sweep reads ``recon``, ``u``, ``z``, the z-step offset ``a`` and
``weighted_x`` once and writes ``recon``, ``u``, ``z`` and ``spare`` once,
and allocates no ``prod(I)`` array.  The other families solve the z step
over the whole array first (:func:`newton_z`, which returns a new array),
then take the same pass, and their trace evaluates the loss at the new
``z``.  Their Newton solve makes one derivative pass per evaluation (one
transcendental for bernoulli), writes into buffers it allocates once per
call, and reports its step count, which ``SolverResult.newton_steps``
collects per sweep.  On the benchmark's bernoulli 30^3 problem
(20 sweeps, one BLAS thread, a shared 2-core x86-64 machine) a sweep's
Newton solve takes one or two steps and about 1.1 ms, and the trace's
loss about 0.25 ms.  The Lagrangian, the primal residual and the dual step
share one ``<r, r>``.  The returned dual is ``y = gamma * u``, formed in
place.

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
    gaussian_quadratic,
    initial_fill,
    loss_curvature_min,
    loss_gradient,
    loss_lipschitz,
    loss_value,
)
from .model import DcotModel, reconstruct, tie_heterogeneous_core
from .prox import Penalty, penalty_value, prox_apply
from .similarity import Moments, SimilarityModel, smoothing_moments
from .tensor import (
    frob_inner,
    frob_norm,
    matricize,
    multilinear_product,
    n_mode_product,
)

log = logging.getLogger("dcot.solver")

_MODULI_FLOOR = 1e-8
# the moduli's safety factor on each block's curvature bound; a modulus
# below the bound voids the descent step
_LIPSCHITZ_SAFETY = 1.1
_NEWTON_MAX_INNER = 100
# cells per block of the sweep's tail (see _sweep_tail): 256 KiB per
# float64 array, so a block of the tail's arrays stays in a core's L2 cache
_BLOCK = 32768
# abort once the augmented Lagrangian exceeds this factor times (|L_0| + 1)
_DIVERGENCE_FACTOR = 10.0


class SolverAbort(RuntimeError):
    """The augmented Lagrangian diverged past the safeguard, or the z block failed."""

    def __init__(self, message: str, trace: "ConvergenceTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class BlockPenalties:
    """Penalty per optimization block: shared core, subject core, factors.

    ``factors`` applies to every factor matrix.
    """

    g: Penalty = field(default_factory=Penalty.none)
    h: Penalty = field(default_factory=Penalty.none)
    factors: Penalty = field(default_factory=Penalty.none)


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.  The step sizes are not among them: they come from the problem.

    :func:`estimate_moduli` sets ``gamma`` and the proximal moduli from the
    data and the current state.  By default the moduli are refreshed from
    the current state block by block inside every sweep (stale moduli can
    understate the curvature when factor norms drift and send the sweep
    uphill); ``fixed_moduli`` pins them to the initial estimate for the
    whole run.  A solve stops once the primal residual is at most
    ``tol_primal`` (default ``1e-6 * ||x_Omega||``) and the block step at
    most ``tol_step``.  ``z_floor`` is the lower bound on ``z`` for the
    bounded families (``LossFamily.bounded``); the z block itself has no
    knobs, since it is solved exactly (see :func:`update_z`).  ``freeze_h``
    holds the subject core at zero (plain Tucker).
    """

    penalties: BlockPenalties = field(default_factory=BlockPenalties)
    max_iters: int = 500
    tol_primal: float | None = None
    tol_step: float = 1e-8
    fixed_moduli: bool = False
    z_floor: float = 1e-6
    freeze_h: bool = False

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.z_floor > 0:
            raise ValueError("z_floor must be positive")
        for name in ("tol_step", "tol_primal"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative")


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
    """Step parameters: the dual step ``gamma`` and the proximal moduli.

    ``core`` serves both cores; ``factors`` holds one modulus per mode.
    """

    gamma: float
    core: float
    factors: tuple[float, ...]


@dataclass(frozen=True)
class SolverResult:
    """What a solve returns.

    ``config`` is the configuration as given.  ``moduli`` are the step
    parameters the last sweep used: the initial estimate when
    ``fixed_moduli`` pins them or no sweep ran.  ``degenerate`` is
    ``Moments.degenerate`` of the solve's smoothing moments: the number of
    targets that took the fallback weights.  ``newton_steps`` holds the
    Newton steps of each sweep's z step (:func:`newton_z`), one entry per
    sweep; it is empty for the gaussian family, whose z step is closed.
    """

    model: DcotModel
    z: np.ndarray
    trace: ConvergenceTrace
    y: np.ndarray
    config: SolverConfig
    moduli: Moduli
    converged: bool
    reason: str
    degenerate: int
    newton_steps: tuple[int, ...]


def _grams(model: DcotModel) -> list[np.ndarray]:
    """Factor Gram matrices ``U_t^T U_t``."""
    return [u.T @ u for u in model.factors]


def factor_gradient(
    model: DcotModel, projected, gamma: float, mode: int, grams=None
) -> np.ndarray:
    """Gradient of the coupling term with respect to factor ``mode``.

    ``projected`` is the sweep's target ``T = z + y / gamma`` contracted
    with the transpose of every other factor, ``T x_{t!=n} U_t^T``.  In
    core space the gradient is
    ``gamma * (U_n [S x_{t!=n} U_t^T U_t]_(n) - projected_(n)) S_(n)^T``
    with ``S = core_g + core_h``: the reconstruction never appears.
    ``grams`` holds the factor Grams ``U_t^T U_t`` when the caller has
    them (entry ``mode`` is not read); otherwise they are formed here.
    """
    if grams is None:
        grams = _grams(model)
    s = model.core_g + model.core_h
    gram = multilinear_product(s, [None if t == mode else g for t, g in enumerate(grams)])
    inner = model.factors[mode] @ matricize(gram, mode)
    inner -= matricize(projected, mode)
    return gamma * (inner @ matricize(s, mode).T)


def _core_gradient(s: np.ndarray, grams, projected, gamma: float) -> np.ndarray:
    """:func:`core_gradient` for the core sum ``s`` and the factor Grams."""
    grad = multilinear_product(s, grams)
    grad -= projected
    grad *= gamma
    return grad


def core_gradient(model: DcotModel, projected, gamma: float) -> np.ndarray:
    """Gradient of the coupling term w.r.t. either core (they coincide).

    ``gamma * (S x_1 U_1^T U_1 ... x_N U_N^T U_N - P)`` with
    ``S = core_g + core_h`` and ``P = project_core(T, factors)`` for the
    target ``T = z + y / gamma``: the adjoint factor maps applied to
    ``gamma * (recon - T)``, in core space.
    """
    return _core_gradient(model.core_g + model.core_h, _grams(model), projected, gamma)


def update_factor(
    model: DcotModel, projected, gamma: float, mode: int, rho: float, penalty: Penalty,
    grams=None,
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
    freeze_h: bool = False,
    grams=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximal steps on both cores, with the subject core tied afterwards.

    ``projected`` is ``project_core(T, model.factors)`` for the target
    ``T = z + y / gamma``.  The factors do not move between the two steps,
    so both share it and the factor Grams ``grams`` (formed here unless
    given); the subject core's gradient is taken at the core sum
    ``g_new + core_h`` after the shared core's update (Gauss-Seidel order).
    Both steps take the core modulus ``rho``: the cores enter the coupling
    through the same map, so they share its curvature bound.  With
    ``freeze_h`` only the shared core moves and ``model.core_h`` is
    returned as it is.
    """
    if rho <= 0:
        raise ValueError("core modulus must be positive")
    if grams is None:
        grams = _grams(model)
    g, h = model.core_g, model.core_h
    g_new = prox_apply(
        penalty_g, g - _core_gradient(g + h, grams, projected, gamma) / rho, rho
    )
    if freeze_h:
        return g_new, h
    h_new = prox_apply(
        penalty_h, h - _core_gradient(g_new + h, grams, projected, gamma) / rho, rho
    )
    if model.partition is not None:
        h_new = tie_heterogeneous_core(h_new, model.partition)
    return g_new, h_new


def gaussian_z_coefficients(mom: Moments, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` of the gaussian closed-form z step ``z = a + b * center``.

    They depend on ``gamma`` and the moments only, so a solve builds them
    once.  ``b`` has the shape of ``mom.weight_sum``: size one for the
    moments ``smoothing_moments`` builds, so only ``a`` is a dense array
    then; a per-cell ``weight_sum`` makes ``b`` dense too.
    """
    scale = 2.0 / mom.count
    b = mom.weight_sum * scale
    b += gamma
    a = mom.weighted_x * scale
    a /= b
    np.divide(gamma, b, out=b)
    return a, b


def update_z(
    recon: np.ndarray,
    z,
    u,
    gamma: float,
    family: LossFamily,
    mom: Moments,
    omega: ObservationSet,
    *,
    z_floor: float = 1e-6,
    out: np.ndarray | None = None,
    steps: list[int] | None = None,
) -> np.ndarray:
    """Solve the z block: smoothed loss plus the quadratic coupling.

    The proximal center is ``recon - u`` for the scaled dual
    ``u = y / gamma``; it is formed in ``out`` when that is given.  For the
    gaussian family the minimizer is the elementwise closed form
    ``a + b * center``, with ``(a, b)`` from :func:`gaussian_z_coefficients`,
    computed in place, so ``out`` is returned (:func:`solve` forms it block
    by block instead, in its sweep tail).  Other families go to
    :func:`newton_z`, warm-started at ``z`` (``omega`` scales its
    tolerance), which returns a new array and appends its step count to
    ``steps`` when that is given.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    center = np.subtract(recon, u, out=out)
    if family.kind == "gaussian":
        a, b = gaussian_z_coefficients(mom, gamma)
        center *= b
        center += a
        return center
    return newton_z(family, mom, omega, center, gamma, z, z_floor=z_floor, steps=steps)


def newton_z(
    family: LossFamily,
    mom: Moments,
    omega: ObservationSet,
    center: np.ndarray,
    gamma: float,
    z0: np.ndarray,
    *,
    z_floor: float = 1e-6,
    steps: list[int] | None = None,
) -> np.ndarray:
    """Minimize ``F(z) + (gamma / 2) ||z - center||^2`` cell by cell.

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
    it); one step is exact for the gaussian family.  When ``steps`` is
    given, the number of Newton steps taken is appended to it.

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
    mu = gamma + loss_curvature_min(family, mom, z_floor)
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

    derivs = LossDerivatives(family, mom)
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
            if steps is not None:
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


def update_dual(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Scaled dual ascent step ``u -= r`` along the residual ``r = recon - z``.

    ``u = y / gamma``, so this is ``y <- y - gamma * r``.  ``u`` is updated
    in place and returned.
    """
    u -= r
    return u


def lagrangian_value(
    model: DcotModel, r, u, gamma: float, loss: float, penalties: BlockPenalties,
    r_sq: float,
) -> float:
    """``loss + penalties - gamma <u, r> + (gamma/2) ||r||^2`` for ``r = recon - z``.

    ``u = y / gamma`` is the scaled dual, so the dual term is ``-<y, r>``.
    ``r_sq`` is ``||r||^2``, which the caller shares with the primal residual.
    """
    return _lagrangian(model, gamma, loss, penalties, r_sq, frob_inner(u, r))


def _lagrangian(
    model: DcotModel, gamma: float, loss: float, penalties: BlockPenalties,
    r_sq: float, u_r: float,
) -> float:
    """:func:`lagrangian_value` from the sums ``r_sq = ||r||^2`` and ``u_r = <u, r>``."""
    value = loss
    value += penalty_value(penalties.g, model.core_g)
    value += penalty_value(penalties.h, model.core_h)
    for u_n in model.factors:
        value += penalty_value(penalties.factors, u_n)
    value -= gamma * u_r
    value += 0.5 * gamma * r_sq
    return value


def _sweep_tail(recon, z, z_new, u, gaussian=None) -> tuple[float, float, float, float]:
    """Everything a sweep does after its reconstruction, in one pass over blocks.

    ``recon`` holds the reconstruction.  Each block of ``_BLOCK``
    consecutive cells goes through every step before the next block is
    read, so the arrays stay in cache:

    * with ``gaussian = (a, b, w, m1)`` (the z-step coefficients and the
      moments' ``weight_sum`` and ``weighted_x``) the closed-form z step
      of :func:`update_z`, ``z_new = a + b * (recon - u)``, is formed in
      ``z_new``; otherwise ``z_new`` already holds the whole z step;
    * ``recon`` becomes the residual ``r = recon - z_new``, the dual steps
      (:func:`update_dual`), and ``z`` becomes the z step ``z - z_new``;
    * the block's ``||z - z_new||^2``, ``||r||^2``, ``<u, r>`` (with the
      new ``u``) and, on the gaussian path, ``sum w z_new^2 - 2 <m1, z_new>``
      are added up;
    * ``recon`` ends as the next sweep's target ``z_new + u``.

    Per cell this is the arithmetic of the separate whole-array steps, so
    the iterates are bitwise theirs; the sums differ from whole-array ones
    by rounding only.  Returns the four sums (the last is ``0.0`` without
    ``gaussian``).  ``b`` and ``w`` may be size one.
    """
    # the sweep's arrays are C-contiguous, so these are views, and made here
    # they are gone again before the next sweep's factor steps
    rf, zf, nf, uf = (x.reshape(-1) for x in (recon, z, z_new, u))
    if gaussian is not None:
        a, b, w, m1 = (x.reshape(-1) for x in gaussian)
    dz_sq = r_sq = u_r = quad = 0.0
    for lo in range(0, rf.size, _BLOCK):
        cells = slice(lo, lo + _BLOCK)
        r, zb, new, ub = rf[cells], zf[cells], nf[cells], uf[cells]
        if gaussian is not None:
            np.subtract(r, ub, out=new)
            new *= b if b.size == 1 else b[cells]
            new += a[cells]
            quad += gaussian_quadratic(w if w.size == 1 else w[cells], m1[cells], new)
        r -= new
        update_dual(r, ub)
        zb -= new
        dz_sq += float(np.dot(zb, zb))
        r_sq += float(np.dot(r, r))
        u_r += float(np.dot(ub, r))
        np.add(new, ub, out=r)
    return dz_sq, r_sq, u_r, quad


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
    bound = gamma * (_spectral_norm(matricize(core_sum, mode)) * others) ** 2
    return max(bound * _LIPSCHITZ_SAFETY, _MODULI_FLOOR)


def _core_modulus(gamma: float, u_norms: list[float]) -> float:
    """Modulus of either core: ``safety * gamma * prod(factor norms)^2``, floored."""
    return max(gamma * math.prod(u_norms) ** 2 * _LIPSCHITZ_SAFETY, _MODULI_FLOOR)


def estimate_moduli(
    model: DcotModel, config: SolverConfig, family: LossFamily, mom: Moments,
    u_norms: list[float] | None = None,
) -> Moduli:
    """The step parameters at the current state.

    ``gamma`` is ``2.1 * L_F`` for the loss gradient's Lipschitz bound
    ``L_F`` (taken at ``config.z_floor`` for the bounded families).  Each
    block's modulus is ``gamma`` times the squared spectral-norm bound of
    its coupling map (core-sum matricization times the other factors for a
    factor block, the product of all factor norms for the cores),
    multiplied by ``_LIPSCHITZ_SAFETY`` and floored away from zero.  The
    factors' norm bounds are taken here unless the caller passes them as
    ``u_norms``.
    """
    gamma = 2.0 * loss_lipschitz(family, mom, z_min=config.z_floor) * 1.05
    if u_norms is None:
        u_norms = [_spectral_norm(u) for u in model.factors]
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
    configuration as given, the moduli the last sweep used and the
    smoothing moments' count of degenerate targets.
    """
    family.validate_observations(omega)
    if omega.shape != tuple(u.shape[0] for u in init.factors):
        raise ValueError("initial model shape does not match the data shape")
    mom = smoothing_moments(sim, omega)
    model = init.copy()
    if config.freeze_h:
        model.core_h = np.zeros_like(model.core_h)
    blocks = [(f"factor {n}", u) for n, u in enumerate(model.factors)]
    blocks += [("core_g", model.core_g), ("core_h", model.core_h)]
    for name, block in blocks:
        if not np.isfinite(block).all():
            raise ValueError(f"initial model {name} has non-finite values")
    # observed values, initial_fill elsewhere; a bounded family's z starts on
    # its floor, so the first gradient (and the dual start) stays bounded
    z = omega.to_dense(initial_fill(omega, family))
    if family.bounded:
        z = np.maximum(z, config.z_floor)
    u = loss_gradient(family, mom, z)

    # the factors' norm bounds, which the moduli take at every refresh
    u_norms = [_spectral_norm(u_n) for u_n in model.factors]
    moduli = estimate_moduli(model, config, family, mom, u_norms)
    gamma = moduli.gamma
    u /= -gamma  # the scaled dual y / gamma, starting from y = -grad F(z)
    tol_primal = config.tol_primal
    if tol_primal is None:
        tol_primal = 1e-6 * float(np.linalg.norm(omega.values))
    pen = config.penalties
    n_modes = len(model.factors)

    trace = ConvergenceTrace()
    gaussian = None
    if family.kind == "gaussian":
        gaussian = (*gaussian_z_coefficients(mom, gamma), mom.weight_sum, mom.weighted_x)

    def diagnostics(it, loss, r_sq, u_r, steps, started):
        # one <r, r> gives the quadratic term, the primal residual and,
        # since y_new - y = -gamma * r, the dual step (row 0 took no step)
        primal = math.sqrt(r_sq)
        return TraceRow(
            iteration=it,
            lagrangian=_lagrangian(model, gamma, loss, pen, r_sq, u_r),
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

    # the sweep buffers (see the module docstring): recon holds the
    # reconstruction, the residual and then the next target; spare and z
    # trade places
    recon = np.empty_like(z)
    spare = np.empty_like(z)
    newton_steps: list[int] = []

    started = time.perf_counter()
    r = reconstruct(model, out=recon)
    r -= z
    row = diagnostics(0, loss_value(family, mom, z), frob_inner(r, r), frob_inner(u, r),
                      (0.0,) * 4, started)
    trace.append(row)
    initial_lagr = row.lagrangian
    guard = _DIVERGENCE_FACTOR * (abs(initial_lagr) + 1.0)
    target = np.add(z, u, out=recon)  # afterwards, each sweep's tail forms it

    # Working copies of the moduli.  Unless fixed_moduli pins them, they are
    # refreshed from the current state inside the sweep: the coupling is
    # exactly quadratic in each block, so a bound computed at the block's
    # own evaluation point guarantees a descent step, while stale bounds
    # understate the curvature once factor norms drift.
    rho_factors = list(moduli.factors)
    rho_core = moduli.core
    refresh = not config.fixed_moduli
    # the factor Grams U_t^T U_t, each formed once after its factor's update
    # and shared by the later factor steps and both core steps
    grams = _grams(model)

    converged = False
    reason = "max_iters"
    for k in range(1, config.max_iters + 1):
        # the coupling gradient is gamma * (recon - target), in core space.
        # The chain's links are target x_{t>n} U_t^T with the old factors,
        # built from the last mode down, so factor n pops its own link from
        # the end (freeing it once used) and contracts it with the updated
        # U_t^T, t < n.  Only the first link and the last factor's first
        # product read a prod(I) tensor.
        suffix = [target]
        for n in range(n_modes - 1, 0, -1):
            suffix.append(n_mode_product(suffix[-1], model.factors[n].T, n))
        factor_sq = 0.0
        core_sum = model.core_g + model.core_h
        for n in range(n_modes):
            if refresh:
                rho_factors[n] = _factor_modulus(gamma, core_sum, u_norms, n)
            projected = suffix.pop()
            for t in range(n):
                projected = n_mode_product(projected, model.factors[t].T, t)
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
        projected = n_mode_product(projected, model.factors[-1].T, n_modes - 1)
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
        reconstruct(model, out=recon)
        if gaussian is None:
            try:
                z_new = update_z(recon, z, u, gamma, family, mom, omega,
                                 z_floor=config.z_floor, out=spare, steps=newton_steps)
            except SolverAbort as exc:
                raise SolverAbort(f"{exc} at iteration {k}", trace) from exc
        else:
            z_new = spare  # the tail forms the closed-form z step block by block
        dz_sq, r_sq, u_r, quad = _sweep_tail(recon, z, z_new, u, gaussian)
        spare, z = z, z_new
        if gaussian is None:
            loss = loss_value(family, mom, z)
        else:  # loss_value's gaussian formula, from the tail's sum
            loss = (quad + mom.x2_total) / mom.count

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
        if row.primal_residual <= tol_primal and block_step <= config.tol_step:
            converged = True
            reason = "tolerance"
            break

    log.info(
        "solve finished after %d iterations (%s); primal residual %.3e",
        trace.rows[-1].iteration,
        reason,
        trace.rows[-1].primal_residual,
    )
    u *= gamma  # back to the unscaled dual y, in place
    return SolverResult(
        model=model, z=z, trace=trace, y=u, config=config,
        moduli=Moduli(gamma, rho_core, tuple(rho_factors)), converged=converged,
        reason=reason, degenerate=mom.degenerate, newton_steps=tuple(newton_steps),
    )
