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

Besides ``z`` and ``u``, a solve allocates two dense buffers once:
``recon`` holds the target, then the reconstruction (the sweep's only
one, for the z step), then the residual ``r = recon - z``; ``spare``
receives the next ``z`` and trades places with the old one, which holds
the z step ``z - z_new`` in between.  On the gaussian path no sweep
allocates another ``prod(I)`` array.  The dual step, the Lagrangian and
the primal residual share ``r`` and one ``<r, r>``, and the trace one loss
evaluation.  The returned dual is ``y = gamma * u``, formed in place.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .losses import (
    LossFamily,
    ObservationSet,
    initial_fill,
    loss_curvature,
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
_NEWTON_MAX_INNER = 100
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
    """Solver knobs; unset moduli/tolerances are estimated from the problem.

    ``gamma`` is lifted to at least ``2.1 * L_F`` (the loss gradient's
    Lipschitz bound) by :func:`estimate_moduli`; per-block moduli default
    to ``lipschitz_safety`` times the spectral-norm bound of each block's
    coupling curvature.  By default they are refreshed from the current
    state block by block inside every sweep (stale moduli can understate
    the curvature when factor norms drift and send the sweep uphill).
    ``fixed_moduli`` pins them to the initial estimate for the whole run.
    ``z_floor`` is the lower bound on ``z`` for the bounded families
    (``LossFamily.bounded``); the z block itself has no knobs, since it is
    solved exactly (see :func:`update_z`).
    """

    gamma: float = 0.0
    rho_g: float | None = None
    rho_h: float | None = None
    rho_factors: tuple[float, ...] | None = None
    penalties: BlockPenalties = field(default_factory=BlockPenalties)
    max_iters: int = 500
    tol_primal: float | None = None
    tol_step: float = 1e-8
    lipschitz_safety: float = 1.1
    fixed_moduli: bool = False
    z_floor: float = 1e-6
    freeze_h: bool = False

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        # moduli below the Lipschitz bound void the descent step
        if self.lipschitz_safety < 1:
            raise ValueError("lipschitz_safety must be at least 1")
        named = [(n, getattr(self, n)) for n in ("rho_g", "rho_h", "z_floor")]
        for name, value in named + [("rho_factors", r) for r in self.rho_factors or ()]:
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")
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
class SolverResult:
    model: DcotModel
    z: np.ndarray
    trace: ConvergenceTrace
    y: np.ndarray
    config: SolverConfig
    converged: bool
    reason: str


def _grams(model: DcotModel, skip: int | None = None) -> list[np.ndarray | None]:
    """Factor Gram matrices ``U_t^T U_t``, with ``None`` at mode ``skip``."""
    return [None if t == skip else u.T @ u for t, u in enumerate(model.factors)]


def factor_gradient(model: DcotModel, projected, gamma: float, mode: int) -> np.ndarray:
    """Gradient of the coupling term with respect to factor ``mode``.

    ``projected`` is the sweep's target ``T = z + y / gamma`` contracted
    with the transpose of every other factor, ``T x_{t!=n} U_t^T``.  In
    core space the gradient is
    ``gamma * (U_n [S x_{t!=n} U_t^T U_t]_(n) - projected_(n)) S_(n)^T``
    with ``S = core_g + core_h``: the reconstruction never appears.
    """
    s = model.core_g + model.core_h
    gram = multilinear_product(s, _grams(model, skip=mode))
    inner = model.factors[mode] @ matricize(gram, mode)
    inner -= matricize(projected, mode)
    return gamma * (inner @ matricize(s, mode).T)


def core_gradient(model: DcotModel, projected, gamma: float) -> np.ndarray:
    """Gradient of the coupling term w.r.t. either core (they coincide).

    ``gamma * (S x_1 U_1^T U_1 ... x_N U_N^T U_N - P)`` with
    ``S = core_g + core_h`` and ``P = project_core(T, factors)`` for the
    target ``T = z + y / gamma``: the adjoint factor maps applied to
    ``gamma * (recon - T)``, in core space.
    """
    s = model.core_g + model.core_h
    grad = multilinear_product(s, _grams(model))
    grad -= projected
    grad *= gamma
    return grad


def update_factor(
    model: DcotModel, projected, gamma: float, mode: int, rho: float, penalty: Penalty
) -> np.ndarray:
    """One linearized proximal step on factor ``mode``.

    ``projected`` is the target contracted on every other mode, as for
    :func:`factor_gradient`.
    """
    if rho <= 0:
        raise ValueError("factor modulus must be positive")
    grad = factor_gradient(model, projected, gamma, mode)
    return prox_apply(penalty, model.factors[mode] - grad / rho, rho)


def update_cores(
    model: DcotModel,
    projected,
    gamma: float,
    rho_g: float,
    rho_h: float,
    penalty_g: Penalty,
    penalty_h: Penalty,
    *,
    freeze_h: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximal steps on both cores, with the subject core tied afterwards.

    ``projected`` is ``project_core(T, model.factors)`` for the target
    ``T = z + y / gamma``.  The factors do not move between the two steps,
    so both share it; the subject core's gradient is recomputed after the
    shared core's update (Gauss-Seidel order).  With ``freeze_h`` only the
    shared core moves and ``model.core_h`` is returned as it is.
    """
    if rho_g <= 0 or rho_h <= 0:
        raise ValueError("core moduli must be positive")
    g_new = prox_apply(
        penalty_g, model.core_g - core_gradient(model, projected, gamma) / rho_g, rho_g
    )
    if freeze_h:
        return g_new, model.core_h
    work = replace(model, core_g=g_new)
    h_new = prox_apply(
        penalty_h, work.core_h - core_gradient(work, projected, gamma) / rho_h, rho_h
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
    coefficients: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve the z block: smoothed loss plus the quadratic coupling.

    The proximal center is ``recon - u`` for the scaled dual
    ``u = y / gamma``; it is formed in ``out`` when that is given.  For the
    gaussian family the minimizer is the elementwise closed form
    ``a + b * center``, with ``coefficients`` from
    :func:`gaussian_z_coefficients` (built here when not given), computed
    in place, so ``out`` is returned.  Other families go to
    :func:`newton_z`, warm-started at ``z`` (``omega`` scales its
    tolerance), which returns a new array.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    center = np.subtract(recon, u, out=out)
    if family.kind == "gaussian":
        if coefficients is None:
            coefficients = gaussian_z_coefficients(mom, gamma)
        a, b = coefficients
        center *= b
        center += a
        return center
    return newton_z(family, mom, omega, center, gamma, z, z_floor=z_floor)


def newton_z(
    family: LossFamily,
    mom: Moments,
    omega: ObservationSet,
    center: np.ndarray,
    gamma: float,
    z0: np.ndarray,
    *,
    z_floor: float = 1e-6,
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
    it); one step is exact for the gaussian family.

    Raises :class:`SolverAbort` naming the z block when the gradient turns
    non-finite or the tolerance is not met within a fixed iteration cap.
    """
    mu = gamma + loss_curvature_min(family, mom, z_floor)
    if not np.all(mu > 0):
        raise ValueError(
            f"gamma {gamma:.3e} does not make the {family.kind} z subproblem "
            "strongly convex"
        )
    floor = z_floor if family.bounded else -np.inf
    scale = float(np.sqrt(np.mean(omega.values**2))) if len(omega) else 1.0
    tol = 1e-8 * max(1.0, scale)
    rounding = 8.0 * np.finfo(float).eps * gamma

    def gradient(zz):
        return loss_gradient(family, mom, zz) + gamma * (zz - center)

    z = np.maximum(np.asarray(z0, dtype=float), floor)
    grad = gradient(z)
    reach = grad / mu
    lo = np.maximum(z - np.maximum(reach, 0.0), floor)
    hi = z - np.minimum(reach, 0.0)
    del reach, mu
    for _ in range(_NEWTON_MAX_INNER):
        # a cell on the floor with a positive gradient is optimal; what is
        # left is compared with the cell's tolerance
        projected = np.maximum(-grad, grad * (z > floor))
        allowed = rounding * (np.abs(z) + np.abs(center))
        achieved = float((projected - allowed).max()) - tol
        del projected, allowed
        if not math.isfinite(achieved):
            raise SolverAbort("z block: the gradient is not finite")
        if achieved <= 0.0:
            return z
        lo = np.where(grad < 0, z, lo)
        hi = np.where(grad > 0, z, hi)
        hess = loss_curvature(family, mom, z) + gamma
        step = np.maximum(z - grad / hess, floor)
        newton = (hess > 0) & (step >= lo) & (step <= hi)
        z = np.where(newton, step, 0.5 * (lo + hi))
        grad = gradient(z)
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
    value = loss
    value += penalty_value(penalties.g, model.core_g)
    value += penalty_value(penalties.h, model.core_h)
    for u_n in model.factors:
        value += penalty_value(penalties.factors, u_n)
    value -= gamma * frob_inner(u, r)
    value += 0.5 * gamma * r_sq
    return value


@functools.cache
def _power_start(n: int) -> np.ndarray:
    """Read-only unit start vector of the power iteration on ``n`` columns."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


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
    the sequence has not settled within the budget it falls back to the
    Frobenius norm (a valid upper bound).  That happens often: on the
    benchmark's gauss-dense problem (60^3, ranks 3, 150 iterations) 450 of
    909 calls, every one a 60 x 3 factor norm, fell back, at up to 72 %
    above the exact 2-norm, which inflates the moduli built from them.
    Exact norms change the solver's answers and its stopping iteration, so
    they are a change of their own.

    Input with a non-finite entry returns its Frobenius norm (``inf`` or
    ``nan``), as the loop did, without calling LAPACK: ``np.linalg.svd``
    may never return on an ``inf`` entry.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not a.any():
        return 0.0
    if not np.isfinite(a).all():
        return float(np.linalg.norm(a))
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    v = _power_start(a.shape[1])
    q = np.empty(iters + 1)
    q[0] = v @ v
    q[1:] = (s / s[0]) ** (4 * np.arange(1, iters + 1))[:, None] @ (vt @ v) ** 2
    lam = np.zeros(iters + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam[1:] = np.sqrt(s[0] ** 4 * (q[1:] / q[:-1]))
        step = abs(lam[1:] - lam[:-1])
    settled = np.flatnonzero(step <= tol * np.maximum(lam[1:], 1.0))
    if not settled.size:
        return float(np.linalg.norm(a))
    return math.sqrt(lam[settled[0] + 1])


def _factor_modulus(
    gamma: float, core_sum: np.ndarray, u_norms: list[float], mode: int, safety: float
) -> float:
    """Modulus of factor ``mode``, floored away from zero.

    ``safety * gamma`` times the squared spectral bound of its coupling map:
    the core-sum matricization times the other factors' norms.
    """
    others = math.prod(u_norms[:mode] + u_norms[mode + 1 :])
    bound = gamma * (_spectral_norm(matricize(core_sum, mode)) * others) ** 2
    return max(bound * safety, _MODULI_FLOOR)


def _core_modulus(gamma: float, u_norms: list[float], safety: float) -> float:
    """Modulus of either core: ``safety * gamma * prod(factor norms)^2``, floored."""
    return max(gamma * math.prod(u_norms) ** 2 * safety, _MODULI_FLOOR)


def estimate_moduli(
    model: DcotModel, config: SolverConfig, family: LossFamily, mom: Moments
) -> SolverConfig:
    """Fill unset step parameters from the current state.

    ``gamma`` becomes ``max(config.gamma, 2.1 * L_F)``.  Each block's
    modulus is ``gamma`` times the squared spectral-norm bound of its
    coupling map (core-sum matricization times the other factors for a
    factor block, the product of all factor norms for the cores),
    multiplied by ``lipschitz_safety`` and floored away from zero.
    Explicitly set moduli are kept.
    """
    lf = loss_lipschitz(family, mom, z_min=config.z_floor)
    gamma = max(config.gamma, 2.0 * lf * 1.05)
    safety = config.lipschitz_safety
    u_norms = [_spectral_norm(u) for u in model.factors]
    s = model.core_g + model.core_h
    rho_factors = config.rho_factors or [
        _factor_modulus(gamma, s, u_norms, n, safety) for n in range(len(model.factors))
    ]
    rho_core = _core_modulus(gamma, u_norms, safety)
    return replace(
        config,
        gamma=gamma,
        rho_g=config.rho_g if config.rho_g is not None else rho_core,
        rho_h=config.rho_h if config.rho_h is not None else rho_core,
        rho_factors=tuple(rho_factors),
    )


def solve(
    omega: ObservationSet,
    init: DcotModel,
    family: LossFamily,
    sim: SimilarityModel,
    config: SolverConfig,
) -> SolverResult:
    """Run the full block sweep until tolerance or the iteration budget.

    Returns the final model, estimate ``z``, dual variable, per-iteration
    trace, and the effective configuration (estimated moduli filled in).
    """
    family.validate_observations(omega)
    if omega.shape != tuple(u.shape[0] for u in init.factors):
        raise ValueError("initial model shape does not match the data shape")
    if config.rho_factors is not None and len(config.rho_factors) != len(init.factors):
        raise ValueError("need one factor modulus per mode")
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

    cfg = estimate_moduli(model, config, family, mom)
    gamma = cfg.gamma
    u /= -gamma  # the scaled dual y / gamma, starting from y = -grad F(z)
    tol_primal = cfg.tol_primal
    if tol_primal is None:
        tol_primal = 1e-6 * float(np.linalg.norm(omega.values))
    pen = cfg.penalties
    n_modes = len(model.factors)

    trace = ConvergenceTrace()
    coefficients = (
        gaussian_z_coefficients(mom, gamma) if family.kind == "gaussian" else None
    )

    def diagnostics(it, z, u, r, steps, started):
        # one <r, r> gives the quadratic term, the primal residual and,
        # since y_new - y = -gamma * r, the dual step (row 0 took no step)
        r_sq = frob_inner(r, r)
        primal = math.sqrt(r_sq)
        loss = loss_value(family, mom, z)
        return TraceRow(
            iteration=it,
            lagrangian=lagrangian_value(model, r, u, gamma, loss, pen, r_sq),
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

    # the sweep buffers (see the module docstring): recon holds the target,
    # the reconstruction and then the residual; spare and z trade places
    recon = np.empty_like(z)
    spare = np.empty_like(z)

    started = time.perf_counter()
    r = reconstruct(model, out=recon)
    r -= z
    row = diagnostics(0, z, u, r, (0.0,) * 4, started)
    trace.append(row)
    initial_lagr = row.lagrangian
    guard = _DIVERGENCE_FACTOR * (abs(initial_lagr) + 1.0)

    # Working copies of the moduli.  Unless pinned (fixed mode or explicit
    # values), they are refreshed from the current state inside the sweep:
    # the coupling is exactly quadratic in each block, so a bound computed
    # at the block's own evaluation point guarantees a descent step, while
    # stale bounds understate the curvature once factor norms drift.
    rho_factors = list(cfg.rho_factors)
    rho_g, rho_h = cfg.rho_g, cfg.rho_h
    refresh_factors = not cfg.fixed_moduli and config.rho_factors is None
    refresh_g = not cfg.fixed_moduli and config.rho_g is None
    refresh_h = not cfg.fixed_moduli and config.rho_h is None
    u_norms = [_spectral_norm(u_n) for u_n in model.factors]
    safety = cfg.lipschitz_safety

    converged = False
    reason = "max_iters"
    for k in range(1, cfg.max_iters + 1):
        # the coupling gradient is gamma * (recon - target), in core space
        target = np.add(z, u, out=recon)
        # the chain's links are target x_{t>n} U_t^T with the old factors,
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
            if refresh_factors:
                rho_factors[n] = _factor_modulus(gamma, core_sum, u_norms, n, safety)
            projected = suffix.pop()
            for t in range(n):
                projected = n_mode_product(projected, model.factors[t].T, t)
            u_new = update_factor(
                model, projected, gamma, n, rho_factors[n], pen.factors
            )
            check_finite(f"factor {n}", u_new, k)
            factor_sq += float(((u_new - model.factors[n]) ** 2).sum())
            model.factors[n] = u_new
            u_norms[n] = _spectral_norm(u_new)
        # the last factor's input, contracted with its update, is
        # project_core(target, factors) in project_core's own order
        projected = n_mode_product(projected, model.factors[-1].T, n_modes - 1)
        rho_core = _core_modulus(gamma, u_norms, safety)
        if refresh_g:
            rho_g = rho_core
        if refresh_h:
            rho_h = rho_core
        g_old, h_old = model.core_g, model.core_h
        g_new, h_new = update_cores(
            model, projected, gamma, rho_g, rho_h, pen.g, pen.h, freeze_h=cfg.freeze_h
        )
        check_finite("core_g", g_new, k)
        check_finite("core_h", h_new, k)
        model.core_g, model.core_h = g_new, h_new
        reconstruct(model, out=recon)
        try:
            z_new = update_z(recon, z, u, gamma, family, mom, omega,
                             z_floor=cfg.z_floor, coefficients=coefficients, out=spare)
        except SolverAbort as exc:
            raise SolverAbort(f"{exc} at iteration {k}", trace) from exc
        r = np.subtract(recon, z_new, out=recon)
        update_dual(r, u)
        z_step = frob_norm(np.subtract(z, z_new, out=z))

        steps = (
            z_step,
            math.sqrt(factor_sq),
            frob_norm(g_new - g_old),
            frob_norm(h_new - h_old),
        )
        spare, z = z, z_new
        row = diagnostics(k, z, u, r, steps, started)
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
        if row.primal_residual <= tol_primal and block_step <= cfg.tol_step:
            converged = True
            reason = "tolerance"
            break

    log.info(
        "solve finished after %d iterations (%s); primal residual %.3e",
        trace.rows[-1].iteration,
        reason,
        trace.rows[-1].primal_residual,
    )
    effective = replace(cfg, rho_g=rho_g, rho_h=rho_h, rho_factors=tuple(rho_factors))
    u *= gamma  # back to the unscaled dual y, in place
    return SolverResult(
        model=model, z=z, trace=trace, y=u, config=effective, converged=converged,
        reason=reason,
    )
