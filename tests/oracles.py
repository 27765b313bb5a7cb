"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain index loops straight from the
defining formulas, deliberately sharing no code with the package.  The
exceptions are the last two sections: the z step's earlier whole-array
forms (``loss_gradient_reference``, ``loss_curvature_reference``,
``bernoulli_loss_reference`` and ``newton_z_reference``), against which
the package's one-pass forms are checked, and helpers that only the tests
call, kept here rather than in the package (``vec``, ``fold``,
``similarity_ones``, ``neighbors``, ``smoothing_weights`` and
``per_cell_moments``).
"""

import itertools
import logging
import math
import re
from pathlib import Path

import numpy as np
from scipy.special import expit

from dcot.losses import _GAMMA_EPSILON, _POISSON_FLOOR, ObservationSet, loss_curvature_min
from dcot.similarity import Moments, ModeSimilarity, SimilarityModel, _check_omega
from dcot.tensor import _check_mode


def col_index(idx, mode, shape):
    """Column of entry ``idx`` in the mode-``mode`` matricization.

    Remaining modes enumerate first-remaining-mode fastest:
    ``sum_{k != mode} i_k * prod_{m < k, m != mode} I_m``.
    """
    col = 0
    stride = 1
    for k in range(len(shape)):
        if k == mode:
            continue
        col += idx[k] * stride
        stride *= shape[k]
    return col


def matricize_oracle(t, mode):
    t = np.asarray(t, dtype=float)
    shape = t.shape
    cols = 1
    for k, s in enumerate(shape):
        if k != mode:
            cols *= s
    out = np.zeros((shape[mode], cols))
    for idx in itertools.product(*(range(s) for s in shape)):
        out[idx[mode], col_index(idx, mode, shape)] = t[idx]
    return out


def n_mode_oracle(t, u, mode):
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = list(t.shape)
    shape[mode] = u.shape[0]
    out = np.zeros(shape)
    for idx in itertools.product(*(range(s) for s in shape)):
        total = 0.0
        for j in range(t.shape[mode]):
            src = list(idx)
            src[mode] = j
            total += u[idx[mode], j] * t[tuple(src)]
        out[idx] = total
    return out


def multilinear_oracle(core, factors):
    core = np.asarray(core, dtype=float)
    shape = tuple(u.shape[0] for u in factors)
    out = np.zeros(shape)
    for idx in itertools.product(*(range(s) for s in shape)):
        total = 0.0
        for r in itertools.product(*(range(s) for s in core.shape)):
            term = core[r]
            for n in range(core.ndim):
                term *= factors[n][idx[n], r[n]]
            total += term
        out[idx] = total
    return out


def inner_oracle(a, b):
    total = 0.0
    for x, y in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        total += x * y
    return total


def central_difference(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar ``f`` at array ``x``."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        bump = np.zeros_like(xf)
        bump[i] = eps
        plus = f((xf + bump).reshape(x.shape))
        minus = f((xf - bump).reshape(x.shape))
        flat[i] = (plus - minus) / (2 * eps)
    return grad


def power_iteration_top_eigvec(gram, iters=500, seed=3):
    """Leading eigenvector of a symmetric PSD matrix by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return v
        v = w / norm
    return v


def power_iteration_oracle(a, iters=50, tol=1e-8):
    """Spectral-norm estimate by power iteration on the Gram matrix.

    The solver's estimate as first written (fresh start vector each call,
    ``np.linalg.norm`` each step), kept to check later rewrites against.
    Falls back to the Frobenius norm when the iteration does not settle.
    """
    return power_iteration_run(a, iters, tol)[0]


def power_iteration_run(a, iters=50, tol=1e-8):
    """``(estimate, step)`` of :func:`power_iteration_oracle`'s loop.

    ``step`` is the iteration that returned (the zero test or the settle
    test), ``0`` for empty or all-zero input, ``None`` for the fallback.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or not a.any():
        return 0.0, 0
    v = np.random.default_rng(0).standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for k in range(1, iters + 1):
        w = a.T @ (a @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0, k
        v = w / lam
        if abs(lam - prev) <= tol * max(lam, 1.0):
            return math.sqrt(lam), k
        prev = lam
    return float(np.linalg.norm(a)), None


def prox_objective(penalty_value_fn, q, point, t):
    return penalty_value_fn(q) + 0.5 * t * float(((q - point) ** 2).sum())


def rmse_oracle(z_hat, indices, values):
    total = 0.0
    for idx, v in zip(indices, values):
        total += (z_hat[tuple(idx)] - v) ** 2
    return math.sqrt(total / len(values))


def coo_text_oracle(indices, values, shape):
    """COO file text built one entry at a time, entries in lexicographic index order."""
    lines = ["# dims: " + " ".join(str(d) for d in shape)]
    for idx, v in sorted(zip(map(tuple, np.asarray(indices).tolist()), values)):
        lines.append(" ".join(str(int(i) + 1) for i in idx) + " " + repr(float(v)))
    return "\n".join(lines) + "\n"


def small_shapes(max_elems=64, max_modes=4):
    """Every shape with 1..max_modes modes, dims >= 1, product <= max_elems."""
    shapes = []

    def rec(prefix):
        if prefix:
            shapes.append(tuple(prefix))
        if len(prefix) == max_modes:
            return
        prod = 1
        for p in prefix:
            prod *= p
        d = 1
        while prod * d <= max_elems:
            rec(prefix + [d])
            d += 1

    rec([])
    return shapes


def residual_tensor(model, z, y, gamma):
    """The scaled coupling residual ``gamma * (recon - z - y / gamma)``.

    ``model`` only needs ``factors``, ``core_g`` and ``core_h`` attributes;
    the reconstruction is the loop oracle above.
    """
    recon = multilinear_oracle(model.core_g + model.core_h, model.factors)
    return gamma * (np.asarray(recon) - z) - y


def _project_residual(model, z, y, gamma, skip=None):
    m = residual_tensor(model, z, y, gamma)
    for t, u in enumerate(model.factors):
        if t != skip:
            m = n_mode_oracle(m, np.asarray(u).T, t)
    return m


def factor_gradient_oracle(model, z, y, gamma, mode):
    """Residual-space factor gradient: the residual projected through every
    other factor's transpose, matricized, times the core-sum matricization."""
    m = _project_residual(model, z, y, gamma, skip=mode)
    s = model.core_g + model.core_h
    return matricize_oracle(m, mode) @ matricize_oracle(s, mode).T


def core_gradient_oracle(model, z, y, gamma):
    """Residual-space core gradient: the residual projected onto the factors."""
    return _project_residual(model, z, y, gamma)


def sweep_tail_oracle(recon, z, z_new, u, gaussian=None):
    """The solver's sweep tail as separate whole-array steps, in place.

    The reference for ``solver._sweep_tail``, which forms the same steps
    block by block: the gaussian z step ``z_new = a + b * (recon - u)``
    (with ``gaussian = (a, b, w, m1)``), ``recon <- r = recon - z_new``,
    ``u <- u - r``, ``z <- z - z_new``, then the sums
    ``(||z - z_new||^2, ||r||^2, <u, r>, sum w z_new^2 - 2 <m1, z_new>)``
    and ``recon <- z_new + u``.
    """
    quad = 0.0
    if gaussian is not None:
        a, b, w, m1 = gaussian
        np.subtract(recon, u, out=z_new)
        z_new *= b
        z_new += a
        quad = float((w * z_new**2).sum()) - 2.0 * float((m1 * z_new).sum())
    r = np.subtract(recon, z_new, out=recon)
    u -= r
    np.subtract(z, z_new, out=z)
    sums = (float((z**2).sum()), float((r**2).sum()), float((u * r).sum()), quad)
    np.add(z_new, u, out=recon)
    return sums


def smoothing_moments_dense(sim, omega):
    """The all-at-once moments build that ``smoothing_moments`` replaced.

    Unlike the loop oracles above, this keeps the package's mode products:
    it pins the buffered build bitwise, so it must contract in the same
    order with the same matrix products.  It holds the indicator, value and
    squared-value tensors, the three moments and the masks at once.
    Returns ``(weight_sum, weighted_x, x2_total, degenerate)`` with a dense
    ``weight_sum``.
    """
    from dcot.tensor import multilinear_product

    indicator = np.zeros(sim.shape)
    x0 = np.zeros(sim.shape)
    x2 = np.zeros(sim.shape)
    idx = tuple(omega.indices.T)
    indicator[idx] = 1.0
    x0[idx] = omega.values
    x2[idx] = omega.values**2

    w = multilinear_product(indicator, sim._factors)
    m1 = multilinear_product(x0, sim._factors)
    m2 = multilinear_product(x2, sim._factors)

    bad = w <= 0.0
    n_bad = int(bad.sum())
    if n_bad:
        observed_bad = bad & (indicator > 0)
        unobserved_bad = bad & (indicator == 0)
        w[observed_bad] = 1.0
        m1[observed_bad] = x0[observed_bad]
        m2[observed_bad] = x2[observed_bad]
        w[unobserved_bad] = 1.0
        m1[unobserved_bad] = omega.values.mean()
        m2[unobserved_bad] = (omega.values**2).mean()
    ok = ~bad
    m1[ok] = m1[ok] / w[ok]
    m2[ok] = m2[ok] / w[ok]
    w[ok] = 1.0
    return w, m1, float(m2.sum()), n_bad


_COO_DIMS_RE = re.compile(r"#\s*dims\s*:\s*(.*)$")


def read_coo_oracle(path):
    """``io.read_coo`` before it streamed its input.

    It reads the whole file as text, splits it with ``str.splitlines`` and
    parses every stripped entry line in one ``np.loadtxt`` call; a file that
    fails, or that may hold a second dims header, is walked line by line to
    name its first faulty line.  The reference for the files ``read_coo``
    accepts and the messages it gives.
    """
    from dcot.io import DataIOError
    from dcot.losses import ObservationSet

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    dims, start = _coo_dims_header(path, lines)
    entries = [line for line in map(str.strip, lines[start:]) if line and line[0] != "#"]
    try:
        rows = _coo_parse(entries, len(dims))
        omega = ObservationSet(rows["i"] - 1, rows["v"], dims)
    except ValueError as exc:
        raise _coo_first_fault(path, lines, start, dims) or DataIOError(f"{path}: {exc}") from exc
    if len(re.findall(r"#\s*dims\s*:", text)) > 1:
        fault = _coo_first_fault(path, lines, start, dims)
        if fault is not None:
            raise fault
    return omega


def _coo_dims_header(path, lines):
    from dcot.io import DataIOError

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise DataIOError(f"{path}:{lineno}: entry before '# dims:' header")
        m = _COO_DIMS_RE.match(line)
        if m:
            try:
                dims = tuple(int(tok) for tok in m.group(1).split())
            except ValueError as exc:
                raise DataIOError(f"{path}:{lineno}: bad dims header") from exc
            if not dims or any(d < 1 for d in dims):
                raise DataIOError(f"{path}:{lineno}: dims must be positive")
            return dims, lineno
    raise DataIOError(f"{path}: missing '# dims:' header")


def _coo_parse(lines, n_modes):
    dtype = [("i", "i8", (n_modes,)), ("v", "f8")]
    if not lines:
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)


def _coo_parsed_prefix(entries, n_modes):
    try:
        return _coo_parse(entries, n_modes)
    except ValueError:
        pass
    good, bad = 0, len(entries)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _coo_parse(entries[good:mid], n_modes)
            good = mid
        except ValueError:
            bad = mid
    return _coo_parse(entries[:good], n_modes)


def _coo_first_fault(path, lines, start, dims):
    from dcot.io import DataIOError

    numbered = [(lineno, line) for lineno, line in
                enumerate(map(str.strip, lines[start:]), start=start + 1) if line]
    parsed = _coo_parsed_prefix([line for _, line in numbered if line[0] != "#"], len(dims))
    rows = zip(parsed["i"].tolist(), parsed["v"].tolist())
    seen = {}
    for lineno, line in numbered:
        where = f"{path}:{lineno}"
        if line[0] == "#":
            if _COO_DIMS_RE.match(line):
                return DataIOError(f"{where}: duplicate dims header")
            continue
        row = next(rows, None)
        if row is None:
            tokens = line.split()
            if len(tokens) != len(dims) + 1:
                return DataIOError(
                    f"{where}: expected {len(dims)} indices and a value, "
                    f"got {len(tokens)} fields"
                )
            return DataIOError(f"{where}: unparseable entry")
        idx, value = tuple(row[0]), row[1]
        if not math.isfinite(value):
            return DataIOError(f"{where}: value {line.split()[-1]} is not finite")
        if any(not 1 <= i <= d for i, d in zip(idx, dims)):
            return DataIOError(f"{where}: index {idx} out of range for {dims}")
        if idx in seen:
            return DataIOError(
                f"{where}: duplicate index {idx} (first seen on line {seen[idx]})"
            )
        seen[idx] = lineno
    return None


# ---------------------------------------------------------------------------
# The z step's earlier whole-array forms, kept as references: one array
# expression per family, scipy's ``expit`` and numpy's ``logaddexp`` for
# bernoulli, and a Newton solve that recomputes the gradient and the
# curvature separately and selects its brackets by the gradient's sign.


def loss_gradient_reference(family, mom, z):
    """Elementwise gradient of the smoothed loss, one expression per family."""
    z = np.asarray(z, dtype=float)
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


def loss_curvature_reference(family, mom, z):
    """Elementwise second derivative of the smoothed loss, one expression per family."""
    z = np.asarray(z, dtype=float)
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


def bernoulli_loss_reference(mom, z):
    """The bernoulli smoothed loss with ``log(1 + exp(z))`` from ``np.logaddexp``."""
    total = mom.weight_sum * np.logaddexp(0.0, z) - mom.weighted_x * z
    return float(total.sum()) / mom.count


def newton_z_reference(family, mom, omega, center, gamma, z0, z_floor=1e-6):
    """``dcot.solver.newton_z`` in whole-array expressions that allocate per step.

    Returns the solution, the number of Newton steps and the number of
    cell-steps that bisected instead of taking the Newton step.
    """
    mu = gamma + loss_curvature_min(family, mom, z_floor)
    assert np.all(mu > 0)
    floor = z_floor if family.bounded else -np.inf
    scale = float(np.sqrt(np.mean(omega.values**2))) if len(omega) else 1.0
    tol = 1e-8 * max(1.0, scale)
    rounding = 8.0 * np.finfo(float).eps * gamma

    def gradient(zz):
        return loss_gradient_reference(family, mom, zz) + gamma * (zz - center)

    z = np.maximum(np.asarray(z0, dtype=float), floor)
    grad = gradient(z)
    reach = grad / mu
    lo = np.maximum(z - np.maximum(reach, 0.0), floor)
    hi = z - np.minimum(reach, 0.0)
    bisected = 0
    for k in range(100):
        projected = np.maximum(-grad, grad * (z > floor))
        allowed = rounding * (np.abs(z) + np.abs(center))
        achieved = float((projected - allowed).max()) - tol
        assert math.isfinite(achieved)
        if achieved <= 0.0:
            return z, k, bisected
        lo = np.where(grad < 0, z, lo)
        hi = np.where(grad > 0, z, hi)
        hess = loss_curvature_reference(family, mom, z) + gamma
        step = np.maximum(z - grad / hess, floor)
        newton = (hess > 0) & (step >= lo) & (step <= hi)
        bisected += int(newton.size - newton.sum())
        z = np.where(newton, step, 0.5 * (lo + hi))
        grad = gradient(z)
    raise AssertionError("the reference Newton solve did not converge")


# ---------------------------------------------------------------------------
# Test-only helpers over the package's own data structures.

log = logging.getLogger("dcot.similarity")


def vec(t: np.ndarray) -> np.ndarray:
    """Vectorize a tensor in first-mode-fastest (Fortran) order."""
    return np.asarray(t, dtype=float).ravel(order="F")


def fold(m: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``dcot.tensor.matricize`` for the target ``shape``."""
    m = np.asarray(m, dtype=float)
    shape = tuple(int(s) for s in shape)
    _check_mode(mode, len(shape))
    rest = [shape[k] for k in range(len(shape)) if k != mode]
    expected = (shape[mode], math.prod(rest) if rest else 1)
    if m.shape != expected:
        raise ValueError(
            f"cannot fold a {m.shape} matrix into shape {shape} along mode "
            f"{mode}; expected a {expected} matrix"
        )
    return np.moveaxis(m.reshape([shape[mode]] + rest, order="F"), 0, mode)


def similarity_ones(shape) -> SimilarityModel:
    """Uniform weights: every observed source counts equally."""
    modes = [
        ModeSimilarity(s=np.ones((int(n), int(n))), c=np.ones((int(n), int(n))))
        for n in shape
    ]
    return SimilarityModel(per_mode=modes)


def neighbors(sim: SimilarityModel, mode: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Retained neighbor indices and factors, sorted by descending weight."""
    row = sim._factors[mode][index]
    nz = np.flatnonzero(row > 0)
    order = np.lexsort((nz, -row[nz]))
    return nz[order], row[nz][order]


def smoothing_weights(
    sim: SimilarityModel, target, omega: ObservationSet
) -> list[tuple[tuple[int, ...], float]]:
    """Weights of the observed sources for one target cell.

    Returns ``(source index, weight)`` pairs for the sources with nonzero
    weight, normalized to sum to one.  A target whose every raw weight
    vanishes falls back to weight one on its own entry when observed,
    otherwise to uniform weights over the observed set (logged).
    """
    _check_omega(sim, omega)
    target = tuple(int(i) for i in target)
    if len(target) != len(sim.shape) or any(
        not 0 <= t < s for t, s in zip(target, sim.shape)
    ):
        raise ValueError(f"target {target} out of range for shape {sim.shape}")
    w = np.ones(len(omega))
    for mode, f in enumerate(sim._factors):
        w = w * f[target[mode], omega.indices[:, mode]]
    total = w.sum()
    if total <= 0.0:
        log.info("degenerate smoothing weights at target %s; using fallback", target)
        own = np.flatnonzero((omega.indices == np.array(target)).all(axis=1))
        w = np.zeros(len(omega))
        if own.size:
            w[own[0]] = 1.0
        else:
            w[:] = 1.0 / len(omega)
    else:
        w = w / total
    keep = np.flatnonzero(w > 0)
    return [(tuple(int(v) for v in omega.indices[j]), float(w[j])) for j in keep]


def per_cell_moments(rng, omega: ObservationSet) -> tuple[Moments, np.ndarray]:
    """Moments of explicit pair weights ``W[t, j] >= 0``, not normalized.

    ``smoothing_moments`` always normalizes; this builds the dense,
    non-uniform ``weight_sum`` that a per-cell weight gives the loss
    functions.  About a third of the pairs weigh zero and the first target
    cell pools no source at all.  Returns the moments and ``W``, of shape
    ``omega.shape + (len(omega),)``.
    """
    size = omega.shape + (len(omega),)
    w = rng.uniform(0.1, 2.0, size) * (rng.random(size) < 0.7)
    w[(0,) * len(omega.shape)] = 0.0
    x = omega.values
    moments = Moments(weight_sum=w.sum(axis=-1), weighted_x=w @ x,
                      x2_total=float((w @ x**2).sum()), count=math.prod(omega.shape))
    return moments, w
