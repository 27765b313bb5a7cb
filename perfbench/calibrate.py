"""Machine-speed calibration for the timing metrics.

On a shared machine the CPU speed a run gets drifts by a quarter or more
from one run to the next, and the drift moves every timing of the run
together.  Just before each timed sample the harness times fixed kernels
that run no dcot code, and scales the run's medians by the ratio of the
kernels' reference time to their median time in the run.  Timings then
read as seconds on a machine where each kernel takes ``REFERENCE_S``; the
raw wall times stay in the run record.

Interpreter-bound, BLAS-bound and scipy-bound code do not slow down alike,
so there is one kernel per kind of work the ops do: solver-like algebra on
60^3 tensors (a Tucker reconstruction, a masked residual and its norm, a
core-space contraction), parsing of COO-like text lines (what ``dcot
complete`` spends most of its time on), and a few L-BFGS-B iterations on a
separable logistic objective (what a non-gaussian ``z`` step does).  Each
workload names the kinds its ops do; on a shared 2-core x86-64 machine
those sets tracked the ops' speed better than any one kernel for all.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.optimize

REFERENCE_S = 0.015  # per kernel part

_rng = np.random.default_rng(3)
_CORE = _rng.standard_normal((3, 3, 3))
_FACTORS = [_rng.standard_normal((60, 3)) for _ in range(3)]
_Z, _Y = _rng.standard_normal((2, 60, 60, 60))
_MASK = _rng.random((60, 60, 60)) < 0.5
_LINES = [
    f"{i} {j} {k} {float(v)!r}"
    for i, j, k, v in zip(*_rng.integers(1, 61, (3, 7500)), _rng.standard_normal(7500))
]
_SLOPE = _rng.standard_normal(27000)
_LABEL = (_rng.random(27000) < 0.5).astype(float)


def _logistic(x):
    ax = _SLOPE * x
    value = np.logaddexp(0.0, ax) - _LABEL * ax + 0.5 * x * x
    return float(value.sum()), _SLOPE * (1.0 / (1.0 + np.exp(-ax)) - _LABEL) + x


def _algebra():
    for _ in range(6):
        recon = np.einsum("abc,ia,jb,kc->ijk", _CORE, *_FACTORS, optimize=True)
        resid = recon - _Z - 0.5 * _Y
        np.einsum("ijk,jb,kc->ibc", resid, *_FACTORS[1:], optimize=True)
        masked = np.where(_MASK, resid, 0.0)
        np.sqrt(np.vdot(masked, masked))


def _text():
    parsed = {}
    for line in _LINES:
        toks = line.split()
        parsed[tuple(int(t) for t in toks[:-1])] = float(toks[-1])


def _lbfgs():
    scipy.optimize.minimize(_logistic, np.zeros(_SLOPE.size), jac=True, method="L-BFGS-B",
                            options={"maxiter": 6, "gtol": 0.0, "ftol": 0.0})


PARTS = {"algebra": _algebra, "text": _text, "lbfgs": _lbfgs}


def sample(parts: tuple[str, ...]) -> dict[str, float]:
    """Wall time of each of ``parts``, run once each (about 15 ms apiece)."""
    times = {}
    for name in parts:
        t0 = time.perf_counter()
        PARTS[name]()
        times[name] = time.perf_counter() - t0
    return times


def speed_scale(samples: list[dict[str, float]], parts: tuple[str, ...]) -> float:
    """``REFERENCE_S`` per part over the median time of ``parts`` together."""
    return REFERENCE_S * len(parts) / statistics.median(
        sum(s[p] for p in parts) for s in samples)
