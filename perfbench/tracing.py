"""Outside-in span recording for the traced benchmark run.

The traced run replaces selected functions, in the namespace their caller
looks them up in, by thin wrappers that record a span per call: name,
start, end, parent span and op id.  Spans stay in memory and are written
out once, when the run ends.  Wrappers only observe; the benchmark checks
that traced and untraced runs produce bitwise-identical fingerprints.

A target that no longer exists is reported as absent instead of failing,
so refactors that delete or fuse solver functions keep the benchmark
running.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name).  The solver's callees are wrapped in
# ``dcot.solver`` because that is where ``solve`` and the block updates
# look them up; the CLI's callees likewise in ``dcot.cli`` / ``dcot.io``.
TARGETS = (
    ("dcot.solver", "update_factor", "solver.update_factor"),
    ("dcot.solver", "update_cores", "solver.update_cores"),
    ("dcot.solver", "update_z", "solver.update_z"),
    ("dcot.solver", "update_dual", "solver.update_dual"),
    ("dcot.solver", "lagrangian_value", "solver.lagrangian_value"),
    ("dcot.solver", "estimate_moduli", "solver.estimate_moduli"),
    ("dcot.solver", "smoothing_moments", "similarity.smoothing_moments"),
    ("dcot.solver", "reconstruct", "model.reconstruct"),
    ("dcot.solver", "loss_value", "losses.loss_value"),
    ("dcot.solver", "loss_gradient", "losses.loss_gradient"),
    ("dcot.solver", "prox_apply", "prox.prox_apply"),
    ("dcot.solver", "frob_norm", "tensor.frob_norm"),
    ("dcot.solver", "frob_inner", "tensor.frob_inner"),
    ("scipy.optimize", "minimize", "scipy.minimize"),
    ("dcot.io", "read_tensor", "io.read_tensor"),
    ("dcot.io", "write_dense", "io.write_dense"),
    ("dcot.cli", "mode_similarity", "similarity.mode_similarity"),
    ("dcot.cli", "initial_model", "model.initial_model"),
    ("dcot.cli", "solve", "solver.solve"),
    ("dcot.evaluate", "initial_model", "model.initial_model"),
    ("dcot.evaluate", "solve", "solver.solve"),
)


def _arg_bytes(args, kwargs, out) -> int:
    return sum(int(getattr(x, "nbytes", 0)) for x in (*args, *kwargs.values()))


def _file_bytes(args, kwargs, out) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


def _written_bytes(args, kwargs, out) -> int:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return os.path.getsize(path)


def time_to_tol(trace, omega, tol: float = 1e-3) -> tuple[float, bool]:
    """Iteration time until ``primal_residual / ||x_Omega||`` first <= ``tol``.

    When the run never gets there, the whole loop time is returned with
    ``False``: the value is censored at the iteration cap.
    """
    scale = float(np.linalg.norm(omega.values)) or 1.0
    elapsed = 0.0
    for row in trace.rows[1:]:
        elapsed += row.wall_time
        if row.primal_residual / scale <= tol:
            return elapsed, True
    return elapsed, False


def _solve_info(args, kwargs, out) -> dict:
    omega = args[0] if args else kwargs["omega"]
    tol_s, reached = time_to_tol(out.trace, omega)
    walls = [r.wall_time for r in out.trace.rows[1:]]
    return {"iters": len(walls), "walls": walls, "tol_s": tol_s, "reached": reached}


# What a wrapper records from a call, beyond its span.
_INFO = {
    "scipy.minimize": lambda a, k, out: int(getattr(out, "nit", 0)),
    "similarity.smoothing_moments": lambda a, k, out: int(out.degenerate),
    "model.reconstruct": lambda a, k, out: int(out.nbytes),
    "tensor.frob_norm": _arg_bytes,
    "tensor.frob_inner": _arg_bytes,
    "io.read_tensor": _file_bytes,
    "io.write_dense": _written_bytes,
    "solver.solve": _solve_info,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, info_fn=None):
        """Decorator factory: record a span around each call of a function."""

        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                s = Span(name, time.perf_counter(), 0.0, parent, self.op)
                self.spans.append(s)
                self._stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    s.end = time.perf_counter()
                    self._stack.pop()
                if info_fn is not None:
                    s.info = info_fn(args, kwargs, out)
                return out

            return wrapper

        return deco

    def call(self, name: str, fn, *args, **kwargs):
        """Record a span around one call the benchmark itself makes."""
        return self.span(name, _INFO.get(name))(fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.absent = []
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, _INFO.get(name))(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def dump(self, path) -> None:
        """Write every span once, as one gzipped JSON document."""
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [
            [code[s.name], round(s.start, 7), round(s.end, 7), s.parent, s.op]
            for s in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
