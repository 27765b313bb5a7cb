#!/usr/bin/env python3
"""Print one sha256 per solver case, to check that a change keeps outputs bitwise.

Cases, each x seeds 0-1 (30 % missing, 40 iterations, the synthesized
kernel similarity unless stated):
eight solver configurations on a planted 12^3 problem (ranks (3, 3, 4),
two tied groups on mode 3) -- gaussian default, ``fixed_moduli``,
``freeze_h``, ``rho_g=5``, l1/frob_sq penalties, bernoulli, and poisson and
gamma with ``z_floor=1e-2`` -- and the gaussian default on a planted 4-way
8 x 7 x 6 x 5 problem (ranks (2, 3, 2, 2), mode-4 slices 0 and 1 tied at
mode-1 index 1), which covers the solver's chain of mode products for
``N != 3``; the gaussian default on the 12^3 problem with the neutral
similarity (every unobserved cell a degenerate target); plus two
``dcot synth`` + ``dcot complete`` runs with kernel similarity, hashed
over ``observed.coo`` (so the same check covers the COO writer and
reader), ``trace.csv`` and ``z_hat.dct``: one reads the written file as
it is, which the reader streams, the other first rewrites it with a
comment line, blank lines and CRLF line ends, which the reader parses
from the whole text.  A solve
hashes ``z``, ``y``, both cores, the factors, every ``trace.csv`` column,
the effective moduli, ``converged`` and ``reason``; a case that raises
prints the exception instead.  Beside each hash the line
shows the final augmented Lagrangian (``repr``), the iteration count and the
stop reason.

Usage: in a checkout of the parent commit,
``PYTHONPATH=src python scripts/solver_fingerprint.py > parent.txt``; then in
the change, at the same BLAS thread count,
``PYTHONPATH=src python scripts/solver_fingerprint.py --compare parent.txt``.
Compare mode prints one verdict per case: whether the hash is equal, the
relative difference of the final Lagrangian, and whether the iteration count
and stop reason match.  It exits 1 if any iteration count or reason differs,
a Lagrangian moves by more than 1e-12 relative, a failing case fails
differently, or a case is missing from either side.
"""

import argparse
import contextlib
import hashlib
import io as stdio
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from dcot.cli import main as cli_main
from dcot.evaluate import SynthSpec, synthesize
from dcot.losses import LossFamily, initial_fill
from dcot.model import InitStrategy, SliceGroup, SubjectPartition, initial_model
from dcot.prox import Penalty
from dcot.similarity import SimilarityModel
from dcot.solver import (
    BlockPenalties, ConvergenceTrace, SolverAbort, SolverConfig, solve,
)

# (shape, ranks, partition) of the planted problems
THREE_WAY = ((12, 12, 12), (3, 3, 4),
             SubjectPartition(2, (SliceGroup((0, 1)), SliceGroup((2, 3)))))
FOUR_WAY = ((8, 7, 6, 5), (2, 3, 2, 2),
            SubjectPartition(3, (SliceGroup((0, 1), fixed=(0, 1)),)))
ITERS = 40

# the similarity a case solves with, made from the synthesized kernel one
SIMILARITIES = {
    "kernel": lambda sim: sim,
    "neutral": lambda sim: SimilarityModel.neutral(sim.shape),
}

CASES = {
    "gaussian-default": ("gaussian", {}, THREE_WAY, "kernel"),
    "gaussian-fixed-moduli": ("gaussian", {"fixed_moduli": True}, THREE_WAY, "kernel"),
    "gaussian-freeze-h": ("gaussian", {"freeze_h": True}, THREE_WAY, "kernel"),
    "gaussian-rho-g": ("gaussian", {"rho_g": 5.0}, THREE_WAY, "kernel"),
    "gaussian-penalties": ("gaussian", {"penalties": BlockPenalties(
        g=Penalty.l1(1e-3), factors=Penalty.frob_sq(1e-3))}, THREE_WAY, "kernel"),
    "bernoulli": ("bernoulli", {}, THREE_WAY, "kernel"),
    "poisson-floor-1e-2": ("poisson", {"z_floor": 1e-2}, THREE_WAY, "kernel"),
    "gamma-floor-1e-2": ("gamma", {"z_floor": 1e-2}, THREE_WAY, "kernel"),
    "gaussian-4way": ("gaussian", {}, FOUR_WAY, "kernel"),
    "gaussian-neutral": ("gaussian", {}, THREE_WAY, "neutral"),
}


def _hash_arrays(arrays, extra) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    h.update(repr(extra).encode())
    return h.hexdigest()


def _line(digest: str, lagrangian: float, iterations: int, reason: str) -> str:
    return f"{digest} lagrangian={lagrangian!r} iters={iterations} reason={reason}"


def solve_case(family: str, overrides: dict, problem: tuple, similarity: str,
               seed: int) -> str:
    shape, ranks, partition = problem
    spec = SynthSpec(shape=shape, ranks=ranks, partition=partition,
                     noise_family=family, noise_sigma=0.1, missing_fraction=0.3,
                     seed=seed)
    data = synthesize(spec)
    fam = LossFamily(family)
    omega = data.observed
    init = initial_model(omega.to_dense(initial_fill(omega, fam)), ranks,
                         InitStrategy("hosvd"), partition)
    try:
        res = solve(omega, init, fam, SIMILARITIES[similarity](data.sim),
                    SolverConfig(max_iters=ITERS, **overrides))
    except (SolverAbort, ValueError) as exc:  # a failing case is a fingerprint too
        return f"error {type(exc).__name__}: {exc}"
    m = res.model
    columns = [res.trace.column(f) for f in ConvergenceTrace.CSV_FIELDS]
    cfg = res.config
    moduli = (cfg.gamma, cfg.rho_g, cfg.rho_h, cfg.rho_factors)
    digest = _hash_arrays([res.z, res.y, m.core_g, m.core_h, *m.factors, *columns],
                          (moduli, res.converged, res.reason))
    last = res.trace.rows[-1]
    return _line(digest, last.lagrangian, last.iteration, res.reason)


def _comment(path: Path) -> None:
    """Rewrite a COO file with a comment line, blank lines and CRLF line ends."""
    header, *entries = path.read_text().splitlines()
    path.write_bytes("\r\n".join(["# rewritten", header, "", *entries, "", ""]).encode())


def cli_case(commented: bool) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        synth = {"seed": 5, "output": str(tmp / "data"),
                 "synth": {"shape": [8, 7, 6], "ranks": [2, 2, 2],
                           "partition": {"mode": 2, "groups": [[1, 2]]},
                           "noise_sigma": 0.05, "missing_fraction": 0.3}}
        data = tmp / "data"
        fit = {"seed": 5, "output": str(tmp / "run"),
               "data": {"observations": str(data / "observed.coo")},
               "family": "gaussian", "ranks": [2, 2, 2],
               "partition": {"path": str(data / "partition.txt")},
               "similarity": {"kind": "kernel",
                              "features": [str(data / f"features_mode{n}.txt")
                                           for n in (1, 2, 3)],
                              "labels": [str(data / f"labels_mode{n}.txt")
                                         for n in (1, 2, 3)]},
               "solver": {"max_iters": 30}, "init": {"kind": "hosvd"}}
        for command, cfg in (("synth", synth), ("complete", fit)):
            if command == "complete" and commented:
                _comment(data / "observed.coo")
            path = tmp / f"{command}.json"
            path.write_text(json.dumps(cfg))
            with contextlib.redirect_stderr(stdio.StringIO()) as err:
                code = cli_main([command, "--config", str(path)])
            if code != 0:
                return f"exit {code}: {err.getvalue().strip()}"
        run = tmp / "run"
        h = hashlib.sha256()
        for path in (data / "observed.coo", run / "trace.csv", run / "z_hat.dct"):
            h.update(path.read_bytes())
        summary = json.loads((run / "summary.json").read_text())
        last = (run / "trace.csv").read_text().splitlines()[-1].split(",")
        lagrangian = float(last[ConvergenceTrace.CSV_FIELDS.index("lagrangian")])
        return _line(h.hexdigest(), lagrangian, summary["iterations"], summary["reason"])


def cases():
    """Yield ``(case name, fingerprint line)`` for every case, in a fixed order."""
    for name, case in CASES.items():
        for seed in (0, 1):
            yield f"{name}/seed{seed}", solve_case(*case, seed)
    yield "cli-synth-complete", cli_case(commented=False)
    yield "cli-complete-commented", cli_case(commented=True)


LAGRANGIAN_RTOL = 1e-12
_LINE = re.compile(
    r"(?P<digest>[0-9a-f]{64}) lagrangian=(?P<lagrangian>\S+) "
    r"iters=(?P<iters>\d+) reason=(?P<reason>\S+)"
)


def compare_line(parent: str, change: str) -> tuple[str, bool]:
    """Verdict on one case's change line against its parent line, and whether it passes."""
    a, b = _LINE.fullmatch(parent), _LINE.fullmatch(change)
    if a is None or b is None:  # a case that raised or exited has no numbers
        ok = parent == change
        return ("failure unchanged" if ok else f"FAIL: {parent!r} -> {change!r}"), ok
    old, new = float(a["lagrangian"]), float(b["lagrangian"])
    if a["lagrangian"] == b["lagrangian"]:
        rel = 0.0
    else:
        rel = abs(new - old) / abs(old) if old else math.inf
    iters_ok = a["iters"] == b["iters"]
    reason_ok = a["reason"] == b["reason"]
    ok = iters_ok and reason_ok and rel <= LAGRANGIAN_RTOL
    verdict = " ".join([
        "hash=" + ("equal" if a["digest"] == b["digest"] else "differs"),
        f"lagrangian_rel={rel:.1e}",
        "iters=" + ("same" if iters_ok else f"{a['iters']}->{b['iters']}"),
        "reason=" + ("same" if reason_ok else f"{a['reason']}->{b['reason']}"),
        "ok" if ok else "FAIL",
    ])
    return verdict, ok


def compare(parent_path: Path) -> int:
    parent = dict(line.split(" ", 1)
                  for line in parent_path.read_text().splitlines() if line.strip())
    passed = True
    for name, line in cases():
        if name in parent:
            verdict, ok = compare_line(parent.pop(name), line)
        else:
            verdict, ok = "FAIL: not in the parent file", False
        print(f"{name} {verdict}", flush=True)
        passed &= ok
    for name in parent:
        print(f"{name} FAIL: not run by this tree")
        passed = False
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path, metavar="PARENT.txt",
                        help="compare against this script's output at the parent")
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare(args.compare)
    for name, line in cases():
        print(f"{name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
