#!/usr/bin/env python3
"""Print one sha256 per solver case, to check that a change keeps outputs bitwise.

Cases, each x seeds 0-1 (30 % missing, 40 iterations, unless stated the
kernel similarity of the planted factors and cluster labels, which are
oracle features):
eleven solver configurations on a planted 12^3 problem (ranks (3, 3, 4),
two tied groups on mode 3) -- gaussian default, ``fixed_moduli``,
``freeze_h``, l1/frob_sq penalties, a nuclear penalty on the factors,
``nonneg`` on ``core_g``, a sparse group lasso on ``core_h`` (one group per
tied slice of the partition: all four mode-3 slices), ``freeze_h`` with l1 on ``core_g``, bernoulli, and poisson
and gamma with ``z_floor=1e-2``; bernoulli on the same problem with its
planted cores scaled x100, observations redrawn on the same mask and the
solve started from that planted model, so the logits reach |z| of 19-25
and stay above 10 in dozens of cells through the first 10-20 sweeps, and
the Newton z step covers the sigmoid's saturated range in two or three steps
per sweep (scaled x30, or started from the HOSVD of the observations, the
fit's logits stay below 8); the gaussian default on a planted 4-way
8 x 7 x 6 x 5 problem (ranks (2, 3, 2, 2), mode-4 slices 0 and 1 tied at
mode-1 index 1), which covers the solver's chain of mode products for
``N != 3``; the gaussian default on the 12^3 problem with the neutral
similarity (every unobserved cell a degenerate target); bernoulli on a
planted 36^3 problem (the 12^3 problem's ranks and groups), whose 46,656
cells make the split families' sweep tail run two blocks, the second a
partial one; plus two
``dcot synth`` + ``dcot complete`` runs with kernel similarity, hashed
over ``observed.coo`` (so the same check covers the COO writer and
reader), ``trace.csv`` and ``z_hat.dct``: one reads the written file as
it is, which the reader streams, the other first rewrites it with a
comment line, blank lines and CRLF line ends, which the reader parses
from the whole text.  A solve
hashes ``z``, ``y``, both cores, the factors, every ``trace.csv`` column,
the moduli of the last sweep as ``(gamma, core, core, factors)`` (the order
of the older ``(gamma, rho_g, rho_h, rho_factors)``, so hashes stay
comparable with runs from before the shared and subject cores' moduli
were one value), ``converged`` and ``reason``; a case that raises
prints the exception instead.  Beside each hash the line
shows the final augmented Lagrangian (``repr``), the iteration count and the
stop reason.

Usage: in a checkout of the parent commit,
``PYTHONPATH=src python scripts/solver_fingerprint.py > parent.txt``; then in
the change, at the same BLAS thread count,
``PYTHONPATH=src python scripts/solver_fingerprint.py --compare parent.txt``.
Compare mode prints one verdict per case: whether the hash is equal, the
relative difference of the final Lagrangian, and whether the iteration count
and stop reason match.  A last line sums the verdicts up: how many cases are
hash-equal (a case that fails the same way on both sides counts as equal),
how many differ within rounding, and how many fail.  It exits 1 if any iteration count or reason differs,
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
from dcot.losses import LossFamily, ObservationSet, initial_fill
from dcot.model import (
    DcotModel, InitStrategy, SliceGroup, SubjectPartition, initial_model, reconstruct,
)
from dcot.prox import Penalty
from dcot.similarity import SimilarityModel, mode_similarity
from dcot.solver import (
    BlockPenalties, ConvergenceTrace, SolverAbort, SolverConfig, SolverResult, solve,
)

# (shape, ranks, partition, scale of the planted cores) of the planted problems;
# a scale other than 1 also starts the solve from the scaled planted model
THREE_WAY = ((12, 12, 12), (3, 3, 4),
             SubjectPartition(2, (SliceGroup((0, 1)), SliceGroup((2, 3)))), 1.0)
FOUR_WAY = ((8, 7, 6, 5), (2, 3, 2, 2),
            SubjectPartition(3, (SliceGroup((0, 1), fixed=(0, 1)),)), 1.0)
MULTI_BLOCK = ((36, 36, 36),) + THREE_WAY[1:]
SATURATED = THREE_WAY[:3] + (100.0,)
ITERS = 40


def oracle_similarity(data) -> SimilarityModel:
    """The kernel similarity of the planted factors and labels: oracle features."""
    return SimilarityModel(per_mode=[mode_similarity(u, labels=lab) for u, lab
                                     in zip(data.planted.factors, data.labels)])


# the similarity a case solves with, made from the synthesized data
SIMILARITIES = {
    "kernel": oracle_similarity,
    "neutral": lambda data: SimilarityModel.neutral(data.observed.shape),
}

CASES = {
    "gaussian-default": ("gaussian", {}, THREE_WAY, "kernel"),
    "gaussian-fixed-moduli": ("gaussian", {"fixed_moduli": True}, THREE_WAY, "kernel"),
    "gaussian-freeze-h": ("gaussian", {"freeze_h": True}, THREE_WAY, "kernel"),
    "gaussian-penalties": ("gaussian", {"penalties": BlockPenalties(
        g=Penalty.l1(1e-3), factors=Penalty.frob_sq(1e-3))}, THREE_WAY, "kernel"),
    "gaussian-nuclear-factors": ("gaussian", {"penalties": BlockPenalties(
        factors=Penalty.nuclear(1e-3))}, THREE_WAY, "kernel"),
    "gaussian-nonneg-g": ("gaussian", {"penalties": BlockPenalties(
        g=Penalty.nonneg())}, THREE_WAY, "kernel"),
    "gaussian-sgl-h": ("gaussian", {"penalties": BlockPenalties(
        h=Penalty.sparse_group_lasso(1e-3, THREE_WAY[2]))}, THREE_WAY, "kernel"),
    "gaussian-freeze-h-l1-g": ("gaussian", {"freeze_h": True, "penalties": BlockPenalties(
        g=Penalty.l1(1e-3))}, THREE_WAY, "kernel"),
    "bernoulli": ("bernoulli", {}, THREE_WAY, "kernel"),
    "bernoulli-planted-x100": ("bernoulli", {}, SATURATED, "kernel"),
    "poisson-floor-1e-2": ("poisson", {"z_floor": 1e-2}, THREE_WAY, "kernel"),
    "gamma-floor-1e-2": ("gamma", {"z_floor": 1e-2}, THREE_WAY, "kernel"),
    "gaussian-4way": ("gaussian", {}, FOUR_WAY, "kernel"),
    "gaussian-neutral": ("gaussian", {}, THREE_WAY, "neutral"),
    "bernoulli-multiblock": ("bernoulli", {}, MULTI_BLOCK, "kernel"),
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


def run_case(family: str, overrides: dict, problem: tuple, similarity: str,
             seed: int) -> SolverResult:
    """Solve one case; a failing solve raises."""
    shape, ranks, partition, core_scale = problem
    spec = SynthSpec(shape=shape, ranks=ranks, partition=partition,
                     noise_family=family, noise_sigma=0.1, missing_fraction=0.3,
                     seed=seed)
    data = synthesize(spec)
    fam = LossFamily(family)
    omega = data.observed
    if core_scale == 1.0:
        init = initial_model(omega.to_dense(initial_fill(omega, fam)), ranks,
                             InitStrategy("hosvd"), partition)
    else:  # the same factors, mask and similarity; new draws; start at the truth
        planted = data.planted
        init = DcotModel(planted.factors, core_scale * planted.core_g,
                         core_scale * planted.core_h, partition)
        values = fam.sample(np.random.default_rng(seed),
                            reconstruct(init)[tuple(omega.indices.T)], spec.noise_sigma)
        omega = ObservationSet(omega.indices, values, shape)
    return solve(omega, init, fam, SIMILARITIES[similarity](data),
                 SolverConfig(max_iters=ITERS, **overrides))


def solve_case(family: str, overrides: dict, problem: tuple, similarity: str,
               seed: int) -> str:
    try:
        res = run_case(family, overrides, problem, similarity, seed)
    except (SolverAbort, ValueError) as exc:  # a failing case is a fingerprint too
        return f"error {type(exc).__name__}: {exc}"
    m = res.model
    columns = [res.trace.column(f) for f in ConvergenceTrace.CSV_FIELDS]
    mod = res.moduli
    moduli = (mod.gamma, mod.core, mod.core, mod.factors)
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
               "solver": {"max_iters": 30}}
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
    counts = {"equal": 0, "rounding": 0, "fail": 0}
    for name, line in cases():
        if name in parent:
            verdict, ok = compare_line(parent.pop(name), line)
        else:
            verdict, ok = "FAIL: not in the parent file", False
        print(f"{name} {verdict}", flush=True)
        if not ok:
            counts["fail"] += 1
        elif verdict.startswith("hash=differs"):
            counts["rounding"] += 1
        else:
            counts["equal"] += 1
    for name in parent:
        print(f"{name} FAIL: not run by this tree")
        counts["fail"] += 1
    print(f"summary: {counts['equal']} hash-equal, {counts['rounding']} differ within "
          f"rounding, {counts['fail']} fail")
    return 1 if counts["fail"] else 0


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
