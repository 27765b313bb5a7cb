#!/usr/bin/env python3
"""dcot benchmark harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload gauss-dense --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, runs closed-loop ops (one
client; each op starts after the previous one finished) for about
``--seconds`` seconds, checks every op's outputs, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
listed in BENCHMARK.json, timings scaled to a reference machine speed
(see calibrate.py); with ``--trace 1`` each op also runs traced (see
tracing.py) and the metrics are the per-layer ones.  Probe solves
(glm-zstep's poisson and gamma) are not ops: they count in neither
``attempted`` nor ``failed``, and their failures go to the probe ledger.
A fuller record (fingerprints, failure and probe ledgers, environment,
every op) goes to ``.perfbench/results/``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the harness exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

# One BLAS thread per process, set before numpy loads: at these sizes extra
# threads buy nothing, and on a shared machine their barriers add noise.
# grid-small's pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Least number of timed ops per run (traced: op pairs), whatever --seconds says.
MIN_OPS, MIN_TRACED_OPS = 3, 2
# Share of an op's wall time its top-level spans must account for.
COVERAGE_TOLERANCE = 0.05
# Op ids of the traced probe solves (glm-zstep), apart from timed ops.
PROBE_OP = 1000


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``dcot`` from ``src/`` of this checkout, or exit with code 2."""
    if not (SRC / "dcot" / "__init__.py").is_file():
        die(f"no program at {SRC / 'dcot'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dcot

    if Path(dcot.__file__).resolve().parent != (SRC / "dcot").resolve():
        die(f"dcot was imported from {dcot.__file__}, not {SRC}")


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def closed_loop(op, seconds: float, min_ops: int) -> list:
    """Run ``op(i)`` back to back until measured time would pass ``seconds``.

    Measured time is the ops' own wall time; making their inputs and
    checking their outputs is not counted.
    """
    results = []
    while True:
        results.append(op(len(results)))
        walls = [r.wall_s for r in results]
        if len(results) >= min_ops and sum(walls) + statistics.median(walls) > seconds:
            return results


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import nproc

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def op_record(r, label) -> dict:
    return dict(asdict(r), op=label, walls=None)


def run_untraced(w, seconds: float) -> tuple[dict, dict, list, list, list]:
    """Timed ops with tracing off: end-to-end values, record, ops, probes, problems."""
    import calibrate

    # One untimed op under tracemalloc gives peak memory and warms caches.
    tracemalloc.start()
    w.op(0, peak=True)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    probes = [w.probe(j) for j in range(len(getattr(w, "probes", ())))]
    kernels = []
    last_wall = 0.0

    def op(i):
        # Calibrate for a tenth of the previous op's time (at least once), so
        # kernel samples cover the run's measured time evenly.
        nonlocal last_wall
        spent = 0.0
        while spent == 0.0 or spent < 0.1 * last_wall:
            kernels.append(calibrate.sample(w.calibrate_with))
            spent += sum(kernels[-1].values())
        result = w.op(i)
        last_wall = result.wall_s
        return result

    timed = closed_loop(op, seconds, MIN_OPS)
    ok = [r for r in timed if r.ok]
    setup = getattr(w, "setup_samples", None) or [r.setup_s for r in ok]
    walls = sorted(x for r in ok for x in r.walls)

    # One speed scale per run for the ops, from every kernel timing taken
    # between them.  Set-up samples taken apart from the ops (cli-complete's)
    # are scaled by the kernel timings taken beside them instead: the
    # machine's speed in that window can differ from the rest of the run.
    setup_kernels = getattr(w, "setup_kernels", None)
    scale = calibrate.speed_scale(kernels, w.calibrate_with)
    setup_scale = calibrate.speed_scale(setup_kernels, w.calibrate_with) if setup_kernels else scale
    raw = {"op_s": median(r.wall_s for r in ok), "setup_s": median(setup)}
    values = {k: None if raw[k] is None else raw[k] * sc
              for k, sc in (("op_s", scale), ("setup_s", setup_scale))}
    values["peak_mb"] = peak_mb
    record = {
        "raw_wall_s": raw,
        "speed_scale": scale,
        "setup_speed_scale": setup_scale,
        "calibration_s": kernels,
        "setup_calibration_s": setup_kernels,
        "setup_samples_s": setup,
        "heldout_rel_err": median(r.heldout_rel_err for r in ok),
        "iter_ms_p50": 1e3 * walls[len(walls) // 2] if walls else None,
        "iter_ms_p95": 1e3 * walls[int(0.95 * (len(walls) - 1))] if walls else None,
        "iteration_samples": len(walls),
        "time_to_tol_s": median(r.tol_s for r in ok if r.reached_tol),
        "iters": median(r.iters for r in ok),
        "failed_share": sum(not r.ok for r in timed) / len(timed),
        "op_samples": len(ok),
        "setup_samples": len(setup),
        "ops": [op_record(r, f"op{i}") for i, r in enumerate(timed)]
        + [op_record(r, f"probe{j}") for j, r in enumerate(probes)],
    }
    return values, record, timed, probes, []


def run_traced(w, seconds: float, name: str, seed: int) -> tuple[dict, dict, list, list, list]:
    """Each op runs untraced, then traced; fingerprints must agree bitwise."""
    from layers import coverage, layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    grid = name == "grid-small"
    pairs = []  # (op id, reference, traced, untraced baseline of the traced run)

    def traced(op_id, call):
        tracer.op = op_id
        tracer.install()
        try:
            return call(tracer)
        finally:
            tracer.uninstall()

    # The grid is traced in-process, since spans in pool workers are lost;
    # its baseline is an untraced in-process grid and its pool run the
    # reference.
    kw = {"workers": 1} if grid else {}

    def pair(i):
        if i % 2:  # alternate which side meets the dataset first
            tr = traced(i, lambda t: w.op(i, t, **kw))
            base = w.op(i, **kw)
        else:
            base = w.op(i, **kw)
            tr = traced(i, lambda t: w.op(i, t, **kw))
        pairs.append((i, w.op(i) if grid else base, tr, base))
        return tr

    # Each pair runs the op twice (the grid three times).
    closed_loop(pair, seconds / (3 if grid else 2), MIN_TRACED_OPS)
    for j in range(len(getattr(w, "probes", ()))):
        ref = w.probe(j)
        tr = traced(PROBE_OP + j, lambda t: w.probe(j, t))
        pairs.append((PROBE_OP + j, ref, tr, ref))

    problems = [
        f"op {op_id}: fingerprints differ from the untraced run"
        for op_id, ref, tr, base in pairs
        if tr.fingerprint != ref.fingerprint or base.fingerprint != ref.fingerprint
    ]
    cover = coverage(tracer.spans, {op_id: tr.wall_s for op_id, _, tr, _ in pairs})
    for op_id, share in cover.items():
        if abs(1.0 - share) > COVERAGE_TOLERANCE:
            problems.append(f"op {op_id}: top-level spans cover {share:.3f} of its wall time")
    pool_eff = 0.0
    if grid:
        timed = [p for p in pairs if p[0] < PROBE_OP]
        pool_eff = median(p[3].wall_s for p in timed) / (
            w.workers * median(p[1].wall_s for p in timed))
    values = layer_metrics(tracer.spans, len(pairs), pool_eff)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.dump(results / f"{name}-seed{seed}-spans.json.gz")
    record = {
        "coverage": {str(k): v for k, v in cover.items()},
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "absent_targets": tracer.absent,
        "tracing_overhead": median(tr.wall_s for _, _, tr, _ in pairs)
        / median(base.wall_s for *_, base in pairs) - 1.0,
        "ops": [
            {"op": op_id, "reference": op_record(ref, op_id), "traced": op_record(tr, op_id),
             "baseline_wall_s": base.wall_s}
            for op_id, ref, tr, base in pairs
        ],
    }
    ops, probes = [], []
    for op_id, ref, tr, base in pairs:
        (probes if op_id >= PROBE_OP else ops).extend(
            [ref, tr] if base is ref else [ref, tr, base])
    return values, record, ops, probes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dcot benchmark harness")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, record, ops, probes, problems = run_traced(
                w, args.seconds, args.workload, args.seed)
            listed = spec["per_layer"]
        else:
            values, record, ops, probes, problems = run_untraced(w, args.seconds)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += [f"{r.family}: {r.check}" for r in ops if r.check]
    missing = [m["name"] for m in listed if values.get(m["name"]) is None]
    problems += [f"metric {name} has no value" for name in missing]
    failures = [r for r in ops if not r.ok]
    # Probe failures are known defects of the program, kept apart from the
    # ops' failures so that the ops' counts stay comparable between runs.
    probe_ledger = [{"family": r.family, "error": r.error or r.check}
                    for r in probes if not r.ok]
    for entry in probe_ledger:
        print(f"perfbench: probe {entry['family']} failed: {entry['error']}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"]) or 0.0), "unit": m["unit"]}
            for m in listed
        },
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "run_wall_s": time.perf_counter() - started,
        "environment": environment(args.seed),
        "result": result,
        "problems": problems,
        "ledger": [{"family": r.family, "error": r.error or r.check} for r in failures],
        "probe_ledger": probe_ledger,
        **record,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
