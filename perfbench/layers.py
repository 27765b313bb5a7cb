"""Per-layer metrics computed from the traced run's spans.

Values are per solver iteration unless the metric table marks them
"once" (per solve or per op).  A span's self time is its duration minus
the time its child spans cover; block spans are reported inclusive,
leaf spans (reconstruct, losses, prox, tensor norms) are leaves already.
Calls that ``solve`` makes directly, after its first block span, count
as diagnostics; whatever the loop spends outside any span is
``solver.loop_other_ms``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

BLOCKS = {
    "solver.update_factor": "solver.factor_step_ms",
    "solver.update_cores": "solver.core_step_ms",
    "solver.update_z": "solver.z_step_ms",
    "solver.update_dual": "solver.dual_step_ms",
}
_LOSSES = ("losses.loss_value", "losses.loss_gradient")
_FROB = ("tensor.frob_norm", "tensor.frob_inner")
_MIB = 2.0**20


def _solve_breakdown(spans, children):
    """Per solve span: iterations, block sums, diagnostics and the rest."""
    out = []
    for i, s in enumerate(spans):
        if s.name != "solver.solve":
            continue
        kids = [spans[j] for j in children.get(i, ())]
        blocks = [k for k in kids if k.name in BLOCKS]
        loop_start = min((k.start for k in blocks), default=s.end)
        other = [k for k in kids if k.name not in BLOCKS]
        diag = sum(k.duration for k in other if k.start >= loop_start)
        if isinstance(s.info, dict):
            iters = s.info["iters"]
        else:  # the solve raised; count the sweeps that reached the core step
            iters = sum(1 for k in kids if k.name == "solver.update_cores")
        block_sums = defaultdict(float)
        for k in blocks:
            block_sums[k.name] += k.duration
        out.append({
            "iters": iters,
            "blocks": block_sums,
            "diagnostics": diag,
            "loop_other": (s.end - loop_start) - sum(block_sums.values()) - diag,
            "info": s.info if isinstance(s.info, dict) else None,
        })
    return out


def coverage(spans, op_walls: dict[int, float]) -> dict[int, float]:
    """Share of each op's wall time that its top-level spans account for."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent == -1:
            covered[s.op] += s.duration
    return {op: covered[op] / wall for op, wall in op_walls.items() if wall > 0}


def layer_metrics(spans, n_ops: int, pool_efficiency: float = 0.0) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    solves = _solve_breakdown(spans, children)
    iters = sum(b["iters"] for b in solves)
    n_solves = len(solves)

    total = defaultdict(float)
    count = defaultdict(int)
    info = defaultdict(list)
    for s in spans:
        total[s.name] += s.duration
        count[s.name] += 1
        if s.info is not None:
            info[s.name].append(s.info)

    def per_iter(x):
        return x / iters if iters else 0.0

    def per(x, n):
        return x / n if n else 0.0

    m = {}
    for name, metric in BLOCKS.items():
        m[metric] = 1e3 * per_iter(sum(b["blocks"][name] for b in solves))
    m["solver.diagnostics_ms"] = 1e3 * per_iter(sum(b["diagnostics"] for b in solves))
    m["solver.loop_other_ms"] = 1e3 * per_iter(sum(b["loop_other"] for b in solves))
    nits = info["scipy.minimize"]
    m["solver.z_inner_iters"] = per(sum(nits), len(nits))
    m["solver.estimate_moduli_ms"] = 1e3 * per(total["solver.estimate_moduli"], n_solves)

    walls = [w for b in solves if b["info"] for w in b["info"]["walls"]]
    m["solver.iter_ms_p50"] = 1e3 * float(np.percentile(walls, 50)) if walls else 0.0
    m["solver.iter_ms_p95"] = 1e3 * float(np.percentile(walls, 95)) if walls else 0.0
    done = [b["info"] for b in solves if b["info"]]
    m["solver.time_to_tol_s"] = float(np.median([d["tol_s"] for d in done])) if done else 0.0
    m["solver.iters"] = float(np.median([d["iters"] for d in done])) if done else 0.0

    m["model.reconstruct_per_iter"] = per_iter(count["model.reconstruct"])
    m["model.reconstruct_ms"] = 1e3 * per_iter(total["model.reconstruct"])
    m["model.initial_model_ms"] = 1e3 * per(total["model.initial_model"], n_solves)

    m["tensor.frob_ms"] = 1e3 * per_iter(sum(total[n] for n in _FROB))
    dense = sum(info["model.reconstruct"]) + sum(sum(info[n]) for n in _FROB)
    m["tensor.dense_mb_per_iter"] = per_iter(dense) / _MIB

    m["losses.evals_per_iter"] = per_iter(sum(count[n] for n in _LOSSES))
    m["losses.eval_ms"] = 1e3 * per_iter(sum(total[n] for n in _LOSSES))
    m["prox.prox_ms"] = 1e3 * per_iter(total["prox.prox_apply"])

    m["similarity.build_ms"] = 1e3 * per(total["similarity.mode_similarity"], n_ops)
    m["similarity.moments_ms"] = 1e3 * per(total["similarity.smoothing_moments"], n_solves)
    degenerate = info["similarity.smoothing_moments"]
    m["similarity.degenerate"] = float(np.median(degenerate)) if degenerate else 0.0

    read_s = total["io.read_tensor"]
    m["io.read_ms"] = 1e3 * per(read_s, n_ops)
    m["io.read_mb_s"] = per(sum(info["io.read_tensor"]) / 1e6, read_s)
    m["io.write_ms"] = 1e3 * per(total["io.write_dense"], n_ops)
    m["io.write_mb"] = per(sum(info["io.write_dense"]) / 1e6, n_ops)

    cli_other = [
        s.duration - sum(spans[j].duration for j in children.get(i, ()))
        for i, s in enumerate(spans)
        if s.name == "cli.complete"
    ]
    m["cli.other_ms"] = 1e3 * per(sum(cli_other), len(cli_other))
    m["evaluate.pool_efficiency"] = pool_efficiency
    return m
