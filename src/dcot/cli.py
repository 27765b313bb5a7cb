"""Command line interface: synth, factorize, complete, evaluate, grid-search.

Every command takes ``--config PATH`` pointing at a JSON document; the
schema is validated (unknown keys rejected) before any output is
produced, and the summary written to each run directory echoes the full
effective configuration.  Exit codes: 0 success, 2 config error, 3
solver abort, 4 I/O error; failures also emit a one-line JSON error
object on stderr.  Set ``DCOT_LOG`` to a level name (e.g. ``info``) for
diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .evaluate import (
    SplitSpec,
    SynthSpec,
    grid_search,
    lambda_grid,
    rmse,
    synthesize,
)
from .losses import LossFamily, ObservationSet
from .model import (
    DcotModel,
    InitStrategy,
    SliceGroup,
    SubjectPartition,
    _group_slicer,
    initial_model,
    reconstruct,
)
from .prox import Penalty
from .similarity import SimilarityModel, mode_similarity
from .solver import BlockPenalties, SolverAbort, SolverConfig, initial_fill, solve

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_IO = 0, 2, 3, 4

_MISSING = object()


def _expect_keys(d: dict, allowed, where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise io.ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _typed(d: dict, key: str, types, where: str, default=_MISSING):
    if key not in d:
        if default is _MISSING:
            raise io.ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = d[key]
    if types is not None and not isinstance(value, types):
        raise io.ConfigError(f"{where}.{key}: wrong type {type(value).__name__}")
    if isinstance(value, bool) and types is not None and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise io.ConfigError(f"{where}.{key}: wrong type bool")
    return value


def _int_list(d, key, where):
    value = _typed(d, key, list, where)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise io.ConfigError(f"{where}.{key}: expected a list of integers")
    return [int(v) for v in value]


def _parse_family(name) -> LossFamily:
    if name is None:
        return LossFamily("gaussian")
    if not isinstance(name, str):
        raise io.ConfigError("family: expected a family name")
    return LossFamily(name)


def _parse_partition(obj, base: Path, where="partition") -> SubjectPartition | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise io.ConfigError(f"{where}: expected an object")
    if "path" in obj:
        _expect_keys(obj, ("path",), where)
        return io.read_partition(base / _typed(obj, "path", str, where))
    _expect_keys(obj, _SECTION_KEYS["partition"], where)
    mode = _typed(obj, "mode", int, where) - 1
    groups = []
    for gi, g in enumerate(_typed(obj, "groups", list, where)):
        if not isinstance(g, list):
            raise io.ConfigError(f"{where}.groups[{gi}]: expected a list of indices")
        groups.append(SliceGroup(tuple(int(i) - 1 for i in g)))
    try:
        return SubjectPartition(mode, tuple(groups))
    except ValueError as exc:
        raise io.ConfigError(f"{where}: {exc}") from exc


def _parse_similarity(
    obj, shape, base: Path, where="similarity"
) -> tuple[SimilarityModel, dict | None]:
    """The similarity model and the section it was built from, defaults filled in.

    Without a section the model is neutral and the section is ``None``.
    """
    if obj is None:
        return SimilarityModel.neutral(shape), None
    if not isinstance(obj, dict):
        raise io.ConfigError(f"{where}: expected an object")
    _expect_keys(obj, _SECTION_KEYS["similarity"], where)
    if _typed(obj, "kind", str, where, "kernel") != "kernel":
        raise io.ConfigError(f"{where}.kind: expected 'kernel'")
    feats_cfg = _typed(obj, "features", list, where)
    labels_cfg = _typed(obj, "labels", list, where, [None] * len(shape))
    if len(feats_cfg) != len(shape) or len(labels_cfg) != len(shape):
        raise io.ConfigError(f"{where}: need one features/labels entry per mode")
    bandwidths = obj.get("bandwidths")
    if bandwidths is not None and not (
        isinstance(bandwidths, list)
        and bandwidths
        and all(
            isinstance(h, (int, float)) and not isinstance(h, bool)
            and math.isfinite(h) and h > 0
            for h in bandwidths
        )
    ):
        raise io.ConfigError(f"{where}.bandwidths: expected a list of positive numbers")
    per_mode = []
    for n, (fpath, lpath) in enumerate(zip(feats_cfg, labels_cfg)):
        if not isinstance(fpath, str):
            raise io.ConfigError(f"{where}.features[{n}]: expected a file path")
        if lpath is not None and not isinstance(lpath, str):
            raise io.ConfigError(f"{where}.labels[{n}]: expected a file path or null")
        labels = io.read_labels(base / lpath) if lpath is not None else None
        if labels is not None and labels.size != shape[n]:
            raise io.ConfigError(
                f"{where}.labels[{n}]: {labels.size} labels for mode of size {shape[n]}"
            )
        feats = io.read_features(base / fpath)
        if feats.shape[0] != shape[n]:
            raise io.ConfigError(
                f"{where}.features[{n}]: {feats.shape[0]} rows for mode of size "
                f"{shape[n]}"
            )
        per_mode.append(mode_similarity(feats, bandwidths=bandwidths, labels=labels))
    section = {"kind": "kernel", "features": feats_cfg, "labels": labels_cfg,
               "bandwidths": bandwidths}
    return SimilarityModel(per_mode=per_mode), section


def _partition_flat_groups(partition: SubjectPartition, shape) -> tuple:
    """One flat-index group per tied slice, in first-mode-fastest order."""
    groups = []
    for g in partition.groups:
        for i in g.indices:
            sel = np.zeros(shape, dtype=bool)
            sel[_group_slicer(len(shape), partition.mode, i, g.fixed)] = True
            groups.append(np.flatnonzero(sel.ravel(order="F")))
    return tuple(groups)


def _parse_penalty(obj, ranks, partition, where) -> Penalty:
    if obj is None:
        return Penalty.none()
    if not isinstance(obj, dict):
        raise io.ConfigError(f"{where}: expected an object")
    _expect_keys(obj, _SECTION_KEYS["penalty"], where)
    kind = _typed(obj, "kind", str, where, "none")
    weight = float(_typed(obj, "weight", (int, float), where, 0.0))
    groups = ()
    if kind == "sparse_group_lasso":
        if obj.get("groups", "partition") != "partition":
            raise io.ConfigError(f"{where}.groups: expected 'partition'")
        if partition is None:
            raise io.ConfigError(f"{where}: groups 'partition' needs a partition")
        groups = _partition_flat_groups(partition, tuple(ranks))
    try:
        return Penalty(kind, weight, groups)
    except ValueError as exc:
        raise io.ConfigError(f"{where}: {exc}") from exc


def _parse_penalties(obj, ranks, partition, where="penalties") -> BlockPenalties:
    if obj is None:
        return BlockPenalties()
    if not isinstance(obj, dict):
        raise io.ConfigError(f"{where}: expected an object")
    _expect_keys(obj, _SECTION_KEYS["penalties"], where)
    return BlockPenalties(**{
        block: _parse_penalty(obj.get(block), ranks, partition, f"{where}.{block}")
        for block in _SECTION_KEYS["penalties"]
    })


_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))

# The keys each config section accepts ("penalty" is any one of the g, h
# and factors objects of "penalties").  README's "Command line" lists them.
_SECTION_KEYS = {
    "data": ("observations", "format"),
    "synth": ("shape", "ranks", "partition", "subject_core_scale", "noise_family",
              "noise_sigma", "missing_fraction", "seed"),
    "partition": ("path", "mode", "groups"),
    "similarity": ("kind", "features", "labels", "bandwidths"),
    "penalties": ("g", "h", "factors"),
    "penalty": ("kind", "weight", "groups"),
    "init": ("kind", "seed"),
    "split": ("train_fraction", "seed"),
    "grid": ("lambdas", "blocks"),
    "evaluate": ("estimate", "run_dir", "reference"),
}

# Every "solver" key with the JSON types it accepts (bools are rejected
# unless listed, see _typed).
_SOLVER_KEYS = {
    "gamma": _NUMBER,
    "rho_g": _OPTIONAL_NUMBER,
    "rho_h": _OPTIONAL_NUMBER,
    "rho_factors": (list, type(None)),
    "max_iters": int,
    "tol_primal": _OPTIONAL_NUMBER,
    "tol_step": _NUMBER,
    "lipschitz_safety": _NUMBER,
    "fixed_moduli": bool,
    "z_floor": _NUMBER,
    "freeze_h": bool,
}


def _parse_solver(obj, penalties: BlockPenalties, where="solver") -> SolverConfig:
    if obj is None:
        return SolverConfig(penalties=penalties)
    if not isinstance(obj, dict):
        raise io.ConfigError(f"{where}: expected an object")
    _expect_keys(obj, _SOLVER_KEYS, where)
    kwargs = {
        key: _typed(obj, key, types, where)
        for key, types in _SOLVER_KEYS.items()
        if key in obj
    }
    rho_factors = kwargs.get("rho_factors")
    if rho_factors is not None:
        if any(isinstance(v, bool) or not isinstance(v, _NUMBER) for v in rho_factors):
            raise io.ConfigError(f"{where}.rho_factors: expected a list of numbers")
        kwargs["rho_factors"] = tuple(float(v) for v in rho_factors)
    try:
        return SolverConfig(penalties=penalties, **kwargs)
    except (TypeError, ValueError) as exc:
        raise io.ConfigError(f"{where}: {exc}") from exc


def _parse_init(obj, seed: int, where="init") -> InitStrategy:
    if obj is None:
        return InitStrategy("hosvd", seed)
    if not isinstance(obj, dict):
        raise io.ConfigError(f"{where}: expected an object")
    _expect_keys(obj, _SECTION_KEYS["init"], where)
    try:
        return InitStrategy(
            _typed(obj, "kind", str, where, "hosvd"),
            int(_typed(obj, "seed", int, where, seed)),
        )
    except ValueError as exc:
        raise io.ConfigError(f"{where}: {exc}") from exc


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _write_summary(out_dir: Path, payload: dict) -> None:
    (out_dir / "summary.json").write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_setting() -> dict:
    """The BLAS library and its thread settings (unset variables are null).

    Solver outputs can differ in the last bit between BLAS thread counts, so
    every summary of a solve records them.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": {k: os.environ.get(k) for k in _BLAS_THREAD_VARS},
    }


def _read_observations(data_cfg: dict, base: Path, default_format: str) -> ObservationSet:
    _expect_keys(data_cfg, _SECTION_KEYS["data"], "data")
    path = base / _typed(data_cfg, "observations", str, "data")
    fmt = _typed(data_cfg, "format", str, "data", default_format)
    obj = io.read_tensor(path, fmt)
    if isinstance(obj, ObservationSet):
        return obj
    return ObservationSet.from_dense(obj)


_TOP_KEYS = {
    "synth": {"required": ("synth", "output"), "optional": ("seed",)},
    "factorize": {
        "required": ("data", "family", "ranks", "output"),
        "optional": ("partition", "similarity", "penalties", "solver", "init", "seed"),
    },
    "complete": {
        "required": ("data", "family", "ranks", "output"),
        "optional": ("partition", "similarity", "penalties", "solver", "init", "seed"),
    },
    "evaluate": {"required": ("evaluate",), "optional": ("output", "seed")},
    "grid-search": {
        "required": ("data", "family", "ranks", "output", "grid", "split"),
        "optional": ("partition", "similarity", "penalties", "solver", "init", "seed"),
    },
}


def _validate_top(cfg: dict, command: str) -> None:
    spec = _TOP_KEYS[command]
    _expect_keys(cfg, spec["required"] + spec["optional"], "config")
    for key in spec["required"]:
        if key not in cfg:
            raise io.ConfigError(f"config: command {command!r} requires key {key!r}")


def _cmd_synth(cfg: dict, out_dir: Path, seed: int, base: Path) -> dict:
    obj = _typed(cfg, "synth", dict, "config")
    _expect_keys(obj, _SECTION_KEYS["synth"], "synth")
    partition = _parse_partition(obj.get("partition"), base, "synth.partition")
    try:
        spec = SynthSpec(
            shape=tuple(_int_list(obj, "shape", "synth")),
            ranks=tuple(_int_list(obj, "ranks", "synth")),
            partition=partition,
            subject_core_scale=float(
                _typed(obj, "subject_core_scale", (int, float), "synth", 1.0)
            ),
            noise_family=_typed(obj, "noise_family", str, "synth", "gaussian"),
            noise_sigma=float(_typed(obj, "noise_sigma", (int, float), "synth", 0.0)),
            missing_fraction=float(
                _typed(obj, "missing_fraction", (int, float), "synth", 0.0)
            ),
            seed=int(_typed(obj, "seed", int, "synth", seed)),
        )
    except ValueError as exc:
        raise io.ConfigError(f"synth: {exc}") from exc
    data = synthesize(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_coo(data.observed, out_dir / "observed.coo")
    io.write_dense(data.ground_truth.to_dense(), out_dir / "truth.dct")
    for n, u in enumerate(data.planted.factors, start=1):
        io.write_features(u, out_dir / f"features_mode{n}.txt")
        io.write_labels(data.labels[n - 1], out_dir / f"labels_mode{n}.txt")
    if spec.partition is not None:
        io.write_partition(spec.partition, out_dir / "partition.txt")
    summary = {
        "command": "synth",
        "effective_config": spec,
        "observed_entries": len(data.observed),
        "total_cells": int(np.prod(spec.shape)),
    }
    _write_summary(out_dir, summary)
    return summary


def _load_problem(cfg: dict, base: Path, seed: int, default_format: str):
    omega = _read_observations(_typed(cfg, "data", dict, "config"), base, default_format)
    family = _parse_family(cfg.get("family"))
    family.validate_observations(omega)
    ranks = _int_list(cfg, "ranks", "config")
    if len(ranks) != len(omega.shape):
        raise io.ConfigError("config.ranks: need one rank per tensor mode")
    partition = _parse_partition(cfg.get("partition"), base)
    if partition is not None:
        try:
            partition.validate_shape(tuple(ranks))
        except ValueError as exc:
            raise io.ConfigError(f"partition: {exc}") from exc
    sim, sim_section = _parse_similarity(cfg.get("similarity"), omega.shape, base)
    penalties = _parse_penalties(cfg.get("penalties"), ranks, partition)
    solver_cfg = _parse_solver(cfg.get("solver"), penalties)
    strategy = _parse_init(cfg.get("init"), seed)
    return omega, family, ranks, partition, sim, sim_section, solver_cfg, strategy


def _cmd_factorize(cfg: dict, out_dir: Path, seed: int, default_format: str,
                   write_zhat: bool, base: Path) -> dict:
    omega, family, ranks, partition, sim, sim_section, solver_cfg, strategy = (
        _load_problem(cfg, base, seed, default_format)
    )
    init = initial_model(omega.to_dense(initial_fill(omega, family)), ranks, strategy,
                         partition)
    result = solve(omega, init, family, sim, solver_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_dense(result.model.core_g, out_dir / "model_g.dct")
    io.write_dense(result.model.core_h, out_dir / "model_h.dct")
    for n, u in enumerate(result.model.factors, start=1):
        io.write_dense(u, out_dir / f"factor_{n}.dct")
    result.trace.write_csv(out_dir / "trace.csv")
    z_hat = reconstruct(result.model)
    if write_zhat:
        io.write_dense(z_hat, out_dir / "z_hat.dct")
    summary = {
        "command": "complete" if write_zhat else "factorize",
        "effective_config": {
            "family": family,
            "ranks": list(ranks),
            "partition": partition,
            "solver": result.config,
            "init": strategy,
            "seed": seed,
            "similarity": sim_section,
        },
        "iterations": result.trace.rows[-1].iteration,
        "converged": result.converged,
        "reason": result.reason,
        "primal_residual": result.trace.rows[-1].primal_residual,
        "train_rmse": rmse(z_hat, omega),
        "blas": _blas_setting(),
    }
    _write_summary(out_dir, summary)
    return summary


def _cmd_evaluate(cfg: dict, out_dir: Path | None, base: Path) -> dict:
    obj = _typed(cfg, "evaluate", dict, "config")
    _expect_keys(obj, _SECTION_KEYS["evaluate"], "evaluate")
    ref_path = _typed(obj, "reference", str, "evaluate")
    reference = io.read_coo(base / ref_path)
    if "estimate" in obj:
        z_hat = io.read_dense(base / _typed(obj, "estimate", str, "evaluate"))
    elif "run_dir" in obj:
        run = base / _typed(obj, "run_dir", str, "evaluate")
        core_g = io.read_dense(run / "model_g.dct")
        core_h = io.read_dense(run / "model_h.dct")
        factors = [
            io.read_dense(run / f"factor_{n}.dct") for n in range(1, core_g.ndim + 1)
        ]
        z_hat = reconstruct(DcotModel(factors, core_g, core_h))
    else:
        raise io.ConfigError("evaluate: need 'estimate' or 'run_dir'")
    value = rmse(z_hat, reference)
    summary = {"command": "evaluate", "rmse": value, "entries": len(reference)}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_summary(out_dir, summary)
    print(json.dumps(_jsonable(summary)))
    return summary


def _cmd_grid(cfg: dict, out_dir: Path, seed: int, default_format: str,
              workers: int, base: Path) -> dict:
    omega, family, ranks, partition, sim, _, solver_cfg, strategy = _load_problem(
        cfg, base, seed, default_format
    )
    split_obj = _typed(cfg, "split", dict, "config")
    _expect_keys(split_obj, _SECTION_KEYS["split"], "split")
    try:
        split = SplitSpec(
            float(_typed(split_obj, "train_fraction", (int, float), "split")),
            int(_typed(split_obj, "seed", int, "split", seed)),
        )
    except ValueError as exc:
        raise io.ConfigError(f"split: {exc}") from exc
    grid_obj = _typed(cfg, "grid", dict, "config")
    _expect_keys(grid_obj, _SECTION_KEYS["grid"], "grid")
    lam = grid_obj.get("lambdas", "default")
    lambdas = lambda_grid() if lam == "default" else np.asarray(lam, dtype=float)
    blocks = tuple(_typed(grid_obj, "blocks", list, "grid", ["g", "h"]))
    result = grid_search(
        omega, split, family, sim, solver_cfg, ranks, strategy, partition,
        lambdas=lambdas, blocks=blocks, workers=workers,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(list(blocks) + ["validation_rmse", "converged"])]
    for p in result.report:
        lines.append(
            ",".join(
                [repr(float(p.weights[b])) for b in blocks]
                + [repr(float(p.validation_rmse)), str(p.converged).lower()]
            )
        )
    (out_dir / "grid_report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "command": "grid-search",
        "best_weights": result.best.weights,
        "best_validation_rmse": result.best.validation_rmse,
        "points": len(result.report),
        "effective_config": {
            "family": family,
            "ranks": list(ranks),
            "solver": solver_cfg,
            "split": split,
            "blocks": list(blocks),
            "seed": seed,
        },
        "blas": _blas_setting(),
    }
    _write_summary(out_dir, summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcot",
        description="Double-core tensor factorization and completion",
    )
    parser.add_argument(
        "command",
        choices=("synth", "factorize", "complete", "evaluate", "grid-search"),
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--output", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker pool size for grid-search")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--format", choices=("coo", "dense"), default="coo",
                        help="default tensor format for data files")
    args = parser.parse_args(argv)

    level = os.environ.get("DCOT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        cfg = io.load_json(args.config)
        _validate_top(cfg, args.command)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out = args.output if args.output is not None else cfg.get("output")
        if args.command != "evaluate" and out is None:
            raise io.ConfigError("config: missing output directory")
        out_dir = Path(out) if out is not None else None

        base = Path(args.config).resolve().parent
        if args.command == "synth":
            _cmd_synth(cfg, out_dir, seed, base)
        elif args.command == "factorize":
            _cmd_factorize(cfg, out_dir, seed, args.format, False, base)
        elif args.command == "complete":
            _cmd_factorize(cfg, out_dir, seed, args.format, True, base)
        elif args.command == "evaluate":
            _cmd_evaluate(cfg, out_dir, base)
        else:
            _cmd_grid(cfg, out_dir, seed, args.format, max(1, args.threads), base)
        return EXIT_OK
    except io.ConfigError as exc:
        _emit_error("config", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except SolverAbort as exc:
        _emit_error("solver", str(exc), EXIT_SOLVER)
        return EXIT_SOLVER
    except io.DataIOError as exc:
        _emit_error("io", str(exc), EXIT_IO)
        return EXIT_IO
    except OSError as exc:
        _emit_error("io", str(exc), EXIT_IO)
        return EXIT_IO
    except ValueError as exc:
        _emit_error("config", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG


def _emit_error(kind: str, message: str, code: int) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "code": code,
                                           "message": message}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
