"""Command line interface: synth, factorize, complete, evaluate, grid-search.

Every command takes ``--config PATH`` pointing at a JSON document.  Every
key is read through one typed table (``_SCHEMA``): an unknown key, a
missing required key or a wrong type is rejected, naming the key, before
any output is produced.  The summary written to each run directory
echoes the full effective configuration.  Exit codes: 0 success, 2
config error, 3 solver abort, 4 I/O error; failures also emit a one-line
JSON error object on stderr.  Set ``DCOT_LOG`` to a level name (e.g.
``info``) for diagnostics.
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
from .losses import LossFamily, initial_fill
from .model import (
    DcotModel,
    InitStrategy,
    SubjectPartition,
    initial_model,
    reconstruct,
)
from .prox import Penalty
from .similarity import SimilarityModel, mode_similarity
from .solver import BlockPenalties, SolverAbort, SolverConfig, solve

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_IO = 0, 2, 3, 4


class _Check:
    """A check of one JSON value, named by ``what`` in error messages.

    ``fits`` tests the value's own type; ``read`` also checks what the
    value contains and returns it, or raises a ``ConfigError`` naming
    ``name`` (``section.key`` or ``section.key[i]``).
    """

    def __init__(self, what: str, fits):
        self.what, self.fits = what, fits

    def read(self, value, name: str):
        if not self.fits(value):
            raise io.ConfigError(f"{name}: expected {self.what}, got {json.dumps(value)}")
        return value


def _type(what: str, *types) -> _Check:
    # bool is an int in Python: it fits only where it is named
    return _Check(what, lambda v: isinstance(v, types)
                  and (bool in types or not isinstance(v, bool)))


def _choice(*names: str) -> _Check:
    return _Check(" or ".join(map(json.dumps, names)),
                  lambda v: isinstance(v, str) and v in names)


class _OneOf(_Check):
    """The first alternative whose type fits the value reads it."""

    def __init__(self, *alternatives: _Check):
        super().__init__(" or ".join(a.what for a in alternatives),
                         lambda v: any(a.fits(v) for a in alternatives))
        self.alternatives = alternatives

    def read(self, value, name: str):
        for a in self.alternatives:
            if a.fits(value):
                return a.read(value, name)
        return super().read(value, name)


class _List(_Check):
    def __init__(self, item: _Check, nonempty: bool = False):
        super().__init__("a non-empty list" if nonempty else "a list",
                         lambda v: isinstance(v, list) and (bool(v) or not nonempty))
        self.item = item

    def read(self, value, name: str):
        super().read(value, name)
        return [self.item.read(v, f"{name}[{i}]") for i, v in enumerate(value)]


class _Section(_Check):
    """An object read through the ``_SCHEMA`` table of ``section``."""

    def __init__(self, section: str):
        super().__init__("an object", lambda v: isinstance(v, dict))
        self.section = section

    def read(self, value, name: str):
        super().read(value, name)
        return _read(value, _SCHEMA[self.section], name)


def _finite_number(v) -> bool:
    # json reads NaN and +-Infinity; an int too large for a float is not finite
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


_INT = _type("an integer", int)
_SEED = _Check("a nonnegative integer", lambda v: _INT.fits(v) and v >= 0)
_NUMBER = _Check("a finite number", _finite_number)
_NONNEGATIVE = _Check("a nonnegative finite number",
                      lambda v: _finite_number(v) and v >= 0)
_STR = _type("a string", str)
_BOOL = _type("true or false", bool)
_NULL = _Check("null", lambda v: v is None)


def _or_null(check: _Check) -> _Check:
    return _OneOf(check, _NULL)


_REQUIRED = object()

# section -> key -> (check, default or _REQUIRED).  "config" holds the
# top-level keys (which of them a command takes, and which it requires,
# is _TOP_KEYS); "penalty" is each of the g, h and factors objects of
# "penalties".  Checks of values the dataclasses check (SolverConfig,
# SynthSpec, Penalty, SubjectPartition, SplitSpec) stay there.  README's
# "Command line" lists every key.
_SCHEMA = {
    "config": {
        "seed": (_SEED, 0),
        "output": (_STR, None),
        "family": (_STR, _REQUIRED),
        "ranks": (_List(_INT), _REQUIRED),
        "data": (_Section("data"), _REQUIRED),
        "synth": (_Section("synth"), _REQUIRED),
        "partition": (_or_null(_Section("partition")), None),
        "similarity": (_or_null(_Section("similarity")), None),
        "penalties": (_or_null(_Section("penalties")), None),
        "solver": (_or_null(_Section("solver")), None),
        "split": (_Section("split"), _REQUIRED),
        "grid": (_Section("grid"), _REQUIRED),
        "evaluate": (_Section("evaluate"), _REQUIRED),
    },
    "data": {
        "observations": (_STR, _REQUIRED),
    },
    "synth": {
        "shape": (_List(_INT), _REQUIRED),
        "ranks": (_List(_INT), _REQUIRED),
        "partition": (_or_null(_Section("partition")), None),
        "subject_core_scale": (_NUMBER, 1.0),
        "noise_family": (_STR, "gaussian"),
        "noise_sigma": (_NUMBER, 0.0),
        "missing_fraction": (_NUMBER, 0.0),
        "seed": (_SEED, None),
    },
    "partition": {
        "path": (_STR, None),
        "mode": (_INT, None),
        "groups": (_List(_List(_INT)), None),
    },
    "similarity": {
        "kind": (_choice("kernel"), "kernel"),
        "features": (_List(_STR), _REQUIRED),
        "labels": (_List(_or_null(_STR)), None),
        "bandwidths": (_or_null(_List(_NUMBER, nonempty=True)), None),
    },
    "penalties": {block: (_or_null(_Section("penalty")), None)
                  for block in ("g", "h", "factors")},
    "penalty": {
        "kind": (_STR, "none"),
        "weight": (_NUMBER, 0.0),
    },
    "solver": {
        "max_iters": (_INT, 500),
        "fixed_moduli": (_BOOL, False),
        "z_floor": (_NUMBER, 1e-6),
        "freeze_h": (_BOOL, False),
    },
    "split": {
        "train_fraction": (_NUMBER, _REQUIRED),
        "seed": (_SEED, None),
    },
    "grid": {
        "lambdas": (_OneOf(_choice("default"), _List(_NONNEGATIVE, nonempty=True)),
                    "default"),
        "blocks": (_List(_choice("g", "h", "factors"), nonempty=True), ("g", "h")),
    },
    "evaluate": {
        "estimate": (_STR, None),
        "run_dir": (_STR, None),
        "reference": (_STR, _REQUIRED),
    },
}

_FIT_KEYS = ("data", "family", "ranks")
_FIT_OPTIONAL = ("partition", "similarity", "penalties", "solver", "seed", "output")

# command -> (required, optional) top-level keys; main also requires an
# output directory ("output" or --output) of every command but evaluate
_TOP_KEYS = {
    "synth": (("synth",), ("seed", "output")),
    "factorize": (_FIT_KEYS, _FIT_OPTIONAL),
    "complete": (_FIT_KEYS, _FIT_OPTIONAL),
    "evaluate": (("evaluate",), ("output", "seed")),
    "grid-search": (_FIT_KEYS + ("grid", "split"), _FIT_OPTIONAL),
}


def _read(obj: dict, spec: dict, where: str) -> dict:
    """``obj`` checked against ``spec`` (key -> (check, default)), defaults filled in.

    Unknown keys, missing required keys and wrong types raise a
    ``ConfigError``.  ``where`` is empty at the top level.
    """
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise io.ConfigError(f"{where or 'config'}: unknown keys {unknown}")
    out = {}
    for key, (check, default) in spec.items():
        if key in obj:
            out[key] = check.read(obj[key], f"{where}.{key}" if where else key)
        elif default is _REQUIRED:
            raise io.ConfigError(f"{where or 'config'}: missing required key {key!r}")
        else:
            out[key] = default
    return out


def _read_config(raw: dict, command: str) -> dict:
    required, optional = _TOP_KEYS[command]
    top = _SCHEMA["config"]
    spec = {key: (top[key][0], _REQUIRED if key in required else top[key][1])
            for key in required + optional}
    return _read(raw, spec, "")


def _in_section(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` a ``ConfigError`` naming ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise io.ConfigError(f"{where}: {exc}") from exc


def _parse_partition(sec, base: Path, where="partition") -> SubjectPartition | None:
    if sec is None:
        return None
    if sec["path"] is not None and sec["mode"] is None and sec["groups"] is None:
        return io.read_partition(base / sec["path"])
    if sec["path"] is not None or sec["mode"] is None or sec["groups"] is None:
        raise io.ConfigError(f"{where}: give either 'path', or 'mode' and 'groups'")
    # checked group by group in the config's 1-based numbering, as read_partition does
    groups = sec["groups"]
    for k in range(len(groups)):
        _in_section(f"{where}.groups[{k}]", SubjectPartition, sec["mode"], groups[:k + 1])
    return _in_section(where, SubjectPartition, sec["mode"] - 1,
                       tuple(tuple(i - 1 for i in g) for g in groups))


def _parse_similarity(sec, shape, base: Path) -> tuple[SimilarityModel, dict | None]:
    """The similarity model and its section, labels filled in.

    Without a section the model is neutral and the section is ``None``.
    """
    if sec is None:
        return SimilarityModel.neutral(shape), None
    if sec["labels"] is None:
        sec = {**sec, "labels": [None] * len(shape)}
    if len(sec["features"]) != len(shape) or len(sec["labels"]) != len(shape):
        raise io.ConfigError("similarity: need one features/labels entry per mode")
    bandwidths = sec["bandwidths"]
    if bandwidths is not None and not all(h > 0 for h in bandwidths):
        raise io.ConfigError("similarity.bandwidths: expected positive numbers")
    per_mode = []
    for n, (fpath, lpath) in enumerate(zip(sec["features"], sec["labels"])):
        labels = io.read_labels(base / lpath) if lpath is not None else None
        if labels is not None and labels.size != shape[n]:
            raise io.ConfigError(
                f"similarity.labels[{n}]: {labels.size} labels for mode of size {shape[n]}"
            )
        feats = io.read_features(base / fpath)
        if feats.shape[0] != shape[n]:
            raise io.ConfigError(
                f"similarity.features[{n}]: {feats.shape[0]} rows for mode of size "
                f"{shape[n]}"
            )
        per_mode.append(mode_similarity(feats, bandwidths=bandwidths, labels=labels))
    return SimilarityModel(per_mode=per_mode), sec


def _parse_penalties(sec, partition) -> BlockPenalties:
    """One penalty per block named in ``sec``; the other blocks get none.

    A sparse group lasso takes one group per tied core slice of the partition.
    """
    blocks = {}
    for block, pen in (sec or {}).items():
        if pen is None:
            continue
        where = f"penalties.{block}"
        # weight 0 turns any penalty off; an indicator has no other use for it
        if pen["kind"] == "nonneg" and pen["weight"] == 0:
            raise io.ConfigError(
                f"{where}.weight: a nonneg penalty is off at weight 0; give a positive weight"
            )
        sgl = pen["kind"] == "sparse_group_lasso"
        blocks[block] = _in_section(where, Penalty, pen["kind"], float(pen["weight"]),
                                    partition if sgl else None)
        _in_section(where, BlockPenalties, **{block: blocks[block]})
    return BlockPenalties(**blocks)


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


def _cmd_synth(cfg: dict, out_dir: Path, seed: int, base: Path) -> dict:
    sec = cfg["synth"]
    spec = _in_section("synth", SynthSpec, **{
        **sec,
        **{k: float(sec[k]) for k in ("subject_core_scale", "noise_sigma",
                                      "missing_fraction")},
        "partition": _parse_partition(sec["partition"], base, "synth.partition"),
        "seed": seed if sec["seed"] is None else sec["seed"],
    })
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


def _load_problem(cfg: dict, base: Path, seed: int):
    """The observations, the similarity model and the effective config.

    The effective config holds the parsed family, ranks, partition,
    similarity section, seed and solver config.
    """
    family = _in_section("family", LossFamily, cfg["family"])
    path = base / cfg["data"]["observations"]
    omega = io.read_tensor(path)
    if not len(omega):
        raise io.ConfigError(f"data.observations: {path} has no entries")
    family.validate_observations(omega)
    ranks = cfg["ranks"]
    if len(ranks) != len(omega.shape):
        raise io.ConfigError("ranks: need one rank per tensor mode")
    partition = _parse_partition(cfg["partition"], base)
    if partition is not None:
        _in_section("partition", partition.validate_shape, tuple(ranks))
    penalties = _parse_penalties(cfg["penalties"], partition)
    solver = _in_section("solver", SolverConfig, penalties=penalties,
                         **(cfg["solver"] or {}))
    sim, sim_section = _parse_similarity(cfg["similarity"], omega.shape, base)
    effective = {
        "family": family,
        "ranks": ranks,
        "partition": partition,
        "similarity": sim_section,
        "seed": seed,
        "solver": solver,
    }
    return omega, sim, effective


def _cmd_factorize(cfg: dict, out_dir: Path, seed: int, write_zhat: bool,
                   base: Path) -> dict:
    omega, sim, effective = _load_problem(cfg, base, seed)
    family, ranks = effective["family"], effective["ranks"]
    init = initial_model(omega.to_dense(initial_fill(omega, family)), ranks,
                         InitStrategy(), effective["partition"])
    result = solve(omega, init, family, sim, effective["solver"])
    summary = {
        "command": "complete" if write_zhat else "factorize",
        "effective_config": effective,
        "moduli": result.moduli,
        "degenerate": result.degenerate,
        "newton_steps": {"total": sum(result.newton_steps),
                         "max": max(result.newton_steps, default=0)},
        "iterations": result.trace.rows[-1].iteration,
        "converged": result.converged,
        "reason": result.reason,
        "primal_residual": result.trace.rows[-1].primal_residual,
    }
    # the result's z and y go before z_hat is formed: the model and the
    # trace are all that is left to write
    model, trace = result.model, result.trace
    del result
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_dense(model.core_g, out_dir / "model_g.dct")
    io.write_dense(model.core_h, out_dir / "model_h.dct")
    for n, u in enumerate(model.factors, start=1):
        io.write_dense(u, out_dir / f"factor_{n}.dct")
    trace.write_csv(out_dir / "trace.csv")
    z_hat = reconstruct(model)
    if write_zhat:
        io.write_dense(z_hat, out_dir / "z_hat.dct")
    summary["train_rmse"] = rmse(z_hat, omega)
    summary["blas"] = _blas_setting()
    _write_summary(out_dir, summary)
    return summary


def _cmd_evaluate(cfg: dict, out_dir: Path | None, base: Path) -> dict:
    sec = cfg["evaluate"]
    if (sec["estimate"] is None) == (sec["run_dir"] is None):
        raise io.ConfigError("evaluate: need exactly one of 'estimate' and 'run_dir'")
    reference = io.read_tensor(base / sec["reference"])
    if sec["estimate"] is not None:
        z_hat = io.read_dense(base / sec["estimate"])
    else:
        run = base / sec["run_dir"]
        core_g = io.read_dense(run / "model_g.dct")
        core_h = io.read_dense(run / "model_h.dct")
        factors = [
            io.read_dense(run / f"factor_{n}.dct") for n in range(1, core_g.ndim + 1)
        ]
        z_hat = reconstruct(DcotModel(factors, core_g, core_h))
    value = rmse(z_hat, reference)
    summary = {"command": "evaluate", "rmse": value, "entries": len(reference)}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_summary(out_dir, summary)
    print(json.dumps(_jsonable(summary)))
    return summary


def _cmd_grid(cfg: dict, out_dir: Path, seed: int, workers: int, base: Path) -> dict:
    sec = cfg["split"]
    split = _in_section("split", SplitSpec, float(sec["train_fraction"]),
                        seed if sec["seed"] is None else sec["seed"])
    blocks = tuple(cfg["grid"]["blocks"])
    if len(set(blocks)) != len(blocks):
        raise io.ConfigError(f"grid.blocks: a block is named twice in {list(blocks)}")
    # the grid's weight replaces the block's, and an indicator has no weight to
    # sweep: every positive weight is the same projection and 0 turns it off
    penalties = cfg["penalties"] or {}
    for block in blocks:
        if (penalties.get(block) or {}).get("kind") == "nonneg":
            raise io.ConfigError(
                f"grid.blocks: block {block!r} has a nonneg penalty, which has no "
                "weight to sweep"
            )
    lam = cfg["grid"]["lambdas"]
    lambdas = lambda_grid() if lam == "default" else np.asarray(lam, dtype=float)
    omega, sim, effective = _load_problem(cfg, base, seed)
    result = grid_search(
        omega, split, effective["family"], sim, effective["solver"], effective["ranks"],
        InitStrategy(), effective["partition"],
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
        "effective_config": {**effective, "split": split, "blocks": list(blocks)},
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
    args = parser.parse_args(argv)

    level = os.environ.get("DCOT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        if args.seed is not None:
            _SEED.read(args.seed, "--seed")
        cfg = _read_config(io.load_json(args.config), args.command)
        seed = args.seed if args.seed is not None else cfg["seed"]
        out = args.output if args.output is not None else cfg["output"]
        if out is None and args.command != "evaluate":
            raise io.ConfigError("config: missing required key 'output' (or --output)")
        out_dir = Path(out) if out is not None else None

        base = Path(args.config).resolve().parent
        if args.command == "synth":
            _cmd_synth(cfg, out_dir, seed, base)
        elif args.command in ("factorize", "complete"):
            _cmd_factorize(cfg, out_dir, seed, args.command == "complete", base)
        elif args.command == "evaluate":
            _cmd_evaluate(cfg, out_dir, base)
        else:
            _cmd_grid(cfg, out_dir, seed, max(1, args.threads), base)
        return EXIT_OK
    except io.ConfigError as exc:
        _emit_error("config", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except SolverAbort as exc:
        _emit_error("solver", str(exc), EXIT_SOLVER)
        return EXIT_SOLVER
    except (io.DataIOError, OSError) as exc:
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
