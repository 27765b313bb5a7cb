#!/usr/bin/env python3
"""Directional study: does the tied subject core help, and does smoothing help?

For each seed, plants a heterogeneous model (tied core as strong as the
shared one), then fits four variants on the same data:

* tied core + ridge on shared core/factors   (full model)
* frozen-at-zero subject core, same ridge    (plain Tucker baseline)
* tied core, no penalties, neutral weights (unobserved cells pulled to the observed mean)
* tied core, no penalties, informative kernel smoothing

and reports held-out RMSE per seed plus medians.

Usage: python scripts/heterogeneity_study.py [--seeds 5] [--size 12]
       [--noise 0.15] [--missing 0.5] [--ridge 2e-3] [--out report.csv]
"""

import argparse
import csv
import sys

import numpy as np

from dcot.evaluate import SynthSpec, complement_set, rmse, synthesize
from dcot.losses import LossFamily, initial_fill
from dcot.model import InitStrategy, SliceGroup, SubjectPartition, initial_model, reconstruct
from dcot.prox import Penalty
from dcot.similarity import SimilarityModel, mode_similarity
from dcot.solver import BlockPenalties, SolverConfig, solve


def informative_similarity(data, lo=0.02, hi=0.2):
    per_mode = []
    for n, feats in enumerate(data.planted.factors):
        d = np.sqrt(((feats[:, None, :] - feats[None, :, :]) ** 2).sum(-1))
        med = float(np.median(d[np.triu_indices_from(d, 1)]))
        per_mode.append(
            mode_similarity(feats, bandwidths=np.geomspace(lo * med, hi * med, 10),
                            labels=data.labels[n])
        )
    return SimilarityModel(per_mode=per_mode)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--size", type=int, default=12)
    ap.add_argument("--noise", type=float, default=0.15)
    ap.add_argument("--missing", type=float, default=0.5)
    ap.add_argument("--ridge", type=float, default=2e-3)
    ap.add_argument("--iters", type=int, default=400)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    part = SubjectPartition(2, (SliceGroup((0, 1, 2)),))
    fam = LossFamily("gaussian")
    shape = (args.size,) * 3
    rows = []
    for seed in range(args.seeds):
        spec = SynthSpec(shape=shape, ranks=(3, 3, 3), partition=part,
                         subject_core_scale=1.0, noise_sigma=args.noise,
                         missing_fraction=args.missing, seed=seed)
        data = synthesize(spec)
        test = complement_set(data.observed, data.ground_truth)
        init = initial_model(
            data.observed.to_dense(initial_fill(data.observed, fam)),
            spec.ranks, InitStrategy("hosvd"), part,
        )
        neutral = SimilarityModel.neutral(shape)
        ridge = BlockPenalties(g=Penalty.frob_sq(args.ridge),
                               factors=Penalty.frob_sq(args.ridge))

        def fit(sim, penalties, freeze):
            cfg = SolverConfig(max_iters=args.iters, penalties=penalties,
                               freeze_h=freeze, fixed_moduli=True)
            res = solve(data.observed, init, fam, sim, cfg)
            return rmse(reconstruct(res.model), test)

        row = {
            "seed": seed,
            "tied_ridge": fit(neutral, ridge, False),
            "frozen_ridge": fit(neutral, ridge, True),
            "tied_plain": fit(neutral, BlockPenalties(), False),
            "tied_smoothed": fit(informative_similarity(data), BlockPenalties(), False),
        }
        rows.append(row)
        print("seed {seed}: tied+ridge {tied_ridge:.4f}  frozen+ridge "
              "{frozen_ridge:.4f}  plain {tied_plain:.4f}  smoothed "
              "{tied_smoothed:.4f}".format(**row))

    meds = {k: float(np.median([r[k] for r in rows])) for k in rows[0] if k != "seed"}
    print("\nmedians:", "  ".join(f"{k}={v:.4f}" for k, v in meds.items()))
    print("tied core beats frozen core:", meds["tied_ridge"] < meds["frozen_ridge"])
    wins = sum(r["tied_smoothed"] <= r["tied_plain"] for r in rows)
    print(f"smoothing wins on {wins}/{len(rows)} seeds")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
