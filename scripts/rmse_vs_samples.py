#!/usr/bin/env python3
"""Empirical trend check: held-out RMSE should fall as more cells are observed.

Sweeps the missing fraction on a fixed planted problem and reports the
median held-out RMSE over a few seeds at each observation count.  This is
a qualitative consistency harness, not a rate certification.

Usage: python scripts/rmse_vs_samples.py [--size 14] [--noise 0.1]
       [--seeds 3] [--out trend.csv]
"""

import argparse
import csv
import sys

import numpy as np

from dcot.evaluate import SynthSpec, complement_set, rmse, synthesize
from dcot.losses import LossFamily, initial_fill
from dcot.model import InitStrategy, SliceGroup, SubjectPartition, initial_model, reconstruct
from dcot.similarity import SimilarityModel, mode_similarity
from dcot.solver import SolverConfig, solve


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
    ap.add_argument("--size", type=int, default=14)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--iters", type=int, default=300)
    ap.add_argument("--missing", type=float, nargs="+",
                    default=[0.8, 0.6, 0.4, 0.2])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    part = SubjectPartition(2, (SliceGroup((0, 1, 2)),))
    fam = LossFamily("gaussian")
    shape = (args.size,) * 3
    results = []
    for missing in args.missing:
        errs = []
        for seed in range(args.seeds):
            spec = SynthSpec(shape=shape, ranks=(3, 3, 3), partition=part,
                             subject_core_scale=1.0, noise_sigma=args.noise,
                             missing_fraction=missing, seed=seed)
            data = synthesize(spec)
            init = initial_model(
                data.observed.to_dense(initial_fill(data.observed, fam)),
                spec.ranks, InitStrategy("hosvd"), part,
            )
            res = solve(data.observed, init, fam, informative_similarity(data),
                        SolverConfig(max_iters=args.iters))
            test = complement_set(data.observed, data.ground_truth)
            errs.append(rmse(reconstruct(res.model), test))
        n_obs = len(data.observed)
        median = float(np.median(errs))
        results.append({"missing_fraction": missing, "observations": n_obs,
                        "median_test_rmse": median})
        print(f"missing {missing:.2f} ({n_obs} cells observed): "
              f"median test RMSE {median:.4f}")

    medians = [r["median_test_rmse"] for r in results]
    print("\nmonotone improvement with more observations:",
          all(a >= b for a, b in zip(medians, medians[1:])))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(results[0]))
            writer.writeheader()
            writer.writerows(results)
        print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
