#!/usr/bin/env python3
"""Watch the thinned-fit direction converge to its analytic limit.

Fits the augmented logistic regression along a decreasing alpha path on a
two-class Gaussian toy whose best linear separator genuinely depends on
the thinning level, and prints the Frobenius distance between each fitted
direction and the strong-thinning (alpha -> 0) direction.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from levyaug import Example, RngState, gaussian_family
from levyaug.strong_thinning import alpha_path_converges


def toy_examples(n: int, seed: int):
    g = RngState(seed).spawn()
    out = []
    for i in range(n):
        if i % 2 == 0:
            mu = np.array([3.2, 0.0]) if (i // 2) % 4 else np.array([0.0, 3.0])
            out.append(Example(x=mu + g.standard_normal(2), y=1, t=1.0))
        else:
            out.append(Example(x=np.array([-1.0, -0.6]) + g.standard_normal(2), y=2, t=1.0))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--alphas", default="0.75,0.5,0.25,0.1,0.05,0.02")
    ap.add_argument("-B", "--n-pseudo", type=int, default=400)
    ap.add_argument("--ridge-lambda", type=float, default=1e-8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    examples = toy_examples(args.n, args.seed)
    rows = alpha_path_converges(
        examples,
        gaussian_family(2),
        alphas=[float(a) for a in args.alphas.split(",")],
        n_pseudo=args.n_pseudo,
        ridge_lambda=args.ridge_lambda,
        seed=RngState(args.seed + 1),
    )
    print(f"{'alpha':>8s}  {'direction distance':>20s}")
    for row in rows:
        print(f"{row.alpha:8.3f}  {row.direction_distance:20.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
