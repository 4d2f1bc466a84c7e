"""Compute the stored Monte Carlo reference for the mc-scalar workload.

Simulates the README scalar model
    x(k+1) = 0.5 x + (0.2 + 0.3 |x|) eps + 0.1 w,   x(0) = 0,
with its own numpy generator (PCG64, not the package's Philox streams)
and estimates the discounted energy sum_{k=0}^{200} 0.9^k x_k^2 with
far more paths than one benchmark job uses.  The result is written to
reference.json next to this file; the benchmark only reads it.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os

import numpy as np

PATHS = 4_000_000
CHUNK = 250_000
HORIZON = 200
ALPHA = 0.9
SEED = 20210628


def abel_sums(rng, paths):
    x = np.zeros(paths)
    total = np.zeros(paths)
    weight = 1.0
    for _ in range(HORIZON):
        eps = rng.standard_normal(paths)
        w = rng.standard_normal(paths)
        x = 0.5 * x + (0.2 + 0.3 * np.abs(x)) * eps + 0.1 * w
        weight *= ALPHA
        total += weight * x * x
    return total


def main():
    rng = np.random.default_rng(SEED)
    count, mean, m2 = 0, 0.0, 0.0
    for _ in range(PATHS // CHUNK):
        s = abel_sums(rng, CHUNK)
        # Chan et al. pairwise merge of (count, mean, M2).
        c_mean, c_m2 = float(s.mean()), float(((s - s.mean()) ** 2).sum())
        delta = c_mean - mean
        total = count + CHUNK
        mean += delta * CHUNK / total
        m2 += c_m2 + delta * delta * count * CHUNK / total
        count = total
    se = (m2 / (count - 1) / count) ** 0.5
    doc = {
        "model": "README scalar model (a=0.5, sigma_x=0.2, sigma_bar_x=0.3, sigma=0.1, C=1)",
        "quantity": "E sum_{k=0}^{200} 0.9^k x_k^2 with x_0 = 0",
        "alpha": ALPHA,
        "horizon": HORIZON,
        "paths": count,
        "generator": f"numpy PCG64 seed {SEED}",
        "value": mean,
        "std_error": se,
    }
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
