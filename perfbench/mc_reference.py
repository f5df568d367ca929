"""Rebuild the Monte-Carlo references of the heavy-tail marginal CFs.

    python3 perfbench/mc_reference.py

Writes data/marginal_cf_mc.json: for each point of
workloads.MCF_HEAVY_POINTS, the estimate of E[exp(i k X^beta)] with
X^beta = |X|^beta exp(i pi beta [X < 0]) and X the projected 1-D symmetric
stable fluctuation at time t, with its seed, path count and standard
errors.  The sampler is written out here (Chambers-Mallows-Stuck), apart
from the package's own sampler.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

BASE_SEED = 20_260_000
CHUNK = 1_000_000
# The stored standard errors, and so the 5-sigma tolerance of the heavy-tail
# check, follow from this path count.
PATHS = 4_000_000


def symmetric_stable(rng, alpha, n):
    """Draws with characteristic function exp(-|k|^alpha)."""
    u = rng.uniform(-math.pi / 2, math.pi / 2, n)
    w = rng.standard_exponential(n)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


def estimate(point, paths, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = point["sigma"] * (point["phi"] * point["t"]) ** (1.0 / point["mu"])
    s1 = np.zeros(2)
    s2 = np.zeros(2)
    done = 0
    while done < paths:
        n = min(CHUNK, paths - done)
        x = scale * symmetric_stable(rng, point["mu"], n)
        power = np.abs(x) ** point["beta"] * np.exp(1j * math.pi * point["beta"] * (x < 0))
        z = np.exp(1j * point["k"] * power)
        parts = np.stack([z.real, z.imag])
        s1 += parts.sum(axis=1)
        s2 += (parts * parts).sum(axis=1)
        done += n
    mean = s1 / paths
    var = (s2 - paths * mean * mean) / (paths - 1)
    se = np.sqrt(var / paths)
    return {**point, "re": float(mean[0]), "im": float(mean[1]),
            "se_re": float(se[0]), "se_im": float(se[1]), "seed": seed, "paths": paths}


def main() -> int:
    points = [estimate(p, PATHS, BASE_SEED + i)
              for i, p in enumerate(workloads.MCF_HEAVY_POINTS)]
    os.makedirs(os.path.dirname(workloads.MCF_REFERENCE), exist_ok=True)
    with open(workloads.MCF_REFERENCE, "w") as fh:
        json.dump({"sampler": "Chambers-Mallows-Stuck, numpy PCG64", "points": points},
                  fh, indent=1)
        fh.write("\n")
    for p in points:
        print(f"mu={p['mu']} beta={p['beta']} k={p['k']}: "
              f"{p['re']:.5f}{p['im']:+.5f}i +- ({p['se_re']:.1e}, {p['se_im']:.1e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
