"""Seeded inputs of the three benchmark workloads.

The checking process and the workload process both import this module, so
round r of seed s is the same list of operations on either side.  Only
numpy is needed here; nothing in this file imports the package under test.

A workload is a sequence of rounds.  Every round of a workload has the same
operation kinds in the same numbers; the seeded parameters change, and so do
the configs of some operations, which cycle through the tail indices.  The
configs repeat every CYCLE[workload] rounds, whatever the seed.  Each
operation belongs to one timing class:

  call1, call2, call3  single library calls of the workload
  cli                  one in-process CLI invocation

and carries ``calls``, the number of library calls (or CLI invocations) it
makes, so a class's time is reported per call.  Within a class, the
operations on one config form a stratum (see ``stratum_weights``).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("book", "inference", "oracle")
CLASSES = ("call1", "call2", "call3", "cli")

# Rounds after which the configs of a round repeat: book hedges cycle over
# 5 tail indices and its grids over 5 indices x 2 routes; inference takes its
# heavy-tail marginal-CF pairs in turn; oracle cycles mc_price over 5 and
# validate over 4 tail indices.
CYCLE = {"book": 10, "inference": 3, "oracle": 20}

# Warm-up rounds use this offset added to the run's seed, so caches are
# warmed on inputs the timed rounds never see.
WARM_SEED_OFFSET = 1_000_000

BOOK_MUS = (2.0, 1.9, 1.7, 1.5, 1.2)
# The gamma-ratio route returns NaN at D*mu = 1.2 and at short maturities
# for heavier tails (an open fault), so its quotes stay at D*mu >= 1.7 and
# tau >= 0.25.
GAMMA_MUS = (2.0, 1.9, 1.7)
BOOK_SIGMA = 0.15
BOOK_PHI = 0.5
BOOK_RATE = 0.05
BOOK_ALPHA = 0.03

DENSITY_MUS = (2.0, 1.5, 1.0)
DENSITY_PHI = 0.5
DENSITY_SIGMA = 0.3

MCF_GAUSS = {"mu": 2.0, "phi": 0.5, "sigma": 0.7}

OUR_DIR = os.path.dirname(os.path.abspath(__file__))
MCF_REFERENCE = os.path.join(OUR_DIR, "data", "marginal_cf_mc.json")

# Heavy-tail marginal CF points: no closed form, checked against the seeded
# Monte-Carlo estimates that mc_reference.py stores for exactly these points.
MCF_HEAVY_POINTS = (
    {"mu": 1.9, "phi": 0.5, "sigma": 0.7, "t": 0.8, "beta": 2.25, "k": 2.0},
    {"mu": 1.9, "phi": 0.5, "sigma": 0.7, "t": 0.8, "beta": 2.5, "k": 1.0},
    {"mu": 1.7, "phi": 0.5, "sigma": 0.7, "t": 0.8, "beta": 2.25, "k": 2.0},
    {"mu": 1.7, "phi": 0.5, "sigma": 0.7, "t": 0.8, "beta": 2.5, "k": 1.0},
    {"mu": 1.5, "phi": 1.0, "sigma": 1.0, "t": 0.9, "beta": 2.0, "k": 1.7},
    {"mu": 1.5, "phi": 1.0, "sigma": 1.0, "t": 0.9, "beta": 2.4, "k": 0.8},
)

# Two heavy-tail points per round, paired so that every round costs about
# the same (a point's cost ranges over 2x, a pair's over 10 %).
MCF_HEAVY_PAIRS = ((4, 2), (5, 1), (0, 3))

ORACLE_PATHS = 1_000_000
VALIDATE_SAMPLES = 1000
# validate's mc-cross check compares against a 3-stderr tolerance; its MC
# seed stays fixed so that check is deterministic.  The benchmark's own MC
# checks draw fresh seeds from the run seed and use 5 stderr.
VALIDATE_MC_SEED = 0


def _pure_1d(mu, phi, sigma, rate, alpha, continuation="real_part"):
    return {
        "regime": "pure_scaling", "dimension": 1, "mu": mu,
        "angular": {"kind": "pair", "phi_plus": phi, "phi_minus": phi},
        "sigma": [sigma], "alpha": alpha, "rate": rate,
        "continuation": continuation,
    }


def _generic_real():
    c, s = math.cos(0.4), math.sin(0.4)
    return {
        "regime": "generic", "dimension": 2,
        "eigenvalues": [[0.6, 0.0], [0.8, 0.0]],
        "eigenvectors": [[[c, 0.0], [-s, 0.0]], [[s, 0.0], [c, 0.0]]],
        "angular": {"kind": "eigen_weights", "weights": [0.7, 0.5]},
        "sigma": [0.8, 0.6], "alpha": 0.0, "rate": 0.0,
    }


def _generic_spiral():
    h = 1.0 / math.sqrt(2.0)
    return {
        "regime": "generic", "dimension": 2,
        "eigenvalues": [[0.7, 0.35], [0.7, -0.35]],
        "eigenvectors": [[[h, 0.0], [h, 0.0]], [[0.0, h], [0.0, -h]]],
        "angular": {"kind": "eigen_weights", "weights": [0.5, 0.5]},
        "sigma": [0.8, 0.3], "alpha": 0.0, "rate": 0.0,
    }


def configs(workload: str) -> dict[str, dict]:
    """Model configs of a workload, by name.  They do not depend on the seed."""
    out: dict[str, dict] = {}
    if workload == "book":
        for mu in BOOK_MUS:
            for mode in ("real_part", "principal_complex"):
                out[f"{mode}_{mu}"] = _pure_1d(mu, BOOK_PHI, BOOK_SIGMA, BOOK_RATE,
                                               BOOK_ALPHA, mode)
        for mu in GAMMA_MUS:
            out[f"gamma_ratio_{mu}"] = _pure_1d(mu, BOOK_PHI, BOOK_SIGMA, BOOK_RATE,
                                                BOOK_ALPHA, "gamma_ratio")
    elif workload == "inference":
        out["pure2d"] = {
            "regime": "pure_scaling", "dimension": 2, "mu": 0.85,
            "angular": {"kind": "constant", "value": 0.6},
            "sigma": [0.5, 0.4], "alpha": 0.0, "rate": 0.0,
        }
        out["rotation"] = {
            "regime": "scaling_rotation", "dimension": 2, "mu": 0.8,
            "rotation_rate": 0.3, "angular": {"kind": "constant", "value": 0.6},
            "sigma": [0.5, 0.4], "alpha": 0.0, "rate": 0.0,
        }
        out["generic"] = _generic_real()
        out["spiral"] = _generic_spiral()
        out["pure1d"] = _pure_1d(1.5, 1.0, 1.0, 0.0, 0.0)
        out["mcf_gauss"] = _pure_1d(2.0, MCF_GAUSS["phi"], MCF_GAUSS["sigma"], 0.0, 0.0)
        for i, p in enumerate(MCF_HEAVY_POINTS):
            out[f"mcf_heavy_{i}"] = _pure_1d(p["mu"], p["phi"], p["sigma"], 0.0, 0.0)
        for mu in DENSITY_MUS:
            out[f"density_{mu}"] = _pure_1d(mu, DENSITY_PHI, DENSITY_SIGMA, 0.0, 0.0)
    elif workload == "oracle":
        for mu in BOOK_MUS:
            out[f"real_part_{mu}"] = _pure_1d(mu, BOOK_PHI, BOOK_SIGMA, BOOK_RATE,
                                              BOOK_ALPHA)
        out["generic"] = _generic_real()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def write_configs(workload: str, directory: str) -> dict[str, str]:
    """Write the workload's configs as JSON files; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, cfg in configs(workload).items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        paths[name] = path
    return paths


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _style(rng):
    return "call" if rng.random() < 0.5 else "put"


def _book_round(rng, r):
    ops = []
    for i in range(10):
        mu = BOOK_MUS[i % 5]
        mode = "real_part" if i < 5 else "principal_complex"
        ops.append({"kind": "quote", "cls": "call1", "calls": 1, "cfg": f"{mode}_{mu}",
                    "style": _style(rng), "spot": 100.0,
                    "strike": 100.0 * float(rng.uniform(0.7, 1.3)),
                    "tau": _log_uniform(rng, 0.05, 2.0)})
    for j in range(2):
        mu = BOOK_MUS[(2 * r + j) % 5]
        ops.append({"kind": "hedge", "cls": "call2", "calls": 1, "cfg": f"real_part_{mu}",
                    "style": "call", "spot": 100.0,
                    "strike": 100.0 * float(rng.uniform(0.8, 1.2)),
                    "tau": _log_uniform(rng, 0.1, 2.0)})
    for mu in GAMMA_MUS:
        ops.append({"kind": "quote", "cls": "call3", "calls": 1, "cfg": f"gamma_ratio_{mu}",
                    "style": _style(rng), "spot": 100.0,
                    "strike": 100.0 * float(rng.uniform(0.7, 1.3)),
                    "tau": _log_uniform(rng, 0.25, 2.0)})
    mu = BOOK_MUS[r % 5]
    mode = "real_part" if (r // 5) % 2 == 0 else "principal_complex"
    low = float(rng.uniform(0.7, 0.8))
    strikes = [100.0 * (low + 0.125 * j + 0.02 * float(rng.random())) for j in range(4)]
    maturities = sorted(_log_uniform(rng, 0.05, 2.0) for _ in range(3))
    for style in ("call", "put"):
        ops.append({"kind": "grid", "cls": "cli", "calls": 1, "cfg": f"{mode}_{mu}",
                    "style": style, "spot": 100.0, "strikes": strikes,
                    "maturities": maturities})
    return ops


def _unit2(rng):
    a = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(a), math.sin(a)]


def _inference_round(rng, r):
    ops = []
    for name in ("pure2d", "rotation", "generic", "spiral"):
        for _ in range(6):
            norm = 10.0 ** float(rng.uniform(-1.0, 1.0))
            k = [norm * c for c in _unit2(rng)]
            ops.append({"kind": "selfsim", "cls": "call1", "calls": 1, "cfg": name,
                        "k": k, "t": _log_uniform(rng, 0.05, 5.0)})
    ops.append({"kind": "moment", "cls": "call2", "calls": 1, "cfg": "pure1d",
                "beta": float(rng.uniform(0.2, 0.9)), "times": [float(rng.uniform(0.5, 2.0))]})
    ops.append({"kind": "moment", "cls": "call2", "calls": 1, "cfg": "rotation",
                "beta": float(rng.uniform(0.2, 0.9)), "times": [float(rng.uniform(0.5, 2.0))]})
    t1 = float(rng.uniform(0.5, 1.0))
    ops.append({"kind": "moment", "cls": "call2", "calls": 2, "cfg": "spiral",
                "beta": float(rng.uniform(0.2, 0.9)),
                "times": [t1, t1 * float(rng.uniform(1.5, 3.0))]})
    ops.append({"kind": "mcf", "cls": "call3", "calls": 1, "cfg": "mcf_gauss", "beta": 2.0,
                "k": float(rng.uniform(1.6, 2.4)), "t": float(rng.uniform(0.6, 1.0)),
                "heavy": None})
    for h in MCF_HEAVY_PAIRS[r % len(MCF_HEAVY_PAIRS)]:
        p = MCF_HEAVY_POINTS[h]
        ops.append({"kind": "mcf", "cls": "call3", "calls": 1, "cfg": f"mcf_heavy_{h}",
                    "beta": p["beta"], "k": p["k"], "t": p["t"], "heavy": h})
    for mu in DENSITY_MUS:
        tau = float(rng.uniform(0.25, 1.5))
        scale = DENSITY_SIGMA * (DENSITY_PHI * tau) ** (1.0 / mu)
        half = scale * float(rng.uniform(2.0, 6.0))
        ops.append({"kind": "density", "cls": "cli", "calls": 1, "cfg": f"density_{mu}",
                    "tau": tau, "xi_min": -half,
                    "xi_max": half * float(rng.uniform(0.8, 1.2)), "points": 41})
    return ops


def _oracle_round(rng, r, seed):
    mu = BOOK_MUS[r % 5]
    strike = 100.0 * float(rng.uniform(0.85, 1.15))
    tau = float(rng.uniform(0.1, 1.0))
    style = _style(rng)
    mc_seed = int(np.random.SeedSequence([seed, r, 7]).generate_state(1)[0])
    sim_seed = int(np.random.SeedSequence([seed, r, 11]).generate_state(1)[0])
    return [
        {"kind": "mc", "cls": "call1", "calls": 1, "cfg": f"real_part_{mu}", "style": style,
         "spot": 100.0, "strike": strike, "tau": tau, "paths": ORACLE_PATHS,
         "mc_seed": mc_seed},
        {"kind": "strip", "cls": "call3", "calls": 5, "cfg": f"real_part_{mu}",
         "style": style, "spot": 100.0,
         "strikes": [strike * f for f in (0.9, 0.95, 1.0, 1.05, 1.1)], "tau": tau},
        {"kind": "sim", "cls": "call2", "calls": 1, "cfg": "generic",
         "tau": float(rng.uniform(0.5, 1.5)), "paths": ORACLE_PATHS, "mc_seed": sim_seed,
         "ks": sorted(float(rng.uniform(0.3, 3.0)) for _ in range(3))},
        # heavy tails only: at D*mu = 2 validate also runs its Gaussian-limit
        # suite and costs a third more, which would make rounds uneven
        {"kind": "validate", "cls": "cli", "calls": 1, "cfg": f"real_part_{BOOK_MUS[1 + r % 4]}",
         "samples": VALIDATE_SAMPLES, "mc_seed": VALIDATE_MC_SEED},
    ]


def stratum_weights(workload: str) -> dict[str, dict[str, int]]:
    """Library calls per class and config over one cycle of rounds.

    A class's time per call is the weighted mean of its strata, so it does
    not depend on where in the cycle a run stops.
    """
    out: dict[str, dict[str, int]] = {}
    for r in range(CYCLE[workload]):
        for op in round_ops(workload, 0, r):
            strata = out.setdefault(op["cls"], {})
            strata[op["cfg"]] = strata.get(op["cfg"], 0) + op["calls"]
    return out


def round_ops(workload: str, seed: int, r: int) -> list[dict]:
    """The operations of round r for a given seed."""
    rng = np.random.default_rng([seed, r])
    if workload == "book":
        return _book_round(rng, r)
    if workload == "inference":
        return _inference_round(rng, r)
    if workload == "oracle":
        return _oracle_round(rng, r, seed)
    raise ValueError(f"unknown workload {workload!r}")
