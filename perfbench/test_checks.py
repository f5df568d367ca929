"""Each output check accepts a right answer and rejects a perturbed one.

Right answers are built here from the same closed forms the checks use, so
these tests need neither the package nor a benchmark run:

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.special import ndtr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402

BOOK = workloads.configs("book")
INFERENCE = workloads.configs("inference")
ORACLE = workloads.configs("oracle")
VAR_RATE = 2.0 * workloads.BOOK_PHI * workloads.BOOK_SIGMA ** 2


def _op(workload, kind, cfg=None, **override):
    """First op of the given kind (and config) in the first rounds of seed 3."""
    for r in range(12):
        for op in workloads.round_ops(workload, 3, r):
            if op["kind"] == kind and cfg in (None, op["cfg"]):
                return {**op, **override}
    raise LookupError(kind)


def _bs(op, strike=None, tau=None, style=None):
    return checks.black_scholes(op["spot"], op["strike"] if strike is None else strike,
                                workloads.BOOK_RATE, VAR_RATE,
                                op["tau"] if tau is None else tau,
                                style or op["style"])[0]


# book ----------------------------------------------------------------------

def test_gaussian_quote_against_black_scholes():
    op = _op("book", "quote", cfg="real_part_2.0")
    good = [_bs(op)]
    assert checks.check_book_round([op], [good], BOOK) == []
    assert checks.check_book_round([op], [[good[0] + 1e-6]], BOOK)
    assert checks.check_book_round([op], [[float("nan")]], BOOK)


def test_quote_bounds():
    op = _op("book", "quote", cfg="principal_complex_1.5", style="call")
    assert checks.check_book_round([op], [[_bs(op)]], BOOK) == []
    assert checks.check_book_round([op], [[op["spot"] * 1.001]], BOOK)
    assert checks.check_book_round([op], [[-1e-6]], BOOK)


def _gaussian_hedge(op):
    _, d1, d2 = checks.black_scholes(op["spot"], op["strike"], workloads.BOOK_RATE,
                                     VAR_RATE, op["tau"], "call")
    return [-ndtr(d1), -op["strike"] * math.exp(-workloads.BOOK_RATE * op["tau"]) * ndtr(d2)]


def test_gaussian_hedge_and_portfolio():
    op = _op("book", "hedge", cfg="real_part_2.0")
    n_s, value = _gaussian_hedge(op)
    assert checks.check_book_round([op], [[n_s, value]], BOOK) == []
    assert checks.check_book_round([op], [[n_s + 1e-5, value]], BOOK)
    assert checks.check_book_round([op], [[n_s, value + 1e-4]], BOOK)


def test_heavy_tail_call_hedge_range():
    op = _op("book", "hedge", cfg="real_part_1.7")
    assert checks.check_book_round([op], [[-0.4, -50.0]], BOOK) == []
    assert checks.check_book_round([op], [[0.01, -50.0]], BOOK)
    assert checks.check_book_round([op], [[-1.01, -50.0]], BOOK)


def _gaussian_grids():
    ops = [op for op in workloads.round_ops("book", 3, 0) if op["kind"] == "grid"]
    ops = [{**op, "cfg": "real_part_2.0"} for op in ops]
    outs = [[[k, m, _bs(op, k, m)] for k in op["strikes"] for m in op["maturities"]]
            for op in ops]
    return ops, outs


def test_grids_pass_as_computed():
    ops, outs = _gaussian_grids()
    assert checks.check_book_round(ops, outs, BOOK) == []


@pytest.mark.parametrize("row, delta", [(0, 5.0), (4, -0.5), (5, 1e-3)])
def test_grid_shape_violations(row, delta):
    ops, outs = _gaussian_grids()
    outs[0][row][2] += delta   # call grid: monotone, convex, parity
    assert checks.check_book_round(ops, outs, BOOK)


def test_grid_parity_violation():
    ops, outs = _gaussian_grids()
    for row in outs[1]:
        row[2] += 1e-7          # every put shifted: shape intact, parity broken
    assert checks.check_book_round(ops, outs, BOOK)


def test_grid_rows_must_match_request():
    ops, outs = _gaussian_grids()
    outs[0] = outs[0][:-1]
    assert checks.check_book_round(ops, outs, BOOK)


# inference -----------------------------------------------------------------

def test_self_similarity_and_jurek():
    op = _op("inference", "selfsim")
    cf = math.exp(-0.7)
    assert checks.check_inference_round([op], [[cf, cf, *op["k"]]], INFERENCE, None) == []
    assert checks.check_inference_round([op], [[cf * (1 + 1e-9), cf, *op["k"]]],
                                        INFERENCE, None)
    k = op["k"]
    assert checks.check_inference_round([op], [[cf, cf, k[0], k[1] * (1 + 1e-8)]],
                                        INFERENCE, None)


@pytest.mark.parametrize("cfg", ["pure1d", "rotation", "spiral"])
def test_moments_against_closed_forms(cfg):
    op = _op("inference", "moment", cfg=cfg)
    ref = [checks._moment_reference(INFERENCE[cfg], op["beta"], t) for t in op["times"]]
    good = [x for v in ref for x in (v.real, v.imag)]
    assert checks.check_inference_round([op], [good], INFERENCE, None) == []
    bad = list(good)
    bad[0] *= 1 + 1e-8
    assert checks.check_inference_round([op], [bad], INFERENCE, None)


def test_moment_scaling_law():
    op = _op("inference", "moment", cfg="spiral")
    ref = [checks._moment_reference(INFERENCE["spiral"], op["beta"], t) for t in op["times"]]
    out = [ref[0].real, ref[0].imag, ref[1].real * (1 + 2e-11), ref[1].imag * (1 + 2e-11)]
    assert checks.check_inference_round([op], [out], INFERENCE, None)


def test_spiral_average_is_resolved():
    cfg = INFERENCE["spiral"]
    a = checks.spiral_sphere_average(cfg, 0.6, nodes=2048)
    b = checks.spiral_sphere_average(cfg, 0.6, nodes=4096)
    assert a == pytest.approx(b, rel=1e-13)


def test_gaussian_marginal_cf():
    op = _op("inference", "mcf", cfg="mcf_gauss")
    v = 2 * workloads.MCF_GAUSS["phi"] * workloads.MCF_GAUSS["sigma"] ** 2 * op["t"]
    want = (1 - 2j * op["k"] * v) ** -0.5
    assert checks.check_inference_round([op], [[want.real, want.imag]], INFERENCE, None) == []
    assert checks.check_inference_round([op], [[want.real + 1e-7, want.imag]],
                                        INFERENCE, None)


def test_heavy_marginal_cf_against_mc_reference():
    ref = checks.load_mcf_reference()
    assert [(p["mu"], p["beta"], p["k"], p["t"]) for p in ref] == \
        [(p["mu"], p["beta"], p["k"], p["t"]) for p in workloads.MCF_HEAVY_POINTS]
    op = [o for r in range(6) for o in workloads.round_ops("inference", 3, r)
          if o["kind"] == "mcf" and o["heavy"] == 2][0]
    p = ref[2]
    assert checks.check_inference_round([op], [[p["re"] + p["se_re"], p["im"]]],
                                        INFERENCE, ref) == []
    assert checks.check_inference_round([op], [[p["re"] + 6 * p["se_re"], p["im"]]],
                                        INFERENCE, ref)


@pytest.mark.parametrize("mu", workloads.DENSITY_MUS)
def test_density_grid(mu):
    op = [o for r in range(3) for o in workloads.round_ops("inference", 3, r)
          if o["kind"] == "density" and o["cfg"] == f"density_{mu}"][0]
    xs = np.linspace(op["xi_min"], op["xi_max"], op["points"])
    scale = workloads.DENSITY_SIGMA * (workloads.DENSITY_PHI * op["tau"]) ** (1 / mu)
    ref = checks.levy_density(mu, scale, xs)
    rows = [[x, d] for x, d in zip(xs, ref)]
    assert checks.check_inference_round([op], [rows], INFERENCE, None) == []
    bad = [list(r) for r in rows]
    bad[op["points"] // 2][1] += 1e-6 * max(ref)
    assert checks.check_inference_round([op], [bad], INFERENCE, None)
    assert checks.check_inference_round([op], [rows[1:]], INFERENCE, None)


def test_stable_density_series_meets_levy_stable():
    from scipy.stats import levy_stable

    z = np.array([0.9, 1.0])   # inside the series region, clear of z = 0
    assert checks.levy_density(1.5, 1.0, z) == pytest.approx(levy_stable.pdf(z, 1.5, 0.0),
                                                             abs=1e-7)


# oracle --------------------------------------------------------------------

def _oracle_round():
    ops = workloads.round_ops("oracle", 3, 0)
    ops[1] = {**ops[1], "cfg": "real_part_2.0"}
    strip = [_bs({**ops[1], "tau": ops[1]["tau"]}, k) for k in ops[1]["strikes"]]
    se = 1e-3
    return ops, {"mc": [strip[2] + se, se], "strip": strip,
                 "sim": [[0.5 + 1e-3, 1e-3, 0.5]] * 3,
                 "validate": [["s", "a", "pass"], ["s", "b", "skip"]]}


def _outs(ops, by_kind):
    return [by_kind[op["kind"]] for op in ops]


def test_oracle_round_passes_as_computed():
    ops, by_kind = _oracle_round()
    assert checks.check_oracle_round(ops, _outs(ops, by_kind), ORACLE) == []


@pytest.mark.parametrize("kind, bad", [
    ("mc", lambda v: [v[0] + 6 * v[1], v[1]]),
    ("mc", lambda v: [v[0], 0.0]),
    ("sim", lambda v: [[0.5 + 6e-3, 1e-3, 0.5]] * 3),
    ("validate", lambda v: [["s", "a", "fail"]]),
    ("validate", lambda v: [["s", "a", "skip"]]),
    ("strip", lambda v: v[:2] + [v[2] + 50.0] + v[3:]),
])
def test_oracle_perturbations_fail(kind, bad):
    ops, by_kind = _oracle_round()
    by_kind[kind] = bad(by_kind[kind])
    assert checks.check_oracle_round(ops, _outs(ops, by_kind), ORACLE)
