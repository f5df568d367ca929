"""Output checks, computed apart from the package under test.

Every check takes the operations of one round and the outputs the program
gave for them, and returns a list of problems (empty when all is well).  A
problem is a pair (index of the operation whose output is wrong, message),
so a run counts each failed operation once however many problems it has.
References come from closed forms written out here with scipy.special,
from scipy.stats.levy_stable, from a dense sphere average done here, from
the seeded Monte-Carlo estimates in data/, or from properties the method
must have (price bounds, monotone and convex prices in strike, put-call
parity, self-similarity).  Nothing compares against a stored copy of the
program's own output.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import gamma, gammaln, ndtr

import workloads

# tolerances
PRICE_TOL = 1e-10         # absolute, per unit of spot: bounds, monotonicity, convexity
BS_TOL = 1e-9             # absolute, per unit of spot: D*mu = 2 prices vs Black-Scholes
HEDGE_TOL = 1e-7          # D*mu = 2 hedge ratio vs -N(d1)
PORTFOLIO_TOL = 1e-7      # per unit of spot: D*mu = 2 portfolio vs -K e^{-r tau} N(d2)
PARITY_TOL = 1e-10        # per unit of spot
SELF_SIM_TOL = 1e-10      # relative
MOMENT_TOL = 1e-10        # relative, closed forms and the dense sphere average
SCALING_TOL = 1e-12       # relative, t^(beta Theta) scaling law
CHI2_TOL = 1e-9           # absolute, beta = 2 Gaussian marginal CF
DENSITY_TOL = 2e-7        # absolute, relative to the peak of the reference density
MC_SIGMAS = 5.0           # Monte-Carlo checks: allowed distance in standard errors


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def black_scholes(spot, strike, rate, var_rate, tau, style):
    """Lognormal price with variance rate var_rate (= 2 phi sigma^2)."""
    sd = math.sqrt(var_rate * tau)
    d1 = (math.log(spot / strike) + rate * tau + 0.5 * sd * sd) / sd
    d2 = d1 - sd
    disc = math.exp(-rate * tau)
    call = spot * ndtr(d1) - strike * disc * ndtr(d2)
    if style == "put":
        return call - spot + strike * disc, d1, d2
    return call, d1, d2


def stable_moment(beta, rho, scale, angular_avg):
    """E[(sigma . L_t)^beta] = prefactor * scale^beta * support * angular average.

    prefactor = 2^(beta+1) / (rho sqrt(pi)) G((beta+1)/2) G(-beta/rho) / G(-beta/2),
    support = cos(pi beta / 2) exp(i pi beta / 2).
    """
    pref = (2.0 ** (beta + 1) / (rho * math.sqrt(math.pi))
            * gamma((beta + 1) / 2) * gamma(-beta / rho) / gamma(-beta / 2))
    support = math.cos(math.pi * beta / 2) * complex(math.cos(math.pi * beta / 2),
                                                     math.sin(math.pi * beta / 2))
    return pref * scale ** beta * support * angular_avg


def _eigen_data(cfg):
    evs = np.array([complex(re, im) for re, im in cfg["eigenvalues"]])
    basis = np.array([[complex(re, im) for re, im in row] for row in cfg["eigenvectors"]])
    return evs, basis


def spiral_sphere_average(cfg, beta, nodes=4096):
    """Dense average of phi(v(xi))^(beta Theta) over the phase-rotated directions.

    For a conjugate eigenvalue pair both directions share Theta, so the
    dominance indicator is identically one.
    """
    evs, basis = _eigen_data(cfg)
    theta = evs.real
    if not np.allclose(theta, theta[0]):
        raise ValueError("the dense average needs eigenvalues with one real part")
    weights = np.asarray(cfg["angular"]["weights"], dtype=float)
    sigma = np.asarray(cfg["sigma"], dtype=float)
    sig_hat = sigma / np.linalg.norm(sigma)
    sig_tilde = basis.conj().T @ sig_hat.astype(complex)
    xs = np.arange(nodes) * (2.0 * math.pi / nodes)
    phases = np.exp(-1j * np.outer(xs, np.sign(evs.imag)))            # (n, d)
    rotated = (basis @ (phases * sig_tilde).T).T.real                  # (n, d)
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    proj = np.abs(rotated.astype(complex) @ basis.conj())              # |O^dagger v|
    phi = (weights * proj ** (1.0 / theta)).sum(axis=1)
    return float(np.mean(phi ** (beta * theta[0])))


def levy_density(mu, scale, xs):
    """Density of a symmetric stable law with CF exp(-|scale k|^mu)."""
    xs = np.asarray(xs, dtype=float)
    if mu == 2.0:
        var = 2.0 * scale * scale
        return np.exp(-xs * xs / (2 * var)) / math.sqrt(2 * math.pi * var)
    if mu == 1.0:
        return scale / (math.pi * (xs * xs + scale * scale))
    from scipy.stats import levy_stable

    z = xs / scale
    out = levy_stable.pdf(z, mu, 0.0)
    # levy_stable is off by up to ~2e-5 of the peak within |z| < 0.01; there
    # the power series  sum_n (-1)^n G((2n+1)/mu) z^(2n) / (pi mu (2n)!),
    # entire for mu > 1, is exact to rounding for |z| <= 1.
    near = np.abs(z) <= 1.0
    n = np.arange(40)
    coef = (-1.0) ** n * np.exp(gammaln((2 * n + 1) / mu) - gammaln(2 * n + 1)) / (math.pi * mu)
    out[near] = np.polynomial.polynomial.polyval(z[near] ** 2, coef)
    return out / scale


def load_mcf_reference(path=workloads.MCF_REFERENCE):
    with open(path) as fh:
        data = json.load(fh)
    return data["points"]


# --------------------------------------------------------------------------
# book
# --------------------------------------------------------------------------

def _bounds(style, spot, strike, rate, tau, price):
    fwd_k = strike * math.exp(-rate * tau)
    tol = PRICE_TOL * spot
    if style == "call":
        lo, hi = max(spot - fwd_k, 0.0), spot
    else:
        lo, hi = max(fwd_k - spot, 0.0), fwd_k
    if not lo - tol <= price <= hi + tol:
        return [f"{style} price {price!r} outside [{lo:.6g}, {hi:.6g}] (K={strike:.4f}, tau={tau:.4f})"]
    return []


def _strike_shape(style, spot, strikes, prices):
    """Monotone and convex in strike, for one maturity."""
    problems = []
    tol = PRICE_TOL * spot
    k = np.asarray(strikes, dtype=float)
    p = np.asarray(prices, dtype=float)
    dp = np.diff(p)
    if style == "call" and np.any(dp > tol):
        problems.append(f"call prices increase in strike: {p.tolist()}")
    if style == "put" and np.any(dp < -tol):
        problems.append(f"put prices decrease in strike: {p.tolist()}")
    slopes = dp / np.diff(k)
    if np.any(np.diff(slopes) * np.diff(k)[1:] < -tol):
        problems.append(f"{style} prices not convex in strike: {p.tolist()}")
    return problems


def check_book_round(ops, outs, cfgs):
    problems = []
    grids = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        cfg = cfgs[op["cfg"]]
        mu, rate = cfg["mu"], cfg["rate"]
        var_rate = 2.0 * cfg["angular"]["phi_plus"] * cfg["sigma"][0] ** 2
        if op["kind"] == "grid":
            grids[op["style"]] = (i, op, out)
            continue
        if not _finite(out):
            problems.append((i, f"{op['kind']}: non-finite output {out}"))
            continue
        s, k, tau = op["spot"], op["strike"], op["tau"]
        if op["kind"] == "quote":
            price = out[0]
            problems += [(i, m) for m in _bounds(op["style"], s, k, rate, tau, price)]
            if mu == 2.0 and cfg["continuation"] != "gamma_ratio":
                bs, _, _ = black_scholes(s, k, rate, var_rate, tau, op["style"])
                if abs(price - bs) > BS_TOL * s:
                    problems.append((i, f"D*mu=2 price {price!r} vs Black-Scholes {bs!r}"))
        elif op["kind"] == "hedge":
            n_s, portfolio = out
            if not -1.0 - HEDGE_TOL <= n_s <= HEDGE_TOL:
                problems.append((i, f"call hedge {n_s!r} outside [-1, 0]"))
            if mu == 2.0:
                _, d1, d2 = black_scholes(s, k, rate, var_rate, tau, "call")
                if abs(n_s + ndtr(d1)) > HEDGE_TOL:
                    problems.append((i, f"D*mu=2 hedge {n_s!r} vs -N(d1) {-ndtr(d1)!r}"))
                closed = -k * math.exp(-rate * tau) * ndtr(d2)
                if abs(portfolio - closed) > PORTFOLIO_TOL * s:
                    problems.append((i, f"D*mu=2 portfolio {portfolio!r} vs {closed!r}"))
    problems += _check_grids(grids, cfgs)
    return problems


def _check_grids(grids, cfgs):
    problems = []
    for style, (i, op, rows) in grids.items():
        cfg = cfgs[op["cfg"]]
        want = [(k, m) for k in op["strikes"] for m in op["maturities"]]
        got = [(r[0], r[1]) for r in rows]
        if len(got) != len(want) or not np.allclose(got, want, rtol=1e-12, atol=0.0):
            problems.append((i, f"{style} grid rows do not match the requested grid"))
            continue
        if not _finite([r[2] for r in rows]):
            problems.append((i, f"{style} grid has non-finite prices"))
            continue
        for k, m, price in rows:
            problems += [(i, msg) for msg in _bounds(style, op["spot"], k, cfg["rate"], m, price)]
        for j, m in enumerate(op["maturities"]):
            prices = [rows[n * len(op["maturities"]) + j][2] for n in range(len(op["strikes"]))]
            problems += [(i, msg) for msg in _strike_shape(style, op["spot"], op["strikes"],
                                                          prices)]
    if "call" in grids and "put" in grids and not problems:
        # parity ties the two grids; the put grid is counted as the wrong one
        _, op, calls = grids["call"]
        i_put, _, puts = grids["put"]
        rate = cfgs[op["cfg"]]["rate"]
        for (k, m, c), (_, _, p) in zip(calls, puts):
            gap = c - p - (op["spot"] - k * math.exp(-rate * m))
            if abs(gap) > PARITY_TOL * op["spot"]:
                problems.append((i_put, f"put-call parity off by {gap:.3e} "
                                        f"at K={k:.4f}, tau={m:.4f}"))
    return problems


# --------------------------------------------------------------------------
# inference
# --------------------------------------------------------------------------

def _moment_reference(cfg, beta, t):
    if cfg["regime"] == "pure_scaling":
        rho = cfg["dimension"] * cfg["mu"]
        ang = cfg["angular"]
        phi = ang["phi_plus"] if ang["kind"] == "pair" else ang["value"]
        return stable_moment(beta, rho, np.linalg.norm(cfg["sigma"]) * t ** (1 / rho),
                             phi ** (beta / rho))
    if cfg["regime"] == "scaling_rotation":
        # constant angular function: the sphere average collapses
        rho = 2 * cfg["mu"]
        return stable_moment(beta, rho, np.linalg.norm(cfg["sigma"]) * t ** (1 / rho),
                             cfg["angular"]["value"] ** (beta / rho))
    evs, _ = _eigen_data(cfg)
    theta = float(evs.real.max())
    return stable_moment(beta, 1.0 / theta, np.linalg.norm(cfg["sigma"]) * t ** theta,
                         spiral_sphere_average(cfg, beta))


def check_inference_round(ops, outs, cfgs, mcf_reference):
    problems = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        cfg = cfgs[op["cfg"]]
        if op["kind"] == "density":
            problems += [(i, m) for m in _check_density(op, out, cfg)]
            continue
        if not _finite(out):
            problems.append((i, f"{op['kind']} {op['cfg']}: non-finite output {out}"))
            continue
        if op["kind"] == "selfsim":
            lhs, rhs, r0, r1 = out
            if not 0.0 <= rhs <= 1.0:
                problems.append((i, f"char_fn {rhs!r} outside [0, 1]"))
            if rhs > 1e-280 and abs(lhs - rhs) > SELF_SIM_TOL * rhs:
                problems.append((i, f"self-similarity {op['cfg']}: {lhs!r} vs {rhs!r}"))
            k = np.asarray(op["k"])
            if np.linalg.norm(np.array([r0, r1]) - k) > SELF_SIM_TOL * np.linalg.norm(k):
                problems.append((i, f"Jurek recomposition {op['cfg']}: {[r0, r1]} "
                                    f"vs {k.tolist()}"))
        elif op["kind"] == "moment":
            vals = [complex(out[2 * n], out[2 * n + 1]) for n in range(len(op["times"]))]
            for t, v in zip(op["times"], vals):
                want = _moment_reference(cfg, op["beta"], t)
                if abs(v - want) > MOMENT_TOL * abs(want):
                    problems.append((i, f"moment {op['cfg']} beta={op['beta']:.4f}: "
                                        f"{v!r} vs {want!r}"))
            if len(vals) == 2:
                evs, _ = _eigen_data(cfg)
                theta = float(evs.real.max())
                scaled = (op["times"][1] / op["times"][0]) ** (op["beta"] * theta) * vals[0]
                if abs(vals[1] - scaled) > SCALING_TOL * abs(vals[0]):
                    problems.append((i, f"moment scaling law t^(beta Theta) off: {vals}"))
        elif op["kind"] == "mcf":
            got = complex(out[0], out[1])
            if op["heavy"] is None:
                v = 2.0 * cfg["angular"]["phi_plus"] * cfg["sigma"][0] ** 2 * op["t"]
                want = (1 - 2j * op["k"] * v) ** -0.5
                if abs(got - want) > CHI2_TOL:
                    problems.append((i, f"beta=2 Gaussian marginal CF {got!r} vs {want!r}"))
            else:
                ref = mcf_reference[op["heavy"]]
                for key in ("mu", "beta", "k", "t"):
                    if ref[key] != workloads.MCF_HEAVY_POINTS[op["heavy"]][key]:
                        problems.append((i, "MC reference file does not match "
                                            "the heavy-tail points"))
                        break
                dre, dim = abs(got.real - ref["re"]), abs(got.imag - ref["im"])
                if dre > MC_SIGMAS * ref["se_re"] or dim > MC_SIGMAS * ref["se_im"]:
                    problems.append((i, f"heavy-tail marginal CF {got!r} vs MC "
                                        f"{ref['re']:.5f}{ref['im']:+.5f}i"))
    return problems


def _check_density(op, rows, cfg):
    xs = np.array([r[0] for r in rows])
    dens = np.array([r[1] for r in rows])
    want_xs = np.linspace(op["xi_min"], op["xi_max"], op["points"])
    if len(xs) != op["points"] or not np.allclose(xs, want_xs, rtol=0, atol=1e-12):
        return ["density grid does not match the requested points"]
    if not _finite(dens):
        return ["density grid has non-finite values"]
    mu = cfg["mu"]
    phi = cfg["angular"]["phi_plus"]
    scale = cfg["sigma"][0] * (phi * op["tau"]) ** (1.0 / mu)
    ref = levy_density(mu, scale, xs)
    err = float(np.max(np.abs(dens - ref)))
    if err > DENSITY_TOL * float(np.max(ref)):
        return [f"density D*mu={mu} off by {err:.3e} (peak {np.max(ref):.3f})"]
    return []


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def check_oracle_round(ops, outs, cfgs):
    problems = []
    strip = None
    for op, out in zip(ops, outs):
        if op["kind"] == "strip":
            strip = (op, out)
    for i, (op, out) in enumerate(zip(ops, outs)):
        cfg = cfgs[op["cfg"]]
        if op["kind"] == "validate":
            active = [row for row in out if row[2] != "skip"]
            bad = [row for row in active if row[2] != "pass"]
            if not active or bad:
                problems.append((i, f"validate {op['cfg']}: non-pass rows "
                                    f"{bad or 'none active'}"))
            continue
        if not _finite(out):
            problems.append((i, f"{op['kind']}: non-finite output {out}"))
            continue
        if op["kind"] == "strip":
            for k, price in zip(op["strikes"], out):
                problems += [(i, m) for m in _bounds(op["style"], op["spot"], k, cfg["rate"],
                                                     op["tau"], price)]
            problems += [(i, m) for m in _strike_shape(op["style"], op["spot"],
                                                       op["strikes"], out)]
        elif op["kind"] == "mc":
            # the strip's middle quote is the Fourier price of the MC contract
            price, se = out
            fourier = strip[1][2] if strip is not None else float("nan")
            if not se > 0 or not abs(price - fourier) <= MC_SIGMAS * se:
                problems.append((i, f"MC {price!r} +- {se:.2e} vs Fourier {fourier!r}"))
        elif op["kind"] == "sim":
            for k, (est, se, cf) in zip(op["ks"], out):
                if not se > 0 or abs(est - cf) > MC_SIGMAS * se:
                    problems.append((i, f"E[cos kX] {est!r} +- {se:.1e} vs char_fn {cf!r} "
                                        f"at k={k:.3f}"))
    return problems


def check_round(workload, ops, outs, cfgs, mcf_reference=None):
    if workload == "book":
        return check_book_round(ops, outs, cfgs)
    if workload == "inference":
        return check_inference_round(ops, outs, cfgs, mcf_reference)
    return check_oracle_round(ops, outs, cfgs)
