"""Batch command-line front end: model configs, pricing runs, dumps, validation.

Configs and reports are JSON; grids are CSV.  Exit codes: 0 success,
1 validation-suite check failed, 2 config or domain error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import charfn, mc_oracle, moments, pde_coeffs, pricer
from .charfn import (
    ConstantAngular,
    ContinuationMode,
    DirectionalPair,
    EigenWeightAngular,
    LogCharFn,
    MarketModel,
    SampledAngular,
)
from .errors import (
    DomainError,
    ModelValidationError,
    MomentInfiniteError,
    NumericalError,
    UnsupportedRegimeError,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .stable_index import Regime, StableIndex, jurek_decompose, matrix_power

ENV_CONFIG = "OPSTABLE_CONFIG"

_MODEL_KEYS = {
    "regime", "dimension", "mu", "rotation_rate", "eigenvalues", "eigenvectors",
    "angular", "sigma", "alpha", "rate", "continuation", "epsilon", "quadrature",
}
_QUAD_KEYS = {"theta_cutoff", "nodes_per_panel", "panel_growth", "tolerance"}
_ANGULAR_KEYS = {
    "pair": {"kind", "phi_plus", "phi_minus"},
    "constant": {"kind", "value"},
    "samples": {"kind", "values"},
    "eigen_weights": {"kind", "weights"},
}


def _reject_unknown(data: dict, allowed: set, where: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise ModelValidationError(f"unknown keys in {where}: {sorted(extra)}")


def _complex_pairs(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


_REQUIRED = object()


def _field(spec: dict, key: str, convert=float, where: str = "config", default=_REQUIRED):
    """spec[key] passed through `convert`; a missing or malformed value names the field."""
    if key not in spec:
        if default is _REQUIRED:
            raise ModelValidationError(f"{where}: missing field '{key}'")
        return default
    try:
        return convert(spec[key])
    except ModelValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(
            f"{where}: invalid value for field '{key}': {spec[key]!r} ({exc})"
        ) from exc


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def load_config(path: str) -> tuple[MarketModel, QuadratureConfig]:
    """Parse and validate a model config file; every invariant is re-checked.

    A missing field or a value of the wrong type raises ModelValidationError
    naming the field.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ModelValidationError("config root must be a JSON object")
    _reject_unknown(data, _MODEL_KEYS, "config")

    regime = _field(data, "regime", Regime)
    if regime is Regime.PURE_SCALING:
        index = StableIndex.pure_scaling(_field(data, "dimension", int), _field(data, "mu"))
    elif regime is Regime.SCALING_ROTATION:
        index = StableIndex.scaling_rotation(_field(data, "mu"), _field(data, "rotation_rate"))
    else:
        evs = _field(data, "eigenvalues",
                     lambda rows: [complex(re, im) for re, im in rows])
        index = StableIndex.generic(evs, _field(data, "eigenvectors", _complex_pairs))

    ang_spec = data.get("angular")
    if not isinstance(ang_spec, dict) or "kind" not in ang_spec:
        raise ModelValidationError("angular must be an object with a 'kind'")
    kind = ang_spec["kind"]
    if not isinstance(kind, str) or kind not in _ANGULAR_KEYS:
        raise ModelValidationError(f"unknown angular kind {kind!r}")
    _reject_unknown(ang_spec, _ANGULAR_KEYS[kind], "angular")
    if kind == "pair":
        angular = DirectionalPair(_field(ang_spec, "phi_plus", where="angular"),
                                  _field(ang_spec, "phi_minus", where="angular"))
    elif kind == "constant":
        angular = ConstantAngular(_field(ang_spec, "value", where="angular"))
    elif kind == "samples":
        angular = SampledAngular(_field(ang_spec, "values", _float_array, "angular"))
    else:
        if regime is not Regime.GENERIC:
            raise ModelValidationError("eigen_weights angular data needs the generic regime")
        weights = _field(ang_spec, "weights", _float_array, "angular")
        thetas = np.array([ev.real for ev in index.eigenvalues])
        angular = EigenWeightAngular(weights=weights, tail_indices=1.0 / thetas,
                                     basis=index.eigenbasis)

    logcf = LogCharFn(
        angular=angular,
        epsilon=_field(data, "epsilon", default=0.0),
        continuation=_field(data, "continuation", ContinuationMode,
                            default=ContinuationMode.REAL_PART),
    )
    model = MarketModel(
        alpha=_field(data, "alpha"),
        sigma=_field(data, "sigma", _float_array),
        rate=_field(data, "rate"),
        index=index,
        logcf=logcf,
    )

    quad_spec = data.get("quadrature", {})
    if not isinstance(quad_spec, dict):
        raise ModelValidationError("quadrature must be a JSON object")
    _reject_unknown(quad_spec, _QUAD_KEYS, "quadrature")
    d = DEFAULT_QUADRATURE
    quad = QuadratureConfig(
        theta_cutoff=_field(quad_spec, "theta_cutoff", float, "quadrature", d.theta_cutoff),
        nodes_per_panel=_field(quad_spec, "nodes_per_panel", int, "quadrature",
                               d.nodes_per_panel),
        panel_growth=_field(quad_spec, "panel_growth", float, "quadrature", d.panel_growth),
        tolerance=_field(quad_spec, "tolerance", float, "quadrature", d.tolerance),
    )
    return model, quad


def dump_config(model: MarketModel, quad: QuadratureConfig) -> dict:
    """Inverse of load_config: a dict that reloads to an identical model."""
    index = model.index
    out: dict = {"regime": index.regime.value, "dimension": index.dimension}
    if index.regime is Regime.PURE_SCALING:
        out["mu"] = index.mu
    elif index.regime is Regime.SCALING_ROTATION:
        out["mu"] = index.mu
        out["rotation_rate"] = index.rotation_rate
    else:
        out["eigenvalues"] = [[ev.real, ev.imag] for ev in index.eigenvalues]
        out["eigenvectors"] = [[[c.real, c.imag] for c in row] for row in index.eigenbasis]

    ang = model.logcf.angular
    if isinstance(ang, DirectionalPair):
        out["angular"] = {"kind": "pair", "phi_plus": ang.phi_plus, "phi_minus": ang.phi_minus}
    elif isinstance(ang, ConstantAngular):
        out["angular"] = {"kind": "constant", "value": ang.value}
    elif isinstance(ang, SampledAngular):
        out["angular"] = {"kind": "samples", "values": list(map(float, ang.values))}
    elif isinstance(ang, EigenWeightAngular):
        out["angular"] = {"kind": "eigen_weights", "weights": list(map(float, ang.weights))}
    else:
        raise ModelValidationError("angular form has no config representation")

    out.update(
        sigma=list(map(float, model.sigma)),
        alpha=model.alpha,
        rate=model.rate,
        continuation=model.logcf.continuation.value,
        epsilon=model.logcf.epsilon,
        quadrature={
            "theta_cutoff": quad.theta_cutoff,
            "nodes_per_panel": quad.nodes_per_panel,
            "panel_growth": quad.panel_growth,
            "tolerance": quad.tolerance,
        },
    )
    return out


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _print_json(payload) -> None:
    """Print a JSON report; a non-finite number in it is a numerical error."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"result is not finite: {exc}") from exc
    print(text)


def _report_dict(rep: pricer.PriceReport, extra: dict | None = None) -> dict:
    out = {
        "price": rep.price,
        "n1_re": rep.n1.real, "n1_im": rep.n1.imag,
        "n2_re": rep.n2.real, "n2_im": rep.n2.imag,
        "d1_re": rep.d1.real, "d1_im": rep.d1.imag,
        "imag_residue": rep.imag_residue,
        "quadrature_error": rep.quadrature_error,
        "mode": rep.mode,
    }
    if extra:
        out.update(extra)
    return out


def _cmd_price(args) -> int:
    model, quad = load_config(args.config)
    style = pricer.OptionStyle(args.style)
    strikes = args.strikes or [args.strike]
    maturities = args.maturities or [args.maturity]
    if any(v is None for v in strikes) or any(v is None for v in maturities):
        raise ModelValidationError("strike and maturity are required (or their grid forms)")

    rows = []
    for strike in strikes:
        for maturity in maturities:
            contract = pricer.OptionContract(style, strike, maturity)
            rep = pricer.price_option(model, contract, args.spot, args.time, quad)
            hedge = {}
            if args.hedge:
                hr = pricer.hedge_and_portfolio(model, contract, args.spot, args.time, quad)
                hedge = {"hedge": hr.n_s, "portfolio": hr.portfolio}
            rows.append((strike, maturity, rep, hedge))

    if args.out == "json":
        if len(rows) == 1:
            k, m, rep, hedge = rows[0]
            payload = _report_dict(rep, {**hedge, "strike": k, "maturity": m,
                                         "spot": args.spot, "style": style.value})
        else:
            payload = [_report_dict(rep, {**hedge, "strike": k, "maturity": m})
                       for k, m, rep, hedge in rows]
        _print_json(payload)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["strike", "maturity", "price", "n1_re", "n1_im", "n2_re", "n2_im",
                         "d1_re", "d1_im", "imag_residue", "quadrature_error", "mode"])
        for k, mat, rep, _ in rows:
            writer.writerow([k, mat, rep.price, rep.n1.real, rep.n1.imag, rep.n2.real,
                             rep.n2.imag, rep.d1.real, rep.d1.imag, rep.imag_residue,
                             rep.quadrature_error, rep.mode])
    return 0


def _cmd_moments(args) -> int:
    model, _ = load_config(args.config)
    out = {"beta": args.beta, "regime": model.index.regime.value}
    try:
        val = moments.fractional_moment(model, args.beta, args.time)
        out.update(value_re=val.real, value_im=val.imag, exists=True)
    except MomentInfiniteError as exc:
        out.update(value_re=None, value_im=None, exists=False, reason=str(exc))
    _print_json(out)
    return 0


def _cmd_coeffs(args) -> int:
    model, _ = load_config(args.config)
    writer = csv.writer(sys.stdout)
    if args.table == "a":
        writer.writerow(["k", "n", "a"])
        for k in range(1, args.k_max + 1):
            for n, val in enumerate(pde_coeffs.stirling_row(k), start=1):
                writer.writerow([k, n, val])
    elif args.table == "S":
        writer.writerow(["n", "S_re", "S_im"])
        for n in range(0, args.k_max + 1):
            val = pde_coeffs.s_coefficient(model, n)
            writer.writerow([n, val.real, val.imag])
    else:
        writer.writerow(["n", "E", "cutoff"])
        for n in range(1, args.k_max + 1):
            writer.writerow([n, pde_coeffs.e_coefficient(model, n, args.cutoff), args.cutoff])
    return 0


def _cmd_density(args) -> int:
    model, quad = load_config(args.config)
    xs = np.linspace(args.xi_min, args.xi_max, args.points)
    rows = [(x, charfn.density(model, float(x), args.tau, quad)) for x in xs]
    writer = csv.writer(sys.stdout)
    writer.writerow(["xi", "density"])
    writer.writerows(rows)
    return 0


def _cmd_mc(args) -> int:
    model, _ = load_config(args.config)
    contract = pricer.OptionContract(pricer.OptionStyle(args.style), args.strike, args.maturity)
    cfg = mc_oracle.SimConfig(n_paths=args.paths, master_seed=args.seed)
    res = mc_oracle.mc_price(model, contract, args.spot, args.time, cfg)
    _print_json({
        "price": res.price, "stderr": res.stderr, "n_paths": res.n_paths,
        "seed": res.seed, "measure": res.measure,
        "stderr_unstable": res.stderr_unstable, "estimator": res.estimator,
    })
    return 0


def _cmd_dump(args) -> int:
    model, quad = load_config(args.config)
    _print_json(dump_config(model, quad))
    return 0


# --------------------------------------------------------------------------
# validation suites
# --------------------------------------------------------------------------

def _suite_gaussian_limit(model, quad, args):
    checks = []
    eta, sig, phi_dir = charfn.projection_params(model)
    if abs(eta - 2.0) > 1e-12:
        return [("gaussian-limit applies to exponent-2 configs", 0.0, 0.0, None)]
    v = 2 * phi_dir * sig ** 2
    worst = 0.0
    for mny in (0.9, 1.0, 1.1):
        for tau in (0.25, 1.0):
            contract = pricer.OptionContract(pricer.OptionStyle.CALL, 100.0 * mny, tau)
            rep = pricer.price_option(model, contract, 100.0, 0.0, quad)
            bs = pricer.black_scholes_price(100.0, 100.0 * mny, model.rate, v, tau)
            worst = max(worst, abs(rep.price - bs) / bs)
    checks.append(("call grid vs closed form (rel)", worst, 1e-6, worst <= 1e-6))
    contract = pricer.OptionContract(pricer.OptionStyle.CALL, 100.0, 0.5)
    hr = pricer.hedge_and_portfolio(model, contract, 100.0, 0.0, quad)
    checks.append(("portfolio closed-form gap", abs(hr.closed_form_gap), 1e-6,
                   abs(hr.closed_form_gap) <= 1e-6))
    return checks


def _suite_self_similarity(model, quad, args):
    rng = np.random.RandomState(42)
    index = model.index
    worst_cf = 0.0
    worst_rec = 0.0
    for _ in range(args.samples):
        k = rng.standard_normal(index.dimension) * 10 ** rng.uniform(-2, 2)
        if np.linalg.norm(k) == 0:
            continue
        t = rng.uniform(1e-3, 10.0)
        lhs = charfn.char_fn(model, matrix_power(index, t) @ k, 1.0)
        rhs = charfn.char_fn(model, k, t)
        if rhs > 1e-280:
            worst_cf = max(worst_cf, abs(lhs - rhs) / rhs)
        radius, angle = jurek_decompose(index, k)
        rec = matrix_power(index, radius) @ angle
        worst_rec = max(worst_rec, np.linalg.norm(rec - k) / np.linalg.norm(k))
    return [
        ("char-fn self-similarity (rel)", worst_cf, 1e-10, worst_cf <= 1e-10),
        ("Jurek recomposition (rel)", worst_rec, 1e-10, worst_rec <= 1e-10),
    ]


def _suite_moments(model, quad, args):
    checks = []
    try:
        rho = model.index.scaling_exponent
    except DomainError:
        rho = 1.0 / max(ev.real for ev in model.index.eigenvalues)
    beta = 0.45 * rho  # below the existence threshold and never an integer
    try:
        m1 = moments.fractional_moment(model, beta, 1.0)
        m2 = moments.fractional_moment(model, beta, 2.0)
    except UnsupportedRegimeError:
        checks.append(("scaling law t^(beta Theta): no closed form for this model",
                       0.0, 0.0, None))
    else:
        theta_l = 1.0 / rho
        scale_err = abs(m2 - 2.0 ** (beta * theta_l) * m1) / abs(m1)
        checks.append(("scaling law t^(beta Theta)", scale_err, 1e-12, scale_err <= 1e-12))
    odd = moments.fractional_moment(model, 1.0, 1.0)
    checks.append(("odd integer moment is zero", abs(odd), 0.0, odd == 0))
    if rho < 2 - 1e-12:
        try:
            moments.fractional_moment(model, 2.0, 1.0)
            checks.append(("even integer moment raises", 1.0, 0.0, False))
        except MomentInfiniteError:
            checks.append(("even integer moment raises", 0.0, 0.0, True))
    return checks


def _suite_appendix(model, quad, args):
    checks = []
    tau = 0.5
    m1, m2 = pricer.m_factors(model, 0.0, 1.0, tau)
    want = 2 * np.exp(-tau * charfn.log_cf_imag_upper(model, 1.0))
    err = abs(m1 - want) + abs(m2)
    checks.append(("M factors at theta = 0", err, 1e-12, err <= 1e-12))
    z = charfn.log_cf_imag(model, 1.0) * tau
    if abs(complex(z).imag) < 1e-13:
        worst = 0.0
        for d in (-0.3, 0.2, 0.8):
            a, _ = pricer.n_factor(model, 0.0, d, z, tau, quad, method="appendix")
            b, _ = pricer.n_factor(model, 0.0, d, z, tau, quad, method="direct")
            worst = max(worst, abs(a.real - b.real))
        checks.append(("appendix vs direct CDF factor", worst, 1e-6, worst <= 1e-6))
    return checks


def _suite_mc_cross(model, quad, args):
    contract = pricer.OptionContract(pricer.OptionStyle.CALL, 1.0, 0.25)
    rep = pricer.price_option(model, contract, 1.0, 0.0, quad)
    cfg = mc_oracle.SimConfig(n_paths=args.paths, master_seed=args.seed)
    res = mc_oracle.mc_price(model, contract, 1.0, 0.0, cfg)
    dev = abs(rep.price - res.price) / res.stderr if res.stderr > 0 else 0.0
    return [("Fourier vs MC (in stderr units)", dev, 3.0, dev <= 3.0)]


_SUITES = {
    "gaussian-limit": _suite_gaussian_limit,
    "self-similarity": _suite_self_similarity,
    "moments": _suite_moments,
    "appendix": _suite_appendix,
    "mc-cross": _suite_mc_cross,
}


def _cmd_validate(args) -> int:
    model, quad = load_config(args.config)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    rows = []
    for name in names:
        try:
            checks = _SUITES[name](model, quad, args)
        except UnsupportedRegimeError as exc:
            # a suite that does not apply to the model's regime is one skip row
            checks = [(str(exc), 0.0, 0.0, None)]
        for check, measured, tol, ok in checks:
            status = "skip" if ok is None else ("pass" if ok else "fail")
            # a non-finite measurement fails its check and prints as null
            rows.append({"suite": name, "check": check,
                         "measured": float(measured) if np.isfinite(measured) else None,
                         "tolerance": float(tol), "status": status})
            failed = failed or (ok is not None and not ok)
    _print_json(rows)
    return 1 if failed else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _count(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _number_list(text: str) -> list[float]:
    """argparse type: comma-separated numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opstable",
        description="Price European options on operator-stable log-price models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        # resolved against $OPSTABLE_CONFIG in `main`, so the parser holds no
        # per-call state and is built once per process
        p.add_argument("config", nargs="?",
                       help=f"model config JSON (default from ${ENV_CONFIG})")
        p.set_defaults(command_parser=p)

    p = sub.add_parser("price", help="price options; CSV batch mode via --strikes/--maturities")
    add_config(p)
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--strike", type=float)
    p.add_argument("--maturity", type=float)
    p.add_argument("--strikes", type=_number_list, help="comma-separated strike grid")
    p.add_argument("--maturities", type=_number_list, help="comma-separated maturity grid")
    p.add_argument("--style", choices=["call", "put"], default="call")
    p.add_argument("--time", type=float, default=0.0, help="valuation time t < maturity")
    p.add_argument("--hedge", action="store_true", help="add hedge ratio and portfolio value")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("validate", help="run a validation suite; exit 1 on failure")
    add_config(p)
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--samples", type=_count, default=1000, help="random draws per property")
    p.add_argument("--paths", type=int, default=1_000_000, help="MC paths for mc-cross")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("moments", help="closed-form fractional moment")
    add_config(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--time", type=float, default=1.0)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("coeffs", help="coefficient tables as CSV")
    add_config(p)
    p.add_argument("--table", choices=["a", "S", "E"], default="a")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--cutoff", type=float, default=50.0)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("density", help="projected terminal density on a grid (CSV)")
    add_config(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--xi-min", type=float, required=True)
    p.add_argument("--xi-max", type=float, required=True)
    p.add_argument("--points", type=_count, default=101)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("mc", help="Monte-Carlo price")
    add_config(p)
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--style", choices=["call", "put"], default="call")
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("dump-config", help="round-trip the config through the loader")
    add_config(p)
    p.set_defaults(func=_cmd_dump)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.config is None:
        args.config = os.environ.get(ENV_CONFIG)
        if args.config is None:
            args.command_parser.error("the following arguments are required: config")
    try:
        return args.func(args)
    except (ModelValidationError, DomainError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"config/domain error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
