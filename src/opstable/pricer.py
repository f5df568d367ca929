"""Fourier-space solution of the generalized pricing equation.

The option price is assembled from two cumulative factors N1, N2 of the
projected terminal law.  Two evaluation routes are kept:

* the half-line theta-quadrature with the even/odd shifted characteristic
  combinations (the appendix representation), valid for complex shifts; and
* a direct real-axis route for real shifts, built from the plain CDF factor
  and the complement of the exponentially weighted factor, whose defining
  integrals converge absolutely.

The two coincide in the Gaussian limit to quadrature accuracy, and the
direct route is used for real-shift pricing because it matches the
risk-neutral Monte-Carlo construction integral-for-integral.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma, ndtr

from .charfn import (
    ContinuationMode,
    MarketModel,
    log_cf_complex,
    log_cf_imag,
    log_cf_imag_upper,
    projection_params,
)
from .errors import (
    AccuracyWarning,
    DivergentIntegrandError,
    DomainError,
    PoleError,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, half_line_pass


class OptionStyle(str, enum.Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class OptionContract:
    """European option: style, strike and maturity."""

    style: OptionStyle
    strike: float
    maturity: float

    def __post_init__(self):
        if not isinstance(self.style, OptionStyle):
            raise DomainError(f"style must be an OptionStyle, got {self.style!r}")
        for name in ("strike", "maturity"):
            value = getattr(self, name)
            try:
                ok = math.isfinite(value) and value > 0
            except TypeError:  # not a real number
                ok = False
            if not ok:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PriceReport:
    """Price plus the factor decomposition and numerical diagnostics.

    `quadrature_error` bounds the quadrature's share of the price error: the
    larger of the node-halving estimate and the truncated-tail bound of the
    two factors (see `price_option`).  `imag_residue` is |Im| of the raw
    price, the model's inconsistency diagnostic.
    """

    price: float
    n1: complex
    n2: complex
    d1: complex
    imag_residue: float
    quadrature_error: float
    mode: str


@dataclass(frozen=True)
class HedgeResult:
    """Hedge ratio -dC/dS, portfolio value and the closed-form gap."""

    n_s: float
    portfolio: float
    closed_form_gap: float


@dataclass(frozen=True)
class PayoffTransform:
    """Regular part of the payoff transform plus the symbolic delta term.

    The singular 2*pi*delta(k - i) piece cannot be carried numerically; its
    weight (+2*pi for a call, -2*pi for a put) is returned symbolically and
    handled analytically by the pricing route, where it generates the
    spot-times-N1 term.
    """

    regular: complex
    delta_weight: float


def hamiltonian(model: MarketModel, k: complex) -> complex:
    """Fourier-space generator H(k) = r i k + V(k).

    Standard modes: V(k) = i k phi(-i sigma) + phi(-k sigma), with phi
    continued per the model's mode.  Gamma-ratio mode replaces the power-law
    combination with -(1/2) phi_dir sigma^eta Gamma(ik + eta) / Gamma(ik)
    (1-D pure scaling only; the 1/2 normalization follows the sketched
    substitution verbatim).
    """
    k = complex(k)
    if model.logcf.continuation is ContinuationMode.GAMMA_RATIO:
        return model.rate * 1j * k + _gamma_ratio_symbol(model, k)
    if k == 0:
        return 0.0 + 0.0j
    return (model.rate * 1j * k
            + 1j * k * log_cf_imag(model, 1.0)
            + log_cf_complex(model, k))


def _gamma_ratio_symbol(model: MarketModel, k):
    eta, sig, phi_dir = projection_params(model)
    ik = 1j * np.asarray(k, dtype=complex)
    # Gamma(ik + eta) / Gamma(ik) = ik Gamma(ik + eta) / Gamma(ik + 1), taken
    # through log-Gamma: both Gammas under- or overflow at large |k|
    ratio = ik * np.exp(loggamma(ik + eta) - loggamma(ik + 1.0))
    return -0.5 * phi_dir * sig ** eta * ratio


def payoff_transform(contract: OptionContract, k: complex) -> PayoffTransform:
    """Fourier transform of the maturity payoff at wavenumber k.

    Regular part K^(ik+1) (1/(ik) - 1/(ik+1)) for a call, its negative for a
    put; evaluation at the poles k = 0 and k = i raises.
    """
    k = complex(k)
    ik = 1j * k
    if abs(ik) < 1e-14 or abs(ik + 1.0) < 1e-14:
        raise PoleError("payoff transform has poles at k = 0 and k = i")
    big_k = contract.strike
    regular = big_k ** (ik + 1.0) * (1.0 / ik - 1.0 / (ik + 1.0))
    if contract.style is OptionStyle.PUT:
        return PayoffTransform(regular=-regular, delta_weight=-2.0 * np.pi)
    return PayoffTransform(regular=regular, delta_weight=2.0 * np.pi)


# --------------------------------------------------------------------------
# shifted characteristic factors
# --------------------------------------------------------------------------

def m_factors(model: MarketModel, theta: float, s: float, tau: float) -> tuple[complex, complex]:
    """Even/odd combinations of the contour-shifted characteristic factor.

    M1 = F(+theta) + F(-theta), M2 = F(+theta) - F(-theta) with
    F(w) = exp(-tau phi(sigma(w + i s))), evaluated once as F(-theta) =
    conj F(+theta) (see `_theta_integral`).  At theta = 0 both p-terms sit
    on the continuation cut, where that identity fails, and the definition
    value (2 exp(-tau phi(i s sigma)), 0) is returned, with phi(i s sigma)
    the branch limit from Re > 0.
    """
    if theta < 0:
        raise DomainError("theta >= 0; the factors encode both signs already")
    if tau <= 0:
        raise DomainError("m-factors require tau > 0")
    if theta == 0.0:
        return 2.0 * np.exp(-tau * log_cf_imag_upper(model, s)), 0.0 + 0.0j
    f = complex(np.exp(-tau * log_cf_complex(model, theta + 1j * s)))
    return f + f.conjugate(), f - f.conjugate()


def _check_decay(model: MarketModel, s: float, tau: float, z_i: float,
                 probe: float) -> None:
    """Numerical precondition: tau Re phi beats the exp(|z_i| theta) growth."""
    for mult in (1.0, 2.0, 4.0):
        th = probe * mult
        g1 = tau * log_cf_complex(model, th + 1j * s).real - abs(z_i) * th
        g2 = tau * log_cf_complex(model, 2 * th + 1j * s).real - abs(z_i) * 2 * th
        if g2 > g1 and g2 > 5.0:
            return
    raise DivergentIntegrandError(
        "theta-integrand fails its decay precondition "
        "(Re tau phi does not outgrow the exp(theta z_i) factor)"
    )


def _pricing_scales(model: MarketModel, tau: float) -> float:
    """theta where tau * phi(sigma theta) = 1 (decay scale of the factors)."""
    eta, sig, phi_dir = projection_params(model)
    return (1.0 / (tau * phi_dir)) ** (1.0 / eta) / sig


def _theta_integral(cf, y: float, zi: float, scale: float, envelope,
                    quad: QuadratureConfig, slope: bool = False) -> list:
    """Half-line theta-integral of the contour-shifted (appendix) representation.

    int_0^inf ( sin(theta y)/theta * (cosh(theta zi) M1 + sinh(theta zi) M2)
              + i cos(theta y)/theta * (cosh(theta zi) M2 + sinh(theta zi) M1) ) dtheta
    with M1, M2 the even/odd combinations of F(+theta) = cf(theta) and
    F(-theta) = conj F(+theta), which holds exactly at every theta > 0,
    so at every Gauss node (README, "Conjugate symmetry").  Returns a list
    of (value, error, tail bound) triples of `half_line_pass`, each tail
    bound doubled: each of the sine and cosine parts is at most
    2 envelope / theta when exp(|zi| theta) |F(+theta)| stays below the
    envelope, as exp(|zi| theta) |F(-theta)| then does by the identity.  The
    list holds the value's triple; with `slope` a second triple follows for
    the y-derivative, the row cos(theta y) m_sin - i sin(theta y) m_cos on
    the same nodes, whose parts are at most 2 envelope each.
    """
    def integrand(ths):
        f_plus = cf(ths)
        f_minus = np.conj(f_plus)
        up = np.exp(ths * zi)
        down = np.exp(-ths * zi)
        m_sin = up * f_plus + down * f_minus
        m_cos = up * f_plus - down * f_minus
        sn, cs = np.sin(ths * y), np.cos(ths * y)
        value = sn / ths * m_sin + 1j * cs / ths * m_cos
        # a lone value row stays unstacked: stacking copies every node value
        return np.array([value, cs * m_sin - 1j * sn * m_cos]) if slope else value

    if not slope:
        value, err, tail = half_line_pass(integrand, scale, abs(y), quad, envelope)
        return [(value, err, 2.0 * tail)]
    vals, errs, tails = half_line_pass(integrand, scale, abs(y), quad, envelope,
                                       flat=(False, True))
    return [(v, e, 2.0 * b) for v, e, b in zip(vals.tolist(), errs.tolist(), tails)]


def _appendix_pass(model: MarketModel, s: float, d: float, z: complex, tau: float,
                   quad: QuadratureConfig, slope: bool = False) -> list:
    """[(value, error, tail bound)] of the appendix-route factor N^(s)(d; z).

    With `slope` a second triple follows for dN/dd from the same pass.
    """
    if tau <= 0:
        raise DomainError("n-factor requires tau > 0")
    z = complex(z)
    zr, zi = z.real, z.imag
    scale = _pricing_scales(model, tau)
    _check_decay(model, s, tau, zi, probe=scale)

    def envelope(th):
        g = tau * log_cf_complex(model, th + 1j * s).real - abs(zi) * th
        return float(np.exp(-min(g, 700.0)))

    rows = _theta_integral(lambda ths: np.exp(-tau * log_cf_complex(model, ths + 1j * s)),
                           d + zr, zi, scale, envelope, quad, slope)
    first = np.exp(-tau * log_cf_imag_upper(model, s))
    pre = np.exp(s * z) / 2.0
    (val, err, tail), *slopes = rows
    out = [(complex(pre * (first + val / np.pi)), abs(pre) * err / np.pi,
            abs(pre) * tail / np.pi)]
    return out + [(complex(pre * v / np.pi), abs(pre) * e / np.pi, abs(pre) * b / np.pi)
                  for v, e, b in slopes]


def _real_cf(model: MarketModel, tau: float):
    """Vectorized theta -> exp(-tau phi(sigma theta)) on the real axis."""
    eta, sig, phi_dir = projection_params(model)

    def cf(ths):
        return np.exp(-tau * phi_dir * (sig * np.abs(ths)) ** eta)

    return cf


def _direct_pass(model: MarketModel, shifts: tuple, d: float, zr: float, tau: float,
                 quad: QuadratureConfig, slopes: bool = False) -> list:
    """Direct-route factors for every s in `shifts`, on one set of nodes.

    The kernels of N^(0) and N^(1) share the real characteristic factor,
    the decay scale and the frequency |d + z|, hence their panels, so
    exp(-tau phi) is evaluated once per node for all of them.  Returns one
    (value, error, tail bound) triple per shift; with `slopes`, one more per
    shift for dN/dd, from the y-derivative rows on the same nodes:
    cos(theta y) CF for s = 0, and for s = 1
    -CF theta (sin(theta y) + theta cos(theta y)) / (1 + theta^2), which
    gives dN/dd = -e^z T'(y) with T' = -T + (e^{-y}/pi) int (that row).
    The derivative rows are bounded by CF itself, not CF / theta.
    """
    y = d + zr
    cf = _real_cf(model, tau)

    def integrand(ths):
        c = cf(ths)
        sn = np.sin(ths * y)
        cs = np.cos(ths * y)
        rows = [sn / ths * c if s == 0 else c * (cs - ths * sn) / (1.0 + ths * ths)
                for s in shifts]
        if slopes:
            rows += [cs * c if s == 0 else -c * ths * (sn + ths * cs) / (1.0 + ths * ths)
                     for s in shifts]
        return np.array(rows)

    flat = [False] * len(shifts) + [True] * (len(shifts) if slopes else 0)
    vals, errs, tails = half_line_pass(integrand, _pricing_scales(model, tau), abs(y), quad,
                                       lambda th: float(cf(np.array([th]))[0]), flat=flat)
    rows = list(zip(vals.tolist(), errs.tolist(), tails))
    t_scale = np.exp(-y) / np.pi
    out = []
    for s, (val, err, tail) in zip(shifts, rows):
        if s == 0:
            out.append((complex(0.5 + val / np.pi), err / np.pi, tail / np.pi))
        else:
            out.append((complex(1.0 - np.exp(zr) * (t_scale * val)),
                        np.exp(zr - y) * err / np.pi, np.exp(zr - y) * tail / np.pi))
    for s, (val, err, tail), (dval, derr, dtail) in zip(shifts, rows, rows[len(shifts):]):
        if s == 0:
            out.append((complex(dval / np.pi), derr / np.pi, dtail / np.pi))
        else:
            out.append((complex(np.exp(zr) * t_scale * (val - dval)),
                        np.exp(zr - y) * (err + derr) / np.pi,
                        np.exp(zr - y) * (tail + dtail) / np.pi))
    return out


def n_factor(model: MarketModel, s: float, d: float, z: complex, tau: float,
             quad: QuadratureConfig = DEFAULT_QUADRATURE,
             method: str = "auto") -> tuple[complex, float]:
    """Cumulative pricing factor N^(s)(d; z) with an error estimate.

    method "appendix" is the contour-shifted theta-quadrature
        N = (e^{sz}/2) [ e^{-tau phi(i s sigma)} + (1/pi) int_0^inf
            ( sin(theta(d+z_r))/theta * (cosh(theta z_i) M1 + sinh(theta z_i) M2)
            + i cos(theta(d+z_r))/theta * (cosh(theta z_i) M2 + sinh(theta z_i) M1) ) dtheta ],
    whose cosh/sinh weights carry the exp(+-theta z_i) factors exactly onto
    the two half-line branches; for real z they reduce to the plain M1/M2
    combination.  method "direct" uses absolutely convergent real-axis
    integrals, which need a real shift z and s in {0, 1}:
        s = 0: the CDF form  1/2 + (1/pi) int sin(theta(d+z))/theta CF dtheta;
        s = 1: the complement form  1 - e^z T(d+z) with
               T(y) = (e^{-y}/pi) int CF(theta) [cos(theta y) - theta sin(theta y)]
                      / (1 + theta^2) dtheta.
    These are the integrals the compensated Monte-Carlo construction
    estimates, so the two agree by construction.  "auto" picks direct when
    it applies.
    """
    if method not in ("auto", "appendix", "direct"):
        raise DomainError(f"unknown n-factor method '{method}'")
    if tau <= 0:
        raise DomainError("n-factor requires tau > 0")
    z = complex(z)
    if method == "auto":
        method = "direct" if abs(z.imag) < 1e-13 and s in (0, 1) else "appendix"
    if method == "appendix":
        (value, err, _), = _appendix_pass(model, s, d, z, tau, quad)
        return value, err
    if abs(z.imag) > 1e-13:
        raise DomainError("the direct route needs a real shift z (real-part mode)")
    if s not in (0, 1):
        raise DomainError("the direct route supports s in {0, 1}")
    (value, err, _), = _direct_pass(model, (s,), d, z.real, tau, quad)
    return value, err


# --------------------------------------------------------------------------
# generic-Hamiltonian route (gamma-ratio mode)
# --------------------------------------------------------------------------

def _n_factor_hamiltonian(model: MarketModel, s: float, d: float, tau: float,
                          quad: QuadratureConfig, slope: bool = False) -> list:
    """[(value, error, tail bound)] of the N-factor of a non-even Hamiltonian symbol.

    The appendix pass with the characteristic factor G(w) = exp(-tau V(-w))
    and no separate shift (the drift lives inside V).  With `slope` a second
    triple follows for dN/dd from the same pass.  For eta <= 1 the integrand
    never decays, and DivergentIntegrandError is raised before any quadrature.
    """
    def g_fn(ws):
        return np.exp(-tau * _gamma_ratio_symbol(model, -np.atleast_1d(ws)))

    eta, sig, phi_dir = projection_params(model)
    if eta <= 1.0:
        raise DivergentIntegrandError(f"gamma-ratio integrand never decays at eta = {eta:g} <= 1 "
                                      "(Re V(k) ~ -cos(pi eta / 2) |k|^eta does not grow)")
    scale = (2.0 / (tau * phi_dir)) ** (1.0 / eta) / sig

    def envelope(th):
        return float(np.abs(g_fn(np.array([th + 1j * s])))[0])

    rows = _theta_integral(lambda ths: g_fn(ths + 1j * s), d, 0.0, scale, envelope,
                           quad, slope)
    first = complex(g_fn(np.array([1j * s]))[0])
    (val, err, tail), *slopes = rows
    return ([(0.5 * (first + val / np.pi), err / np.pi, tail / np.pi)]
            + [(0.5 * v / np.pi, e / np.pi, b / np.pi) for v, e, b in slopes])


# --------------------------------------------------------------------------
# option price, hedge and portfolio
# --------------------------------------------------------------------------

def _factors(model: MarketModel, d: float, tau: float, quad: QuadratureConfig,
             slopes: bool = False) -> tuple:
    """(z, triples): N1 and N2 as (value, error, tail bound) on the model's route.

    One pass per factor (one for both on the direct route).  With `slopes`,
    dN1/dd and dN2/dd follow, from derivative rows on the same nodes; the
    value rows, and so N1 and N2, are those of the pass without them.
    """
    if model.logcf.continuation is ContinuationMode.GAMMA_RATIO:
        z = 0.0 + 0.0j
        (f1, *g1), (f2, *g2) = (_n_factor_hamiltonian(model, s, d, tau, quad, slopes)
                                for s in (1.0, 0.0))
        return z, [f1, f2, *g1, *g2]
    z = log_cf_imag(model, 1.0) * tau
    if abs(complex(z).imag) < 1e-13:
        return z, _direct_pass(model, (1.0, 0.0), d, complex(z).real, tau, quad, slopes)
    (f1, *g1), (f2, *g2) = (_appendix_pass(model, s, d, z, tau, quad, slopes)
                            for s in (1.0, 0.0))
    return z, [f1, f2, *g1, *g2]


def _price_inputs(model: MarketModel, contract: OptionContract, spot: float,
                  t: float) -> tuple:
    """(tau, d, K e^{-r tau}) after the spot and valuation-time checks."""
    if not (np.isfinite(spot) and spot > 0):
        raise DomainError("spot must be positive and finite")
    tau = contract.maturity - t
    if not 0 <= t < contract.maturity:
        raise DomainError("pricing requires 0 <= t < maturity")
    d = -np.log(contract.strike / spot) + model.rate * tau
    return tau, d, contract.strike * np.exp(-model.rate * tau)


def _report(model: MarketModel, contract: OptionContract, spot: float, k_disc: float,
            d: float, z: complex, f1: tuple, f2: tuple) -> PriceReport:
    (n1, e1, b1), (n2, e2, b2) = f1, f2
    if contract.style is OptionStyle.PUT:
        raw = k_disc * (1.0 - n2) - spot * (1.0 - n1)
    else:
        raw = spot * n1 - k_disc * n2
    quad_err = max(spot * e1 + k_disc * e2, spot * b1 + k_disc * b2)
    return PriceReport(
        price=float(raw.real),
        n1=complex(n1),
        n2=complex(n2),
        d1=complex(d + z),
        imag_residue=abs(raw.imag),
        quadrature_error=float(quad_err),
        mode=model.logcf.continuation.value,
    )


def price_option(model: MarketModel, contract: OptionContract, spot: float,
                 t: float = 0.0, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> PriceReport:
    """European option price via the two cumulative factors.

    call = spot N1 - K e^{-r tau} N2,
    put  = K e^{-r tau} (1 - N2) - spot (1 - N1),
    with d = -log(K/spot) + r tau and shift z = phi(-i sigma) tau.  The
    reported price is the real part; |Im| is carried as the model's
    inconsistency diagnostic.  The put form is fixed by put-call parity
    (the sign-flipped regular payoff transform plus the analytic delta
    terms), so call - put = spot - K e^{-r tau} holds exactly.

    `quadrature_error` is the larger of two sums over the factors, each
    weighted as in the price: the node-halving errors up to the truncation
    cutoffs, and the bounds on the integrals dropped beyond them.  Both come
    from the one pass per factor (see `half_line_pass` for the tail bound).
    """
    tau, d, k_disc = _price_inputs(model, contract, spot, t)
    z, (f1, f2) = _factors(model, d, tau, quad)
    return _report(model, contract, spot, k_disc, d, z, f1, f2)


def hedge_and_portfolio(model: MarketModel, contract: OptionContract, spot: float,
                        t: float = 0.0,
                        quad: QuadratureConfig = DEFAULT_QUADRATURE) -> HedgeResult:
    """Hedge ratio N_S = -dC/dS and portfolio value V = N_S S + C.

    C is homogeneous of degree 1 in (spot, K) and d = -log(K/spot) + r tau,
    so dC/dS = N1 + N1'(d) - (K e^{-r tau}/spot) N2'(d), with the primes
    d-derivatives; a put's is one less.  The derivatives are integrated on
    the nodes of the pricing pass, whose value rows give C, equal to
    `price_option`'s price.  An AccuracyWarning fires when the hedge's own
    error estimate, the node-halving errors plus the tail bounds of N1, N1'
    and N2' weighted as in dC/dS, exceeds 1e-4.

    The portfolio value is checked against its closed form
    -K e^{-r tau} N2(d1); the gap is reported, not asserted, because the
    factor solution is itself an approximation away from the Gaussian limit.
    """
    tau, d, k_disc = _price_inputs(model, contract, spot, t)
    z, (f1, f2, g1, g2) = _factors(model, d, tau, quad, slopes=True)
    report = _report(model, contract, spot, k_disc, d, z, f1, f2)
    weight = k_disc / spot
    slope = float((f1[0] + g1[0] - weight * g2[0]).real)
    if contract.style is OptionStyle.PUT:
        slope -= 1.0
    err = sum(w * (e + b) for w, (_, e, b) in zip((1.0, 1.0, weight), (f1, g1, g2)))
    if err > 1e-4:
        warnings.warn(f"hedge-ratio error estimate {err:.2e} exceeds 1e-4", AccuracyWarning)
    n_s = -slope
    value = n_s * spot + report.price
    closed = -k_disc * report.n2.real
    return HedgeResult(n_s=n_s, portfolio=value, closed_form_gap=value - closed)


def black_scholes_price(spot: float, strike: float, rate: float, variance_rate: float,
                        tau: float, style: OptionStyle = OptionStyle.CALL) -> float:
    """Closed-form lognormal benchmark with variance rate v = 2 phi sigma^2."""
    vol_sq = variance_rate * tau
    d1 = (np.log(spot / strike) + rate * tau + vol_sq / 2) / np.sqrt(vol_sq)
    d2 = d1 - np.sqrt(vol_sq)
    call = spot * ndtr(d1) - strike * np.exp(-rate * tau) * ndtr(d2)
    if style is OptionStyle.PUT:
        return call - spot + strike * np.exp(-rate * tau)
    return call
