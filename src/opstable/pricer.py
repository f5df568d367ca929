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

from .charfn import (
    ContinuationMode,
    MarketModel,
    gamma_ratio,
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
    (1-D pure scaling only, for Im k <= 0; the 1/2 normalization follows
    the sketched substitution verbatim).
    """
    k = complex(k)
    if model.logcf.continuation is ContinuationMode.GAMMA_RATIO:
        if k.imag > 0:
            raise DomainError("the gamma-ratio symbol is evaluated for Im k <= 0")
        return model.rate * 1j * k + _gamma_ratio_symbol(model, k)
    if k == 0:
        return 0.0 + 0.0j
    return (model.rate * 1j * k
            + 1j * k * log_cf_imag(model, 1.0)
            + log_cf_complex(model, k))


def _gamma_ratio_symbol(model: MarketModel, k):
    """-(1/2) phi_dir sigma^eta Gamma(ik + eta) / Gamma(ik) for Im k <= 0.

    k is a complex scalar or array; a scalar gives a scalar.
    """
    eta, sig, phi_dir = projection_params(model)
    return -0.5 * phi_dir * sig ** eta * gamma_ratio(1j * k, eta)


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
                    quad: QuadratureConfig) -> tuple:
    """Half-line theta-integral of the contour-shifted (appendix) representation.

    int_0^inf ( sin(theta y)/theta * (cosh(theta zi) M1 + sinh(theta zi) M2)
              + i cos(theta y)/theta * (cosh(theta zi) M2 + sinh(theta zi) M1) ) dtheta
    with M1, M2 the even/odd combinations of F(+theta) = cf(theta) and
    F(-theta) = conj F(+theta), which holds exactly at every theta > 0,
    so at every Gauss node (README, "Conjugate symmetry").  Returns the
    (value, error, tail bound) triple of `half_line_pass`, the tail bound
    doubled: each of the sine and cosine parts is at most 2 envelope / theta
    when exp(|zi| theta) |F(+theta)| stays below the envelope, as
    exp(|zi| theta) |F(-theta)| then does by the identity.
    """
    def integrand(ths):
        f_plus = cf(ths)
        f_minus = np.conj(f_plus)
        up = np.exp(ths * zi)
        down = np.exp(-ths * zi)
        m_sin = up * f_plus + down * f_minus
        m_cos = up * f_plus - down * f_minus
        return np.sin(ths * y) / ths * m_sin + 1j * np.cos(ths * y) / ths * m_cos

    value, err, tail = half_line_pass(integrand, scale, abs(y), quad, envelope)
    return value, err, 2.0 * tail


def _appendix_pass(model: MarketModel, s: float, d: float, z: complex, tau: float,
                   quad: QuadratureConfig) -> tuple:
    """(value, error, tail bound) of the appendix-route factor N^(s)(d; z)."""
    if tau <= 0:
        raise DomainError("n-factor requires tau > 0")
    z = complex(z)
    zr, zi = z.real, z.imag
    scale = _pricing_scales(model, tau)
    _check_decay(model, s, tau, zi, probe=scale)

    def envelope(th):
        g = tau * log_cf_complex(model, th + 1j * s).real - abs(zi) * th
        return float(np.exp(-min(g, 700.0)))

    val, err, tail = _theta_integral(
        lambda ths: np.exp(-tau * log_cf_complex(model, ths + 1j * s)),
        d + zr, zi, scale, envelope, quad)
    first = np.exp(-tau * log_cf_imag_upper(model, s))
    pre = np.exp(s * z) / 2.0
    return (complex(pre * (first + val / np.pi)), abs(pre) * err / np.pi,
            abs(pre) * tail / np.pi)


def _real_cf(model: MarketModel, tau: float):
    """Vectorized theta -> exp(-tau phi(sigma theta)) on the real axis."""
    eta, sig, phi_dir = projection_params(model)

    def cf(ths):
        return np.exp(-tau * phi_dir * (sig * np.abs(ths)) ** eta)

    return cf


def _direct_pass(model: MarketModel, shifts: tuple, d: float, zr: float, tau: float,
                 quad: QuadratureConfig) -> list:
    """Direct-route factors for every s in `shifts`, on one set of nodes.

    The kernels of N^(0) and N^(1) share the real characteristic factor,
    the decay scale and the frequency |d + z|, hence their panels, so
    exp(-tau phi) is evaluated once per node for all of them.  Returns one
    (value, error, tail bound) triple per shift.
    """
    y = d + zr
    cf = _real_cf(model, tau)

    def integrand(ths):
        c = cf(ths)
        sn = np.sin(ths * y)
        return np.array([sn / ths * c if s == 0
                         else c * (np.cos(ths * y) - ths * sn) / (1.0 + ths * ths)
                         for s in shifts])

    vals, errs, tail = half_line_pass(integrand, _pricing_scales(model, tau), abs(y), quad,
                                      lambda th: float(cf(np.array([th]))[0]))
    t_scale = np.exp(-y) / np.pi
    out = []
    for s, val, err in zip(shifts, vals.tolist(), errs.tolist()):
        if s == 0:
            out.append((complex(0.5 + val / np.pi), err / np.pi, tail / np.pi))
        else:
            out.append((complex(1.0 - np.exp(zr) * (t_scale * val)),
                        np.exp(zr - y) * err / np.pi, np.exp(zr - y) * tail / np.pi))
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
        value, err, _ = _appendix_pass(model, s, d, z, tau, quad)
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
                          quad: QuadratureConfig) -> tuple:
    """(value, error, tail bound) of the N-factor of a non-even Hamiltonian symbol.

    The appendix pass with the characteristic factor G(w) = exp(-tau V(-w))
    and no separate shift (the drift lives inside V).  The prefactor 1/2
    scales the error terms as it does the value.  For eta <= 1 the integrand
    never decays, and DivergentIntegrandError is raised before any quadrature.
    """
    def g_fn(ws):
        return np.exp(-tau * _gamma_ratio_symbol(model, -ws))

    eta, sig, phi_dir = projection_params(model)
    if eta <= 1.0:
        raise DivergentIntegrandError(f"gamma-ratio integrand never decays at eta = {eta:g} <= 1 "
                                      "(Re V(k) ~ -cos(pi eta / 2) |k|^eta does not grow)")
    scale = (2.0 / (tau * phi_dir)) ** (1.0 / eta) / sig

    def envelope(th):
        return float(abs(g_fn(th + 1j * s)))

    val, err, tail = _theta_integral(lambda ths: g_fn(ths + 1j * s), d, 0.0, scale,
                                     envelope, quad)
    first = complex(g_fn(1j * s))
    return 0.5 * (first + val / np.pi), 0.5 * err / np.pi, 0.5 * tail / np.pi


# --------------------------------------------------------------------------
# option price, hedge and portfolio
# --------------------------------------------------------------------------

def _factors(model: MarketModel, d: float, tau: float, quad: QuadratureConfig) -> tuple:
    """(z, [N1, N2]), each factor a (value, error, tail bound) triple.

    One pass per factor on the model's route (one for both on the direct
    route).
    """
    if model.logcf.continuation is ContinuationMode.GAMMA_RATIO:
        return 0.0 + 0.0j, [_n_factor_hamiltonian(model, s, d, tau, quad) for s in (1.0, 0.0)]
    z = log_cf_imag(model, 1.0) * tau
    if abs(complex(z).imag) < 1e-13:
        return z, _direct_pass(model, (1.0, 0.0), d, complex(z).real, tau, quad)
    return z, [_appendix_pass(model, s, d, z, tau, quad) for s in (1.0, 0.0)]


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
    d-derivatives.  The two derivative terms cancel.  On the direct route
    N2 = P(X <= y) and N1 = 1 - e^z int_y^inf e^{-x} f(x) dx, with y = d + z
    and f the density of the projected log-price X, so N2' = f(y) and
    N1' = e^{z-y} f(y) = e^{-d} f(y) = (K e^{-r tau}/spot) N2'.  The appendix
    and gamma-ratio passes integrate the same two functionals under the
    continued factor, so the identity holds there formally; its Gaussian
    limit is Black-Scholes' S n(d1) = K e^{-r tau} n(d2).  Hence dC/dS = N1,
    and N_S = -Re N1 (a put's is one more), read from the pass that
    `price_option` runs.  An AccuracyWarning fires when N1's error
    estimate, its node-halving error plus its tail bound, exceeds 1e-4.

    The portfolio value is checked against its closed form
    -K e^{-r tau} N2(d1); the gap is reported, not asserted, because the
    factor solution is itself an approximation away from the Gaussian limit.
    """
    tau, d, k_disc = _price_inputs(model, contract, spot, t)
    z, (f1, f2) = _factors(model, d, tau, quad)
    report = _report(model, contract, spot, k_disc, d, z, f1, f2)
    _, e1, b1 = f1
    if e1 + b1 > 1e-4:
        warnings.warn(f"hedge-ratio error estimate {e1 + b1:.2e} exceeds 1e-4", AccuracyWarning)
    n_s = -report.n1.real
    if contract.style is OptionStyle.PUT:
        n_s += 1.0
    value = n_s * spot + report.price
    closed = -k_disc * report.n2.real
    return HedgeResult(n_s=n_s, portfolio=value, closed_form_gap=value - closed)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes_price(spot: float, strike: float, rate: float, variance_rate: float,
                        tau: float, style: OptionStyle = OptionStyle.CALL) -> float:
    """Closed-form lognormal benchmark with variance rate v = 2 phi sigma^2.

    Raises DomainError unless spot, strike, variance_rate and tau are finite
    and positive and rate is finite.
    """
    if not (all(math.isfinite(v) and v > 0 for v in (spot, strike, variance_rate, tau))
            and math.isfinite(rate)):
        raise DomainError("black_scholes_price needs finite spot, strike, variance_rate, "
                          "tau > 0 and a finite rate, got "
                          f"{(spot, strike, rate, variance_rate, tau)!r}")
    vol_sq = variance_rate * tau
    d1 = (math.log(spot / strike) + rate * tau + vol_sq / 2) / math.sqrt(vol_sq)
    d2 = d1 - math.sqrt(vol_sq)
    discount = strike * math.exp(-rate * tau)
    call = spot * _normal_cdf(d1) - discount * _normal_cdf(d2)
    if style is OptionStyle.PUT:
        return call - spot + discount
    return call
