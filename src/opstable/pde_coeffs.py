"""Coefficient algebra of the generalized Black-Scholes equation.

Exact first-kind-Stirling coefficients, the binomial phi-sums feeding the
log-price derivative expansion, the power-law Levy density of the pure
scaling regime, and the (cutoff-dependent, generally divergent) moment
coefficients of the Levy density.  Two independent representations of the
phi-sums are kept so they can cross-validate each other on a common
truncated domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.special import gamma as _gamma

from .charfn import MarketModel, log_cf_imag, projection_params
from .errors import DomainError, UnsupportedRegimeError
from .quadrature import integrate_panels, panel_edges

_K_MAX = 64


def stirling_first_kind(n: int, k: int) -> int:
    """Signed coefficient a_n^(k): exact integer arithmetic, 1 <= n <= k <= 64.

    Satisfies the recurrence a_n^(k+1) = a_{n-1}^(k) - k a_n^(k) with
    a_1^(1) = 1; equivalently the signed elementary-symmetric-polynomial
    sums over index subsets of {1, ..., k-1}.
    """
    if n < 1 or k < 1:
        raise DomainError("indices must be positive")
    if n > k:
        raise DomainError("a_n^(k) requires n <= k")
    if k > _K_MAX:
        raise DomainError(f"coefficient table is limited to k <= {_K_MAX}")
    row = [0, 1]  # a_n^(1)
    for kk in range(1, k):
        nxt = [0] * (kk + 2)
        for nn in range(1, kk + 2):
            nxt[nn] = row[nn - 1] - kk * (row[nn] if nn <= kk else 0)
        row = nxt
    return row[n]


def stirling_row(k: int) -> list[int]:
    """All a_n^(k) for n = 1..k (exact)."""
    return [stirling_first_kind(n, k) for n in range(1, k + 1)]


def s_coefficient(model: MarketModel, n: int) -> complex:
    """Binomial alternating sum over analytically continued phi values.

    S_n = sum_q C(n, q) (-1)^(n-q) phi(-i q sigma); S_0 = 0 since phi(0) = 0.
    The continuation mode of the model decides the branch, so errors from
    unsupported regimes propagate.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > _K_MAX:
        raise DomainError(f"binomial sums are limited to n <= {_K_MAX}")
    total = 0.0 + 0.0j
    for q in range(1, n + 1):
        total += comb(n, q) * (-1) ** (n - q) * log_cf_imag(model, float(q))
    return total


def _levy_constant(eta: float, sig: float, phi_dir: float) -> float:
    """phi_dir |sigma|^eta (-sin(pi eta / 2) Gamma(1 + eta) / pi): the factor of
    xi^(-eta-1) in the Levy density (see levy_density)."""
    return phi_dir * sig ** eta * (-np.sin(np.pi * eta / 2) * _gamma(1.0 + eta) / np.pi)


def levy_density(model: MarketModel, xi: float) -> float:
    """Pointwise inverse-Laplace density of phi for 1-D pure scaling.

    phi_tilde(xi) = phi_dir sigma^eta / (Gamma(-eta) 2 cos(pi eta / 2)) *
    xi^(-eta-1), computed through the reflection identity
    Gamma(-eta) 2 cos(pi eta/2) = -pi / (sin(pi eta/2) Gamma(1+eta)), which
    is regular across eta = 1 (the cos pole cancels against the Gamma pole).
    Negative on (0, inf) for 0 < eta < 2.  eta = 2 is delta-like and is
    rejected as a pointwise density.
    """
    eta, sig, phi_dir = projection_params(model)
    if model.index.dimension != 1:
        raise UnsupportedRegimeError("the Levy density closed form is 1-D pure scaling")
    if xi <= 0:
        raise DomainError("the Levy density is defined for xi > 0")
    if abs(eta - 2.0) < 1e-12:
        raise UnsupportedRegimeError("eta = 2 is a derivative of a delta, not a density")
    return float(_levy_constant(eta, sig, phi_dir) * xi ** (-eta - 1.0))


def _levy_integral(model: MarketModel, weight, xi_lo: float, xi_hi: float,
                   nodes: int = 32) -> complex:
    """int_{xi_lo}^{xi_hi} phi_tilde(xi) weight(xi) dxi on log-spaced panels.

    The substitution xi = e^u resolves the xi^(-eta-1) singularity at the
    origin; `weight` must be vectorized.
    """
    if not 0 <= xi_lo < xi_hi:
        raise DomainError("need 0 <= xi_lo < xi_hi")
    eta, sig, phi_dir = projection_params(model)
    const = _levy_constant(eta, sig, phi_dir)
    u_lo = np.log(xi_lo) if xi_lo > 0 else np.log(xi_hi) - 120.0
    edges = panel_edges(np.log(xi_hi), 0.5, 1.0 + 1e-9, 0.5, x_start=u_lo)

    def f(us):
        xs = np.exp(us)
        return const * xs ** (-eta) * weight(xs)  # xi * phi_tilde(xi) / const = xi^-eta

    val, _ = integrate_panels(f, edges, nodes)
    return val


def truncated_laplace_phi(model: MarketModel, q: float, xi_lo: float, xi_hi: float) -> float:
    """int e^(-q xi) phi_tilde(xi) dxi over [xi_lo, xi_hi]: the truncated-domain
    surrogate for phi(-i q sigma) used by the Proposition-1 cross-checks.

    The q = 0 case is a plain power integral and is evaluated in closed form:
    near the origin it is huge (the truncated divergence), and the binomial
    cancellation against it needs more relative accuracy than quadrature has.
    """
    if q == 0.0:
        eta, sig, phi_dir = projection_params(model)
        const = _levy_constant(eta, sig, phi_dir)
        if xi_lo <= 0:
            raise DomainError("the q = 0 truncated integral needs xi_lo > 0")
        return float(const * (xi_lo ** -eta - xi_hi ** -eta) / eta)
    val = _levy_integral(model, lambda xs: np.exp(-q * xs), xi_lo, xi_hi)
    return float(val.real)


def s_coefficient_truncated(model: MarketModel, n: int, xi_lo: float, xi_hi: float) -> float:
    """Binomial sum built from truncated-Laplace phi values (common domain).

    Unlike `s_coefficient`, the q = 0 term is kept: its regularized
    full-domain value is phi(0) = 0, but on a truncated domain it is the
    (large) plain integral of the Levy density and is needed for the
    identity with the direct form.
    """
    total = 0.0
    for q in range(0, n + 1):
        total += comb(n, q) * (-1) ** (n - q) * truncated_laplace_phi(model, float(q), xi_lo, xi_hi)
    return total


def s_coefficient_levy(model: MarketModel, n: int, xi_lo: float, xi_hi: float) -> float:
    """Direct integral form int phi_tilde(xi) (-1 + e^-xi)^n dxi on [xi_lo, xi_hi]."""
    val = _levy_integral(model, lambda xs: np.expm1(-xs) ** n, xi_lo, xi_hi)
    return float(val.real)


def e_coefficient(model: MarketModel, n: int, cutoff: float) -> float:
    """Truncated Levy-moment coefficient of the log-price expansion.

    n = 1 uses the compensated integrand (e^-xi - 1 + xi), integrable at the
    origin for eta < 2; n > 1 uses (-1)^n xi^n / n!.  For eta < 2 the value
    diverges as the cutoff grows, at the rate cutoff^(n - eta); that growth
    is a reported diagnostic, not an error.
    """
    if n < 1:
        raise DomainError("coefficients are defined for n >= 1")
    if not np.isfinite(cutoff) or cutoff <= 0:
        raise DomainError("the cutoff must be finite and positive")
    eta, sig, phi_dir = projection_params(model)
    if abs(eta - 2.0) < 1e-12:
        # the eta = 2 density is a derivative of a delta at the origin; its
        # pointwise part on (0, cutoff] vanishes identically
        return 0.0
    const = _levy_constant(eta, sig, phi_dir)
    if n == 1:
        # compensated integrand ~ xi^2/2 at the origin; the [0, xi_s] piece is
        # summed analytically to dodge the expm1(-xi) + xi float cancellation
        xi_s = min(1e-3, cutoff / 2)
        head = 0.0
        for m in range(2, 24):
            head += (-1.0) ** m / math.factorial(m) * xi_s ** (m - eta) / (m - eta)
        head *= -const
        weight = lambda xs: -(np.expm1(-xs) + xs)
        val = _levy_integral(model, weight, xi_s, cutoff)
        return float(head + val.real)
    fact = math.factorial(n)
    weight = lambda xs: (-1.0) ** n * xs ** n / fact
    val = _levy_integral(model, weight, 0.0, cutoff)
    return float(val.real)


def e_coefficient_divergence_rate(model: MarketModel, n: int) -> float:
    """Exponent of the cutoff growth of e_coefficient: n - eta (0 means log)."""
    eta, _, _ = projection_params(model)
    return float(n - eta)


def hamiltonian_tail_integral(model: MarketModel, k: float,
                              cutoff: float = np.inf) -> complex:
    """The resummed integral int phi_tilde(xi) [(-1+e^-xi)(ik) + e^{ik xi} - 1] dxi.

    Converges without truncation for 1 < eta < 2 (the integrand is
    O(xi^(1-eta)) at the origin and O(xi^(-eta-1)) at infinity); used by the
    order-of-limits stability checks.  The O(xi) cancellation between the
    two bracket terms is removed analytically on [0, xi_s].
    """
    eta, sig, phi_dir = projection_params(model)
    if eta >= 2.0 - 1e-12:
        raise UnsupportedRegimeError("the resummed integral form needs 1 < eta < 2")
    hi = cutoff if np.isfinite(cutoff) else max(200.0, 40.0 * (1 + abs(k)))
    const = _levy_constant(eta, sig, phi_dir)
    xi_s = min(1e-3 / max(1.0, abs(k)), hi / 2)
    head = 0.0 + 0.0j
    for m in range(2, 24):
        coef = (1j * k) * (-1.0) ** m + (1j * k) ** m
        head += coef / math.factorial(m) * xi_s ** (m - eta) / (m - eta)
    head *= const

    def weight(xs):
        osc = -2.0 * np.sin(k * xs / 2) ** 2 + 1j * np.sin(k * xs)
        return np.expm1(-xs) * (1j * k) + osc

    # log panels absorb the origin singularity; past xi_mid the oscillation
    # e^{ik xi} needs period-capped linear panels instead
    period = 2 * np.pi / abs(k) if k != 0 else np.inf
    xi_mid = min(max(2.0, period), hi)
    body = _levy_integral(model, weight, xi_s, xi_mid)
    if xi_mid < hi:
        edges = panel_edges(hi, min(period / 3, 2.0), 1.3,
                            min(period / 2.5, 8.0), x_start=xi_mid)

        def f(xs):
            return const * xs ** (-eta - 1.0) * weight(xs)

        tail_body, _ = integrate_panels(f, edges, 24)
        body += tail_body

    # asymptotic remainder over [hi, inf): the bracket tends to (-ik - 1) plus
    # an oscillation handled by two integration-by-parts terms
    tail = (-1j * k - 1.0) * hi ** (-eta) / eta
    if k != 0.0:
        ik = 1j * k
        tail += -np.exp(ik * hi) / ik * hi ** (-eta - 1) * (1.0 + (eta + 1) / (ik * hi))
    tail *= const
    return complex(head + body + tail)


@dataclass(frozen=True)
class CoeffTable:
    """Assembled coefficient tables for reporting and the CLI dump.

    a[k][n-1] holds a_n^(k); s_values[n] is S_n from the continued phi;
    e_values[n] the truncated Levy moments at `truncation`.
    """

    k_max: int
    truncation: float
    a: dict = field(repr=False)
    s_values: dict = field(repr=False)
    e_values: dict = field(repr=False)

    @classmethod
    def build(cls, model: MarketModel, k_max: int = 12, truncation: float = 50.0,
              n_e: int = 6) -> "CoeffTable":
        if k_max > _K_MAX:
            raise DomainError(f"k_max must not exceed {_K_MAX}")
        a = {k: stirling_row(k) for k in range(1, k_max + 1)}
        s_values = {n: s_coefficient(model, n) for n in range(0, k_max + 1)}
        e_values = {n: e_coefficient(model, n, truncation) for n in range(1, n_e + 1)}
        return cls(k_max=k_max, truncation=truncation, a=a,
                   s_values=s_values, e_values=e_values)
