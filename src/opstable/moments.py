"""Marginal characteristic functions and fractional moments of sigma . L_t.

The beta-marginal (the law of a real power of the projected fluctuation) is
assembled from a rotated-Laplace kernel; closed-form fractional moments are
provided for all three scaling regimes, with exact existence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import (
    MarketModel,
    SampledAngular,
    _projection_cf_factory,
    char_fn,
    projection_params,
)
from .errors import (
    DivergentIntegrandError,
    DomainError,
    MomentInfiniteError,
    NonConvergenceError,
    UnsupportedRegimeError,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _gl_rule,
    panel_edges,
    periodic_average,
    piecewise_average,
)
from .stable_index import Regime

_INT_TOL = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Derived constants of the power-kernel for a given beta >= 1."""

    beta: float

    def __post_init__(self):
        if self.beta < 1:
            raise DomainError("the marginal kernel is defined for beta >= 1")

    @property
    def rotation(self) -> complex:
        """exp(i pi / (2 beta)): the ray rotation making the t-integral converge."""
        return np.exp(1j * np.pi / (2 * self.beta))

    @property
    def kernel_phase(self) -> complex:
        """exp(-i pi {beta} / beta) with {beta} the fractional part."""
        frac = self.beta - np.floor(self.beta)
        return np.exp(-1j * np.pi * frac / self.beta)

    @property
    def floor_is_even(self) -> bool:
        return int(np.floor(self.beta)) % 2 == 0

    @property
    def second_ray(self) -> complex:
        """Coefficient of the second ray: r m for even floor(beta), conj(r) m for odd."""
        r = self.rotation if self.floor_is_even else np.conj(self.rotation)
        return r * self.kernel_phase


def _ray_integrals(beta: float, k: float, c: complex, lams: np.ndarray, osc: float,
                   nodes: int) -> np.ndarray:
    """int_0^inf exp(-k t^beta + c lam t) dt for every lam, on shared t-panels.

    The panels are geometric up to the width cap min(4 scale, period / 2.5),
    the period being 2 pi / osc, and every panel of that width (all but the
    head and the truncated last one) is factored: with t = a_q + h y_j,
    exp(c lam t - k t^beta) = E[lam, q] B[lam, j] W[q, j], where
    E = exp(c lam a_q - k a_q^beta) <= exp(peak), B = exp(c lam h y_j)
    <= exp(2 pi / 2.5) and W = exp(k a_q^beta - k t^beta) <= 1.  So a panel
    costs n_lam + nodes exponentials, not n_lam * nodes, plus one small
    matrix product; the head and last panels are evaluated directly.
    """
    growth = max(float((c * lams).real.max()), 0.0)
    # crossing point where k t^beta - growth t = 45 (exists for beta > 1)
    t_hi = max((45.0 / k) ** (1.0 / beta), 1.0)
    it = 0
    while k * t_hi ** beta - growth * t_hi < 45.0:
        t_hi *= 2.0
        it += 1
        if it > 200:
            raise DivergentIntegrandError("kernel integrand does not decay (beta too close to 1)")
    period = 2 * np.pi / osc if osc > 0 else np.inf
    scale = (1.0 / k) ** (1.0 / beta)
    cap = min(4 * scale, period / 2.5)
    edges = panel_edges(t_hi, min(scale / 8, period / 3, t_hi / 4), 1.5, cap)
    xs, ws = _gl_rule(nodes)
    lo = edges[:-1]
    width = np.diff(edges)
    rate = c * lams
    # np.diff misses the cap in the last bit, so match it to a tolerance
    body = np.abs(width - cap) <= 1e-12 * cap
    a = lo[body]
    t = a[:, None] + cap * xs
    e = np.exp(np.outer(rate, a) - k * a ** beta)
    b = np.exp(np.outer(rate, cap * xs))
    w = ws * width[body, None] * np.exp(k * a[:, None] ** beta - k * t ** beta)
    out = np.einsum("lq,lq->l", e, b @ w.T)
    t = (lo[~body, None] + width[~body, None] * xs).ravel()
    out += np.exp(np.outer(rate, t) - k * t ** beta) @ (width[~body, None] * ws).ravel()
    return out


def kernel_ray(params: KernelParams, k: float, a: complex) -> complex:
    """Single-ray factor I(a) = int_0^inf exp(-k t^beta + a t) dt."""
    if k <= 0:
        raise DomainError("the ray integral needs k > 0")
    return complex(_ray_integrals(params.beta, k, a, np.ones(1), abs(a.imag), 32)[0])


def power_kernel(params: KernelParams, k: float, lam: float) -> complex:
    """The two-term rotated-Laplace kernel K^(beta)(k, lambda).

    For k > 0 both ray integrals converge absolutely.  At k = 0 the kernel
    degenerates to a delta pair at lambda = 0; the Abel-regularized pointwise
    value away from the origin is 0, which is what is returned.
    """
    if k < 0:
        raise DomainError("kernel requires k >= 0")
    if k == 0.0:
        if lam == 0.0:
            raise DomainError("kernel at k = 0 is a delta pair at lambda = 0")
        return 0.0 + 0.0j
    r = params.rotation
    second = params.second_ray
    term1 = r * kernel_ray(params, k, -1j * lam * r)
    term2 = second * kernel_ray(params, k, 1j * lam * second)
    return (term1 + term2) / (2 * np.pi)


def _power_kernel_grid(params: KernelParams, k: float, lams: np.ndarray,
                       nodes: int = 32) -> np.ndarray:
    """The kernel over a lambda grid, each ray on t-panels shared by the grid."""
    r = params.rotation
    second = params.second_ray
    lam_max = float(np.max(np.abs(lams)))
    out = (r * _ray_integrals(params.beta, k, -1j * r, lams, lam_max, nodes)
           + second * _ray_integrals(params.beta, k, 1j * second, lams, lam_max, nodes))
    return out / (2 * np.pi)


def power_marginal_cf(model: MarketModel, beta: float, k: float, t: float,
                      quad: QuadratureConfig = DEFAULT_QUADRATURE) -> complex:
    """Fourier transform of (sigma . L_t)^beta at wavenumber k >= 0.

    beta = 1 bypasses the kernel (plain projected characteristic function);
    k = 0 is the exact normalization.  Otherwise the lambda-integral of the
    kernel against the unit-direction characteristic function is evaluated
    on oscillation-aware panels.
    """
    if not (np.isfinite(beta) and beta >= 1):
        raise DomainError("marginal characteristic functions require a finite beta >= 1")
    if not (np.isfinite(t) and t > 0):
        raise DomainError("marginal characteristic functions require a finite t > 0")
    if not (np.isfinite(k) and k >= 0):
        raise DomainError("evaluate at a finite k >= 0 (conjugate for negative k)")
    if abs(beta - 1.0) < _INT_TOL:
        return complex(char_fn(model, k * model.sigma, t))
    if k == 0.0:
        return 1.0 + 0.0j

    params = KernelParams(beta)
    kk = k * model.sigma_norm ** beta
    cf = _projection_cf_factory(model, t)

    def nu1(lams: np.ndarray) -> np.ndarray:
        # characteristic function of sigma-hat . L_t at |lambda|
        return cf(np.abs(lams) / model.sigma_norm)

    # lambda range: where the unit-direction CF has decayed to ~1e-17
    lam_hi = 1.0
    while nu1(np.array([lam_hi]))[0] > 1e-17:
        lam_hi *= 2.0
        if lam_hi > 1e12:
            raise DivergentIntegrandError("unit-direction CF does not decay")

    # conditioning guard: the ray integrals route O(1) values through
    # exp(peak) intermediates; where the CF weight cannot absorb the float
    # noise of that peak the representation has numerically diverged.
    # growth per unit |lambda| is |Im(phase)| since the exponent is -+ i lam phase t
    # The estimate exp(worst) * 1e-16 * lam_hi is compared and printed from its
    # logarithm, since it can exceed the float range (the guard then fires).
    s0 = max(abs(params.rotation.imag), abs(params.second_ray.imag))
    lams = np.linspace(lam_hi / 200, lam_hi, 200)
    g = lams * s0
    t_peak = (g / (beta * kk)) ** (1.0 / (beta - 1.0))
    peak = g * t_peak - kk * t_peak ** beta
    worst = np.max(peak + np.log(np.maximum(nu1(lams), 1e-300)))
    log_noise = worst + np.log(1e-16 * lam_hi)
    if log_noise > np.log(1e-8):
        decades, frac = divmod(log_noise / np.log(10.0), 1.0)
        raise NonConvergenceError(
            f"kernel quadrature cannot reach tolerance at k={k}: "
            f"residual estimate {10.0 ** frac:.2f}e{int(decades):+03d} (wavenumber "
            "too small for the rotated-ray representation)"
        )
    # kernel oscillation in lambda has frequency ~ typical t of the ray decay
    t_typ = (1.0 / kk) ** (1.0 / beta)
    width = min(2 * np.pi / t_typ / 3.0, lam_hi / 8.0)
    edges = panel_edges(lam_hi, width / 4, 1.4, width)
    xs, ws = _gl_rule(quad.nodes_per_panel)
    widths = np.diff(edges)
    pts = (edges[:-1, None] + widths[:, None] * xs).ravel()
    # nu1 is even: K(k, lam) + K(k, -lam), weighted by nu1 once; one kernel
    # call per sign, so each sizes its t-range from its own growth
    kern = (_power_kernel_grid(params, kk, pts, nodes=quad.nodes_per_panel)
            + _power_kernel_grid(params, kk, -pts, nodes=quad.nodes_per_panel))
    vals = kern * nu1(pts)
    return complex(np.einsum("pn,n,p->", vals.reshape(len(widths), len(xs)), ws, widths))


# --------------------------------------------------------------------------
# closed-form fractional moments
# --------------------------------------------------------------------------

def moment_prefactor(beta: float, rho: float) -> float:
    """The Gamma-ratio prefactor 2^{beta+1}/(rho sqrt(pi)) G((b+1)/2) G(-b/rho)/G(-b/2)."""
    if beta <= 0 or rho <= 0:
        raise DomainError("prefactor requires beta > 0 and rho > 0")
    if beta >= rho:
        raise MomentInfiniteError(f"the moment exists only for beta < {rho}")
    for ratio in (beta / rho, beta / 2.0):
        if abs(ratio - round(ratio)) < _INT_TOL and round(ratio) >= 0:
            raise DomainError("Gamma pole: beta/rho and beta/2 must not be nonnegative integers")
    try:
        val = (2.0 ** (beta + 1) / (rho * np.sqrt(np.pi))
               * math.gamma((beta + 1) / 2) * math.gamma(-beta / rho) / math.gamma(-beta / 2))
    except (OverflowError, ZeroDivisionError):  # a Gamma past the float range
        val = math.inf
    if not math.isfinite(val):
        raise DomainError(f"the prefactor overflows a float at beta = {beta:g}, rho = {rho:g}")
    return val


def _support_factor(beta: float) -> complex:
    """cos(pi beta / 2) exp(i pi beta / 2): the support of a symmetric power."""
    return np.cos(np.pi * beta / 2) * np.exp(1j * np.pi * beta / 2)


def _phase_rotated_direction(model: MarketModel, xi) -> np.ndarray:
    """Real unit vector from phase-rotating the eigen-projections of sigma-hat.

    Eigencoordinate j picks up exp(-i xi sign(Im lambda_j)); conjugate pairs
    stay conjugate so the rotated vector is real.  Real eigen-directions are
    left fixed.  A scalar xi gives a (D,) vector, an (n,) array of angles a
    (D, n) stack with one direction per column.
    """
    index = model.index
    basis = index.eigenbasis
    sig_tilde = basis.conj().T @ model.sigma_hat.astype(complex)
    signs = np.sign([ev.imag for ev in index.eigenvalues])
    xi = np.asarray(xi, dtype=float)
    per_coord = (-1,) + (1,) * xi.ndim
    rotated = basis @ (np.exp(-1j * xi * signs.reshape(per_coord))
                       * sig_tilde.reshape(per_coord))
    return rotated.real / np.linalg.norm(rotated.real, axis=0)


def fractional_moment(model: MarketModel, beta: float, t: float) -> complex:
    """Closed-form E[(sigma . L_t)^beta] in the model's regime.

    Odd integer beta gives exactly 0 (symmetric principal value); even
    integer beta raises MomentInfiniteError, as does any beta at or above
    the regime's existence threshold.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise DomainError("fractional moments require a finite beta > 0")
    if not (np.isfinite(t) and t > 0):
        raise DomainError("fractional moments require a finite t > 0")
    n = round(beta)
    if abs(beta - n) < _INT_TOL:
        if n % 2 == 1:
            return 0.0 + 0.0j
        raise MomentInfiniteError("even integer powers have infinite moments")

    index = model.index
    support = _support_factor(beta)
    sig = model.sigma_norm

    if index.regime is Regime.PURE_SCALING:
        rho = index.scaling_exponent
        if beta >= rho:
            raise MomentInfiniteError(f"moment exists only for beta < {rho}")
        _, _, phi_dir = projection_params(model)
        return (moment_prefactor(beta, rho)
                * (sig * t ** (1.0 / rho)) ** beta
                * support
                * phi_dir ** (beta / rho))

    if index.regime is Regime.SCALING_ROTATION:
        rho = index.scaling_exponent
        if beta >= rho:
            raise MomentInfiniteError(f"moment exists only for beta < {rho}")
        power = beta / rho
        sigma_hat = model.sigma_hat

        def integrand(eta_angles):
            c, s = np.cos(eta_angles), np.sin(eta_angles)
            rotated = np.array([c * sigma_hat[0] - s * sigma_hat[1],
                                s * sigma_hat[0] + c * sigma_hat[1]])
            return model.logcf.angular(rotated) ** power

        angular = model.logcf.angular
        if isinstance(angular, SampledAngular):
            # the table is linear between its samples, so the integrand has a
            # kink wherever the rotated direction crosses a sample angle
            n = len(angular.values)
            kinks = 2 * np.pi * np.arange(n) / n - np.arctan2(sigma_hat[1], sigma_hat[0])
            avg = piecewise_average(integrand, kinks)
        else:
            avg = periodic_average(integrand)
        return (moment_prefactor(beta, rho)
                * (sig * t ** (1.0 / rho)) ** beta
                * support * avg)

    # generic regime: dominant eigen-direction among those sigma projects onto
    basis = index.eigenbasis
    sig_tilde = basis.conj().T @ model.sigma_hat.astype(complex)
    weights = np.abs(sig_tilde) ** 2
    thetas = np.array([ev.real for ev in index.eigenvalues])
    active = weights > 1e-24
    theta_l = float(np.max(thetas[active]))
    if beta * theta_l >= 1:
        raise MomentInfiniteError(
            f"moment exists only for beta < {1.0 / theta_l} (inverse dominant real part)"
        )
    in_j = np.abs(thetas - theta_l) < _INT_TOL
    power = beta * theta_l

    def integrand(xis):
        phi_val = model.logcf.angular(_phase_rotated_direction(model, xis))
        if np.all(in_j):
            weight = 1.0
        else:
            lhs = np.sum(weights[~in_j, None] * phi_val ** (2 * thetas[~in_j, None]), axis=0)
            rhs = phi_val ** (2 * theta_l)
            gap = lhs - rhs
            tol = _INT_TOL * np.maximum(1.0, np.abs(rhs))
            weight = np.where(np.abs(gap) <= tol, 0.5, np.where(gap < 0, 1.0, 0.0))
            if not np.any(weight):
                raise UnsupportedRegimeError(
                    "generic-regime moment: the dominance weight vanishes at every "
                    "phase (sigma projects too strongly onto the faster "
                    "eigen-directions), so the closed form does not apply"
                )
        return phi_val ** power * weight

    avg = periodic_average(integrand)
    return (moment_prefactor(beta, 1.0 / theta_l)
            * (sig * t ** theta_l) ** beta
            * support * avg)
