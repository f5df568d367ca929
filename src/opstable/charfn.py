"""Log-characteristic function, analytic continuation, and Fourier densities.

The negative log-characteristic function phi is assembled from the stable
index (radial part, via Jurek coordinates) and an even, positive angular
function on the unit sphere.  Analytic continuation to imaginary arguments is
exposed in three selectable flavors because the continued factors are complex
for non-Gaussian exponents; see ContinuationMode.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .errors import (
    AccuracyError,
    AccuracyWarning,
    DomainError,
    ModelValidationError,
    UnsupportedRegimeError,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _panel_widths,
    half_line_pass,
    integrate_panels,
    panel_edges,
)
from .stable_index import Regime, StableIndex, jurek_decompose

_EVEN_TOL = 1e-10


class ContinuationMode(str, enum.Enum):
    """How phi is continued to purely imaginary arguments.

    PRINCIPAL_COMPLEX keeps the full complex branch value of (k^2)^(eta/2),
    approached from the right half-plane.  REAL_PART keeps only its real
    part, which is what survives the even-Taylor-series reading.  GAMMA_RATIO
    swaps the power-law symbol for a ratio of Gamma functions (1-D pure
    scaling only); it is offered as the real-valued alternative and its
    normalization is documented in `log_cf_imag`.
    """

    PRINCIPAL_COMPLEX = "principal_complex"
    REAL_PART = "real_part"
    GAMMA_RATIO = "gamma_ratio"


# --------------------------------------------------------------------------
# Angular functions on the unit sphere
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantAngular:
    """Isotropic angular function (any dimension).

    Like every angular function, it takes one direction of shape (D,) and
    returns a float, or a stack of n directions as the columns of a (D, n)
    array and returns the (n,) values, equal to the column-by-column calls.
    """

    value: float

    def __call__(self, theta):
        if np.ndim(theta) == 1:
            return self.value
        return np.full(np.shape(theta)[1], float(self.value))


@dataclass(frozen=True)
class DirectionalPair:
    """One-dimensional angular data: the values at +1 and -1.

    Evenness forces the two to coincide; both are accepted for symmetry with
    the config schema and validated equal.  A (1, n) stack gives n copies.
    """

    phi_plus: float
    phi_minus: float

    def __call__(self, theta):
        if np.ndim(theta) == 1:
            return self.phi_plus
        return np.full(np.shape(theta)[1], float(self.phi_plus))


@dataclass(frozen=True)
class SampledAngular:
    """Tabulated angular function on a uniform polar grid (dimension 2).

    `values[i]` is the value at polar angle 2*pi*i/n.  Linear interpolation
    with periodic wraparound; the table length must be even so that evenness
    (antipodal symmetry) can be checked sample-by-sample.  A (2, n) stack
    of directions is interpolated in one call.
    """

    values: np.ndarray = field(repr=False)

    def __call__(self, theta):
        vals = np.asarray(self.values, dtype=float)
        n = len(vals)
        eta = np.arctan2(theta[1], theta[0]) % (2 * np.pi)
        grid = np.arange(n + 1) * (2 * np.pi / n)
        out = np.interp(eta, grid, np.append(vals, vals[0]))
        return float(out) if np.ndim(theta) == 1 else out


@dataclass(frozen=True)
class EigenWeightAngular:
    """Separable angular function adapted to a generic index.

    phi(theta) = sum_j w_j |(O^dagger theta)_j|^(1/Theta_j).  This is the
    angular part of a product of independent stable components in the
    eigenbasis, so terminal laws can be sampled exactly.  A (D, n) stack is
    projected onto the eigenbasis column by column in one numpy call.
    """

    weights: np.ndarray = field(repr=False)
    tail_indices: np.ndarray = field(repr=False)   # 1 / Theta_j per direction
    basis: np.ndarray = field(repr=False)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        cols = theta.reshape(len(theta), -1)
        # products summed in a fixed order rather than by a BLAS matrix
        # product, whose rounding depends on the number of columns
        proj = np.abs(np.add.reduce(self.basis.T.conj()[:, :, None] * cols, axis=1))
        out = np.add.reduce(np.reshape(self.weights, (-1, 1))
                            * proj ** np.reshape(self.tail_indices, (-1, 1)), axis=0)
        return float(out[0]) if theta.ndim == 1 else out


@dataclass(frozen=True)
class LogCharFn:
    """Angular data plus truncation and continuation settings for phi."""

    angular: object
    epsilon: float = 0.0
    continuation: ContinuationMode = ContinuationMode.REAL_PART

    def __post_init__(self):
        if self.epsilon < 0:
            raise ModelValidationError("truncation parameter epsilon must be >= 0")


@dataclass(frozen=True)
class MarketModel:
    """Immutable market description: drift, portfolio mix, rate, index, phi."""

    alpha: float
    sigma: np.ndarray
    rate: float
    index: StableIndex
    logcf: LogCharFn

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "sigma", sigma)
        if sigma.shape != (self.index.dimension,):
            raise ModelValidationError("sigma dimension does not match the stable index")
        if not (np.all(np.isfinite(sigma)) and np.isfinite(self.alpha)
                and np.isfinite(self.rate)):
            raise ModelValidationError("alpha, rate and sigma must be finite")
        if np.linalg.norm(sigma) == 0.0:
            raise ModelValidationError("portfolio mix sigma must be nonzero")
        if self.rate < 0:
            raise ModelValidationError("riskless rate must be nonnegative")
        if self.logcf.continuation is ContinuationMode.GAMMA_RATIO:
            if not (self.index.regime is Regime.PURE_SCALING and self.index.dimension == 1):
                raise ModelValidationError(
                    "gamma-ratio continuation is only valid for 1-D pure scaling"
                )
        self._check_angular()

    def _check_angular(self):
        ang = self.logcf.angular
        if isinstance(ang, DirectionalPair):
            if self.index.dimension != 1:
                raise ModelValidationError("directional pair angular data is 1-D only")
            if abs(ang.phi_plus - ang.phi_minus) > _EVEN_TOL:
                raise ModelValidationError("evenness requires phi_plus == phi_minus")
        if isinstance(ang, SampledAngular):
            if self.index.dimension != 2:
                raise ModelValidationError("sampled angular tables are 2-D only")
            vals = np.asarray(ang.values, dtype=float)
            if len(vals) % 2 != 0 or len(vals) < 4:
                raise ModelValidationError("angular table length must be even and >= 4")
            if np.max(np.abs(vals - np.roll(vals, len(vals) // 2))) > _EVEN_TOL:
                raise ModelValidationError("angular table violates evenness")
        if isinstance(ang, EigenWeightAngular) and np.any(np.asarray(ang.weights) <= 0):
            raise ModelValidationError("eigen weights must be positive")
        # positivity spot check on a deterministic sample of sphere points
        for theta in _sphere_probe(self.index.dimension):
            v_plus = ang(theta)
            v_minus = ang(-theta)
            if not v_plus > 0:
                raise ModelValidationError("angular function must be positive on the sphere")
            if abs(v_plus - v_minus) > _EVEN_TOL * max(1.0, abs(v_plus)):
                raise ModelValidationError("angular function violates evenness")

    @property
    def sigma_norm(self) -> float:
        return float(np.linalg.norm(self.sigma))

    @property
    def sigma_hat(self) -> np.ndarray:
        return self.sigma / self.sigma_norm


def _sphere_probe(dimension: int):
    if dimension == 1:
        return [np.array([1.0])]
    rng = np.random.RandomState(20240817)
    pts = rng.standard_normal((16, dimension))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if dimension == 2:
        etas = np.linspace(0, np.pi, 9)[:-1]
        pts = np.vstack([pts, np.c_[np.cos(etas), np.sin(etas)]])
    return list(pts)


# --------------------------------------------------------------------------
# phi and the characteristic function
# --------------------------------------------------------------------------

def log_cf(model: MarketModel, k) -> float:
    """phi(k) = r_k * angular(theta_k), with the exp(-eps/|k|) damping."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        return 0.0
    index = model.index
    if index.regime is Regime.PURE_SCALING:
        radius = norm ** index.scaling_exponent
        angle = k / norm
    else:
        radius, angle = jurek_decompose(index, k)
    val = radius * model.logcf.angular(angle)
    if model.logcf.epsilon > 0:
        val *= np.exp(-model.logcf.epsilon / norm)
    return float(val)


def char_fn(model: MarketModel, k, t: float) -> float:
    """omega-tilde^t(k) = exp(-t phi(k)); real by evenness of phi."""
    if t <= 0:
        raise DomainError("characteristic function requires t > 0")
    return float(np.exp(-t * log_cf(model, k)))


def projection_params(model: MarketModel) -> tuple[float, float, float]:
    """(exponent, |sigma|, angular value at sigma-hat) for the projected law.

    For pure scaling the projection sigma . L_t is one-dimensional symmetric
    stable with exponent D*mu, so pricing and continuation reduce exactly to
    this triple.  Other regimes have no single-exponent reduction.
    """
    index = model.index
    if index.regime is not Regime.PURE_SCALING:
        raise UnsupportedRegimeError(
            "analytic continuation requires the pure-scaling regime (any D)"
        )
    eta = index.scaling_exponent
    phi_dir = float(model.logcf.angular(model.sigma_hat))
    return eta, model.sigma_norm, phi_dir


def is_gaussian(model: MarketModel) -> bool:
    eta, _, _ = projection_params(model)
    return abs(eta - 2.0) < 1e-12


def log_cf_complex(model: MarketModel, w) -> complex:
    """phi continued to complex scalar arguments of the projected law.

    Returns phi_dir * (sigma^2 w^2)^(eta/2) on the principal branch (cut
    where w^2 is a negative real, i.e. on the imaginary axis, approached
    from Re w > 0).  The epsilon damping is dropped: continued values are
    evaluated at the epsilon -> 0 limit.
    """
    eta, sig, phi_dir = projection_params(model)
    w = np.asarray(w, dtype=complex)
    return phi_dir * (sig ** eta) * np.power(w * w, 0.5 * eta)


def log_cf_imag_upper(model: MarketModel, s: float) -> complex:
    """Branch value of phi(i s sigma) approached from the right half-plane."""
    eta, sig, phi_dir = projection_params(model)
    if s == 0:
        return 0.0 + 0.0j
    return phi_dir * (sig * abs(s)) ** eta * np.exp(1j * np.pi * eta / 2 * np.sign(s))


def log_cf_imag(model: MarketModel, s: float) -> complex:
    """Analytic continuation phi(-i s sigma), per the model's continuation mode.

    PRINCIPAL_COMPLEX: phi_dir (sigma |s|)^eta exp(-i pi eta / 2), the branch
    of (k^2)^(eta/2) at k = -is continued from Re k > 0 (conjugate for s < 0).
    REAL_PART: the real part of that value, phi_dir (sigma |s|)^eta cos(pi eta / 2).
    GAMMA_RATIO (1-D pure scaling, s >= 0): -(1/2) phi_dir sigma^eta
    Gamma(s + eta) / Gamma(s); the 1/2 normalization follows the sketched
    substitution verbatim and is flagged in the docs.
    """
    eta, sig, phi_dir = projection_params(model)
    mode = model.logcf.continuation
    if s == 0:
        return 0.0 + 0.0j
    if mode is ContinuationMode.GAMMA_RATIO:
        if s < 0:
            raise DomainError("gamma-ratio continuation is defined for s >= 0")
        # Gamma(s + eta) / Gamma(s) written with the pole at s = 0 removed
        ratio = _gamma(s + eta) * s / _gamma(s + 1.0)
        return complex(-0.5 * phi_dir * sig ** eta * ratio)
    mag = phi_dir * (sig * abs(s)) ** eta
    if mode is ContinuationMode.REAL_PART:
        return complex(mag * np.cos(np.pi * eta / 2))
    return mag * np.exp(-1j * np.pi * eta / 2 * np.sign(s))


# --------------------------------------------------------------------------
# density of the projected fluctuation by Fourier inversion
# --------------------------------------------------------------------------

def _projection_cf_factory(model: MarketModel, tau: float):
    """Vectorized k -> exp(-tau phi(k sigma)) for the scalar projection."""
    index = model.index
    if index.regime is Regime.PURE_SCALING:
        eta = index.scaling_exponent
        sig = model.sigma_norm
        phi_dir = float(model.logcf.angular(model.sigma_hat))
        eps = model.logcf.epsilon

        def cf(ks):
            ks = np.asarray(ks, dtype=float)
            val = phi_dir * (sig * np.abs(ks)) ** eta
            if eps > 0:
                with np.errstate(divide="ignore"):
                    val = val * np.exp(-eps / (sig * np.abs(ks)))
            return np.exp(-tau * val)

        return cf

    def cf(ks):
        ks = np.asarray(ks, dtype=float)
        return np.exp(-tau * np.array([log_cf(model, kk * model.sigma) for kk in ks]))

    return cf


def _angular_min(model: MarketModel) -> float:
    vals = [model.logcf.angular(theta) for theta in _sphere_probe(model.index.dimension)]
    return min(vals)


def _cf_decay_scale(model: MarketModel, tau: float, drop: float = 40.0) -> float:
    """k beyond which tau * phi(k sigma) exceeds `drop` (envelope bound)."""
    if model.index.regime is Regime.GENERIC:
        # conservative: the slowest direction dominates the large-k radius growth
        theta_max = max(ev.real for ev in model.index.eigenvalues)
        rho = 1.0 / theta_max
    else:
        rho = model.index.scaling_exponent
    phi_min = _angular_min(model)
    sig = model.sigma_norm
    return (drop / (tau * phi_min)) ** (1.0 / rho) / sig


def density(model: MarketModel, xi: float, tau: float,
            quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Density of sigma . L_tau at xi by cosine-transform inversion.

    nu(xi) = (1/pi) int_0^inf cos(k xi) exp(-tau phi(k sigma)) dk.  The
    cutoff is chosen where the characteristic factor drops below ~1e-17, and
    an AccuracyWarning is emitted when the cap forces a larger tail mass.
    """
    if not np.isfinite(xi):
        raise DomainError("density requires a finite xi")
    if not (np.isfinite(tau) and tau > 0):
        raise DomainError("density requires a finite tau > 0")
    cf = _projection_cf_factory(model, tau)
    k_scale = _cf_decay_scale(model, tau)

    def integrand(ks):
        return np.cos(ks * xi) * cf(ks)

    try:
        val, _, _ = half_line_pass(integrand, k_scale, abs(xi), quad,
                                   lambda kk: float(cf(np.array([kk]))[0]), target=1e-17)
    except AccuracyError as exc:
        if exc.residual is not None and exc.residual > 1e-6:
            warnings.warn(
                "density grid too coarse: characteristic factor still "
                f"{exc.residual:.2e} at the cutoff cap (tail mass > 1e-6)",
                AccuracyWarning,
            )
        # a fixed range of 64 decay scales, the scale capped so it ends at the cap
        scale = min(k_scale, quad.theta_cutoff / 64)
        first_width, max_width = _panel_widths(scale, abs(xi))
        edges = panel_edges(64.0 * scale, first_width, quad.panel_growth, max_width)
        val, _ = integrate_panels(integrand, edges, quad.nodes_per_panel)
    return float(val.real) / np.pi


def density_grid(model: MarketModel, xis, tau: float,
                 quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Density evaluated on a grid of points (convenience wrapper)."""
    return np.array([density(model, float(x), tau, quad) for x in np.asarray(xis)])
