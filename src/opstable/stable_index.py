"""The stable exponent matrix: regimes, matrix powers and Jurek coordinates.

Three regimes are supported: pure scaling (a multiple of the identity),
scaling with rotation (2-D, complex-conjugate spiral), and a generic
diagonalizable exponent given by its spectral data.  All operations are pure
functions over an immutable index, safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    ModelValidationError,
    NonConvergenceError,
    UnsupportedRegimeError,
)

_UNITARY_TOL = 1e-12
_DISTINCT_TOL = 1e-9
_NEWTON_CAP = 50
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


class Regime(str, enum.Enum):
    PURE_SCALING = "pure_scaling"
    SCALING_ROTATION = "scaling_rotation"
    GENERIC = "generic"


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class StableIndex:
    """Scaling exponent of an operator-stable law.

    Pure scaling: E = (D*mu)^-1 * I with 0 < D*mu <= 2.
    Scaling & rotation: D = 2, diagonal (2*mu)^-1, off-diagonal -/+ rotation_rate.
    Generic: E^T = O diag(lambda) O^dagger with unitary O and pairwise distinct
    eigenvalues (real or conjugate pairs) whose real parts are positive.
    """

    regime: Regime
    dimension: int
    mu: float | None = None
    rotation_rate: float | None = None
    eigenvalues: tuple[complex, ...] | None = None
    eigenbasis: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def pure_scaling(cls, dimension: int, mu: float) -> "StableIndex":
        return cls(Regime.PURE_SCALING, dimension, mu=mu)

    @classmethod
    def scaling_rotation(cls, mu: float, rotation_rate: float) -> "StableIndex":
        return cls(Regime.SCALING_ROTATION, 2, mu=mu, rotation_rate=rotation_rate)

    @classmethod
    def generic(cls, eigenvalues, eigenbasis) -> "StableIndex":
        eigenvalues = tuple(complex(ev) for ev in eigenvalues)
        basis = np.asarray(eigenbasis, dtype=complex)
        return cls(Regime.GENERIC, len(eigenvalues),
                   eigenvalues=eigenvalues, eigenbasis=basis)

    def __post_init__(self):
        if self.dimension < 1:
            raise ModelValidationError("dimension must be a positive integer")
        if self.regime is Regime.PURE_SCALING:
            self._validate_pure()
        elif self.regime is Regime.SCALING_ROTATION:
            self._validate_rotation()
        else:
            self._validate_generic()

    def _validate_pure(self):
        if self.mu is None or self.mu <= 0:
            raise ModelValidationError("pure scaling requires mu > 0")
        if not 0 < self.dimension * self.mu <= 2:
            raise ModelValidationError(
                f"stability exponent D*mu = {self.dimension * self.mu} violates 0 < D*mu <= 2"
            )

    def _validate_rotation(self):
        if self.dimension != 2:
            raise ModelValidationError("scaling & rotation is defined in dimension 2")
        if self.mu is None or not 0 < 2 * self.mu <= 2:
            raise ModelValidationError(
                "scaling & rotation requires 0 < 2*mu <= 2"
            )
        if self.rotation_rate is None or not np.isfinite(self.rotation_rate):
            raise ModelValidationError("rotation rate must be a finite real number")

    def _validate_generic(self):
        evs, basis = self.eigenvalues, self.eigenbasis
        if evs is None or basis is None:
            raise ModelValidationError("generic regime needs eigenvalues and eigenbasis")
        d = self.dimension
        if basis.shape != (d, d):
            raise ModelValidationError("eigenbasis must be a D x D matrix")
        for i in range(d):
            for j in range(i + 1, d):
                if abs(evs[i] - evs[j]) < _DISTINCT_TOL:
                    raise UnsupportedRegimeError(
                        "repeated eigenvalues are not supported (Jordan blocks rejected)"
                    )
        if min(ev.real for ev in evs) <= 0:
            raise ModelValidationError("all eigenvalue real parts must be positive")
        gram = basis @ basis.conj().T
        if np.max(np.abs(gram - np.eye(d))) > _UNITARY_TOL:
            raise ModelValidationError("eigenbasis is not unitary to 1e-12")
        exponent = (basis * np.asarray(evs)) @ basis.conj().T
        if np.max(np.abs(exponent.imag)) > _UNITARY_TOL:
            raise ModelValidationError(
                "eigen-data is not conjugate-symmetric: E^T has an imaginary part"
            )

    @property
    def scaling_exponent(self) -> float:
        """Radial exponent rho with r_k = |k|^rho (pure scaling / rotation only)."""
        if self.regime is Regime.PURE_SCALING:
            return self.dimension * self.mu
        if self.regime is Regime.SCALING_ROTATION:
            return 2 * self.mu
        raise UnsupportedRegimeError("generic regime has no single radial exponent")

    def transpose_exponent(self) -> np.ndarray:
        """E^T as a real matrix."""
        if self.regime is Regime.PURE_SCALING:
            return np.eye(self.dimension) / (self.dimension * self.mu)
        if self.regime is Regime.SCALING_ROTATION:
            g = 1.0 / (2 * self.mu)
            b = self.rotation_rate
            return np.array([[g, b], [-b, g]])
        mat = (self.eigenbasis * np.asarray(self.eigenvalues)) @ self.eigenbasis.conj().T
        return mat.real


def matrix_power(index: StableIndex, r: float) -> np.ndarray:
    """The operator r^{E^T} as a real D x D matrix, for r > 0."""
    if not r > 0:
        raise DomainError("matrix power requires r > 0")
    if index.regime is Regime.PURE_SCALING:
        return r ** (1.0 / (index.dimension * index.mu)) * np.eye(index.dimension)
    if index.regime is Regime.SCALING_ROTATION:
        radial = r ** (1.0 / (2 * index.mu))
        return radial * _rotation(-index.rotation_rate * np.log(r))
    lam = np.asarray(index.eigenvalues)
    diag = np.exp(lam * np.log(r))
    out = (index.eigenbasis * diag) @ index.eigenbasis.conj().T
    scale = max(1.0, float(np.max(np.abs(out))))
    if np.max(np.abs(out.imag)) > 1e-12 * scale:
        raise NonConvergenceError("conjugate-pair cancellation failed in matrix power")
    return out.real


def _generic_log_radius(index: StableIndex, k_tilde: np.ndarray) -> float:
    """Solve |r^{-E^T} k| = 1 for x = log r by a bracket-free Newton iteration.

    With k_tilde = O^dagger k, g(x) = log |r^{-E^T} k|^2 =
    logsumexp_j(log w_j - 2 theta_j x), w_j = |k_tilde_j|^2, theta_j = Re lambda_j
    > 0, is convex and strictly decreasing.  At x0 = max_j log(w_j)/(2 theta_j)
    every term is <= 0 and one is 0, so g(x0) >= 0, and Newton's method from x0
    rises monotonically to the root without overshooting.  log w_j is taken as
    2 log|k_tilde_j| over the nonzero components, so underflowing squares
    cannot empty the sum.  True steps are positive: the first signed step
    <= 1e-15 max(1, |x|) means rounding has taken over, and ends the loop.
    """
    nonzero = k_tilde != 0
    log_w = 2.0 * np.log(np.abs(k_tilde[nonzero]))
    two_thetas = 2.0 * np.array([ev.real for ev in index.eigenvalues])[nonzero]
    x = float(np.max(log_w / two_thetas))
    for _ in range(_NEWTON_CAP):
        expo = log_w - two_thetas * x
        top = np.max(expo)
        w = np.exp(expo - top)
        total = np.sum(w)
        # Newton step -g/g' with g' = -sum(2 theta_j w_j)/sum(w_j)
        step = float((top + np.log(total)) * total / np.sum(two_thetas * w))
        x += step
        if step <= 1e-15 * max(1.0, abs(x)):
            return x
    raise NonConvergenceError(
        f"Jurek radius Newton did not converge in {_NEWTON_CAP} iterations")


def jurek_decompose(index: StableIndex, k) -> tuple[float, np.ndarray]:
    """Polar-like coordinates k = radius^{E^T} angle with |angle| = 1.

    k is any real array-like of length D; returns (radius, angle) as a float
    and a 1-D array.  Pure scaling and rotation have closed forms.  In the
    generic regime the radius solves |radius^{-E^T} k| = 1 by the monotone
    Newton of `_generic_log_radius`, and the solve and the angle share one
    projection O^dagger k.  Raises DomainError for the zero vector and for a
    radius past the float range, NonConvergenceError if the Newton exhausts
    its iteration cap.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (index.dimension,):
        raise DomainError(f"vector must have dimension {index.dimension}")
    # math.hypot scales internally: no square under- or overflows
    norm = math.hypot(*k)
    if norm == 0.0:
        raise DomainError("the zero vector has no Jurek coordinates")

    if index.regime is not Regime.GENERIC:
        try:
            radius = norm ** index.scaling_exponent
        except OverflowError:
            radius = math.inf
        if radius == math.inf:
            raise DomainError("the Jurek radius of this vector overflows a float")
        angle = k / norm
        if index.regime is Regime.SCALING_ROTATION:
            angle = _rotation(2 * index.rotation_rate * index.mu * np.log(norm)) @ angle
        return radius, angle

    k_tilde = index.eigenbasis.conj().T @ k.astype(complex)
    x = _generic_log_radius(index, k_tilde)
    if x > _LOG_FLOAT_MAX:
        raise DomainError("the Jurek radius of this vector overflows a float")
    # e^{-lambda_j x} k_tilde_j in log form: at the root its modulus is at most
    # 1, while the factor alone can overflow at tiny k when the real parts are
    # far apart; zero components stay zero
    nonzero = k_tilde != 0
    angle = np.zeros_like(k_tilde)
    angle[nonzero] = np.exp(np.log(k_tilde[nonzero])
                            - np.asarray(index.eigenvalues)[nonzero] * x)
    return float(np.exp(x)), (index.eigenbasis @ angle).real
