import math

import numpy as np
import pytest

from opstable import (
    ConstantAngular,
    ContinuationMode,
    DirectionalPair,
    EigenWeightAngular,
    LogCharFn,
    MarketModel,
    StableIndex,
)
from opstable.charfn import _projection_cf_factory
from opstable.errors import DomainError, NonConvergenceError
from opstable.moments import KernelParams
from opstable.pde_coeffs import s_coefficient, stirling_first_kind
from opstable.pricer import price_option
from opstable.quadrature import DEFAULT_QUADRATURE, panel_edges


def make_1d_model(mu, phi=0.5, sigma=0.2, rate=0.05, alpha=0.03,
                  mode=ContinuationMode.REAL_PART, epsilon=0.0):
    return MarketModel(
        alpha=alpha,
        sigma=[sigma],
        rate=rate,
        index=StableIndex.pure_scaling(1, mu),
        logcf=LogCharFn(DirectionalPair(phi, phi), epsilon=epsilon, continuation=mode),
    )


def make_rotation_model(mu=0.8, b=0.3, phi=0.6, sigma=(0.5, 0.4), rate=0.02):
    return MarketModel(
        alpha=0.0,
        sigma=list(sigma),
        rate=rate,
        index=StableIndex.scaling_rotation(mu, b),
        logcf=LogCharFn(ConstantAngular(phi)),
    )


def make_generic_index(thetas=(0.6, 0.8)):
    # real distinct eigenvalues with an orthogonal (rotation) eigenbasis
    c, s = np.cos(0.4), np.sin(0.4)
    basis = np.array([[c, -s], [s, c]], dtype=complex)
    return StableIndex.generic([complex(t) for t in thetas], basis)


def make_generic_model(thetas=(0.6, 0.8), weights=(0.7, 0.5), sigma=(0.8, 0.6), rate=0.0):
    index = make_generic_index(thetas)
    angular = EigenWeightAngular(
        weights=np.asarray(weights, dtype=float),
        tail_indices=1.0 / np.array([t.real for t in index.eigenvalues]),
        basis=index.eigenbasis,
    )
    return MarketModel(alpha=0.0, sigma=list(sigma), rate=rate, index=index,
                       logcf=LogCharFn(angular))


def make_spiral_index(theta=0.7, upsilon=0.35):
    # conjugate eigenvalue pair with a unitary (complex) eigenbasis
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    basis = np.column_stack([v, v.conj()])
    return StableIndex.generic([theta + 1j * upsilon, theta - 1j * upsilon], basis)


def scalar_periodic_average(f, n_nodes=1024, doubling_tol=1e-10):
    """Reference sphere average: one scalar call per node, on two separate grids."""
    def avg(n):
        xs = np.arange(n) * (2.0 * np.pi / n)
        return np.mean([f(x) for x in xs], axis=0)

    coarse = avg(n_nodes)
    fine = avg(2 * n_nodes)
    if abs(fine - coarse) > doubling_tol * max(1.0, abs(fine)):
        raise NonConvergenceError(
            f"periodic average moved by {abs(fine - coarse):.3e} under node doubling"
        )
    return fine


def dense_power_kernel_grid(params, k, lams, nodes=32):
    """Reference kernel over a lambda grid: one dense exp per (t-node, lambda) pair."""
    beta = params.beta
    r = params.rotation
    m = params.kernel_phase
    second = r * m if params.floor_is_even else np.conj(r) * m
    out = np.zeros(len(lams), dtype=complex)
    lam_max = float(np.max(np.abs(lams)))
    for coeff, direction in ((r, -1j * r), (second, 1j * second)):
        growth = max((direction * lams[:, None]).real.max(), 0.0)
        t_hi = max((45.0 / k) ** (1.0 / beta), 1.0)
        while k * t_hi ** beta - growth * t_hi - 45.0 < 0:
            t_hi *= 2.0
        period = 2 * np.pi / lam_max if lam_max > 0 else np.inf
        scale = (1.0 / k) ** (1.0 / beta)
        edges = panel_edges(t_hi, min(scale / 8, period / 3, t_hi / 4),
                            1.5, min(4 * scale, period / 2.5))
        lo = edges[:-1]
        width = np.diff(edges)
        xs, ws = np.polynomial.legendre.leggauss(nodes)
        xs = 0.5 * (xs + 1.0)
        ws = 0.5 * ws
        pts = (lo[:, None] + width[:, None] * xs[None, :]).ravel()
        vals = np.exp(-k * pts[:, None] ** beta + direction * np.outer(pts, lams))
        out += coeff * np.einsum("pnl,n,p->l", vals.reshape(len(lo), nodes, len(lams)),
                                 ws, width)
    return out / (2 * np.pi)


def dense_power_marginal_cf(model, beta, k, t, nodes=24):
    """Reference beta-marginal: the dense kernel, one pass per sign of lambda.

    Same lambda grid as `power_marginal_cf`; no conditioning guard, so call it
    only where that guard admits k.
    """
    params = KernelParams(beta)
    kk = k * model.sigma_norm ** beta
    cf = _projection_cf_factory(model, t)

    def nu1(lams):
        return cf(np.abs(lams) / model.sigma_norm)

    lam_hi = 1.0
    while nu1(np.array([lam_hi]))[0] > 1e-17:
        lam_hi *= 2.0
    t_typ = (1.0 / kk) ** (1.0 / beta)
    width = min(2 * np.pi / t_typ / 3.0, lam_hi / 8.0)
    edges = panel_edges(lam_hi, width / 4, 1.4, width)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    total = 0.0 + 0.0j
    lo = edges[:-1]
    widths = np.diff(edges)
    for sign in (1.0, -1.0):
        pts = (lo[:, None] + widths[:, None] * xs[None, :]).ravel() * sign
        kern = dense_power_kernel_grid(params, kk, pts, nodes=nodes)
        vals = (kern * nu1(pts)).reshape(len(lo), len(xs))
        total += np.einsum("pn,n,p->", vals, ws, widths)
    return complex(total)


def fd_hedge(model, contract, spot, t=0.0, quad=DEFAULT_QUADRATURE, h=1e-5):
    """Reference hedge ratio -dC/dS by a central difference of two shifted prices.

    Returns (n_s, noise): noise is the quadrature error of the two shifted
    prices carried through the difference quotient.
    """
    up = price_option(model, contract, spot * (1 + h), t, quad)
    down = price_option(model, contract, spot * (1 - h), t, quad)
    n_s = -(up.price - down.price) / (2 * spot * h)
    return n_s, (up.quadrature_error + down.quadrature_error) / (2 * spot * h)


def e_coefficient_series(model, n, k_max=16):
    """Resummation E_n = sum_{k >= max(n,2)} a_n^(k)/k! S_k from the binomial sums.

    Exact (two terms) in the Gaussian case where S_k vanishes for k >= 3;
    for heavy tails the series is formal, so this is a cross-check of
    `e_coefficient` and the Hamiltonian, not a production path.
    """
    if n < 1:
        raise DomainError("coefficients are defined for n >= 1")
    total = 0.0 + 0.0j
    for k in range(max(n, 2), k_max + 1):
        total += stirling_first_kind(n, k) / math.factorial(k) * s_coefficient(model, k)
    return total


@pytest.fixture
def gaussian_model():
    return make_1d_model(2.0)


@pytest.fixture
def stable_model_17():
    return make_1d_model(1.7)
