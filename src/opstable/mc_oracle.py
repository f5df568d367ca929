"""Monte-Carlo ground truth: exact terminal-law sampling and risk-neutral pricing.

Sampling uses the trigonometric (Chambers-Mallows-Stuck) transform for
symmetric stable draws and the stability property for terminal laws, so
there is no time-stepping bias: discrepancies against closed forms indict
the closed forms, not the simulator.  Streams are counter-based (Philox)
keyed by (master_seed, block index) with a fixed reduction order, so
estimates are bit-identical for a given seed and path count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma, ndtri

from .charfn import EigenWeightAngular, MarketModel, log_cf_imag, projection_params
from .errors import DomainError, ModelValidationError, UnsupportedRegimeError
from .stable_index import Regime

_CAP_QUANTILE = 1e-8


class Measure(str, enum.Enum):
    PHYSICAL = "physical"
    COMPENSATED = "compensated"


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seeding and measure selection."""

    n_paths: int
    master_seed: int = 0
    block_size: int = 262_144
    measure: Measure = Measure.COMPENSATED

    def __post_init__(self):
        if self.n_paths < 1:
            raise ModelValidationError("n_paths must be at least 1")
        if self.block_size < 1:
            raise ModelValidationError("block_size must be at least 1")


@dataclass(frozen=True)
class McResult:
    """Discounted-payoff estimate with its sampling diagnostics.

    `raw_price` is the plain capped-payoff mean; `price` replaces the
    unbounded forward component of a call by its exact martingale value
    (see mc_price).  `estimator` records which decomposition produced
    `price`.
    """

    price: float
    stderr: float
    n_paths: int
    seed: int
    measure: str
    cap_impact: float
    stderr_unstable: bool
    raw_price: float
    estimator: str


def _block_rng(cfg: SimConfig, block: int) -> np.random.Generator:
    key = np.array([cfg.master_seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_sizes(cfg: SimConfig, n: int):
    sizes = []
    left = n
    while left > 0:
        take = min(cfg.block_size, left)
        sizes.append(take)
        left -= take
    return sizes


def _cms_symmetric(rng: np.random.Generator, mu: float, n: int) -> np.ndarray:
    """Standard symmetric stable draws, characteristic function exp(-|k|^mu)."""
    u = rng.uniform(-np.pi / 2, np.pi / 2, n)
    w = rng.standard_exponential(n)
    if abs(mu - 1.0) < 1e-14:
        return np.tan(u)
    sin_part = np.sin(mu * u) / np.cos(u) ** (1.0 / mu)
    tail_part = (np.cos((1.0 - mu) * u) / w) ** ((1.0 - mu) / mu)
    return sin_part * tail_part


def sample_stable(mu: float, scale: float, n: int, cfg: SimConfig,
                  stream_offset: int = 0) -> np.ndarray:
    """n symmetric-stable draws with characteristic function exp(-(scale |k|)^mu)."""
    if not 0 < mu <= 2:
        raise DomainError("stability index must lie in (0, 2]")
    if scale <= 0:
        raise DomainError("scale must be positive")
    out = np.empty(n)
    pos = 0
    for b, size in enumerate(_block_sizes(cfg, n)):
        rng = _block_rng(cfg, stream_offset + b)
        out[pos:pos + size] = scale * _cms_symmetric(rng, mu, size)
        pos += size
    return out


def _generic_sampling_data(model: MarketModel):
    index = model.index
    ang = model.logcf.angular
    if not isinstance(ang, EigenWeightAngular):
        raise UnsupportedRegimeError(
            "exact generic-regime sampling needs the separable eigen-weight angular form"
        )
    if any(abs(ev.imag) > 1e-14 for ev in index.eigenvalues):
        raise UnsupportedRegimeError(
            "exact generic-regime sampling needs real eigenvalues (orthogonal basis)"
        )
    thetas = np.array([ev.real for ev in index.eigenvalues])
    if np.any(thetas < 0.5):
        raise UnsupportedRegimeError(
            "per-direction tail index 1/Theta_j exceeds 2; not a stable direction"
        )
    basis = index.eigenbasis.real
    return thetas, np.asarray(ang.weights, dtype=float), basis


def simulate_log_price(model: MarketModel, tau: float, cfg: SimConfig) -> np.ndarray:
    """Terminal draws of sigma . L_tau (plus alpha tau under the physical measure).

    Pure scaling (any D): the projection is one-dimensional stable, sampled
    directly.  Generic regime with the separable angular form: independent
    stable draws per eigen-direction, combined through the basis.  Other
    regimes have no exact terminal sampler and raise.
    """
    if tau <= 0:
        raise DomainError("simulation horizon must be positive")
    index = model.index
    if index.regime is Regime.PURE_SCALING:
        eta, sig, phi_dir = projection_params(model)
        scale = sig * (phi_dir * tau) ** (1.0 / eta)
        x = sample_stable(eta, scale, cfg.n_paths, cfg)
    elif index.regime is Regime.GENERIC:
        thetas, weights, basis = _generic_sampling_data(model)
        proj = basis.T @ model.sigma
        x = np.zeros(cfg.n_paths)
        for j, (theta_j, w_j, s_j) in enumerate(zip(thetas, weights, proj)):
            if abs(s_j) < 1e-300:
                continue
            scale = abs(s_j) * (w_j * tau) ** theta_j
            x += sample_stable(1.0 / theta_j, scale, cfg.n_paths, cfg,
                               stream_offset=(j + 1) * 1_000_003)
    else:
        raise UnsupportedRegimeError(
            "exact terminal sampling is unavailable for the scaling-rotation regime"
        )
    if cfg.measure is Measure.PHYSICAL:
        return x + model.alpha * tau
    return x


def _tail_quantile(model: MarketModel, tau: float, p: float) -> float:
    """Two-sided |X| quantile at level 1 - p for the projected terminal law.

    Gaussian: exact; stable: the first-order Pareto tail asymptote, which is
    accurate far in the tail (p ~ 1e-8).
    """
    eta, sig, phi_dir = projection_params(model)
    scale = sig * (phi_dir * tau) ** (1.0 / eta)
    if abs(eta - 2.0) < 1e-12:
        # variance of the terminal law is 2 scale^2
        return float(np.sqrt(2.0) * scale * ndtri(1.0 - p / 2))
    c_eta = _gamma(eta) * np.sin(np.pi * eta / 2) / np.pi
    return float(scale * (2.0 * c_eta / p) ** (1.0 / eta))


def _stderr_diagnostics(pay: np.ndarray, disc: float) -> tuple[float, bool]:
    """Plain stderr plus an instability flag.

    Unstable when a batch-means doubling test disagrees with the plain
    estimate or when a single path carries more than 5% of the payoff sum
    (the signature of an infinite-variance integrand).
    """
    n = len(pay)
    stderr = disc * float(np.std(pay, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    unstable = False
    total = float(np.sum(pay))
    if total > 0 and float(np.max(pay)) > 0.05 * total:
        unstable = True
    n_batches = 16
    if n >= n_batches * 2:
        usable = (n // n_batches) * n_batches
        means = pay[:usable].reshape(n_batches, -1).mean(axis=1)
        batch_stderr = disc * float(np.std(means, ddof=1) / np.sqrt(n_batches))
        if batch_stderr > 2.0 * stderr or stderr > 2.0 * max(batch_stderr, 1e-300):
            unstable = True
    return stderr, unstable


def mc_price(model: MarketModel, contract, spot: float, t: float,
             cfg: SimConfig) -> McResult:
    """Discounted expected payoff under the compensated terminal construction.

    S_T = spot * exp(r tau + phi(-i sigma) tau + sigma . L_tau), which makes
    the discounted price a martingale under the continued-value compensation.
    |sigma . L_tau| is capped at its 1 - 1e-8 quantile (documented; the
    cap's price impact is reported).

    For a call the raw payoff has infinite mean under a heavy-tailed
    terminal law, so the reported price uses the pathwise identity
    (S_T - K)^+ = (K - S_T)^+ + S_T - K and replaces the unbounded forward
    component by its exact martingale expectation: price = mean(put payoff)
    + spot - K e^{-r tau}.  That estimator has finite variance and targets
    the same compensated expectation; the raw capped mean is still reported
    as `raw_price`, with a stability flag for its standard error.  The cap
    can itself lie beyond log(float max) (D*mu near 1), so a capped S_T may
    overflow to inf: a put's payoff is then 0, a call's inf, and a call's
    `raw_price` is inf while its parity price stays finite.

    The cap and the compensator need the pure-scaling regime; other regimes
    raise UnsupportedRegimeError.
    """
    if cfg.measure is not Measure.COMPENSATED:
        raise DomainError("risk-neutral pricing requires the compensated measure")
    if not (np.isfinite(spot) and spot > 0):
        raise DomainError("spot must be positive and finite")
    tau = contract.maturity - t
    if tau <= 0:
        raise DomainError("pricing requires t < maturity")
    if model.index.regime is not Regime.PURE_SCALING:
        raise UnsupportedRegimeError(
            "Monte-Carlo pricing needs the pure-scaling regime: the tail cap "
            "(_tail_quantile) and the compensator phi(-i sigma) (log_cf_imag) are "
            "defined only for a projected law with one stable exponent "
            f"(regime here: {model.index.regime.value}; simulate_log_price still "
            "samples generic-regime terminal laws)"
        )

    x = simulate_log_price(model, tau, cfg)
    cap = _tail_quantile(model, tau, _CAP_QUANTILE)
    x_capped = np.clip(x, -cap, cap)

    drift = model.rate * tau + float(np.real(log_cf_imag(model, 1.0))) * tau
    disc = np.exp(-model.rate * tau)
    is_put = getattr(contract.style, "value", contract.style) == "put"

    def payoffs(values: np.ndarray, put: bool) -> np.ndarray:
        with np.errstate(over="ignore"):  # see the docstring: S_T may be inf
            s_t = spot * np.exp(drift + values)
        if put:
            return np.maximum(contract.strike - s_t, 0.0)
        return np.maximum(s_t - contract.strike, 0.0)

    raw = payoffs(x_capped, is_put)
    raw_price = disc * float(np.mean(raw))
    clipped = np.abs(x) > cap
    if np.any(clipped):
        gap = payoffs(x[clipped], is_put) - payoffs(x_capped[clipped], is_put)
        cap_impact = disc * float(np.sum(gap)) / cfg.n_paths
    else:
        cap_impact = 0.0

    if is_put:
        stderr, unstable = _stderr_diagnostics(raw, disc)
        price = raw_price
        estimator = "direct"
    else:
        put_leg = payoffs(x_capped, True)
        stderr, unstable = _stderr_diagnostics(put_leg, disc)
        price = disc * float(np.mean(put_leg)) + spot - contract.strike * disc
        estimator = "parity"

    return McResult(price=price, stderr=stderr, n_paths=cfg.n_paths,
                    seed=cfg.master_seed, measure=cfg.measure.value,
                    cap_impact=cap_impact, stderr_unstable=unstable,
                    raw_price=raw_price, estimator=estimator)
