"""Panelized Gauss-Legendre quadrature for decaying, possibly oscillatory integrands.

Half-line integrals of the form int_0^inf f(x) dx are split into geometric
panels whose widths are capped by the local oscillation period, so that a
fixed Gauss-Legendre rule per panel resolves the phase.  The error estimate
is the node-halving difference accumulated over panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ModelValidationError, NonConvergenceError

_HUGE = 1e30


@dataclass(frozen=True)
class QuadratureConfig:
    """Tuning knobs for the oscillatory half-line quadratures.

    theta_cutoff caps the integration range; nodes_per_panel and panel_growth
    control the Gauss-Legendre panelization; tolerance is the target for the
    relative truncation/discretization error.
    """

    theta_cutoff: float = 1e7
    nodes_per_panel: int = 24
    panel_growth: float = 1.6
    tolerance: float = 1e-10

    def __post_init__(self):
        if not (self.theta_cutoff > 0 and self.nodes_per_panel > 0 and self.panel_growth > 1):
            raise ModelValidationError("quadrature settings must be positive (growth > 1)")
        if not 0 < self.tolerance <= 1e-6:
            raise ModelValidationError("quadrature tolerance must lie in (0, 1e-6]")


DEFAULT_QUADRATURE = QuadratureConfig()

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(n)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(n)
        rule = (0.5 * (x + 1.0), 0.5 * w)  # mapped to [0, 1]
        _GL_CACHE[n] = rule
    return rule


def panel_edges(x_end: float, first_width: float, growth: float,
                max_width: float, x_start: float = 0.0) -> np.ndarray:
    """Geometric panel boundaries covering [x_start, x_end]."""
    if x_end <= x_start:
        raise ValueError("empty integration range")
    edges = [x_start]
    w = min(first_width, max_width)
    x = x_start
    while x < x_end:
        x = min(x + w, x_end)
        edges.append(x)
        w = min(w * growth, max_width)
        if len(edges) > 2_000_000:
            raise AccuracyError("panel count exploded; integrand too oscillatory for range")
    return np.asarray(edges)


def integrate_panels(f, edges: np.ndarray, nodes: int):
    """Integrate a vectorized integrand over the given panels.

    Returns (value, error_estimate) where the estimate is the node-halving
    difference summed over panels.  An integrand that returns a leading
    kernel axis, shape (m, n) for n points, integrates m kernels on the same
    nodes; value and estimate are then length-m arrays.
    """
    lo = edges[:-1]
    width = np.diff(edges)
    xs_f, ws_f = _gl_rule(nodes)
    xs_h, ws_h = _gl_rule(max(2, nodes // 2))

    vals_f = np.asarray(f((lo[:, None] + width[:, None] * xs_f).ravel()))
    lead = vals_f.shape[:-1]
    panel_f = (vals_f.reshape(*lead, len(lo), len(xs_f)) * ws_f).sum(axis=-1) * width

    vals_h = np.asarray(f((lo[:, None] + width[:, None] * xs_h).ravel()))
    panel_h = (vals_h.reshape(*lead, len(lo), len(xs_h)) * ws_h).sum(axis=-1) * width

    value = panel_f.sum(axis=-1)
    err = np.abs(panel_f - panel_h).sum(axis=-1)
    if lead:
        return value, err
    return complex(value), float(err)


def find_decay_point(envelope, target: float, hint: float, cap: float) -> float:
    """Smallest doubling point past `hint` where `envelope` drops below `target`.

    The envelope need not be monotone near the origin; it must eventually
    decrease.  The cap is a hard range limit: if the envelope is still above
    target there, an AccuracyError carries the residual.
    """
    x = min(max(hint, 1e-12), cap)
    e = envelope(x)
    it = 0
    while e > target:
        if x >= cap:
            raise AccuracyError(
                f"integrand envelope still {e:.3e} at cutoff {cap:.3e}",
                residual=float(e),
            )
        x = min(x * 2.0, cap)
        e = envelope(x)
        it += 1
        if it > 400:
            raise NonConvergenceError("decay-point search did not converge")
    return x


def _panel_widths(decay_scale: float, osc_freq: float) -> tuple[float, float]:
    """(first, max) panel width: a fraction of the decay scale, capped by the period."""
    period = 2.0 * np.pi / osc_freq if osc_freq > 0 else np.inf
    max_width = min(4.0 * decay_scale, period / 2.5)
    return min(decay_scale / 8.0, max_width), max_width


def half_line_oscillatory(f, decay_scale: float, osc_freq: float,
                          cfg: QuadratureConfig, envelope=None,
                          env_target: float | None = None) -> tuple[complex, float]:
    """Integrate f over [0, inf) with decay scale and oscillation frequency hints.

    `envelope(x)` bounds |f| for the truncation search; the tail is cut where
    it falls below `env_target` (default tolerance * 1e-3).
    """
    if envelope is not None:
        value, err, _ = half_line_pass(f, decay_scale, osc_freq, cfg, envelope,
                                       target=env_target)
        return value, err
    first_width, max_width = _panel_widths(decay_scale, osc_freq)
    x_end = min(64.0 * decay_scale, cfg.theta_cutoff)
    edges = panel_edges(x_end, first_width, cfg.panel_growth, max_width)
    return integrate_panels(f, edges, cfg.nodes_per_panel)


def half_line_pass(f, decay_scale: float, osc_freq: float, cfg: QuadratureConfig,
                   envelope, target: float | None = None,
                   wide_target: float | None = None):
    """Truncated half-line integral plus its value at a deeper cutoff, in one pass.

    The integral over [0, x_end], with x_end where `envelope` first drops
    below `target` (default tolerance * 1e-3), carries the node-halving
    error.  With `wide_target`, the doubling search goes on from x_end down
    to that target, and the integral over [x_end, x_wide] is added to give
    the wide value; the panels up to x_end are the same in both, so no node
    is evaluated twice.  Returns (value, error, wide_value); the wide value
    equals the value when no wide target is given or the cutoffs coincide.
    Kernel-axis integrands (see `integrate_panels`) give arrays.
    """
    first_width, max_width = _panel_widths(decay_scale, osc_freq)
    target = cfg.tolerance * 1e-3 if target is None else target
    x_end = find_decay_point(envelope, target, decay_scale, cfg.theta_cutoff)
    x_wide = x_end
    if wide_target is not None:
        x_wide = find_decay_point(envelope, wide_target, x_end, cfg.theta_cutoff)
    edges = panel_edges(x_wide, first_width, cfg.panel_growth, max_width)
    if x_wide == x_end:
        value, err = integrate_panels(f, edges, cfg.nodes_per_panel)
        return value, err, value
    cut = int(np.searchsorted(edges, x_end))
    value, err = integrate_panels(f, np.append(edges[:cut], x_end), cfg.nodes_per_panel)
    tail_edges = edges[cut:] if edges[cut] == x_end else np.insert(edges[cut:], 0, x_end)
    tail, _ = integrate_panels(f, tail_edges, cfg.nodes_per_panel)
    return value, err, value + tail


def periodic_average(f, n_nodes: int = 1024, doubling_tol: float = 1e-10):
    """Trapezoid average of a 2*pi-periodic function with a doubling check.

    `f` is vectorised: it maps an (m,) array of angles to an (m,) array, and
    is called once, on the 2 * n_nodes grid.  The n_nodes average is read from
    the even nodes of that grid, which are the n_nodes grid exactly
    ((2j) * (2 pi / 2n) rounds to the same float as j * (2 pi / n)).
    Spectrally accurate for smooth integrands; raises NonConvergenceError when
    doubling the node count moves the result by more than the tolerance.
    """
    xs = np.arange(2 * n_nodes) * (2.0 * np.pi / (2 * n_nodes))
    vals = f(xs)
    coarse = np.mean(vals[::2])
    fine = np.mean(vals)
    scale = max(1.0, abs(fine))
    if abs(fine - coarse) > doubling_tol * scale:
        raise NonConvergenceError(
            f"periodic average moved by {abs(fine - coarse):.3e} under node doubling"
        )
    return fine
