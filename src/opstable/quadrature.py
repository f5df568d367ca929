"""Panelized Gauss-Legendre quadrature for decaying, possibly oscillatory integrands.

Half-line integrals of the form int_0^inf f(x) dx are split into geometric
panels whose widths are capped by the local oscillation period, so that a
fixed Gauss-Legendre rule per panel resolves the phase.  The error estimate
is the node-halving difference accumulated over panels; the integral dropped
beyond the truncation point is bounded from the decay of an envelope.
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


def find_decay_point(envelope, target: float, hint: float, cap: float) -> tuple:
    """Smallest doubling point past `hint` where `envelope` drops below `target`.

    The envelope need not be monotone near the origin; it must eventually
    decrease.  The cap is a hard range limit: if the envelope is still above
    target there, an AccuracyError carries the residual.  Returns
    (x, envelope(x), x_prev, envelope(x_prev)) with x_prev the probe before x;
    x_prev and its value are None when the search stopped at its first probe.
    """
    x = min(max(hint, 1e-12), cap)
    e = envelope(x)
    x_prev = e_prev = None
    it = 0
    while e > target:
        if x >= cap:
            raise AccuracyError(
                f"integrand envelope still {e:.3e} at cutoff {cap:.3e}",
                residual=float(e),
            )
        x_prev, e_prev = x, e
        x = min(x * 2.0, cap)
        e = envelope(x)
        it += 1
        if it > 400:
            raise NonConvergenceError("decay-point search did not converge")
    return x, e, x_prev, e_prev


def _panel_widths(decay_scale: float, osc_freq: float) -> tuple[float, float]:
    """(first, max) panel width: a fraction of the decay scale, capped by the period."""
    period = 2.0 * np.pi / osc_freq if osc_freq > 0 else np.inf
    max_width = min(4.0 * decay_scale, period / 2.5)
    return min(decay_scale / 8.0, max_width), max_width


def half_line_pass(f, decay_scale: float, osc_freq: float, cfg: QuadratureConfig,
                   envelope, target: float | None = None, flat=None):
    """Integral of f over [0, inf), truncated where `envelope` decays, with error terms.

    The range is cut at x_end, the doubling point past `decay_scale` where
    `envelope` first drops below `target` (default tolerance * 1e-3).  Returns
    (value, error, tail): error is the node-halving estimate over [0, x_end]
    and tail bounds the dropped integral over [x_end, inf).  The bound reads
    the last two probes of the search: if g = -log envelope is convex beyond
    the earlier one, g stays above the secant through them, whose slope is s,
    so the envelope integrates to at most envelope(x_end) / s past x_end.
    The bound assumes |f(x)| <= 2 envelope(x) / x, true of the pricing
    kernels, which adds the factor 2 / x_end.  When the search stopped at its
    first probe there is no secant and tail is inf.
    Kernel-axis integrands (see `integrate_panels`) give arrays for value and
    error; tail bounds each kernel.  `flat`, a boolean per kernel row, marks
    the rows only bounded by 2 envelope(x), as the pricing kernels'
    derivatives are; their bound 2 envelope(x_end) / s lacks the 1 / x_end
    factor, and tail is then a list, one bound per kernel row.
    """
    target = cfg.tolerance * 1e-3 if target is None else target
    x_end, e_end, x_prev, e_prev = find_decay_point(envelope, target, decay_scale,
                                                    cfg.theta_cutoff)
    first_width, max_width = _panel_widths(decay_scale, osc_freq)
    edges = panel_edges(x_end, first_width, cfg.panel_growth, max_width)
    value, err = integrate_panels(f, edges, cfg.nodes_per_panel)
    if x_prev is None:
        tail = flat_tail = np.inf
    elif e_end == 0.0:
        tail = flat_tail = 0.0
    else:
        slope = np.log(e_prev / e_end) / (x_end - x_prev)
        tail = 2.0 * e_end / (slope * x_end)
        flat_tail = 2.0 * e_end / slope
    if flat is None:
        return value, err, float(tail)
    return value, err, [float(flat_tail if f else tail) for f in flat]


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


def piecewise_average(f, breakpoints):
    """Average of a 2*pi-periodic function that is smooth between breakpoints.

    Each piece between consecutive breakpoints (taken mod 2 pi, the last
    piece wrapping round to the first) gets 16- and 32-point Gauss-Legendre;
    `f` is vectorised and called once on the nodes of both rules.  Raises
    NonConvergenceError when the 32-point rule moves the average by more than
    1e-10 (relative above 1), the check of `periodic_average`.
    """
    starts = np.unique(np.mod(breakpoints, 2.0 * np.pi))
    edges = np.append(starts, starts[0] + 2.0 * np.pi)
    width = np.diff(edges)
    rules = (_gl_rule(16), _gl_rule(32))
    pts = [(starts[:, None] + width[:, None] * xs).ravel() for xs, _ in rules]
    vals = np.split(f(np.concatenate(pts)), [len(pts[0])])
    coarse, fine = (np.sum(v.reshape(len(width), -1) * ws * width[:, None]) / (2.0 * np.pi)
                    for v, (_, ws) in zip(vals, rules))
    if abs(fine - coarse) > 1e-10 * max(1.0, abs(fine)):
        raise NonConvergenceError(
            f"piecewise average moved by {abs(fine - coarse):.3e} under node doubling"
        )
    return fine
