import numpy as np
import pytest

from opstable.quadrature import (
    QuadratureConfig,
    half_line_oscillatory,
    half_line_pass,
    integrate_panels,
    panel_edges,
)

CFG = QuadratureConfig()


def damped(xs):
    return np.exp(-xs) * np.cos(3.0 * xs)


def envelope(x):
    return float(np.exp(-x))


def test_kernel_axis_matches_scalar_calls():
    edges = panel_edges(20.0, 0.1, 1.6, 0.8)
    stacked, stacked_err = integrate_panels(
        lambda xs: np.stack([damped(xs), np.sin(xs) / (1.0 + xs * xs)]), edges, 24)
    for row, f in enumerate((damped, lambda xs: np.sin(xs) / (1.0 + xs * xs))):
        value, err = integrate_panels(f, edges, 24)
        assert stacked[row] == value
        assert stacked_err[row] == err


def test_half_line_pass_matches_two_cutoffs():
    # the envelope at the first cutoff lies between the two targets, so the
    # wide value needs panels beyond it
    target, wide_target = 1e-5, 1e-9
    value, err, wide = half_line_pass(damped, 1.0, 3.0, CFG, envelope,
                                      target=target, wide_target=wide_target)
    assert (value, err) == half_line_oscillatory(damped, 1.0, 3.0, CFG, envelope, target)
    two_pass, _ = half_line_oscillatory(damped, 1.0, 3.0, CFG, envelope, wide_target)
    assert wide != value
    assert wide == pytest.approx(two_pass, abs=1e-15)
    assert abs(wide - 0.1) < 1e-12  # int_0^inf e^-x cos 3x dx = 1/10


def test_half_line_pass_without_wide_target():
    value, err, wide = half_line_pass(damped, 1.0, 3.0, CFG, envelope)
    assert wide == value
    assert (value, err) == half_line_oscillatory(damped, 1.0, 3.0, CFG, envelope)
