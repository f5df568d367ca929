import numpy as np
import pytest

from opstable import NonConvergenceError, SampledAngular, quadrature
from opstable.quadrature import (
    QuadratureConfig,
    half_line_pass,
    integrate_panels,
    panel_edges,
    periodic_average,
    piecewise_average,
)

from conftest import scalar_periodic_average

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


def test_half_line_pass_tail_bound_covers_the_exact_tail(monkeypatch):
    # |e^-x cos 3x| <= 2 env(x) / x for env(x) = x e^-x / 2, whose -log is
    # convex; the dropped tail is exactly e^-X (cos 3X - 3 sin 3X) / 10
    def env(x):
        return x * np.exp(-x) / 2.0

    calls = {"find_decay_point": 0, "integrate_panels": 0}
    for name in calls:
        def counted(*args, _fn=getattr(quadrature, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quadrature, name, counted)

    value, err, tail = half_line_pass(damped, 1.0, 3.0, CFG, env, target=1e-5)
    assert calls == {"find_decay_point": 1, "integrate_panels": 1}
    x_end = quadrature.find_decay_point(env, 1e-5, 1.0, CFG.theta_cutoff)[0]
    exact_tail = np.exp(-x_end) * (np.cos(3 * x_end) - 3 * np.sin(3 * x_end)) / 10
    assert tail >= abs(exact_tail) > 0
    assert abs(value + exact_tail - 0.1) < 1e-12  # int_0^inf e^-x cos 3x dx = 1/10

    value, err, tail = half_line_pass(damped, 1.0, 3.0, CFG, env)
    assert abs(value - 0.1) < 1e-12
    assert tail < 1e-12

    # no secant when the first probe is already below target; none needed
    # when the envelope underflows to zero at the cutoff
    assert half_line_pass(damped, 40.0, 3.0, CFG, env)[2] == np.inf
    assert half_line_pass(damped, 1.0, 3.0, QuadratureConfig(tolerance=1e-300), env)[2] == 0.0


def test_periodic_average_matches_two_grid_scalar_reference():
    def smooth(x):
        return np.exp(0.7 * np.cos(x)) * (1.2 + np.sin(3.0 * x))

    assert periodic_average(smooth) == scalar_periodic_average(smooth)
    assert periodic_average(smooth, n_nodes=64) == scalar_periodic_average(smooth, n_nodes=64)


def test_periodic_average_rejects_a_kinked_table():
    # an 8-entry table interpolates linearly, so the average converges only
    # like h^2 and the doubling check must fire
    table = SampledAngular(np.array([0.5, 0.6, 0.7, 0.6, 0.5, 0.6, 0.7, 0.6]))

    def stacked(xs):
        return table(np.array([np.cos(xs), np.sin(xs)])) ** 0.3

    def scalar(x):
        return table(np.array([np.cos(x), np.sin(x)])) ** 0.3

    with pytest.raises(NonConvergenceError, match="node doubling") as new:
        periodic_average(stacked)
    with pytest.raises(NonConvergenceError) as ref:
        scalar_periodic_average(scalar)
    assert str(new.value) == str(ref.value)


def test_piecewise_average_is_exact_between_given_kinks():
    # |sin x|: kinks at 0 and pi, smooth between them; average 2 / pi
    assert piecewise_average(lambda xs: np.abs(np.sin(xs)), [0.0, np.pi]) == pytest.approx(
        2 / np.pi, rel=1e-14)
    # a kink list that wraps past 2 pi and repeats a point gives the same pieces
    assert piecewise_average(lambda xs: np.abs(np.sin(xs)), [2 * np.pi, np.pi, 3 * np.pi]) \
        == pytest.approx(2 / np.pi, rel=1e-14)


def test_piecewise_average_raises_on_a_missed_kink():
    with pytest.raises(NonConvergenceError, match="node doubling"):
        piecewise_average(lambda xs: np.abs(np.sin(xs)), [0.0])
