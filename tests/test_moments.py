import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstable import (
    DivergentIntegrandError,
    DomainError,
    EigenWeightAngular,
    KernelParams,
    LogCharFn,
    MarketModel,
    MomentInfiniteError,
    NonConvergenceError,
    Regime,
    SampledAngular,
    SimConfig,
    StableIndex,
    UnsupportedRegimeError,
    char_fn,
    fractional_moment,
    moment_prefactor,
    power_kernel,
    power_marginal_cf,
    simulate_log_price,
)
from opstable.moments import (
    _phase_rotated_direction,
    _power_kernel_grid,
    _support_factor,
    kernel_ray,
)
from opstable.quadrature import integrate_panels, panel_edges

from conftest import (
    dense_power_kernel_grid,
    dense_power_marginal_cf,
    make_1d_model,
    make_generic_model,
    make_rotation_model,
    make_spiral_index,
    scalar_periodic_average,
)


# --- kernel ------------------------------------------------------------------

def test_kernel_requires_beta_at_least_one():
    with pytest.raises(DomainError):
        KernelParams(0.7)


def test_kernel_params_unit_moduli():
    p = KernelParams(2.4)
    assert abs(p.rotation) == pytest.approx(1.0)
    assert abs(p.kernel_phase) == pytest.approx(1.0)
    assert p.floor_is_even


def test_kernel_beta2_fresnel_closed_form():
    p = KernelParams(2.0)
    r = np.exp(1j * np.pi / 4)
    for k, lam in ((0.5, 0.3), (1.2, -2.0), (0.05, 1.0)):
        want = r / (2 * np.sqrt(np.pi * k)) * np.exp(-1j * lam ** 2 / (4 * k))
        assert power_kernel(p, k, lam) == pytest.approx(want, abs=1e-12)


def test_kernel_mass_is_unit_for_beta2():
    # Fourier-pair normalization: the beta = 2 kernel is the Fresnel pair
    # r/(2 sqrt(pi k)) exp(-i lam^2 / 4k), whose improper lambda-integral is
    # exactly one for every k > 0 (the delta pair as k -> 0).  The improper
    # tail converges only in the oscillatory sense, so the check is: (a) the
    # quadrature kernel matches the Fresnel oracle pointwise to 1e-12 over
    # the window, hence carries the same mass to 1e-8; (b) the truncated
    # grid masses of kernel and oracle agree.
    from opstable.quadrature import integrate_panels, panel_edges
    p = KernelParams(2.0)
    k = 0.05
    r = np.exp(1j * np.pi / 4)
    lam_max = 2.0  # conditioning window: lam^2 / (8 k) stays moderate
    grid = np.linspace(-lam_max, lam_max, 401)
    kern = np.array([power_kernel(p, k, l) for l in grid])
    oracle = r / (2 * np.sqrt(np.pi * k)) * np.exp(-1j * grid ** 2 / (4 * k))
    # pointwise match at 1e-10 over a width-4 window bounds the mass gap by
    # 4e-10, well inside the 1e-8 normalization tolerance
    assert np.max(np.abs(kern - oracle)) <= 1e-10
    # (a) improper mass of the oracle is exactly one: Fresnel integral
    # int exp(-i a lam^2) dlam = sqrt(pi/a) exp(-i pi/4) with a = 1/(4k)
    oracle_mass = r / (2 * np.sqrt(np.pi * k)) * np.sqrt(4 * np.pi * k) * np.exp(-1j * np.pi / 4)
    assert oracle_mass == pytest.approx(1.0, abs=1e-15)
    # (b) equal truncated masses on the common symmetric grid
    edges = panel_edges(lam_max, 0.05, 1.3, np.sqrt(4 * k) * np.pi / 2.5)

    def mass(fn):
        up, _ = integrate_panels(fn, edges, 16)
        dn, _ = integrate_panels(lambda ls: fn(-ls), edges, 16)
        return up + dn

    got = mass(lambda ls: np.array([power_kernel(p, k, l) for l in np.atleast_1d(ls)]))
    want = mass(lambda ls: r / (2 * np.sqrt(np.pi * k))
                * np.exp(-1j * np.atleast_1d(ls) ** 2 / (4 * k)))
    assert got == pytest.approx(want, abs=1e-10)


def test_kernel_pointwise_abel_value_at_k_zero():
    p = KernelParams(1.5)
    assert power_kernel(p, 0.0, 0.7) == 0.0
    with pytest.raises(DomainError):
        power_kernel(p, 0.0, 0.0)


def test_kernel_negative_lambda_branch_symmetry():
    # single-ray form: K(k, lam) = T1(lam) + mu_hat T1(-mu_hat lam) with
    # T1(lam) = r I(-i lam r); flipping lambda re-routes the rays
    p = KernelParams(2.3)
    r, m = p.rotation, p.kernel_phase
    k = 0.8

    def t1(lam_complex):
        return r * kernel_ray(p, k, -1j * lam_complex * r)

    for lam in (0.6, 1.7):
        direct = power_kernel(p, k, -lam)
        via_rays = (t1(-lam) + m * t1(m * lam)) / (2 * np.pi)
        assert direct == pytest.approx(via_rays, abs=1e-12)


# --- marginal characteristic function ----------------------------------------

def test_marginal_cf_beta_one_bypasses_kernel(stable_model_17):
    k = 0.7
    got = power_marginal_cf(stable_model_17, 1.0, k, 0.8)
    want = char_fn(stable_model_17, k * stable_model_17.sigma, 0.8)
    assert got == pytest.approx(want, rel=1e-14)


def test_marginal_cf_normalized_at_zero(stable_model_17):
    assert power_marginal_cf(stable_model_17, 2.3, 0.0, 0.8) == pytest.approx(1.0, abs=1e-8)


def test_marginal_cf_gaussian_chi2_closed_form():
    m = make_1d_model(2.0, phi=0.5, sigma=0.7, rate=0.0)
    v = 2 * 0.5 * 0.7 ** 2 * 0.8
    for k in (1.0, 1.7, 2.5):
        got = power_marginal_cf(m, 2.0, k, 0.8)
        want = (1 - 2j * k * v) ** -0.5
        assert got == pytest.approx(want, abs=1e-10)


def test_marginal_cf_gaussian_chi2_against_mc():
    m = make_1d_model(2.0, phi=0.5, sigma=0.7, rate=0.0)
    x = simulate_log_price(m, 0.8, SimConfig(n_paths=1_000_000, master_seed=31))
    for k in (1.0, 2.0):
        emp = np.mean(np.exp(1j * k * x ** 2))
        sd = 3.0 / np.sqrt(len(x))
        assert abs(power_marginal_cf(m, 2.0, k, 0.8) - emp) <= sd


def test_marginal_cf_stable_against_mc_signed_power():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0, rate=0.0)
    x = simulate_log_price(m, 0.9, SimConfig(n_paths=2_000_000, master_seed=3))
    beta = 2.4
    xb = np.abs(x) ** beta * np.exp(1j * np.pi * beta * (x < 0))
    for k in (0.2, 0.8):
        emp = np.mean(np.exp(1j * k * xb))
        got = power_marginal_cf(m, beta, k, 0.9)
        assert abs(got - emp) <= 3.0 / np.sqrt(len(x))


def test_marginal_cf_small_wavenumber_raises_with_residual():
    m = make_1d_model(2.0, phi=0.5, sigma=0.7, rate=0.0)
    with pytest.raises(NonConvergenceError):
        power_marginal_cf(m, 2.0, 0.3, 0.8)


# --- contour representation: an independent cross-check ---------------------

def _damped_dirichlet(amp: complex, eta: float) -> complex:
    """int_0^inf sin(xi)/xi * exp(-amp xi^eta) dxi for Re(amp) > 0."""
    if amp.real <= 0:
        raise DivergentIntegrandError("damped Dirichlet integral requires Re(amp) > 0")
    xi_hi = max((45.0 / amp.real) ** (1.0 / eta), 8.0)
    edges = panel_edges(xi_hi, 0.25, 1.5, 2 * np.pi / 2.5)

    def f(xs):
        return np.sinc(xs / np.pi) * np.exp(-amp * xs ** eta)

    val, _ = integrate_panels(f, edges, 24)
    return val


def power_marginal_cf_contour(model: MarketModel, beta: float, k: float, t: float,
                              u_max: float = 400.0) -> complex:
    """Cross-check contour representation of the beta-marginal (even floor only).

    Integrates exp(-z) over the two outgoing rays [0, r^-beta inf) and
    [0, (-1)^beta r^-beta inf) against a damped Dirichlet inner integral.
    The constant large-u asymptote of the inner integral is split off and
    Abel-summed; the oscillatory remainder gets a one-term integration-by-
    parts tail correction.  Slow; an independent cross-check of
    `power_marginal_cf`, not a production route.  Ray orientation follows
    the outgoing-ray reading of the integration line.
    """
    params = KernelParams(beta)
    if not params.floor_is_even:
        raise DomainError("the contour representation applies to even floor(beta) only")
    if model.index.regime is not Regime.PURE_SCALING:
        raise UnsupportedRegimeError("contour cross-check is implemented for pure scaling")
    if k <= 0:
        raise DomainError("contour representation needs k > 0")

    r = params.rotation
    eta = model.index.scaling_exponent
    sig = model.sigma_norm
    phi_dir = float(model.logcf.angular(model.sigma_hat))
    g_inf = np.pi / 2

    def ray_value(ray_angle: float) -> complex:
        # unreduced ray angle: the branch of (1/z)^(1/beta) is continued along
        # the contour deformation, so the angle is NOT reduced mod 2*pi
        direction = np.exp(1j * ray_angle)
        # phase of the inner argument (k/z)^(1/beta) / r on this ray; |phase| = 1
        phase = np.exp(-1j * ray_angle / beta) / r
        q = np.power(phase * phase, eta / 2)

        def g_minus_asymptote(us):
            out = np.empty(len(us), dtype=complex)
            for i, u in enumerate(us):
                amp = t * phi_dir * (sig * (k / u) ** (1.0 / beta)) ** eta * q
                out[i] = _damped_dirichlet(amp, eta) - g_inf
            return out

        def f(us):
            return np.exp(-direction * us) * g_minus_asymptote(us)

        edges = panel_edges(u_max, 0.5, 1.25, 2 * np.pi / 2.5)
        osc, _ = integrate_panels(f, edges, 20)
        # one integration-by-parts term for the algebraic tail of g - g_inf
        tail = np.exp(-direction * u_max) * g_minus_asymptote(np.array([u_max]))[0] / direction
        # Abel value of the asymptote: int_0^inf exp(-direction u) du = 1/direction
        return direction * (osc + tail + g_inf / direction)

    # ray angles: r^{-beta} = exp(-i pi/2) and (-1)^beta r^{-beta} = exp(i pi (beta - 1/2))
    return complex((ray_value(-np.pi / 2) + ray_value(np.pi * (beta - 0.5))) / np.pi)


def test_contour_cross_check_even_floor():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0, rate=0.0)
    for beta, k in ((2.0, 1.0), (2.5, 1.0)):
        a = power_marginal_cf(m, beta, k, 0.9)
        b = power_marginal_cf_contour(m, beta, k, 0.9)
        assert abs(a - b) <= 5e-5
    with pytest.raises(DomainError):
        power_marginal_cf_contour(m, 1.5, 1.0, 0.9)  # odd floor


# --- factored t-panels against the dense reference ---------------------------

# (D*mu, phi, sigma, t, beta, k): the seven benchmark points, odd floor(beta)
# and D*mu = 1.2
_MARGINAL_POINTS = [
    (2.0, 0.5, 0.7, 0.8, 2.0, 2.0),
    (1.9, 0.5, 0.7, 0.8, 2.25, 2.0),
    (1.9, 0.5, 0.7, 0.8, 2.5, 1.0),
    (1.7, 0.5, 0.7, 0.8, 2.25, 2.0),
    (1.7, 0.5, 0.7, 0.8, 2.5, 1.0),
    (1.5, 1.0, 1.0, 0.9, 2.0, 1.7),
    (1.5, 1.0, 1.0, 0.9, 2.4, 0.8),
    (2.0, 0.5, 0.7, 0.8, 1.5, 5.0),
    (1.7, 0.5, 0.7, 0.8, 3.5, 2.0),
    (1.5, 1.0, 1.0, 0.9, 3.5, 1.0),
    (1.2, 1.0, 1.0, 0.9, 2.4, 30.0),
]


def _conditioned_lambda_grid(params, kk, log_peak=3.0, n=101):
    """Symmetric lambda grid on which the exp(peak) intermediates stay below e^log_peak."""
    beta = params.beta
    s0 = max(abs(params.rotation.imag), abs(params.second_ray.imag))
    # peak(g) = (1 - 1/beta) g (g / (beta kk))^(1/(beta-1)) at g = s0 |lambda|
    g = (log_peak * beta / (beta - 1.0)
         * (beta * kk) ** (1.0 / (beta - 1.0))) ** ((beta - 1.0) / beta)
    return np.linspace(-g / s0, g / s0, n)


@pytest.mark.parametrize("mu, phi, sigma, t, beta, k",
                         [p for p in _MARGINAL_POINTS if p[4] != 1.5])
def test_power_kernel_grid_matches_dense_reference(mu, phi, sigma, t, beta, k):
    # compared where the exp(peak) intermediates stay below e^3, so that the
    # rounding floor of both forms is ~1e-15 of the kernel's scale; beyond
    # that the kernel is rounding noise in either form, which the CF weight
    # and the guard handle.  Where the kernel itself nearly vanishes (1e-18
    # at beta = 2.5) only the scale is a meaningful reference.
    params = KernelParams(beta)
    kk = k * sigma ** beta
    lams = _conditioned_lambda_grid(params, kk)
    got = _power_kernel_grid(params, kk, lams, nodes=24)
    want = dense_power_kernel_grid(params, kk, lams, nodes=24)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mu, phi, sigma, t, beta, k",
                         [p for p in _MARGINAL_POINTS if p[4] != 1.5])
def test_marginal_cf_matches_dense_reference(mu, phi, sigma, t, beta, k):
    m = make_1d_model(mu, phi=phi, sigma=sigma, rate=0.0)
    got = power_marginal_cf(m, beta, k, t)
    want = dense_power_marginal_cf(m, beta, k, t)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_marginal_cf_at_rounding_level_matches_dense_reference():
    # beta = 1.5: the two rays cancel, so both forms give a kernel and a
    # marginal CF of ~1e-16, itself at the rounding level; the 1e-13 bound is
    # taken relative to |CF(0)| = 1
    params = KernelParams(1.5)
    kk = 5.0 * 0.7 ** 1.5
    lams = _conditioned_lambda_grid(params, kk)
    assert np.max(np.abs(_power_kernel_grid(params, kk, lams, nodes=24))) < 1e-14
    assert np.max(np.abs(dense_power_kernel_grid(params, kk, lams, nodes=24))) < 1e-14
    m = make_1d_model(2.0, phi=0.5, sigma=0.7, rate=0.0)
    got = power_marginal_cf(m, 1.5, 5.0, 0.8)
    want = dense_power_marginal_cf(m, 1.5, 5.0, 0.8)
    assert abs(want) < 1e-15
    assert abs(got - want) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.3, 1.5), phi=st.floats(0.2, 1.0), t=st.floats(0.3, 2.0),
       kv=st.floats(0.3, 5.0))
def test_marginal_cf_gaussian_chi2_property(sigma, phi, t, kv):
    # k v >= 0.3 keeps k where the conditioning guard admits it
    m = make_1d_model(2.0, phi=phi, sigma=sigma, rate=0.0)
    v = 2 * phi * sigma ** 2 * t
    k = kv / v
    got = power_marginal_cf(m, 2.0, k, t)
    assert got == pytest.approx((1 - 2j * k * v) ** -0.5, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(1.5, 1.95), beta=st.floats(2.2, 2.8), phi=st.floats(0.3, 1.0),
       sigma=st.floats(0.5, 1.2), t=st.floats(0.5, 1.5), q=st.floats(0.3, 4.0))
def test_marginal_cf_heavy_tail_is_bounded(mu, beta, phi, sigma, t, q):
    # even floor(beta): |exp(i k X^beta)| <= 1 for the signed power, so |CF| <= 1;
    # k = q / scale^beta with q >= 0.3 stays where the guard admits it
    m = make_1d_model(mu, phi=phi, sigma=sigma, rate=0.0)
    k = q / (sigma * (phi * t) ** (1.0 / mu)) ** beta
    assert abs(power_marginal_cf(m, beta, k, t)) <= 1 + 1e-10


# --- prefactor -----------------------------------------------------------------

def test_prefactor_literal():
    assert moment_prefactor(1.0, 2.0) == pytest.approx(2 / np.sqrt(np.pi), rel=1e-14)


def test_prefactor_nonexistence():
    with pytest.raises(MomentInfiniteError):
        moment_prefactor(1.5, 1.5)
    with pytest.raises(MomentInfiniteError):
        moment_prefactor(1.8, 1.5)


def test_prefactor_matches_scipy_gamma():
    from scipy.special import gamma
    for rho in (0.5, 1.2, 1.7, 2.0, 25.0):
        for beta in np.linspace(0.05, 0.95, 19) * rho:
            if any(abs(r - round(r)) < 1e-6 for r in (beta / rho, beta / 2)):
                continue
            want = (2.0 ** (beta + 1) / (rho * np.sqrt(np.pi)) * gamma((beta + 1) / 2)
                    * gamma(-beta / rho) / gamma(-beta / 2))
            assert moment_prefactor(beta, rho) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("beta, rho", [(401.0, 1000.0), (1500.5, 3000.0)])
def test_prefactor_past_the_float_range_raises(beta, rho):
    # Gamma((beta + 1) / 2) / Gamma(-beta / 2) overflows from beta ~ 340 on
    with pytest.raises(DomainError, match="overflows"):
        moment_prefactor(beta, rho)


def test_prefactor_matches_stable_absolute_moment():
    # E|X|^0.5 for a standard symmetric 1.5-stable draw, 2% tolerance
    from opstable import sample_stable
    x = sample_stable(1.5, 1.0, 2_000_000, SimConfig(n_paths=2_000_000, master_seed=5))
    est = np.mean(np.abs(x) ** 0.5)
    assert moment_prefactor(0.5, 1.5) == pytest.approx(est, rel=0.02)


def test_prefactor_continuity_in_beta():
    vals = [moment_prefactor(b, 1.7) for b in np.linspace(0.2, 1.4, 25)]
    assert np.all(np.isfinite(vals))
    diffs = np.abs(np.diff(vals))
    assert np.max(diffs) < 1.0


# --- fractional moments ---------------------------------------------------------

def test_odd_integer_moments_vanish(stable_model_17):
    assert fractional_moment(stable_model_17, 1.0, 1.0) == 0.0
    m05 = make_1d_model(0.9)  # wider existence is irrelevant: odd is exactly zero
    assert fractional_moment(m05, 1.0 + 1e-14, 1.0) == 0.0


def test_even_integer_moments_raise(stable_model_17):
    with pytest.raises(MomentInfiniteError):
        fractional_moment(stable_model_17, 2.0, 1.0)


def test_existence_threshold(stable_model_17):
    with pytest.raises(MomentInfiniteError):
        fractional_moment(stable_model_17, 1.75, 1.0)


def test_scaling_law_in_time(stable_model_17):
    beta = 0.6
    m1 = fractional_moment(stable_model_17, beta, 1.0)
    m3 = fractional_moment(stable_model_17, beta, 3.0)
    assert m3 == pytest.approx(3.0 ** (beta / 1.7) * m1, rel=1e-14)


def test_support_factor_phase(stable_model_17):
    beta = 0.6
    val = fractional_moment(stable_model_17, beta, 1.0)
    support = np.cos(np.pi * beta / 2) * np.exp(1j * np.pi * beta / 2)
    ratio = val / support
    assert abs(ratio.imag) <= 1e-14 * abs(ratio)
    assert ratio.real > 0


def test_pure_scaling_moment_against_mc():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0, rate=0.0)
    x = simulate_log_price(m, 1.0, SimConfig(n_paths=2_000_000, master_seed=11))
    for beta in (0.5, 0.8):
        signed = np.abs(x) ** beta * np.exp(1j * np.pi * beta * (x < 0))
        est = np.mean(signed)
        se = np.std(signed.real) / np.sqrt(len(x)), np.std(signed.imag) / np.sqrt(len(x))
        cf = fractional_moment(m, beta, 1.0)
        assert abs(cf.real - est.real) <= 3 * se[0]
        assert abs(cf.imag - est.imag) <= 3 * se[1]


def test_mc_estimate_respects_time_scaling_law():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0, rate=0.0)
    beta, t = 0.6, 2.5
    x = simulate_log_price(m, t, SimConfig(n_paths=1_000_000, master_seed=19))
    signed = np.abs(x) ** beta * np.exp(1j * np.pi * beta * (x < 0))
    est = np.mean(signed)
    se = np.std(signed.real) / np.sqrt(len(x))
    want = t ** (beta / 1.5) * fractional_moment(m, beta, 1.0)
    assert abs(want.real - est.real) <= 3 * se


def test_rotation_moment_against_mc_of_sphere_average():
    # no exact sampler for rotation; validate the sphere average against a
    # brute-force quadrature instead
    m = make_rotation_model()
    beta = 0.9
    got = fractional_moment(m, beta, 1.3)
    # constant angular function: the sphere average collapses
    rho = 2 * m.index.mu
    want = (moment_prefactor(beta, rho) * (m.sigma_norm * 1.3 ** (1 / rho)) ** beta
            * np.cos(np.pi * beta / 2) * np.exp(1j * np.pi * beta / 2)
            * 0.6 ** (beta / rho))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("values", [
    [0.5, 0.6, 0.7, 0.6, 0.5, 0.6, 0.7, 0.6],
    list(0.5 + 0.2 * np.cos(2 * 2 * np.pi * np.arange(64) / 64)),
])
def test_rotation_moment_with_sampled_table_matches_adaptive_quadrature(values):
    # a sampled table is linear between its samples: the sphere average is
    # integrated piece by piece between the kinks, and must match scipy's
    # adaptive quadrature told where the kinks are
    from scipy.integrate import quad
    m = MarketModel(alpha=0.0, sigma=[0.5, 0.4], rate=0.02,
                    index=StableIndex.scaling_rotation(0.8, 0.3),
                    logcf=LogCharFn(SampledAngular(np.array(values))))
    beta, t = 0.5, 1.0
    rho = m.index.scaling_exponent
    sh = m.sigma_hat

    def integrand(a):
        rotated = np.array([np.cos(a) * sh[0] - np.sin(a) * sh[1],
                            np.sin(a) * sh[0] + np.cos(a) * sh[1]])
        return m.logcf.angular(rotated) ** (beta / rho)

    n = len(values)
    kinks = np.sort(np.mod(2 * np.pi * np.arange(n) / n - np.arctan2(sh[1], sh[0]), 2 * np.pi))
    avg = quad(integrand, 0.0, 2 * np.pi, points=kinks, limit=400,
               epsabs=0.0, epsrel=1e-13)[0] / (2 * np.pi)
    want = (moment_prefactor(beta, rho) * (m.sigma_norm * t ** (1 / rho)) ** beta
            * _support_factor(beta) * avg)
    got = fractional_moment(m, beta, t)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_generic_moment_indicator_trivial_when_thetas_equal():
    from conftest import make_spiral_index
    from opstable import EigenWeightAngular, LogCharFn, MarketModel
    idx = make_spiral_index(theta=0.7, upsilon=0.35)
    ang = EigenWeightAngular(weights=np.array([0.5, 0.5]),
                             tail_indices=np.array([1 / 0.7, 1 / 0.7]),
                             basis=idx.eigenbasis)
    m = MarketModel(alpha=0.0, sigma=[0.8, 0.3], rate=0.0, index=idx,
                    logcf=LogCharFn(ang))
    beta = 0.9
    got = fractional_moment(m, beta, 1.0)
    assert np.isfinite(got.real) and np.isfinite(got.imag)
    # all Theta_j equal: plain sphere average, indicator identically one;
    # cross-check against a dense manual average
    from opstable.moments import _phase_rotated_direction, _support_factor
    xs = np.arange(4096) * (2 * np.pi / 4096)
    avg = np.mean([m.logcf.angular(_phase_rotated_direction(m, x)) ** (beta * 0.7)
                   for x in xs])
    want = (moment_prefactor(beta, 1 / 0.7) * (m.sigma_norm ** beta)
            * _support_factor(beta) * avg)
    assert got == pytest.approx(want, rel=1e-10)


def test_generic_moment_on_eigen_direction_matches_1d():
    m = make_generic_model(thetas=(0.6, 0.8), weights=(0.7, 0.5))
    # sigma along the slow eigenvector (theta = 0.8): reduces to 1-D pure
    # scaling with D*mu = 1/0.8 and phi_pm = weight of that direction
    direction = m.index.eigenbasis.real[:, 1]
    m_aligned = make_generic_model(thetas=(0.6, 0.8), weights=(0.7, 0.5),
                                   sigma=tuple(2.0 * direction))
    beta = 0.9
    got = fractional_moment(m_aligned, beta, 1.4)
    ref_model = make_1d_model(1 / 0.8, phi=0.5, sigma=2.0, rate=0.0)
    want = fractional_moment(ref_model, beta, 1.4)
    assert got == pytest.approx(want, rel=1e-10)


def test_generic_moment_existence_uses_dominant_theta():
    m = make_generic_model(thetas=(0.6, 0.8))
    with pytest.raises(MomentInfiniteError):
        fractional_moment(m, 1.3, 1.0)  # 1.3 * 0.8 >= 1


# --- sphere averages: stacked calls against a scalar reference --------------

def _scalar_reference_moment(model, beta, t):
    """E[(sigma . L_t)^beta] with one scalar angular call per node."""
    if model.index.regime is Regime.SCALING_ROTATION:
        rho = model.index.scaling_exponent
        sh = model.sigma_hat

        def integrand(a):
            c, s = np.cos(a), np.sin(a)
            rotated = np.array([c * sh[0] - s * sh[1], s * sh[0] + c * sh[1]])
            return model.logcf.angular(rotated) ** (beta / rho)

        return (moment_prefactor(beta, rho) * (model.sigma_norm * t ** (1 / rho)) ** beta
                * _support_factor(beta) * scalar_periodic_average(integrand))
    sig_tilde = model.index.eigenbasis.conj().T @ model.sigma_hat.astype(complex)
    weights = np.abs(sig_tilde) ** 2
    thetas = np.array([ev.real for ev in model.index.eigenvalues])
    theta_l = float(np.max(thetas[weights > 1e-24]))
    fast = np.abs(thetas - theta_l) >= 1e-12

    def integrand(xi):
        phi_val = model.logcf.angular(_phase_rotated_direction(model, xi))
        weight = 1.0
        if np.any(fast):
            lhs = float(np.sum(weights[fast] * phi_val ** (2 * thetas[fast])))
            rhs = phi_val ** (2 * theta_l)
            gap = lhs - rhs
            weight = (0.5 if abs(gap) <= 1e-12 * max(1.0, abs(rhs))
                      else (1.0 if gap < 0 else 0.0))
        return phi_val ** (beta * theta_l) * weight

    return (moment_prefactor(beta, 1 / theta_l) * (model.sigma_norm * t ** theta_l) ** beta
            * _support_factor(beta) * scalar_periodic_average(integrand))


def _spiral_model():
    idx = make_spiral_index(theta=0.7, upsilon=0.35)
    ang = EigenWeightAngular(weights=np.array([0.5, 0.5]),
                             tail_indices=np.array([1 / 0.7, 1 / 0.7]),
                             basis=idx.eigenbasis)
    return MarketModel(alpha=0.0, sigma=[0.8, 0.3], rate=0.0, index=idx,
                       logcf=LogCharFn(ang))


def _aligned_generic_model():
    direction = make_generic_model().index.eigenbasis.real[:, 1]
    return make_generic_model(sigma=tuple(2.0 * direction))


@pytest.mark.parametrize("factory, betas", [
    (make_rotation_model, (0.3, 0.9, 1.5)),
    (_spiral_model, (0.2, 0.9, 1.3)),
    (_aligned_generic_model, (0.2, 0.7, 1.2)),
])
def test_sphere_average_moments_match_scalar_reference(factory, betas):
    m = factory()
    for beta in betas:
        for t in (0.4, 1.0, 2.5):
            got = fractional_moment(m, beta, t)
            want = _scalar_reference_moment(m, beta, t)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_phase_rotated_direction_stack_matches_scalar_calls():
    m = _spiral_model()
    xis = np.linspace(0.0, 2 * np.pi, 33)
    stack = _phase_rotated_direction(m, xis)
    assert stack.shape == (2, 33)
    for j, xi in enumerate(xis):
        assert np.allclose(stack[:, j], _phase_rotated_direction(m, xi), rtol=0, atol=1e-15)


def test_generic_moment_with_vanishing_dominance_weight_raises():
    # sigma projects mostly onto the fast eigen-direction: the weight is 0 at
    # every phase and the closed form would return exactly 0j
    with pytest.raises(UnsupportedRegimeError, match="dominance weight"):
        fractional_moment(make_generic_model(), 0.3, 1.0)


@pytest.mark.parametrize("mu, beta, k", [(1.5, 2.5, 1e-3), (1.9, 2.0, 0.01), (1.9, 2.0, 1e-3)])
def test_marginal_cf_guard_raises_without_overflow_warning(mu, beta, k):
    m = make_1d_model(mu, phi=1.0, sigma=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergenceError, match=r"residual estimate \d\.\d\de\+\d+"):
            power_marginal_cf(m, beta, k, 1.0)
    assert caught == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_moment_arguments_raise_domain_error(bad):
    model = make_1d_model(1.7)
    with pytest.raises(DomainError, match="finite"):
        fractional_moment(model, bad, 1.0)
    with pytest.raises(DomainError, match="finite"):
        fractional_moment(model, 0.5, bad)
    with pytest.raises(DomainError, match="finite"):
        power_marginal_cf(model, bad, 1.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        power_marginal_cf(model, 2.5, bad, 1.0)
    with pytest.raises(DomainError, match="finite"):
        power_marginal_cf(model, 2.5, 1.0, bad)
