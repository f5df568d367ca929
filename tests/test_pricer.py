import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from opstable import (
    AccuracyWarning,
    ContinuationMode,
    DivergentIntegrandError,
    DomainError,
    OptionContract,
    OptionStyle,
    PoleError,
    QuadratureConfig,
    UnsupportedRegimeError,
    black_scholes_price,
    hamiltonian,
    hedge_and_portfolio,
    log_cf_complex,
    log_cf_imag,
    m_factors,
    n_factor,
    payoff_transform,
    price_option,
)
from opstable import pricer
from opstable.pricer import _gamma_ratio_symbol, _n_factor_hamiltonian

from conftest import e_coefficient_series, fd_hedge, make_1d_model, make_rotation_model

V_RATE = 2 * 0.5 * 0.2 ** 2  # variance rate of the standard gaussian fixture


def gaussian_n_oracle(s, d, tau, phi=0.5, sig=0.2, rate=0.05):
    """Closed-form factor: Phi(e / sqrt(2 phi sigma^2 tau))."""
    e = d + tau * phi * sig ** 2 * (2 * s - 1)
    return ndtr(e / np.sqrt(2 * phi * sig ** 2 * tau))


# --- Hamiltonian ---------------------------------------------------------------

def test_hamiltonian_vanishes_at_origin(gaussian_model, stable_model_17):
    assert hamiltonian(gaussian_model, 0.0) == 0
    assert hamiltonian(stable_model_17, 0.0) == 0
    m = make_1d_model(1.5, mode=ContinuationMode.GAMMA_RATIO)
    assert hamiltonian(m, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_gaussian_generator(gaussian_model):
    phi_sig2 = 0.5 * 0.2 ** 2
    for k in (0.3, 1.7 - 0.4j, 2.0 + 1.0j):
        want = 0.05 * 1j * k - phi_sig2 * 1j * k + phi_sig2 * k ** 2
        assert hamiltonian(gaussian_model, k) == pytest.approx(want, rel=1e-12)


def test_hamiltonian_matches_coefficient_series(gaussian_model):
    # sum E_n (-ik)^n with the two-term gaussian table reproduces the closed form
    e1 = e_coefficient_series(gaussian_model, 1, k_max=8)
    e2 = e_coefficient_series(gaussian_model, 2, k_max=8)
    for k in (0.4, 1.3):
        series = 0.05 * 1j * k + e1 * (-1j * k) + e2 * (-1j * k) ** 2
        assert hamiltonian(gaussian_model, k) == pytest.approx(series, abs=1e-12)


def test_hamiltonian_gamma_ratio_at_gaussian_exponent():
    # at eta = 2 the substitution Gamma(ik+2)/Gamma(ik) = (ik)(ik+1) is exact,
    # so the symbol is polynomial; the verbatim 1/2 normalization halves it
    m = make_1d_model(2.0, phi=0.5, sigma=0.2, mode=ContinuationMode.GAMMA_RATIO)
    k = 0.9
    ik = 1j * k
    want = 0.05 * ik - 0.25 * 0.2 ** 2 * (ik + 1.0) * ik
    assert hamiltonian(m, k) == pytest.approx(want, rel=1e-12)


# --- payoff transform -------------------------------------------------------------

def test_payoff_transform_direct_substitution():
    c = OptionContract(OptionStyle.CALL, strike=1.0, maturity=1.0)
    got = payoff_transform(c, -2.0j)
    assert got.regular == pytest.approx(-1 / 3 + 1 / 2, rel=1e-14)
    assert got.delta_weight == pytest.approx(2 * np.pi)


def test_payoff_transform_put_is_negated_call():
    call = OptionContract(OptionStyle.CALL, strike=1.3, maturity=1.0)
    put = OptionContract(OptionStyle.PUT, strike=1.3, maturity=1.0)
    for k in (0.7, 1.1 - 0.5j):
        assert payoff_transform(put, k).regular == pytest.approx(
            -payoff_transform(call, k).regular, rel=1e-14)
    assert payoff_transform(put, 0.7).delta_weight == -payoff_transform(call, 0.7).delta_weight


def test_payoff_parity_pointwise():
    # max(a, 0) - max(-a, 0) = a: the transforms differ by the forward payoff
    for x, strike in ((0.3, 1.0), (-0.7, 2.0)):
        call_pay = max(np.exp(x) - strike, 0.0)
        put_pay = max(strike - np.exp(x), 0.0)
        assert call_pay - put_pay == pytest.approx(np.exp(x) - strike)


def test_payoff_transform_poles():
    c = OptionContract(OptionStyle.CALL, strike=1.0, maturity=1.0)
    for k in (0.0, 1.0j):
        with pytest.raises(PoleError):
            payoff_transform(c, k)


# --- M factors --------------------------------------------------------------------

def test_m_factors_at_zero(gaussian_model, stable_model_17):
    for m, phi_isq in ((gaussian_model, -0.5 * 0.2 ** 2),
                       (stable_model_17, 0.5 * 0.2 ** 1.7 * np.exp(1j * np.pi * 1.7 / 2))):
        tau = 0.5
        m1, m2 = m_factors(m, 0.0, 1.0, tau)
        assert m1 == pytest.approx(2 * np.exp(-tau * phi_isq), rel=1e-12)
        assert m2 == 0
        m1, m2 = m_factors(m, 0.0, 0.0, tau)
        assert m1 == pytest.approx(2.0)
        assert m2 == 0


def test_m_factors_gaussian_closed_form(gaussian_model):
    phi, sig = 0.5, 0.2
    for theta, s, tau in ((0.5, 1, 0.7), (2.0, 1, 0.3), (1.0, 0, 1.0)):
        m1, m2 = m_factors(gaussian_model, theta, s, tau)
        envelope = np.exp(-phi * tau * sig ** 2 * (theta ** 2 - s ** 2))
        want1 = 2 * np.cos(2 * phi * s * sig ** 2 * theta * tau) * envelope
        want2 = -2j * np.sin(2 * phi * s * sig ** 2 * theta * tau) * envelope
        assert m1 == pytest.approx(want1, abs=1e-14)
        assert m2 == pytest.approx(want2, abs=1e-14)


def test_m_factors_match_definition_sum(stable_model_17):
    # definition-level oracle: direct sum over p = +-1 of the continued phi
    from opstable import log_cf_complex
    tau, s = 0.6, 1.0
    for theta in (0.4, 1.0, 2.3):
        f = [np.exp(-tau * log_cf_complex(stable_model_17, p * theta + 1j * s))
             for p in (+1, -1)]
        m1, m2 = m_factors(stable_model_17, theta, s, tau)
        assert m1 == pytest.approx(f[0] + f[1], rel=1e-14)
        assert m2 == pytest.approx(f[0] - f[1], rel=1e-14)


def test_m_factors_definition_sum_mu_15():
    m = make_1d_model(1.5)
    from opstable import log_cf_complex
    tau, s, theta = 0.5, 1.0, 1.0
    f = [np.exp(-tau * log_cf_complex(m, p * theta + 1j * s)) for p in (+1, -1)]
    m1, m2 = m_factors(m, theta, s, tau)
    assert m1 == pytest.approx(f[0] + f[1], rel=1e-14)
    assert m2 == pytest.approx(f[0] - f[1], rel=1e-14)


@pytest.mark.parametrize("mu", [2.0, 1.9, 1.7, 1.5, 1.2])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_shifted_factor_is_conjugate_symmetric(mu, s):
    # F(-theta + is) == conj F(theta + is) exactly, so each theta-node needs
    # one evaluation; at s = 0 F is real and only the sign of its zero
    # imaginary part may differ, which == ignores
    tau = 0.5
    thetas = np.geomspace(1e-6, 1e3, 2000)
    appendix = make_1d_model(mu)
    gamma = make_1d_model(mu, mode=ContinuationMode.GAMMA_RATIO)
    for factor in (lambda w: np.exp(-tau * log_cf_complex(appendix, w)),
                   lambda w: np.exp(-tau * _gamma_ratio_symbol(gamma, -w))):
        plus, minus = factor(thetas + 1j * s), factor(-thetas + 1j * s)
        assert np.all(np.isfinite(plus))
        assert np.array_equal(minus.real, plus.real)
        assert np.array_equal(minus.imag, -plus.imag)


# --- N factors --------------------------------------------------------------------

def test_n_factor_gaussian_identity(gaussian_model):
    rng = np.random.RandomState(1)
    for _ in range(50):
        s = float(rng.randint(0, 2))
        d = rng.uniform(-1.5, 1.5)
        tau = rng.uniform(0.05, 2.0)
        z = -0.5 * V_RATE * tau
        want = gaussian_n_oracle(s, d, tau)
        got_a, _ = n_factor(gaussian_model, s, d, z, tau, method="appendix")
        got_d, _ = n_factor(gaussian_model, s, d, z, tau, method="direct")
        assert abs(got_a - want) <= 1e-8
        assert abs(got_d - want) <= 1e-8


def test_n_factor_cdf_limit(stable_model_17):
    # the power tail needs a deep d before the CDF closes to within 1e-6
    z = complex(log_cf_imag(stable_model_17, 1.0)) * 0.5
    val, _ = n_factor(stable_model_17, 0.0, 150.0, z, 0.5)
    assert val.real == pytest.approx(1.0, abs=1e-6)


def test_n_factor_appendix_equals_direct_for_cdf(stable_model_17):
    tau = 0.4
    z = complex(log_cf_imag(stable_model_17, 1.0)) * tau
    for d in (-0.6, 0.0, 0.45):
        a, _ = n_factor(stable_model_17, 0.0, d, z, tau, method="appendix")
        b, _ = n_factor(stable_model_17, 0.0, d, z, tau, method="direct")
        assert abs(a.real - b.real) <= 1e-10


def test_n_factor_divergence_guard():
    # principal-complex shift grows faster than the factor decays when the
    # imaginary part of z is made absurdly large by hand
    m = make_1d_model(1.2, mode=ContinuationMode.PRINCIPAL_COMPLEX)
    z = complex(log_cf_imag(m, 1.0)) * 0.5
    with pytest.raises(DivergentIntegrandError):
        n_factor(m, 1.0, 0.1, z - 5.0j, 0.5, method="appendix")


def test_n_factor_direct_needs_real_shift(stable_model_17):
    with pytest.raises(DomainError):
        n_factor(stable_model_17, 1.0, 0.1, 0.1 + 0.2j, 0.5, method="direct")


# --- price ------------------------------------------------------------------------

def test_gaussian_call_matches_black_scholes(gaussian_model):
    for mny in (0.85, 1.0, 1.15):
        for tau in (0.25, 1.0):
            c = OptionContract(OptionStyle.CALL, 100 * mny, tau)
            rep = price_option(gaussian_model, c, 100.0)
            want = black_scholes_price(100.0, 100 * mny, 0.05, V_RATE, tau)
            assert rep.price == pytest.approx(want, rel=1e-9)
            assert rep.imag_residue <= 1e-12


def test_gaussian_put_matches_black_scholes(gaussian_model):
    p = OptionContract(OptionStyle.PUT, 105.0, 0.75)
    rep = price_option(gaussian_model, p, 100.0)
    want = black_scholes_price(100.0, 105.0, 0.05, V_RATE, 0.75, OptionStyle.PUT)
    assert rep.price == pytest.approx(want, rel=1e-9)


def test_put_call_parity_exact(stable_model_17):
    call = OptionContract(OptionStyle.CALL, 1.1, 0.5)
    put = OptionContract(OptionStyle.PUT, 1.1, 0.5)
    c = price_option(stable_model_17, call, 1.0)
    p = price_option(stable_model_17, put, 1.0)
    forward = 1.0 - 1.1 * np.exp(-0.05 * 0.5)
    assert c.price - p.price == pytest.approx(forward, abs=1e-12)


def test_payoff_limit_small_maturity():
    m = make_1d_model(1.7, rate=0.02)
    c = OptionContract(OptionStyle.CALL, 1.0, 1e-5)
    rep = price_option(m, c, 2.0)
    assert abs(rep.price - (2.0 - 1.0)) <= 1e-6 * 2.0


def test_call_price_monotone_in_spot_and_strike(stable_model_17):
    taus = 0.5
    prices_k = [price_option(stable_model_17,
                             OptionContract(OptionStyle.CALL, k, taus), 1.0).price
                for k in (0.8, 0.9, 1.0, 1.1, 1.2)]
    assert all(a > b for a, b in zip(prices_k, prices_k[1:]))
    prices_s = [price_option(stable_model_17,
                             OptionContract(OptionStyle.CALL, 1.0, taus), s).price
                for s in (0.8, 0.9, 1.0, 1.1, 1.2)]
    assert all(a < b for a, b in zip(prices_s, prices_s[1:]))


def test_gaussian_payoff_dominance(gaussian_model):
    for mny in (0.8, 1.0, 1.2):
        c = OptionContract(OptionStyle.CALL, 100 * mny, 0.5)
        rep = price_option(gaussian_model, c, 100.0)
        lower = max(100.0 - 100 * mny * np.exp(-0.05 * 0.5), 0.0)
        assert rep.price >= lower - 1e-9


def test_gaussian_limit_continuity():
    bs = black_scholes_price(100.0, 100.0, 0.05, V_RATE, 0.5)
    gaps = []
    for mu in (1.90, 1.95, 1.99):
        m = make_1d_model(mu)
        rep = price_option(m, OptionContract(OptionStyle.CALL, 100.0, 0.5), 100.0)
        gaps.append(abs(rep.price - bs) / bs)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.02


def test_principal_complex_price_reports_residue():
    m = make_1d_model(1.7, mode=ContinuationMode.PRINCIPAL_COMPLEX)
    rep = price_option(m, OptionContract(OptionStyle.CALL, 1.0, 0.5), 1.0)
    assert rep.mode == "principal_complex"
    assert np.isfinite(rep.price)
    assert rep.imag_residue > 0


def test_gamma_ratio_price_is_real_and_sane():
    m = make_1d_model(1.7, mode=ContinuationMode.GAMMA_RATIO)
    rep = price_option(m, OptionContract(OptionStyle.CALL, 1.0, 0.5), 1.0)
    assert rep.mode == "gamma_ratio"
    assert rep.imag_residue <= 1e-8
    assert 0.0 < rep.price < 1.0


@pytest.mark.parametrize("mu", [0.9, 1.0])
@pytest.mark.parametrize("route", [price_option, hedge_and_portfolio])
def test_gamma_ratio_without_decay_raises_before_quadrature(monkeypatch, mu, route):
    def no_pass(*args, **kwargs):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(pricer, "half_line_pass", no_pass)
    m = make_1d_model(mu, mode=ContinuationMode.GAMMA_RATIO)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentIntegrandError, match=f"eta = {mu:g} <= 1"):
            route(m, OptionContract(OptionStyle.CALL, 1.0, 0.5), 1.0)


@pytest.mark.parametrize("mu, tau", [(1.2, 0.5), (1.5, 0.25), (2.0, 0.02)])
def test_gamma_ratio_price_finite_where_gamma_overflows(mu, tau):
    # Gamma(ik + eta) and Gamma(ik + 1) overflow separately at large |k|;
    # their ratio does not
    m = make_1d_model(mu, sigma=0.15, mode=ContinuationMode.GAMMA_RATIO)
    spot, strike = 100.0, 100.0
    rep = price_option(m, OptionContract(OptionStyle.CALL, strike, tau), spot)
    assert np.isfinite(rep.price)
    assert max(spot - strike * np.exp(-m.rate * tau), 0.0) <= rep.price <= spot


def test_unsupported_regime_raises():
    m = make_rotation_model()
    with pytest.raises(UnsupportedRegimeError):
        price_option(m, OptionContract(OptionStyle.CALL, 1.0, 0.5), 1.0)


def test_price_preconditions(stable_model_17):
    c = OptionContract(OptionStyle.CALL, 1.0, 0.5)
    with pytest.raises(DomainError):
        price_option(stable_model_17, c, -1.0)
    with pytest.raises(DomainError):
        price_option(stable_model_17, c, 1.0, t=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_domain_error(stable_model_17, bad):
    c = OptionContract(OptionStyle.CALL, 1.0, 0.5)
    with pytest.raises(DomainError):
        price_option(stable_model_17, c, bad)
    with pytest.raises(DomainError):
        price_option(stable_model_17, c, 1.0, t=bad)
    with pytest.raises(DomainError):
        OptionContract(OptionStyle.CALL, bad, 0.5)
    with pytest.raises(DomainError):
        OptionContract(OptionStyle.CALL, 1.0, bad)


def test_option_contract_arguments_out_of_order_raise_domain_error():
    with pytest.raises(DomainError, match="style"):
        OptionContract(100.0, 0.5, OptionStyle.CALL)
    with pytest.raises(DomainError, match="style"):
        OptionContract("put", 1.0, 0.5)
    with pytest.raises(DomainError, match="strike"):
        OptionContract(OptionStyle.CALL, "1.0", 0.5)
    with pytest.raises(DomainError, match="maturity"):
        OptionContract(OptionStyle.CALL, 1.0, OptionStyle.PUT)
    with pytest.raises(DomainError, match="maturity"):
        OptionContract(OptionStyle.CALL, 1.0, 1j)
    assert OptionContract(OptionStyle.PUT, np.float64(1.0), 1).maturity == 1


# --- single pass per factor ----------------------------------------------------------

def _two_pass_factors(model, d, tau, quad):
    """(N1, e1), (N2, e2) through the public per-factor routes."""
    if model.logcf.continuation is ContinuationMode.GAMMA_RATIO:
        return (_n_factor_hamiltonian(model, 1.0, d, tau, quad)[0][:2],
                _n_factor_hamiltonian(model, 0.0, d, tau, quad)[0][:2])
    z = log_cf_imag(model, 1.0) * tau
    return n_factor(model, 1.0, d, z, tau, quad), n_factor(model, 0.0, d, z, tau, quad)


def _two_pass_error(model, style, spot, strike, tau, quad):
    """The former cutoff diagnostic: node-halving error, or the price change
    when a second pass cuts two decades deeper, whichever is larger."""
    d = -np.log(strike / spot) + model.rate * tau
    k_disc = strike * np.exp(-model.rate * tau)
    (n1, e1), (n2, e2) = _two_pass_factors(model, d, tau, quad)
    wide = QuadratureConfig(tolerance=quad.tolerance * 1e-2)
    (n1_w, _), (n2_w, _) = _two_pass_factors(model, d, tau, wide)

    def assemble(f1, f2):
        if style is OptionStyle.PUT:
            return k_disc * (1.0 - f2) - spot * (1.0 - f1)
        return spot * f1 - k_disc * f2

    return max(spot * e1 + k_disc * e2, abs(assemble(n1, n2) - assemble(n1_w, n2_w)))


# real_part takes the direct route, principal_complex the appendix route
# (the direct one at mu = 2, where the shift is real), gamma_ratio the
# Hamiltonian route
@pytest.mark.parametrize("mode, mu", [
    (ContinuationMode.REAL_PART, 2.0),
    (ContinuationMode.REAL_PART, 1.7),
    (ContinuationMode.REAL_PART, 1.2),
    (ContinuationMode.PRINCIPAL_COMPLEX, 2.0),
    (ContinuationMode.PRINCIPAL_COMPLEX, 1.7),
    (ContinuationMode.PRINCIPAL_COMPLEX, 1.2),
    (ContinuationMode.GAMMA_RATIO, 2.0),
    (ContinuationMode.GAMMA_RATIO, 1.7),
])
@pytest.mark.parametrize("style", [OptionStyle.CALL, OptionStyle.PUT])
def test_single_pass_matches_two_pass(mode, mu, style):
    model = make_1d_model(mu, mode=mode)
    quad = QuadratureConfig()
    spot, strike, tau = 1.0, 1.1, 0.5
    rep = price_option(model, OptionContract(style, strike, tau), spot, quad=quad)

    d = -np.log(strike / spot) + model.rate * tau
    (n1, _), (n2, _) = _two_pass_factors(model, d, tau, quad)
    assert rep.n1 == n1 and rep.n2 == n2
    # the tail bound never reports less than the deeper second pass measured
    assert rep.quadrature_error >= _two_pass_error(model, style, spot, strike, tau, quad)


@pytest.mark.parametrize("mode, mus", [
    (ContinuationMode.REAL_PART, (2.0, 1.9, 1.7, 1.5, 1.2)),
    (ContinuationMode.PRINCIPAL_COMPLEX, (2.0, 1.9, 1.7, 1.5, 1.2)),
    (ContinuationMode.GAMMA_RATIO, (2.0, 1.9, 1.7, 1.5)),
])
def test_tail_bound_covers_the_deeper_cutoff_on_every_route(mode, mus):
    spot, strike = 1.0, 1.1
    for mu in mus:
        model = make_1d_model(mu, mode=mode)
        for tol in (1e-10, 1e-8, 1e-6):
            quad = QuadratureConfig(tolerance=tol)
            for tau in np.geomspace(0.02, 2.0, 12):
                for style in (OptionStyle.CALL, OptionStyle.PUT):
                    rep = price_option(model, OptionContract(style, strike, tau), spot, quad=quad)
                    old = _two_pass_error(model, style, spot, strike, tau, quad)
                    assert rep.quadrature_error >= old, (mu, tol, tau, style)


# --- no-arbitrage properties, each within the reported quadrature error ----------------

# rounding of a price assembled from the two factors at spot 1
_ROUNDING = 1e-15

_quote_inputs = dict(mode=st.sampled_from([ContinuationMode.REAL_PART,
                                           ContinuationMode.PRINCIPAL_COMPLEX]),
                     mu=st.floats(1.2, 2.0), tau=st.floats(0.05, 2.0),
                     strike=st.floats(0.6, 1.6))


@settings(max_examples=60, deadline=None)
@given(**_quote_inputs)
def test_put_call_parity_property(mode, mu, tau, strike):
    model = make_1d_model(mu, mode=mode)
    call = price_option(model, OptionContract(OptionStyle.CALL, strike, tau), 1.0)
    put = price_option(model, OptionContract(OptionStyle.PUT, strike, tau), 1.0)
    forward = 1.0 - strike * np.exp(-model.rate * tau)
    assert abs(call.price - put.price - forward) <= (call.quadrature_error + put.quadrature_error
                                                     + _ROUNDING)


@settings(max_examples=60, deadline=None)
@given(**_quote_inputs)
def test_call_price_bounds_property(mode, mu, tau, strike):
    model = make_1d_model(mu, mode=mode)
    rep = price_option(model, OptionContract(OptionStyle.CALL, strike, tau), 1.0)
    intrinsic = max(1.0 - strike * np.exp(-model.rate * tau), 0.0)
    slack = rep.quadrature_error + _ROUNDING
    assert intrinsic - slack <= rep.price <= 1.0 + slack


@settings(max_examples=60, deadline=None)
@given(**_quote_inputs, step=st.floats(0.01, 0.2))
def test_call_monotone_and_convex_in_strike_property(mode, mu, tau, strike, step):
    model = make_1d_model(mu, mode=mode)
    lo, mid, hi = (price_option(model, OptionContract(OptionStyle.CALL, k, tau), 1.0)
                   for k in (strike - step, strike, strike + step))
    assert hi.price <= lo.price + lo.quadrature_error + hi.quadrature_error + _ROUNDING
    slack = lo.quadrature_error + 2.0 * mid.quadrature_error + hi.quadrature_error + _ROUNDING
    assert lo.price - 2.0 * mid.price + hi.price >= -slack


# --- hedge and portfolio -------------------------------------------------------------

def test_gaussian_hedge_is_minus_delta(gaussian_model):
    c = OptionContract(OptionStyle.CALL, 100.0, 1.0)
    hr = hedge_and_portfolio(gaussian_model, c, 100.0)
    d1 = (np.log(1.0) + (0.05 + V_RATE / 2)) / np.sqrt(V_RATE)
    assert hr.n_s == pytest.approx(-ndtr(d1), abs=1e-7)


def test_gaussian_portfolio_closed_form_gap(gaussian_model):
    c = OptionContract(OptionStyle.CALL, 100.0, 1.0)
    hr = hedge_and_portfolio(gaussian_model, c, 100.0)
    assert abs(hr.closed_form_gap) <= 1e-6


def test_deep_otm_hedge_vanishes():
    m = make_1d_model(2.0)
    c = OptionContract(OptionStyle.CALL, 100.0, 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        hr = hedge_and_portfolio(m, c, 50.0)
    assert abs(hr.n_s) <= 1e-8
    assert abs(hr.portfolio) <= 1e-8


# --- analytic hedge on the pricing pass's nodes ----------------------------------------

_ROUTES = [(ContinuationMode.REAL_PART, mu) for mu in (2.0, 1.7, 1.2)] + \
          [(ContinuationMode.PRINCIPAL_COMPLEX, mu) for mu in (2.0, 1.7, 1.2)] + \
          [(ContinuationMode.GAMMA_RATIO, mu) for mu in (2.0, 1.7)]


def _quiet_hedge(model, contract, spot):
    # the principal_complex s=1 factor is not converged below D*mu = 2, and
    # the hedge says so with an AccuracyWarning; these tests compare values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return hedge_and_portfolio(model, contract, spot)


@pytest.mark.parametrize("mode, mu", _ROUTES)
def test_analytic_hedge_matches_finite_difference_reference(mode, mu):
    model = make_1d_model(mu, sigma=0.15, mode=mode)
    for strike in (85.0, 100.0, 115.0):
        for tau in (0.25, 1.0):
            c = OptionContract(OptionStyle.CALL, strike, tau)
            ref, noise = fd_hedge(model, c, 100.0)
            hr = _quiet_hedge(model, c, 100.0)
            assert abs(hr.n_s - ref) <= noise + 1e-8, (strike, tau)


@pytest.mark.parametrize("mode", [ContinuationMode.REAL_PART, ContinuationMode.PRINCIPAL_COMPLEX])
def test_gaussian_hedge_is_minus_delta_on_a_grid(mode):
    model = make_1d_model(2.0, mode=mode)
    for strike in (70.0, 85.0, 100.0, 115.0, 130.0):
        for tau in (0.05, 0.1, 0.5, 1.0, 2.0):
            hr = hedge_and_portfolio(model, OptionContract(OptionStyle.CALL, strike, tau), 100.0)
            d1 = (np.log(100.0 / strike) + (0.05 + V_RATE / 2) * tau) / np.sqrt(V_RATE * tau)
            assert abs(hr.n_s + ndtr(d1)) <= 1e-12, (strike, tau)


@pytest.mark.parametrize("mode, mu", _ROUTES)
def test_put_hedge_is_call_hedge_plus_one(mode, mu):
    model = make_1d_model(mu, mode=mode)
    for strike in (0.8, 1.0, 1.25):
        call, put = (_quiet_hedge(model, OptionContract(style, strike, 0.5), 1.0)
                     for style in (OptionStyle.CALL, OptionStyle.PUT))
        assert abs(put.n_s - (call.n_s + 1.0)) <= 1e-12


@pytest.mark.parametrize("mode, mu", _ROUTES)
def test_hedge_pass_prices_as_price_option(mode, mu):
    # V = N_S S + C with C from the hedge pass's value rows, bit for bit
    model = make_1d_model(mu, mode=mode)
    for style in (OptionStyle.CALL, OptionStyle.PUT):
        c = OptionContract(style, 1.1, 0.5)
        hr = _quiet_hedge(model, c, 1.0)
        assert hr.portfolio == hr.n_s * 1.0 + price_option(model, c, 1.0).price


@pytest.mark.parametrize("mu", [1.7, 1.5, 1.2])
def test_heavy_tail_hedge_raises_no_accuracy_warning(mu):
    model = make_1d_model(mu, sigma=0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        hr = hedge_and_portfolio(model, OptionContract(OptionStyle.CALL, 100.0, 0.5), 100.0)
    assert -1.0 < hr.n_s < 0.0


# rounding of a hedge ratio summed from factors of order one (N1 + N1' cancels
# to the last few bits of 1 far out of the money)
_HEDGE_ROUNDING = 1e-14


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(1.2, 2.0), tau=st.floats(0.05, 2.0), strike=st.floats(0.6, 1.6))
def test_call_hedge_in_unit_range_property(mu, tau, strike):
    model = make_1d_model(mu)
    hr = hedge_and_portfolio(model, OptionContract(OptionStyle.CALL, strike, tau), 1.0)
    assert -1.0 - _HEDGE_ROUNDING <= hr.n_s <= _HEDGE_ROUNDING
