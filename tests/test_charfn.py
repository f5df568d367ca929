import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opstable import (
    ConstantAngular,
    ContinuationMode,
    DirectionalPair,
    DomainError,
    EigenWeightAngular,
    LogCharFn,
    MarketModel,
    ModelValidationError,
    OptionContract,
    OptionStyle,
    SampledAngular,
    StableIndex,
    UnsupportedRegimeError,
    char_fn,
    density,
    hedge_and_portfolio,
    log_cf,
    log_cf_imag,
    matrix_power,
    price_option,
)
from opstable.charfn import gamma_ratio, projection_params
from opstable.pricer import _gamma_ratio_symbol

from conftest import (
    make_1d_model,
    make_generic_model,
    make_rotation_model,
    make_spiral_index,
)


def test_phi_vanishes_at_origin(stable_model_17):
    assert log_cf(stable_model_17, 0.0) == 0.0


def test_phi_pure_scaling_literal():
    m = make_1d_model(1.5)  # phi_pm = 0.5
    assert log_cf(m, 2.0) == pytest.approx(0.5 * 2.0 ** 1.5, rel=1e-14)


@pytest.mark.parametrize("model_factory", [
    lambda: make_1d_model(1.7),
    make_rotation_model,
    make_generic_model,
])
def test_phi_evenness(model_factory):
    m = model_factory()
    rng = np.random.RandomState(2)
    for _ in range(100):
        k = rng.standard_normal(m.index.dimension) * 10 ** rng.uniform(-2, 2)
        assert log_cf(m, k) == pytest.approx(log_cf(m, -k), rel=1e-12)


def test_char_fn_normalization_and_bound(stable_model_17):
    assert char_fn(stable_model_17, 0.0, 2.0) == 1.0
    rng = np.random.RandomState(8)
    for _ in range(200):
        k = rng.standard_normal(1) * 10 ** rng.uniform(-2, 2)
        assert 0.0 <= char_fn(stable_model_17, k, 1.0) <= 1.0


def test_char_fn_time_power(stable_model_17):
    rng = np.random.RandomState(4)
    for _ in range(50):
        k = rng.standard_normal(1) * 10 ** rng.uniform(-1, 1)
        assert char_fn(stable_model_17, k, 2.0) == pytest.approx(
            char_fn(stable_model_17, k, 1.0) ** 2, rel=1e-12)


@pytest.mark.parametrize("model_factory", [
    lambda: make_1d_model(1.5),
    make_rotation_model,
    make_generic_model,
])
def test_self_similarity(model_factory):
    m = model_factory()
    idx = m.index
    rng = np.random.RandomState(9)
    for _ in range(1000):
        k = rng.standard_normal(idx.dimension) * 10 ** rng.uniform(-2, 1.5)
        t = rng.uniform(1e-3, 10.0)
        rhs = char_fn(m, k, t)
        if rhs < 1e-280:
            continue
        lhs = char_fn(m, matrix_power(idx, t) @ np.atleast_1d(k), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * rhs


_REGIMES = {"pure_scaling": make_1d_model(1.5), "rotation": make_rotation_model(),
            "generic": make_generic_model()}


@settings(max_examples=60, deadline=None)
@given(regime=st.sampled_from(sorted(_REGIMES)), log_norm=st.floats(-18.0, 15.0),
       angle=st.floats(0.0, 2 * np.pi), t=st.floats(1e-3, 10.0))
def test_self_similarity_property(regime, log_norm, angle, t):
    # phi_t(k) = phi_1(t^B k): char_fn(k, t) == char_fn(t^B k, 1), for |k| from
    # 1e-18, where the value is 1, to 1e15, where it is 0
    m = _REGIMES[regime]
    k = 10.0 ** log_norm * np.array([np.cos(angle), np.sin(angle)])[:m.index.dimension]
    rhs = char_fn(m, k, t)
    assume(rhs >= 1e-280)
    lhs = char_fn(m, matrix_power(m.index, t) @ k, 1.0)
    assert abs(lhs - rhs) <= 1e-10 * rhs


@pytest.mark.filterwarnings("error")
def test_generic_char_fn_at_extreme_k():
    # the Jurek radius needs no bracket: values 1 and 0, not a DomainError
    m = make_generic_model()
    assert char_fn(m, [0.0, 1e-18], 1.0) == 1.0
    assert char_fn(m, [0.0, 1e15], 1.0) == 0.0


@pytest.mark.filterwarnings("error")
def test_log_cf_at_extreme_k():
    # |k| is taken without squaring k: at 1e-200 and 1e300 per component the
    # squares under- and overflow, while |k|^0.5 is well inside the float range
    phi = 0.5
    m = MarketModel(alpha=0.0, sigma=[0.3, 0.4], rate=0.0,
                    index=StableIndex.pure_scaling(2, 0.25),
                    logcf=LogCharFn(ConstantAngular(phi)))
    for c in (1e-200, 1e300):
        assert log_cf(m, [c, c]) == pytest.approx(phi * (np.sqrt(2.0) * c) ** 0.5, rel=1e-14)
    heavy = MarketModel(alpha=0.0, sigma=[0.3, 0.4], rate=0.0,
                        index=StableIndex.pure_scaling(2, 0.9),
                        logcf=LogCharFn(ConstantAngular(phi)))
    with pytest.raises(DomainError, match="overflows"):
        log_cf(heavy, [1e300, 1e300])


def test_epsilon_monotonicity():
    base = make_1d_model(1.5, epsilon=0.0)
    damped1 = make_1d_model(1.5, epsilon=0.3)
    damped2 = make_1d_model(1.5, epsilon=0.9)
    rng = np.random.RandomState(6)
    for _ in range(100):
        k = rng.standard_normal(1) * 10 ** rng.uniform(-2, 2)
        v0, v1, v2 = (abs(log_cf(m, k)) for m in (base, damped1, damped2))
        assert v2 <= v1 <= v0


# --- analytic continuation -------------------------------------------------

def test_continuation_principal_literal():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0, mode=ContinuationMode.PRINCIPAL_COMPLEX)
    got = log_cf_imag(m, 1.0)
    assert got == pytest.approx(np.exp(-1j * 3 * np.pi / 4), rel=1e-14)


def test_continuation_real_part_literal():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0, mode=ContinuationMode.REAL_PART)
    got = log_cf_imag(m, 1.0)
    assert got == pytest.approx(np.cos(3 * np.pi / 4), rel=1e-14)
    assert got.imag == 0.0


@pytest.mark.parametrize("mode", list(ContinuationMode))
def test_gaussian_continuation_is_mode_independent(mode):
    m = make_1d_model(2.0, phi=0.5, sigma=0.3, mode=mode)
    got = log_cf_imag(m, 1.0)
    assert got == pytest.approx(-0.5 * 0.3 ** 2, rel=1e-12)


def test_continuation_conjugate_symmetry():
    m = make_1d_model(1.7, mode=ContinuationMode.PRINCIPAL_COMPLEX)
    a = log_cf_imag(m, 1.3)
    b = log_cf_imag(m, -1.3)
    assert b == pytest.approx(np.conj(a), rel=1e-14)


def test_zero_portfolio_mix_rejected():
    with pytest.raises(ModelValidationError):
        MarketModel(alpha=0.0, sigma=[0.0], rate=0.0,
                    index=StableIndex.pure_scaling(1, 1.5),
                    logcf=LogCharFn(DirectionalPair(0.5, 0.5)))


@pytest.mark.parametrize("field, value", [
    ("alpha", np.nan), ("alpha", np.inf), ("rate", np.nan), ("rate", np.inf),
    ("sigma", [np.nan]), ("sigma", [-np.inf]),
])
def test_non_finite_model_inputs_rejected(field, value):
    kwargs = dict(alpha=0.0, sigma=[0.2], rate=0.0)
    kwargs[field] = value
    with pytest.raises(ModelValidationError, match="finite"):
        MarketModel(index=StableIndex.pure_scaling(1, 1.5),
                    logcf=LogCharFn(DirectionalPair(0.5, 0.5)), **kwargs)


def test_gamma_ratio_requires_1d_pure_scaling():
    with pytest.raises(ModelValidationError):
        MarketModel(alpha=0.0, sigma=[0.3, 0.2], rate=0.0,
                    index=StableIndex.scaling_rotation(0.8, 0.2),
                    logcf=LogCharFn(DirectionalPair(0.5, 0.5),
                                    continuation=ContinuationMode.GAMMA_RATIO))


def _mp_gamma_ratio(w, eta):
    import mpmath
    with mpmath.workdps(30):
        w = mpmath.mpmathify(w)
        return complex(w * mpmath.gamma(w + eta) / mpmath.gamma(w + 1))


_RATIO_ETAS = (2.0, 1.9, 1.7, 1.5, 1.2, 1.01)


@pytest.mark.parametrize("eta", _RATIO_ETAS)
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_gamma_ratio_on_the_pricing_line_matches_mpmath(eta, s):
    # w = s - i theta, the points the gamma-ratio factor is evaluated at
    w = s - 1j * np.geomspace(1e-4, 1e4, 41)
    got = gamma_ratio(w, eta)
    want = np.array([_mp_gamma_ratio(x, eta) for x in w])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("eta", _RATIO_ETAS)
def test_gamma_ratio_on_the_real_line_matches_mpmath(eta):
    for w in np.geomspace(1e-6, 1e4, 41):
        want = _mp_gamma_ratio(float(w), eta).real
        assert abs(gamma_ratio(float(w), eta) - want) <= 1e-14 * abs(want)
    assert gamma_ratio(0.0, eta) == 0.0
    assert gamma_ratio(0j, eta) == 0.0
    assert np.all(gamma_ratio(np.zeros(3, dtype=complex), eta) == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [169.0, 200.0, 1e4])
def test_gamma_ratio_continuation_at_large_shift(s):
    # Gamma(s + eta) overflows from s ~ 169 on; the ratio of the two Gammas
    # does not, and log_cf_imag and the pricer's symbol share one routine
    m = make_1d_model(1.7, mode=ContinuationMode.GAMMA_RATIO)
    value = log_cf_imag(m, s)
    assert np.isfinite(value)
    assert value == _gamma_ratio_symbol(m, -1j * s)


def test_sigma_is_read_only_copy():
    mix = np.array([0.3, 0.4])
    m = MarketModel(alpha=0.0, sigma=mix, rate=0.0, index=StableIndex.pure_scaling(2, 0.9),
                    logcf=LogCharFn(ConstantAngular(0.5)))
    with pytest.raises(ValueError):
        m.sigma[0] = 1.0
    mix[0] = 1.0  # the caller's array stays writable and is not shared
    assert m.sigma[0] == 0.3


class CountingAngular:
    """Angular function that counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.inner(theta)


@pytest.mark.filterwarnings("ignore::opstable.errors.AccuracyWarning")
@pytest.mark.parametrize("mode", list(ContinuationMode))
def test_projection_constants_computed_once_per_model(mode):
    angular = CountingAngular(DirectionalPair(0.5, 0.5))
    m = MarketModel(alpha=0.03, sigma=[0.2], rate=0.05, index=StableIndex.pure_scaling(1, 1.7),
                    logcf=LogCharFn(angular, continuation=mode))
    angular.calls = 0  # construction probes the angular function for evenness
    first = projection_params(m)
    for strike in (0.8, 1.0, 1.2):
        for style in OptionStyle:
            contract = OptionContract(style, strike, 0.5)
            price_option(m, contract, 1.0)
            hedge_and_portfolio(m, contract, 1.0)
    assert angular.calls == 1
    assert projection_params(m) is first


def test_projection_params_rejects_other_regimes():
    with pytest.raises(UnsupportedRegimeError, match="pure-scaling regime"):
        projection_params(make_rotation_model())


# --- density ----------------------------------------------------------------

def test_density_gaussian_closed_form():
    # variance 2 phi sigma^2 tau = 1
    m = make_1d_model(2.0, phi=0.5, sigma=1.0, rate=0.0)
    assert density(m, 0.0, 1.0) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-10)
    assert density(m, 1.0, 1.0) == pytest.approx(np.exp(-0.5) / np.sqrt(2 * np.pi), abs=1e-10)


def test_density_cauchy_closed_form():
    m = make_1d_model(1.0, phi=0.7, sigma=1.0, rate=0.0)
    gamma = 0.7 * 1.0 * 1.3
    assert density(m, 0.0, 1.3) == pytest.approx(1 / (np.pi * gamma), abs=1e-10)


def test_density_symmetry_and_positivity(stable_model_17):
    for xi in (0.0, 0.05, 0.2, 1.0):
        d_plus = density(stable_model_17, xi, 0.7)
        d_minus = density(stable_model_17, -xi, 0.7)
        assert d_plus == pytest.approx(d_minus, abs=1e-12)
        assert d_plus >= -1e-9


def test_density_integrates_to_one(stable_model_17):
    from scipy.integrate import simpson
    scale = 0.2 * (0.5 * 0.7) ** (1 / 1.7)
    xs = np.linspace(-60 * scale, 60 * scale, 3001)
    dens = np.array([density(stable_model_17, float(x), 0.7) for x in xs])
    mass = simpson(dens, x=xs)
    # power tail beyond the grid, first-order asymptote
    from scipy.special import gamma as G
    tail = 2 * G(1.7) * np.sin(np.pi * 1.7 / 2) / np.pi * (scale / (60 * scale)) ** 1.7
    assert mass + tail == pytest.approx(1.0, abs=1e-6)


def test_density_matches_uniform_riemann_inversion(stable_model_17):
    # independent discretization: plain trapezoid cosine sum on a uniform grid
    tau = 0.7
    n, dk = 2 ** 16, 0.02
    ks = np.arange(n) * dk
    sig, phi = 0.2, 0.5
    cf = np.exp(-tau * phi * (sig * ks) ** 1.7)
    for x in (0.0, 0.1, 0.5):
        ref = (cf @ np.cos(ks * x)) * dk / np.pi - cf[0] * dk / (2 * np.pi)
        assert density(stable_model_17, x, tau) == pytest.approx(ref, abs=5e-8)


def test_density_warns_when_cutoff_caps_the_grid(stable_model_17):
    import warnings

    from opstable import AccuracyWarning, QuadratureConfig

    tight = QuadratureConfig(theta_cutoff=3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        density(stable_model_17, 0.1, 0.5, tight)
    assert any(issubclass(w.category, AccuracyWarning) for w in caught)


def test_sampled_angular_evenness_enforced():
    vals = np.array([0.5, 0.6, 0.7, 0.6, 0.5, 0.6, 0.7, 0.6])
    vals_bad = vals.copy()
    vals_bad[0] = 0.9
    MarketModel(alpha=0.0, sigma=[1.0, 0.5], rate=0.0,
                index=StableIndex.pure_scaling(2, 0.8),
                logcf=LogCharFn(SampledAngular(vals)))
    with pytest.raises(ModelValidationError):
        MarketModel(alpha=0.0, sigma=[1.0, 0.5], rate=0.0,
                    index=StableIndex.pure_scaling(2, 0.8),
                    logcf=LogCharFn(SampledAngular(vals_bad)))


# --- angular functions on a stack of directions -----------------------------

def _spiral_angular():
    idx = make_spiral_index()
    return EigenWeightAngular(weights=np.array([0.5, 0.5]),
                              tail_indices=np.array([1 / 0.7, 1 / 0.7]),
                              basis=idx.eigenbasis)


@pytest.mark.parametrize("angular, dimension", [
    (ConstantAngular(0.6), 2),
    (ConstantAngular(0.6), 3),
    (DirectionalPair(0.5, 0.5), 1),
    (SampledAngular(np.array([0.5, 0.6, 0.7, 0.6, 0.5, 0.6, 0.7, 0.6])), 2),
    (make_generic_model().logcf.angular, 2),
    (_spiral_angular(), 2),
])
def test_angular_stack_equals_column_calls(angular, dimension):
    rng = np.random.RandomState(12)
    stack = rng.standard_normal((dimension, 257))
    stack /= np.linalg.norm(stack, axis=0)
    got = angular(stack)
    want = np.array([angular(stack[:, j]) for j in range(stack.shape[1])])
    assert got.shape == (257,)
    assert np.array_equal(got, want)
    assert isinstance(angular(stack[:, 0]), float)


@pytest.mark.parametrize("xi, tau", [(np.nan, 0.5), (np.inf, 0.5), (0.1, np.nan),
                                     (0.1, np.inf)])
def test_density_rejects_non_finite_inputs(xi, tau):
    with pytest.raises(DomainError, match="finite"):
        density(make_1d_model(1.7), xi, tau)
