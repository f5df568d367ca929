import numpy as np
import pytest
from scipy.stats import ks_2samp

from opstable import (
    DomainError,
    Measure,
    ModelValidationError,
    OptionContract,
    OptionStyle,
    SimConfig,
    UnsupportedRegimeError,
    black_scholes_price,
    char_fn,
    density,
    mc_price,
    price_option,
    sample_stable,
    simulate_log_price,
)

from conftest import make_1d_model, make_generic_model, make_rotation_model

KS_CRIT_1PCT = 1.628  # two-sample critical constant at the 1% level


def test_sample_stable_rejects_bad_index():
    cfg = SimConfig(n_paths=10)
    with pytest.raises(DomainError):
        sample_stable(2.5, 1.0, 10, cfg)
    with pytest.raises(DomainError):
        sample_stable(0.0, 1.0, 10, cfg)


def test_sample_stable_gaussian_variance():
    cfg = SimConfig(n_paths=500_000, master_seed=21)
    x = sample_stable(2.0, 1.0, cfg.n_paths, cfg)
    # CF exp(-k^2) means variance 2
    assert np.var(x) == pytest.approx(2.0, abs=3 * np.sqrt(8 / cfg.n_paths))


def test_sample_stable_cauchy_median():
    cfg = SimConfig(n_paths=500_000, master_seed=22)
    x = sample_stable(1.0, 1.0, cfg.n_paths, cfg)
    # median of n Cauchy draws is asymptotically N(0, (pi/2)^2 / n)
    assert abs(np.median(x)) <= 3 * (np.pi / 2) / np.sqrt(cfg.n_paths)


@pytest.mark.parametrize("mu", [0.8, 1.5, 1.9])
def test_sample_stable_empirical_cf(mu):
    cfg = SimConfig(n_paths=1_000_000, master_seed=23)
    scale = 0.7
    x = sample_stable(mu, scale, cfg.n_paths, cfg)
    ks = np.linspace(0.2, 3.0, 10)
    emp = np.array([np.mean(np.exp(1j * k * x)) for k in ks])
    want = np.exp(-(scale * np.abs(ks)) ** mu)
    assert np.max(np.abs(emp - want)) <= 3.0 / np.sqrt(cfg.n_paths)


def test_streams_are_deterministic():
    a = sample_stable(1.5, 1.0, 300_000, SimConfig(n_paths=300_000, master_seed=42))
    b = sample_stable(1.5, 1.0, 300_000, SimConfig(n_paths=300_000, master_seed=42))
    assert np.array_equal(a, b)
    c = sample_stable(1.5, 1.0, 300_000, SimConfig(n_paths=300_000, master_seed=43))
    assert not np.array_equal(a, c)


def test_extending_paths_preserves_earlier_blocks():
    # per-block counter keying: asking for more paths never perturbs the
    # draws of earlier blocks
    block = 4096
    short = SimConfig(n_paths=2 * block, master_seed=7, block_size=block)
    long = SimConfig(n_paths=5 * block, master_seed=7, block_size=block)
    x_short = sample_stable(1.7, 1.0, short.n_paths, short)
    x_long = sample_stable(1.7, 1.0, long.n_paths, long)
    assert np.array_equal(x_short, x_long[: 2 * block])


def test_terminal_self_similarity_ks(stable_model_17):
    n = 200_000
    x1 = simulate_log_price(stable_model_17, 1.0, SimConfig(n_paths=n, master_seed=1))
    x2 = simulate_log_price(stable_model_17, 2.0, SimConfig(n_paths=n, master_seed=2))
    stat = ks_2samp(2.0 ** (1 / 1.7) * x1, x2).statistic
    assert stat <= KS_CRIT_1PCT * np.sqrt(2 / n)


def test_generic_eigen_projection_is_stable_ks():
    m = make_generic_model(thetas=(0.6, 0.8), weights=(0.7, 0.5))
    direction = m.index.eigenbasis.real[:, 1]
    m_aligned = make_generic_model(thetas=(0.6, 0.8), weights=(0.7, 0.5),
                                   sigma=tuple(direction))
    n = 200_000
    tau = 1.3
    x = simulate_log_price(m_aligned, tau, SimConfig(n_paths=n, master_seed=5))
    ref = sample_stable(1 / 0.8, (0.5 * tau) ** 0.8, n,
                        SimConfig(n_paths=n, master_seed=6))
    stat = ks_2samp(x, ref).statistic
    assert stat <= KS_CRIT_1PCT * np.sqrt(2 / n)


def test_generic_empirical_cf_matches_char_fn():
    m = make_generic_model()
    n = 1_000_000
    tau = 0.8
    x = simulate_log_price(m, tau, SimConfig(n_paths=n, master_seed=8))
    ks = np.linspace(0.1, 4.0, 50)
    band = 3.0 / np.sqrt(n)
    hits = 0
    for k in ks:
        emp = np.mean(np.exp(1j * k * x))
        want = char_fn(m, k * m.sigma, tau)
        hits += abs(emp - want) <= band
    assert hits >= 0.95 * len(ks)


def test_histogram_matches_density_l1(stable_model_17):
    n = 1_000_000
    tau = 0.7
    x = simulate_log_price(stable_model_17, tau, SimConfig(n_paths=n, master_seed=13))
    lo, hi = np.quantile(x, [0.005, 0.995])
    bins = np.linspace(lo, hi, 101)
    hist, _ = np.histogram(x, bins=bins, density=True)
    centers = 0.5 * (bins[1:] + bins[:-1])
    dens = np.array([density(stable_model_17, float(c), tau) for c in centers])
    l1 = np.sum(np.abs(hist - dens)) * (bins[1] - bins[0])
    assert l1 <= 5 * np.sqrt(len(hist) / n)


def test_rotation_regime_sampling_unsupported():
    m = make_rotation_model()
    with pytest.raises(UnsupportedRegimeError):
        simulate_log_price(m, 1.0, SimConfig(n_paths=10))


def test_mc_price_generic_regime_names_the_real_cause():
    # the generic model samples fine; pricing stops at the pure-scaling
    # compensator, and says so
    m = make_generic_model()
    assert simulate_log_price(m, 0.25, SimConfig(n_paths=10)).shape == (10,)
    c = OptionContract(OptionStyle.CALL, 1.0, 0.25)
    with pytest.raises(UnsupportedRegimeError, match="compensator") as exc:
        mc_price(m, c, 1.0, 0.0, SimConfig(n_paths=10))
    assert "analytic continuation" not in str(exc.value)


def test_physical_measure_adds_drift(stable_model_17):
    cfg = SimConfig(n_paths=1000, master_seed=3, measure=Measure.PHYSICAL)
    cfg2 = SimConfig(n_paths=1000, master_seed=3, measure=Measure.COMPENSATED)
    a = simulate_log_price(stable_model_17, 2.0, cfg)
    b = simulate_log_price(stable_model_17, 2.0, cfg2)
    assert np.allclose(a - b, stable_model_17.alpha * 2.0)


def test_mc_price_requires_compensated_measure(stable_model_17):
    cfg = SimConfig(n_paths=1000, measure=Measure.PHYSICAL)
    c = OptionContract(OptionStyle.CALL, 1.0, 0.5)
    with pytest.raises(DomainError):
        mc_price(stable_model_17, c, 1.0, 0.0, cfg)


def test_mc_gaussian_matches_black_scholes(gaussian_model):
    c = OptionContract(OptionStyle.CALL, 100.0, 1.0)
    res = mc_price(gaussian_model, c, 100.0, 0.0, SimConfig(n_paths=1_000_000, master_seed=9))
    want = black_scholes_price(100.0, 100.0, 0.05, 2 * 0.5 * 0.2 ** 2, 1.0)
    assert abs(res.price - want) <= 3 * res.stderr
    assert not res.stderr_unstable


def test_mc_zero_strike_call_is_martingale(gaussian_model):
    c = OptionContract(OptionStyle.CALL, 1e-12, 1.0)
    res = mc_price(gaussian_model, c, 100.0, 0.0, SimConfig(n_paths=50_000, master_seed=10))
    assert res.price == pytest.approx(100.0, abs=1e-9)


def test_mc_put_direct_estimator(gaussian_model):
    p = OptionContract(OptionStyle.PUT, 100.0, 1.0)
    res = mc_price(gaussian_model, p, 100.0, 0.0, SimConfig(n_paths=500_000, master_seed=11))
    want = black_scholes_price(100.0, 100.0, 0.05, 0.04, 1.0, OptionStyle.PUT)
    assert res.estimator == "direct"
    assert abs(res.price - want) <= 3 * res.stderr


def test_mc_heavy_tail_call_uses_the_parity_estimator():
    m = make_1d_model(1.5, sigma=0.2)
    c = OptionContract(OptionStyle.CALL, 1.0, 0.25)
    res = mc_price(m, c, 1.0, 0.0, SimConfig(n_paths=200_000, master_seed=12))
    assert res.estimator == "parity"
    assert np.isfinite(res.price)


def test_sim_config_validation():
    with pytest.raises(ModelValidationError):
        SimConfig(n_paths=0)
    with pytest.raises(ModelValidationError):
        SimConfig(n_paths=10, block_size=0)


def test_mc_price_overflowing_paths_are_silent():
    # at D*mu near 1 some draws lie beyond log(float max): those S_T are inf,
    # their put payoff is 0, and the parity call price stays finite
    m = make_1d_model(0.973, sigma=0.515, rate=0.05)
    cfg = SimConfig(n_paths=400_000, master_seed=3)
    assert simulate_log_price(m, 0.0735, cfg).max() > np.log(np.finfo(float).max)
    put, call = (mc_price(m, OptionContract(style, 227.8, 0.0735), 100.0, 0.0, cfg)
                 for style in (OptionStyle.PUT, OptionStyle.CALL))
    assert put.price == 126.09594759196597
    assert call.price == pytest.approx(put.price + 100.0 - 227.8 * np.exp(-0.05 * 0.0735),
                                       abs=1e-9)
    for res, style in ((put, OptionStyle.PUT), (call, OptionStyle.CALL)):
        fourier = price_option(m, OptionContract(style, 227.8, 0.0735), 100.0).price
        assert abs(res.price - fourier) <= 3 * res.stderr


# Pinned (price, stderr) of the 2e5-path seed-26 estimates.  Call and put
# share one put-payoff array, so they share a stderr.
@pytest.mark.parametrize("mu, style, price, stderr", [
    (2.0, "call", 0.04598639362138335, 0.0001885999577971253),
    (2.0, "put", 0.07006180125113265, 0.0001885999577971253),
    (1.9, "call", 0.04683332198245882, 0.00019604418931765764),
    (1.9, "put", 0.07090872961220829, 0.00019604418931765764),
    (1.7, "call", 0.04862913681844172, 0.00021378889542183091),
    (1.7, "put", 0.07270454444819108, 0.00021378889542183091),
    (1.5, "call", 0.04998148308215189, 0.00023465116227640875),
    (1.5, "put", 0.07405689071190118, 0.00023465116227640875),
    (1.2, "call", 0.04910969471256599, 0.00027397825895250465),
    (1.2, "put", 0.07318510234231537, 0.00027397825895250465),
])
def test_mc_price_pinned_values(mu, style, price, stderr):
    c = OptionContract(OptionStyle(style), 1.05, 0.5)
    res = mc_price(make_1d_model(mu), c, 1.0, 0.0, SimConfig(n_paths=200_000, master_seed=26))
    assert (res.price, res.stderr) == (price, stderr)
    assert isinstance(res.price, float) and isinstance(res.stderr, float)
    assert res.estimator == ("direct" if style == "put" else "parity")
    assert not res.stderr_unstable
