import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gamma

from opstable import (
    DomainError,
    UnsupportedRegimeError,
    e_coefficient,
    hamiltonian_tail_integral,
    levy_density,
    s_coefficient,
    s_coefficient_levy,
    s_coefficient_truncated,
    stirling_first_kind,
    stirling_row,
)
from opstable.pde_coeffs import CoeffTable, e_coefficient_divergence_rate

from conftest import e_coefficient_series, make_1d_model


def enumeration_coefficient(n, k):
    """Oracle: signed sum over index subsets of {1, ..., k-1} (factorial cost)."""
    if n == k:
        return 1
    total = 0
    for subset in combinations(range(1, k), k - n):
        prod = 1
        for j in subset:
            prod *= j
        total += prod
    return (-1) ** (k - n) * total


def test_first_column_factorial():
    for k in range(1, 20):
        assert stirling_first_kind(1, k) == (-1) ** (k - 1) * math.factorial(k - 1)


def test_diagonal_is_one():
    for k in range(1, 30):
        assert stirling_first_kind(k, k) == 1


def test_literal_2_3():
    assert stirling_first_kind(2, 3) == -3


def test_rows_sum_to_zero_exactly():
    for k in range(2, 65):
        assert sum(stirling_row(k)) == 0


def test_recurrence_matches_enumeration():
    for k in range(1, 13):
        for n in range(1, k + 1):
            assert stirling_first_kind(n, k) == enumeration_coefficient(n, k)


def test_recurrence_relation_direct():
    for k in range(1, 40):
        for n in range(1, k + 2):
            prev = stirling_first_kind(n - 1, k) if 1 <= n - 1 <= k else 0
            same = stirling_first_kind(n, k) if n <= k else 0
            assert stirling_first_kind(n, k + 1) == prev - k * same


def test_index_domain_errors():
    with pytest.raises(DomainError):
        stirling_first_kind(3, 2)
    with pytest.raises(DomainError):
        stirling_first_kind(1, 65)


# --- binomial phi sums --------------------------------------------------------

def test_s0_vanishes(gaussian_model):
    assert s_coefficient(gaussian_model, 0) == 0


def test_gaussian_s_pattern():
    m = make_1d_model(2.0, phi=0.5, sigma=0.3)
    base = 0.5 * 0.3 ** 2
    assert s_coefficient(m, 1) == pytest.approx(-base, rel=1e-14)
    assert s_coefficient(m, 2) == pytest.approx(-2 * base, rel=1e-14)
    for n in range(3, 8):
        assert abs(s_coefficient(m, n)) <= 1e-12


def test_proposition1_equivalence_on_truncated_domain():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0)
    for n in range(2, 9):
        a = s_coefficient_truncated(m, n, 1e-4, 60.0)
        b = s_coefficient_levy(m, n, 1e-4, 60.0)
        assert a == pytest.approx(b, abs=1e-6)


# --- Levy density ---------------------------------------------------------------

def test_levy_density_reference_constant():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0)
    want = 1.0 / (gamma(-1.5) * 2 * np.cos(3 * np.pi / 4))
    assert levy_density(m, 1.0) == pytest.approx(want, rel=1e-14)


def test_levy_density_power_scaling():
    m = make_1d_model(1.5, phi=0.7, sigma=0.8)
    assert levy_density(m, 2.0) == pytest.approx(2.0 ** -2.5 * levy_density(m, 1.0), rel=1e-14)


def test_levy_density_continuous_through_exponent_one():
    vals = [levy_density(make_1d_model(mu, phi=1.0, sigma=1.0), 1.0)
            for mu in (0.98, 0.999, 1.0, 1.001, 1.02)]
    # the cos pole cancels against the Gamma pole; the limit value is
    # -sin(pi/2) Gamma(2) / pi = -1/pi
    assert vals[2] == pytest.approx(-1 / np.pi, rel=1e-14)
    assert np.max(np.abs(np.diff(vals))) < 0.05


def test_levy_density_compensated_laplace_trend():
    # numerical Laplace-transform oracle on the origin-compensated variant:
    # int (e^{-z xi} - 1 + z xi) phi_tilde(xi) dxi converges and reproduces
    # the continued power law phi sigma^eta z^eta / (2 cos(pi eta / 2))
    from scipy.integrate import quad

    eta, phi, sig = 1.5, 0.7, 0.9
    m = make_1d_model(eta, phi=phi, sigma=sig)
    hi = 400.0
    tail_const = levy_density(m, 1.0)  # phi_tilde(xi) = tail_const * xi^(-eta-1)

    def compensated(z):
        # substitution xi = y^2 removes the endpoint singularity for scipy;
        # the slowly decaying (z xi - 1) tail beyond `hi` is attached exactly
        f = lambda y: (np.expm1(-z * y * y) + z * y * y) * levy_density(m, y * y) * 2 * y
        val, _ = quad(f, 1e-8, np.sqrt(hi), limit=800)
        tail = tail_const * (z * hi ** (1 - eta) / (eta - 1) - hi ** -eta / eta)
        return val + tail

    for z in (1.0, 2.0):
        want = phi * sig ** eta * z ** eta / (2 * np.cos(np.pi * eta / 2))
        assert compensated(z) == pytest.approx(want, rel=1e-6)
    # and the z^eta trend directly
    assert compensated(4.0) / compensated(2.0) == pytest.approx(2 ** eta, rel=1e-6)


def test_levy_density_rejects_gaussian_exponent():
    with pytest.raises(UnsupportedRegimeError):
        levy_density(make_1d_model(2.0), 1.0)


def test_levy_density_domain():
    with pytest.raises(DomainError):
        levy_density(make_1d_model(1.5), 0.0)


# --- truncated moment coefficients ----------------------------------------------

def test_e1_small_xi_is_integrable():
    # independent oracle: substitution x = y^2 removes the sqrt singularity
    from scipy.integrate import quad
    m = make_1d_model(1.5, phi=1.0, sigma=1.0)
    const = -np.sin(np.pi * 1.5 / 2) * gamma(2.5) / np.pi

    def f(x):
        return -(np.expm1(-x) + x) * const * x ** -2.5

    ref, _ = quad(lambda y: f(y * y) * 2 * y, 1e-6, np.sqrt(10.0), limit=400)
    head = -const * sum((-1.0) ** mm / math.factorial(mm) * (1e-12) ** (mm - 1.5) / (mm - 1.5)
                        for mm in range(2, 10))
    assert e_coefficient(m, 1, 10.0) == pytest.approx(ref + head, rel=1e-9)


def test_en_power_law_closed_form():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0)
    const = -np.sin(np.pi * 1.5 / 2) * gamma(2.5) / np.pi
    for n, cutoff in ((2, 10.0), (3, 10.0), (3, 20.0)):
        exact = (-1.0) ** n * const * cutoff ** (n - 1.5) / ((n - 1.5) * math.factorial(n))
        assert e_coefficient(m, n, cutoff) == pytest.approx(exact, rel=1e-12)


def test_cutoff_doubling_growth_rate():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0)
    ratio = e_coefficient(m, 3, 2000.0) / e_coefficient(m, 3, 1000.0)
    assert ratio == pytest.approx(2 ** 1.5, rel=1e-6)
    assert e_coefficient_divergence_rate(m, 3) == pytest.approx(1.5)


def test_gaussian_series_resummation():
    m = make_1d_model(2.0, phi=0.5, sigma=0.3)
    base = 0.5 * 0.3 ** 2
    assert e_coefficient_series(m, 1, k_max=8) == pytest.approx(base, rel=1e-12)
    assert e_coefficient_series(m, 2, k_max=8) == pytest.approx(-base, rel=1e-12)
    for n in (3, 4):
        assert abs(e_coefficient_series(m, n, k_max=8)) <= 1e-12


def test_resummed_hamiltonian_integral_cutoff_stable():
    m = make_1d_model(1.5, phi=1.0, sigma=1.0)
    for k in (0.3, 1.3, 2.7):
        a = hamiltonian_tail_integral(m, k, cutoff=300.0)
        b = hamiltonian_tail_integral(m, k, cutoff=600.0)
        assert abs(a - b) <= 1e-8


def test_coeff_table_build(gaussian_model):
    table = CoeffTable.build(gaussian_model, k_max=6, truncation=40.0, n_e=3)
    assert table.a[3] == [2, -3, 1]
    assert len(table.s_values) == 7
    assert len(table.e_values) == 3
