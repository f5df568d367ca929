import numpy as np
import pytest

from opstable import (
    DomainError,
    ModelValidationError,
    StableIndex,
    UnsupportedRegimeError,
    jurek_decompose,
    matrix_power,
)

from conftest import make_generic_index, make_spiral_index


def series_matrix_power(index, r, terms=40):
    """Independent oracle: truncated exponential series of E^T log r."""
    a = index.transpose_exponent() * np.log(r)
    out = np.eye(index.dimension)
    term = np.eye(index.dimension)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    return out


def test_diagonal_exponent_power_is_scalar():
    idx = StableIndex.pure_scaling(2, 1.0)  # E = 0.5 I
    assert np.allclose(matrix_power(idx, 4.0), 2.0 * np.eye(2), atol=1e-14)


@pytest.mark.parametrize("index_factory", [
    lambda: StableIndex.pure_scaling(3, 0.5),
    lambda: StableIndex.scaling_rotation(0.75, 0.4),
    make_generic_index,
    make_spiral_index,
])
def test_power_at_one_is_identity(index_factory):
    idx = index_factory()
    assert np.allclose(matrix_power(idx, 1.0), np.eye(idx.dimension), atol=1e-14)


def test_generic_power_matches_series_oracle():
    rng = np.random.RandomState(3)
    v1 = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    basis = np.column_stack([v1, v1.conj(), [0, 0, 1.0]])
    idx = StableIndex.generic([0.55 + 0.3j, 0.55 - 0.3j, 0.8], basis)
    for r in (2.5, 0.3, 7.0):
        got = matrix_power(idx, r)
        want = series_matrix_power(idx, r)
        assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("index_factory", [
    lambda: StableIndex.pure_scaling(2, 0.9),
    lambda: StableIndex.scaling_rotation(0.6, -0.8),
    make_generic_index,
    make_spiral_index,
])
def test_power_group_law(index_factory):
    idx = index_factory()
    rng = np.random.RandomState(11)
    for _ in range(50):
        r, s = 10 ** rng.uniform(-2, 2, 2)
        lhs = matrix_power(idx, r * s)
        rhs = matrix_power(idx, r) @ matrix_power(idx, s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_pure_scaling_jurek_literals():
    idx = StableIndex.pure_scaling(1, 1.5)
    k = np.array([3.0])
    radius, angle = jurek_decompose(idx, k)
    assert radius == pytest.approx(3.0 ** 1.5, rel=1e-14)
    assert angle == pytest.approx([1.0])


@pytest.mark.parametrize("index_factory", [
    lambda: StableIndex.pure_scaling(2, 0.9),
    lambda: StableIndex.scaling_rotation(0.6, 0.8),
    make_generic_index,
    make_spiral_index,
])
def test_unit_sphere_is_fixed(index_factory):
    idx = index_factory()
    rng = np.random.RandomState(5)
    k = rng.standard_normal(idx.dimension)
    k /= np.linalg.norm(k)
    radius, angle = jurek_decompose(idx, k)
    assert radius == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(angle, k, atol=1e-12)


@pytest.mark.parametrize("index_factory", [
    lambda: StableIndex.pure_scaling(3, 0.5),
    lambda: StableIndex.scaling_rotation(0.75, 0.4),
    make_generic_index,
    make_spiral_index,
])
def test_jurek_recomposition_identity(index_factory):
    idx = index_factory()
    rng = np.random.RandomState(17)
    for _ in range(1000):
        k = rng.standard_normal(idx.dimension) * 10 ** rng.uniform(-18, 15)
        if np.linalg.norm(k) == 0:
            continue
        radius, angle = jurek_decompose(idx, k)
        assert abs(np.linalg.norm(angle) - 1.0) <= 1e-12
        rec = matrix_power(idx, radius) @ angle
        assert np.linalg.norm(rec - k) <= 1e-10 * np.linalg.norm(k)


def test_eigenvector_aligned_radius_is_power_law():
    idx = make_generic_index(thetas=(0.6, 0.8))
    # second eigenvector (theta = 0.8) in the rotated orthogonal basis
    direction = idx.eigenbasis.real[:, 1]
    k = 2.7 * direction
    radius, _ = jurek_decompose(idx, k)
    assert radius == pytest.approx(2.7 ** (1.0 / 0.8), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_generic_extreme_vectors():
    # real parts 0.1 and 1.5 on the standard basis.  At k = (1e-30, 0) the
    # second factor exp(1.5 * 690.8) overflows and meets a zero component; at
    # k = (1e-30, 1e-320) the subnormal component sets r = c^(1/1.5) and its
    # factor exp(736.8) overflows; at k = (1e40, 0) the radius e^921 is past
    # the float range
    idx = StableIndex.generic([0.1, 1.5], np.eye(2))
    radius, angle = jurek_decompose(idx, [1e-30, 0.0])
    assert radius == pytest.approx(1e-300, rel=1e-12)
    assert angle == pytest.approx([1.0, 0.0], rel=1e-12)
    radius, angle = jurek_decompose(idx, [1e-30, 1e-320])
    assert radius == pytest.approx(1e-320 ** (1 / 1.5), rel=1e-12)
    assert angle[1] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        jurek_decompose(idx, [1e40, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index_factory", [
    lambda: StableIndex.pure_scaling(2, 0.25),
    lambda: StableIndex.scaling_rotation(0.25, 0.4),
])
@pytest.mark.parametrize("k, norm", [([1e-200, 1e-200], np.sqrt(2.0) * 1e-200),
                                     ([1e300, 1e300], np.sqrt(2.0) * 1e300),
                                     ([1e-320, 0.0], 1e-320)])
def test_closed_form_extreme_vectors(index_factory, k, norm):
    # |k| is taken without squaring k, so it neither under- nor overflows
    # where |k|^0.5 is well inside the float range
    idx = index_factory()
    radius, angle = jurek_decompose(idx, k)
    assert radius == pytest.approx(norm ** 0.5, rel=1e-12)
    assert abs(np.linalg.norm(angle) - 1.0) <= 1e-12
    rec = matrix_power(idx, radius) @ angle
    assert np.max(np.abs(rec - k)) <= 1e-10 * max(k)


@pytest.mark.filterwarnings("error")
def test_closed_form_radius_past_the_float_range():
    idx = StableIndex.pure_scaling(2, 0.9)
    radius, angle = jurek_decompose(idx, [1e-200, 1e-200])
    assert radius == 0.0  # (sqrt(2) 1e-200)^1.8 underflows
    assert angle == pytest.approx([2 ** -0.5, 2 ** -0.5], rel=1e-15)
    with pytest.raises(DomainError, match="overflows"):
        jurek_decompose(idx, [1e300, 1e300])


def test_zero_vector_rejected():
    idx = StableIndex.pure_scaling(2, 0.9)
    with pytest.raises(DomainError):
        jurek_decompose(idx, np.zeros(2))


def test_nonpositive_power_rejected():
    idx = StableIndex.pure_scaling(2, 0.9)
    with pytest.raises(DomainError):
        matrix_power(idx, 0.0)


def test_repeated_eigenvalues_rejected():
    with pytest.raises(UnsupportedRegimeError):
        StableIndex.generic([0.7, 0.7], np.eye(2, dtype=complex))


def test_stability_bound_enforced():
    with pytest.raises(ModelValidationError):
        StableIndex.pure_scaling(1, 2.5)
    with pytest.raises(ModelValidationError):
        StableIndex.scaling_rotation(1.2, 0.1)


def test_non_unitary_basis_rejected():
    basis = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ModelValidationError):
        StableIndex.generic([0.6, 0.8], basis)


def test_nonpositive_real_parts_rejected():
    with pytest.raises(ModelValidationError):
        StableIndex.generic([-0.2, 0.8], np.eye(2, dtype=complex))
