import numpy as np
import pytest

from opstable import (
    ConstantAngular,
    ContinuationMode,
    DirectionalPair,
    EigenWeightAngular,
    LogCharFn,
    MarketModel,
    StableIndex,
)
from opstable.errors import NonConvergenceError


def make_1d_model(mu, phi=0.5, sigma=0.2, rate=0.05, alpha=0.03,
                  mode=ContinuationMode.REAL_PART, epsilon=0.0):
    return MarketModel(
        alpha=alpha,
        sigma=[sigma],
        rate=rate,
        index=StableIndex.pure_scaling(1, mu),
        logcf=LogCharFn(DirectionalPair(phi, phi), epsilon=epsilon, continuation=mode),
    )


def make_rotation_model(mu=0.8, b=0.3, phi=0.6, sigma=(0.5, 0.4), rate=0.02):
    return MarketModel(
        alpha=0.0,
        sigma=list(sigma),
        rate=rate,
        index=StableIndex.scaling_rotation(mu, b),
        logcf=LogCharFn(ConstantAngular(phi)),
    )


def make_generic_index(thetas=(0.6, 0.8)):
    # real distinct eigenvalues with an orthogonal (rotation) eigenbasis
    c, s = np.cos(0.4), np.sin(0.4)
    basis = np.array([[c, -s], [s, c]], dtype=complex)
    return StableIndex.generic([complex(t) for t in thetas], basis)


def make_generic_model(thetas=(0.6, 0.8), weights=(0.7, 0.5), sigma=(0.8, 0.6), rate=0.0):
    index = make_generic_index(thetas)
    angular = EigenWeightAngular(
        weights=np.asarray(weights, dtype=float),
        tail_indices=1.0 / np.array([t.real for t in index.eigenvalues]),
        basis=index.eigenbasis,
    )
    return MarketModel(alpha=0.0, sigma=list(sigma), rate=rate, index=index,
                       logcf=LogCharFn(angular))


def make_spiral_index(theta=0.7, upsilon=0.35):
    # conjugate eigenvalue pair with a unitary (complex) eigenbasis
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    basis = np.column_stack([v, v.conj()])
    return StableIndex.generic([theta + 1j * upsilon, theta - 1j * upsilon], basis)


def scalar_periodic_average(f, n_nodes=1024, doubling_tol=1e-10):
    """Reference sphere average: one scalar call per node, on two separate grids."""
    def avg(n):
        xs = np.arange(n) * (2.0 * np.pi / n)
        return np.mean([f(x) for x in xs], axis=0)

    coarse = avg(n_nodes)
    fine = avg(2 * n_nodes)
    if abs(fine - coarse) > doubling_tol * max(1.0, abs(fine)):
        raise NonConvergenceError(
            f"periodic average moved by {abs(fine - coarse):.3e} under node doubling"
        )
    return fine


@pytest.fixture
def gaussian_model():
    return make_1d_model(2.0)


@pytest.fixture
def stable_model_17():
    return make_1d_model(1.7)
