"""Option pricing and moment analysis for operator-stable Levy log-price models."""

from .charfn import (
    ConstantAngular,
    ContinuationMode,
    DirectionalPair,
    EigenWeightAngular,
    LogCharFn,
    MarketModel,
    SampledAngular,
    char_fn,
    density,
    log_cf,
    log_cf_complex,
    log_cf_imag,
)
from .errors import (
    AccuracyError,
    AccuracyWarning,
    DivergentIntegrandError,
    DomainError,
    ModelValidationError,
    MomentInfiniteError,
    NonConvergenceError,
    NumericalError,
    OpstableError,
    PoleError,
    UnsupportedRegimeError,
)
from .mc_oracle import McResult, Measure, SimConfig, mc_price, sample_stable, simulate_log_price
from .moments import (
    KernelParams,
    fractional_moment,
    moment_prefactor,
    power_kernel,
    power_marginal_cf,
)
from .pde_coeffs import (
    CoeffTable,
    e_coefficient,
    hamiltonian_tail_integral,
    levy_density,
    s_coefficient,
    s_coefficient_levy,
    s_coefficient_truncated,
    stirling_first_kind,
    stirling_row,
)
from .pricer import (
    HedgeResult,
    OptionContract,
    OptionStyle,
    PayoffTransform,
    PriceReport,
    black_scholes_price,
    hamiltonian,
    hedge_and_portfolio,
    m_factors,
    n_factor,
    payoff_transform,
    price_option,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .stable_index import Regime, StableIndex, jurek_decompose, matrix_power

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
