"""Solver and simulator for competitive data-acquisition markets.

Multiple aggregators buy noisy function samples from shared strategic
sources through quadratic-penalty contracts; because data is freely copied,
every coupled contract lets rivals free-ride.  This package derives the
contract parameters from separable regression estimators, solves for the
generalized Nash equilibria of the aggregator game (unique quality weights,
a polytope of constant terms), certifies solutions, and measures the social
inefficiency the coupling causes.
"""

from .effort import (
    CustomVariance,
    EffortMap,
    EffortSet,
    EffortVarianceModel,
    ExponentialVariance,
    IncentiveBounds,
    InversePowerVariance,
    effort_response,
    effort_response_derivative,
    exponential_model,
    incentive_bounds,
    inverse_power_model,
    variance_at,
)
from .equilibrium import (
    AParameters,
    AlphaPoint,
    CertificateReport,
    EquilibriumResult,
    IdTable,
    PolytopeTable,
    SolveDiagnostics,
    SourcePolytope,
    alpha_sweep,
    best_response_residual,
    branch_profile,
    canonical_c,
    certify_equilibrium,
    polytope_membership,
    solve_bounded,
    solve_unbounded,
    spectral_radius,
)
from .errors import (
    DataMarketError,
    DomainError,
    GenerationError,
    IllDefinedEstimatorError,
    IllDefinedPaymentError,
    IncentiveRangeError,
    InfeasibleSpecError,
    NonConvergenceError,
    NumericalFailureError,
    ParseError,
    ScenarioValidationError,
    ShapeError,
    SolverError,
)
from .estimators import (
    EstimatorSpec,
    QueryDistribution,
    SeparabilityReport,
    g_value,
    ols_coefficients,
    point_mass,
    validate_separability,
)
from .market import (
    AggregatorSpec,
    DataSourceSpec,
    DerivedParameters,
    GroundTruth,
    MarketScenario,
    ValidationReport,
    Violation,
    derive_beta,
    derive_gamma,
    derive_parameters,
    derive_xi,
    validate_scenario,
)
from .results import (
    result_from_json,
    result_to_json,
    welfare_to_json,
)
from .scenario import (
    GenerationSpec,
    generate_scenario,
    parse_scenario,
    serialize_scenario,
)
from .simulate import (
    MarketRound,
    PaymentStats,
    iter_rounds,
    payment_statistics,
    simulate_round,
)
from .welfare import (
    WelfareReport,
    efficiency_predicate,
    optimal_efforts,
    price_of_anarchy,
    social_cost,
)

__version__ = "0.1.0"
