"""Poincare series over real quadratic fields, with numerical Fourier
coefficient extraction, orthogonality sweeps, non-vanishing certificates,
and an independent classical (F = Q) oracle."""

from .qfield import (
    DualIndex,
    FieldElement,
    IdealHNF,
    QFieldError,
    RealQuadraticField,
    codifferent_gen,
    complete_pair,
    fundamental_unit,
    ideal_from_gen,
    ideal_from_gens,
    is_totally_positive,
    is_unimodular_pair,
    make_field,
    trace_one_totally_positive,
)
from .hpoincare import (
    CosetRep,
    EvalResult,
    EvaluationError,
    PoincareSpec,
    TruncationLimitExceeded,
    TruncationPolicy,
    Weight,
    automorphy_factor,
    enumerate_cosets,
    evaluate,
    modularity_defect,
    term,
)
from .fourier import (
    AliasingError,
    CoefficientEstimate,
    PoincareEvaluand,
    SamplingDomain,
    SyntheticEvaluand,
    extract_coefficient,
    extract_many,
    y_independence_check,
)
from .experiments import (
    Certificate,
    SweepAxis,
    SweepReport,
    SweepRow,
    TrendThresholds,
    Verdict,
    certify_nonvanishing,
    sweep_level,
    sweep_to_csv,
    sweep_to_json,
    sweep_weight,
)
from .classical import (
    ClassicalError,
    ClassicalParams,
    PeterssonResult,
    QuadraturePolicy,
    bessel_j,
    classical_poincare_coefficient_by_quadrature,
    delta_coefficients,
    kloosterman,
    nonvanishing_range_scan,
    normalized_coefficient,
    petersson_coefficient,
)

__version__ = "0.1.0"
