"""Hybrid classical-quantum codes: construction, error detectability,
correctability, measurement simulation, and weight distributions.

A code with parameters ((n, K:M))_q stores M mutually orthogonal
K dimensional subspaces of the q^n dimensional space; it carries one of
M classical messages together with a K dimensional quantum state.
"""

from .linalg import (
    DegreeOverflowError,
    DimensionMismatchError,
    GuardExceededError,
    numeric_rank,
    orthonormalize,
    poly_substitute_macwilliams,
)
from .error_basis import (
    PauliElement,
    WeightedPauliSet,
    apply_to_state,
    enumerate_weight,
    format_element,
    parse_element,
)
from .code_model import (
    CodeFileError,
    DimensionError,
    HybridCode,
    InvariantError,
    MalformedDocumentError,
    StabilizerSpec,
    ValidationReport,
    encode,
    from_stabilizer,
    parse_code_file,
    serialize_code,
    validate,
)
from .detection import (
    EPSILON_LABEL,
    DetectabilityReport,
    MeasurementOutcome,
    NotDetectableError,
    TransmissionTally,
    all_detectable_of_weight,
    block_tensors,
    block_violations,
    detectability,
    detectable_column,
    detectable_dimension_formula,
    detectable_dimension_numeric,
    error_block_tensor,
    is_correctable_set,
    measure,
    operator_system_decompose,
    simulate_transmission,
)
from .enumerators import (
    IdentityReport,
    SumRules,
    WeightDistribution,
    compute_distributions,
    detection_distance,
    equal_weights,
    macwilliams_of_a,
    projector_distributions,
    snap_to_rationals,
    sum_rules,
    verify_identities,
    weights_a,
    weights_b,
)

__version__ = "0.1.0"
