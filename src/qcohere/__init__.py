"""Coherence measures from concave simplex functions and optimal
pure-state conversion under incoherent operations."""

from .channels import (
    Branch,
    IncoherenceWitness,
    KrausSet,
    apply_channel,
    apply_selective,
    compose,
    is_complete,
    is_incoherent,
    kraus_set,
)
from .conversion import (
    ConversionLadder,
    Protocol,
    ProtocolReport,
    build_ladder,
    conversion_probability,
    deterministic_protocol,
    filter_operator,
    multicopy_probability,
    optimal_protocol,
    two_level_step,
    verify_protocol,
)
from .errors import (
    CompletenessError,
    DensityMatrixError,
    DimensionMismatchError,
    FileFormatError,
    IncoherenceError,
    InfeasibleStepError,
    MajorizationError,
    NoLadderError,
    NormalizationError,
    ParameterError,
    QcohereError,
    ResourceLimitError,
)
from .fileio import (
    load_channel,
    load_density,
    load_protocol,
    load_state,
    save_channel,
    save_density,
    save_ensemble,
    save_protocol,
    save_state,
)
from .measures import (
    CoherenceFunctional,
    RoofResult,
    ValidationReport,
    builtin,
    coherence_pure,
    convex_roof_upper,
    extract_functional,
    validate_functional,
)
from .simplex import (
    TTransform,
    apply_chain,
    majorizes,
    prob_vector,
    sorted_desc,
    tail_sum,
    ttransform_chain,
)
from .states import (
    Canonicalization,
    canonicalize,
    check_density,
    fidelity_pure,
    pure_density,
    pure_state,
    squared_amplitudes,
    support_size,
    tensor_power,
)

__version__ = "0.1.0"
