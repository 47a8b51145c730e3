"""shiftlab: numerics for weighted backward shift dynamics on l^p spaces.

The package has three layers:

* ``seqspace``:   exact finitely supported l^p vectors, weight-sequence
                  generators, and the weighted backward shift itself.
* ``conjugacy``:  the nonlinear homeomorphisms that conjugate one constant
                  weighted shift to another, plus residual certification.
* ``dynamics``:   chaotic / mixing / transitive classification through the
                  running weight product, example operators, orbit traces.

``shiftlab.cli`` exposes all of it as a command line tool.
"""

from .seqspace import (
    BalancedBlocks,
    Constant,
    Explicit,
    FinSeqVector,
    PowerLawBeta,
    RangeError,
    ShiftOperator,
    WeightSequence,
    apply_shift,
    check_exponent,
    log_abs_beta,
    lp_norm,
    max_coord_diff,
    random_vectors,
    scale,
    subtract,
    tail_power_sums,
    vector_from_dict,
    vector_to_dict,
    weight_at,
    weight_bound,
    weights_from_dict,
    weights_to_dict,
)
from .conjugacy import (
    ClassMismatchError,
    ConjugacyMap,
    DiagStep,
    GStep,
    HStep,
    ResidualReport,
    build_conjugator,
    chi,
    conjugacy_class_decision,
    conjugacy_residual,
    diag_similarity,
    g_map,
    h_map,
    map_from_dict,
    map_to_dict,
)
from .dynamics import (
    Confidence,
    DynamicsLabel,
    DynamicsVerdict,
    HorizonEvidence,
    OrbitTrace,
    beta_profile,
    classify,
    escape_demo,
    example3_point,
    make_example,
    orbit_norms,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # seqspace
    "RangeError",
    "check_exponent",
    "FinSeqVector",
    "Constant",
    "Explicit",
    "BalancedBlocks",
    "PowerLawBeta",
    "WeightSequence",
    "ShiftOperator",
    "weight_at",
    "weight_bound",
    "log_abs_beta",
    "lp_norm",
    "tail_power_sums",
    "apply_shift",
    "scale",
    "subtract",
    "max_coord_diff",
    "random_vectors",
    "vector_to_dict",
    "vector_from_dict",
    "weights_to_dict",
    "weights_from_dict",
    # conjugacy
    "chi",
    "ClassMismatchError",
    "HStep",
    "GStep",
    "DiagStep",
    "ConjugacyMap",
    "h_map",
    "g_map",
    "diag_similarity",
    "build_conjugator",
    "conjugacy_class_decision",
    "conjugacy_residual",
    "ResidualReport",
    "map_to_dict",
    "map_from_dict",
    # dynamics
    "DynamicsLabel",
    "Confidence",
    "HorizonEvidence",
    "DynamicsVerdict",
    "OrbitTrace",
    "beta_profile",
    "classify",
    "make_example",
    "example3_point",
    "orbit_norms",
    "escape_demo",
]
