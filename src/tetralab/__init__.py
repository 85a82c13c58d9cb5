"""tetralab: numerical verification of commuting contractive operator triples.

The library solves the fundamental operator equations attached to a
commuting triple (A, B, P) of contractions, builds the truncated
characteristic-function model for pure P, extracts the degree-one symbols
of invariant subspaces, and certifies the whole web of identities
connecting these objects as residual checks with explicit tolerances.
"""

from .matcore import (
    DEFAULT_POLICY,
    Defect,
    NotContractiveError,
    NotFiniteError,
    NotPSDError,
    ShapeError,
    SubspaceBasis,
    TetralabError,
    TolerancePolicy,
    commutator,
    defect,
    numerical_radius,
    op_norm,
)
from .report import CheckEntry, CheckReport
from .hardy import AnalyticSymbol, pencil, pencil_apply, symbol_product, toeplitz
from .triples import (
    NonCommutingError,
    NotCoinvariantError,
    PurityCertificate,
    TetrablockTriple,
    compress,
    from_symbols,
    is_pure,
    necessary_report,
    validate,
)
from .fundamental import (
    FundamentalPair,
    SolveFailedError,
    solve_fundamental,
    verify_commutator_transfer,
    verify_cross_relations,
    verify_difference_identity,
    verify_tetra_characterization,
)
from .charfn import (
    ModelData,
    NotPureError,
    build_model,
    kernel_identity_check,
    model_pencils,
    power_tail,
    pure_isometry_model,
    theta_coeffs,
    theta_eval,
    theta_taylor,
    verify_functional_model,
    verify_model_decomposition,
    verify_pencil_intertwining,
)
from .blh import (
    NotDegreeOneError,
    NotInnerError,
    extract_symbols,
    extraction_roundtrip,
    verify_isometry_propagation,
)
from .invariants import (
    CoincidenceWitness,
    NotIntertwiningError,
    induced_defect_unitary,
    unitary_invariant_suite,
    verify_coincidence,
    verify_fundamental_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matcore
    "DEFAULT_POLICY",
    "TolerancePolicy",
    "SubspaceBasis",
    "Defect",
    "TetralabError",
    "ShapeError",
    "NotFiniteError",
    "NotPSDError",
    "NotContractiveError",
    "commutator",
    "defect",
    "numerical_radius",
    "op_norm",
    # report
    "CheckEntry",
    "CheckReport",
    # hardy
    "AnalyticSymbol",
    "pencil",
    "pencil_apply",
    "symbol_product",
    "toeplitz",
    # triples
    "TetrablockTriple",
    "PurityCertificate",
    "NonCommutingError",
    "NotCoinvariantError",
    "validate",
    "necessary_report",
    "is_pure",
    "from_symbols",
    "compress",
    # fundamental
    "FundamentalPair",
    "SolveFailedError",
    "solve_fundamental",
    "verify_tetra_characterization",
    "verify_difference_identity",
    "verify_cross_relations",
    "verify_commutator_transfer",
    # charfn
    "ModelData",
    "NotPureError",
    "theta_taylor",
    "theta_coeffs",
    "theta_eval",
    "kernel_identity_check",
    "power_tail",
    "build_model",
    "model_pencils",
    "verify_model_decomposition",
    "verify_functional_model",
    "verify_pencil_intertwining",
    "pure_isometry_model",
    # blh
    "NotInnerError",
    "NotDegreeOneError",
    "extract_symbols",
    "extraction_roundtrip",
    "verify_isometry_propagation",
    # invariants
    "CoincidenceWitness",
    "NotIntertwiningError",
    "verify_coincidence",
    "induced_defect_unitary",
    "verify_fundamental_equivalence",
    "unitary_invariant_suite",
]
