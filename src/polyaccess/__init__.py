"""Accessibility analysis of polynomial control-affine systems: singular
sets as algebraic varieties, exact accessibility indices, and certified
upper bounds, all over exact rational arithmetic."""

from .analysis import (
    AnalysisReport,
    ChainRecord,
    ChainResult,
    GenericTestResult,
    SampleDiagnostics,
    bound_analysis,
    closure_singular_analysis,
    exact_index_analysis,
    generic_test,
    planar_depth_bound,
    rank_l_analysis,
    sample_check,
    stabilize_chain,
    strong_analysis,
)
from .errors import CapReached, ClosureError, ParseError
from .ideals import (
    Ideal,
    InvarianceResult,
    Unsupported,
    ideal_intersect,
    ideal_sum,
    in_radical,
    invariant_closure,
    is_invariant,
    real_radical_restricted,
)
from .immersion import (
    AnalyticSystem,
    Entry,
    ImmersedSystem,
    ImmersionMap,
    derive_immersed,
    pull_back_singular,
    vanishing_coordinates,
    verify_immersion,
)
from .minors import (
    FieldMatrix,
    build_matrix,
    generic_rank,
    minor_ideal,
    rational_rank,
)
from .modules import PolySubmodule
from .poly import Polynomial, VarTable, parse_polynomial
from .systemfile import ParsedFile, parse_file, render_file
from .vectorfields import (
    SystemSpec,
    VectorField,
    lie_bracket,
    lie_derivative,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "AnalyticSystem",
    "CapReached",
    "ChainRecord",
    "ChainResult",
    "ClosureError",
    "Entry",
    "FieldMatrix",
    "GenericTestResult",
    "Ideal",
    "ImmersedSystem",
    "ImmersionMap",
    "InvarianceResult",
    "ParseError",
    "ParsedFile",
    "PolySubmodule",
    "Polynomial",
    "SampleDiagnostics",
    "SystemSpec",
    "Unsupported",
    "VarTable",
    "VectorField",
    "bound_analysis",
    "build_matrix",
    "closure_singular_analysis",
    "derive_immersed",
    "exact_index_analysis",
    "generic_rank",
    "generic_test",
    "ideal_intersect",
    "ideal_sum",
    "in_radical",
    "invariant_closure",
    "is_invariant",
    "lie_bracket",
    "lie_derivative",
    "minor_ideal",
    "parse_file",
    "parse_polynomial",
    "planar_depth_bound",
    "pull_back_singular",
    "rank_l_analysis",
    "rational_rank",
    "real_radical_restricted",
    "render_file",
    "sample_check",
    "stabilize_chain",
    "strong_analysis",
    "vanishing_coordinates",
    "verify_immersion",
]
