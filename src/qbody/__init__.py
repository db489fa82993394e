"""Geometry of the minimal-scenario quantum correlation body.

The package computes with the convex body of quantum-realizable
correlation 4-tuples: membership by several independent characterizations,
boundary stratification, support/gauge duality, explicit quantum models,
and Monte-Carlo measures.  See the module docstrings for the mathematical
conventions; :mod:`qbody.cli` exposes everything on the command line.
"""

from .core import (
    AmbiguousClassification,
    AngleSumViolation,
    BadWeights,
    ConsistencyError,
    Correlation,
    DEFAULT_TOLERANCE,
    DegenerateAngles,
    DimensionTooLarge,
    DualPolys,
    Functional,
    InputOutsideCube,
    InvalidModel,
    InvalidSlice,
    NotExtreme,
    NotPSD,
    OutsideTetrahedron,
    PrimalPolys,
    QBodyError,
    Tolerance,
    TransformDirection,
    ZeroFunctional,
    chsh_values,
    dual_polys,
    dual_transform,
    orbit,
    primal_polys,
    symmetry_group,
)
from .membership import (
    MembershipVerdict,
    Oracle,
    PushDirection,
    member,
    member_classical,
    pushout,
)
from .boundary import (
    AngleTuple,
    Completion,
    CompletionResult,
    ExtremePoint,
    GramSystem,
    RANK_BY_STRATUM,
    Stratum,
    angles_from_point,
    classify,
    exposing_functional,
    extreme_from_angles,
    gram_vectors,
    solve_completion,
)
from .duality import (
    CaseVerdict,
    DualCompletion,
    DualCompletionResult,
    NCYCLE_RESIDUAL_NAMES,
    dual_completion,
    dual_member,
    gauge,
    ncycle_residuals,
    phi_map,
    quantum_case,
    support,
)
from .quantum import (
    QuantumModel,
    SelfTestReport,
    build_model,
    clifford_model,
    correlations_of,
    mixture_model,
    selftest_residuals,
)
from .measures import (
    Body,
    SampleTarget,
    SamplerConfig,
    SliceSpec,
    SliceTable,
    VolumeEstimate,
    mc_volume,
    sample,
    slice_grid,
)

__version__ = "0.1.0"
