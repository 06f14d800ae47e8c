"""Exact desk-scale simulator and verification suite for measurement-driven
preparation of G-injective PEPS on small torus lattices."""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BoundViolation,
    ConfigError,
    DimensionMismatch,
    DimensionOverflow,
    GPepsError,
    IncompleteIrrepSet,
    InvalidEpsilon,
    InvalidKappa,
    InvalidRepresentation,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NonCommutingTwist,
    SingularOnSymmetric,
    StateOutsideProjector,
    UnnormalizedWeights,
    ZeroMultiplicity,
    ZeroState,
)
from .groups import (
    DeltaMap,
    GroupTable,
    Irrep,
    SemiRegularRep,
    build_group,
    delta_map,
    irreps,
    load_group_document,
    regular_rep,
    rep_deviations,
    semi_regular_rep,
)
from .lattice import (
    BoundaryTwist,
    GroundProjector,
    StateVector,
    TorusLattice,
    contract_isometric_state,
    ground_projector,
    ground_projectors,
    load_state,
    partial_peps_state,
    projector_from_columns,
    save_state,
    twisted_states,
)
from .protocol import (
    FailureCurve,
    PreparedProtocol,
    ProtocolConfig,
    ProtocolTrace,
    analytic_pfail,
    curve_from_spectrum,
    estimate_repetitions,
    pfail_bound,
    prepare_protocol,
    run_protocol,
)
from .spectral import (
    JordanSpectrum,
    born_measure,
    jordan_decompose,
    verify_overlap_bound,
)
from .tensors import (
    Deformation,
    RegroupReport,
    SiteTensor,
    build_site_tensor,
    condition_number_on_symmetric,
    identity_deformation,
    random_deformation,
    verify_regroup_equivalence,
)
