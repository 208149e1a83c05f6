"""Triangulated circle bundles over finite semi-simplicial bases.

Bundles are carried by local systems of necklaces; minimal bundles
correspond to binary 2-cocycles, spindle contraction reduces any bundle
to a minimal one, and prescribed Chern numbers are realized over closed
oriented surfaces.  Everything is exact integer arithmetic, verified by
the integral homology of assembled total spaces.
"""

from .errors import (
    BeadNotFound,
    BoundExceeded,
    DanglingReference,
    EnumerationBound,
    IncoherentLocalSystem,
    IncompatibleFamily,
    InvalidComplex,
    LastArc,
    LastColor,
    MalformedFile,
    MismatchedCarriers,
    NonOrientable,
    NotACocycle,
    NotBinary,
    NotClosedSurface,
    ScbError,
)
from .simplicial import (
    NAMED_BASES,
    SemiSimplicialSet,
    boundary_sphere,
    closure,
    delta_torus,
    grid_torus,
    named_base,
    octahedron_sphere,
    standard_simplex,
)
from .homology import (
    FundamentalClass,
    HomologyGroups,
    IntCochain,
    IntMatrix,
    SmithForm,
    boundary_matrix,
    chain_homology,
    coboundary,
    cochain_from_json_dict,
    cochain_to_json_dict,
    cohomologous,
    fundamental_class,
    homology_groups,
    smith_normal_form,
)
from .cyclic import (
    CircularPermutation,
    Necklace,
    c01,
    enumerate_sc,
    kan_lifts,
    kan_survey,
    sc_normalized_homology,
)
from .bundle import (
    AssembledBundle,
    MinimalBundle,
    NecklaceLocalSystem,
    SingularProjection,
    assemble,
    bundle_from_json_dict,
    bundle_to_json_dict,
    chern_number,
    check_projection_naturality,
    minimal_from_cocycle,
    total_to_json_dict,
)
from .spindle import (
    ArcSelection,
    chern_cocycle_general,
    contract,
    default_selection,
    minimize,
    subdivide,
    validate_selection,
)
from .surface import (
    SurfaceOrientationData,
    build_surface_bundle,
    cocycle_for_chern,
    parity_check,
)

__version__ = "0.1.0"
