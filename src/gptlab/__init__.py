"""gptlab: exact convex-polytope state spaces for probabilistic theories.

State spaces are polytopes over exact rationals with a unit effect; the
library builds their composites (direct sum, minimal tensor product),
decomposes them into irreducible summands, computes their reversible
symmetry groups and face lattices, and mechanically checks the structure of
locally reversible interactions: partial broadcasters, non-disturbing
measurements, triviality on non-classical composites, simplex
factorizations of transitive decomposable spaces, and blockwise conditional
form on classical labels.
"""

from .arith import Context, EXACT, float_context
from .config import BudgetExceededError, Budgets, DEFAULT_BUDGETS
from .decompose import (
    ClassicalSubsystem,
    Component,
    Decomposition,
    Isomorphism,
    NotTransitiveError,
    classical_subsystem,
    component_indicator_effects,
    has_classical_dof,
    irreducible_components,
    spaces_isomorphic,
)
from .dynamics import (
    FaceAutomorphism,
    ReversibleMap,
    SymmetryGroup,
    as_reversible_map,
    induced_face_automorphism,
    is_reversible_map,
    is_transitive,
    orbits,
    reversible_maps,
    vertex_permutation,
)
from .runner import RunConfig, execute
from .geometry import Face, FaceLattice, face_lattice, in_hull, is_face, join
from .interactions import (
    BlockStructure,
    FMap,
    LriEnumeration,
    LriWitness,
    MeasurementFamily,
    NormalizationError,
    NotNondisturbingError,
    PartialBroadcaster,
    StructuralFailureError,
    Theorem2Report,
    broadcast_f_map,
    cnot_map,
    conditional_structure,
    controlled_map,
    enumerate_lris,
    extract_decomposition,
    is_trivial_lri,
    lri_decompose,
    nondisturbing_measurement,
    partial_broadcaster,
    partial_broadcaster_mirrored,
    product_map,
    swap_map,
    verify_theorem2,
)
from .linalg import Matrix
from .report import Report, REPORT_SCHEMA, validate_report
from .scenario import ParseError, ScenarioAst, parse, print_ast
from .statespace import (
    Effect,
    State,
    StateSpace,
    check_distributivity,
    cross,
    cube,
    direct_sum,
    extremal_effects,
    gbit,
    is_entangled,
    make_space,
    marginal,
    min_tensor,
    point,
    pr_box_state,
    product_decompose,
    simplex,
    space_from_json,
    space_to_json,
    transformed,
    unit_effect,
    zero_effect,
)

__version__ = "0.1.0"
