"""Edge-biregular maps: construction, analysis, and exhaustive classification.

An edge-biregular map is a finite group with four marked involutions
(x, y, s, t) satisfying (xy)^2 = (st)^2 = 1 and generating the group; it
encodes a map on a closed surface whose edges carry two transverse
reflections each.  This package builds such maps from finite presentations
or explicit group constructions, computes their invariants (type, vertex/
edge/face counts, Euler characteristic, orientability, full regularity,
self-duality), constructs the classified families on surfaces of negative
prime Euler characteristic, and reproduces the classification exhaustively
for chi in {-2, -3} from a self-verifying atlas of small groups.
"""

from .groups import (
    FiniteGroup,
    MarkedGroup,
    VerificationError,
    alternating,
    are_isomorphic,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    extend_generator_map,
    multiplicative_units,
    quotient,
    semidirect,
    subgroup_closure,
    symmetric,
)
from .presentations import (
    DEFAULT_MAX_COSETS,
    CapacityExceeded,
    CosetTable,
    ParseError,
    Presentation,
    Word,
    coset_enumerate,
    group_from_action,
    parse_presentation,
    regular_action,
)
from .maps import (
    EdgeBiregularMap,
    FlagStructure,
    MapStructureError,
    NotDistinct,
    NotGenerating,
    NotInvolution,
    PairNotCommuting,
    SemiEdgeMap,
    all_map_quadruples,
    counts,
    delete_semi_edges,
    dual,
    equivalence_key,
    euler_characteristic,
    euler_characteristic_formula,
    flag_structure,
    insert_semi_edges,
    is_fully_regular,
    is_orientable,
    is_self_dual,
    load_map,
    map_file_text,
    map_from_action,
    map_invariants,
    new_map,
    product_order,
    semi_edge_counts,
    semi_edge_type,
    twin,
    type_of,
)
from .families import (
    CHI2_EXPECTED_ORDERS,
    CHI2_EXPECTED_TYPES,
    CHI2_FULLY_REGULAR_INDICES,
    CHI2_ORIENTABLE_INDICES,
    FamilyParams,
    chi_minus_2_catalog,
    chi_minus_2_text,
    cyclic_by_dihedral_probe,
    cyclic_fitting_map,
    cyclic_fitting_params,
    cyclic_fitting_text,
    dihedral_family_1,
    dihedral_family_1_text,
    dihedral_family_2,
    dihedral_family_2_text,
    exceptional_order36_map,
    exceptional_order36_text,
    is_prime,
    presentation_text,
    valency_eight_map,
    valency_eight_text,
)
from .census import (
    ATLAS_EXPECTED_COUNTS,
    ATLAS_ORDERS,
    AdmissibleType,
    CatalogEntry,
    UnsupportedOrder,
    admissible_types,
    atlas,
    catalog_json,
    catalog_rows,
    classify,
    enumerate_maps,
    verify_chi_minus_1_dihedral,
    verify_p_divides_exclusions,
)

__version__ = "0.1.0"
