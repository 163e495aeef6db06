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

Importing the package loads none of its modules: each exported name is
looked up in ``_EXPORTS`` on first access (PEP 562) and its module is
imported then, so a process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports at package level
_EXPORTS = {
    "groups": (
        "DEFAULT_MAX_COSETS",
        "CapacityExceeded",
        "FiniteGroup",
        "VerificationError",
        "alternating",
        "are_isomorphic",
        "cyclic",
        "dicyclic",
        "dihedral",
        "direct_product",
        "is_prime",
        "semidirect",
        "subgroup_closure",
        "symmetric",
    ),
    "presentations": (
        "CosetTable",
        "ParseError",
        "Presentation",
        "Word",
        "coset_enumerate",
        "parse_presentation",
        "regular_action",
    ),
    "maps": (
        "EdgeBiregularMap",
        "MapStructureError",
        "NotDistinct",
        "NotGenerating",
        "NotInvolution",
        "PairNotCommuting",
        "all_map_quadruples",
        "counts",
        "delete_semi_edges",
        "dual",
        "equivalence_key",
        "euler_characteristic",
        "euler_characteristic_formula",
        "flag_structure",
        "insert_semi_edges",
        "is_fully_regular",
        "is_orientable",
        "is_self_dual",
        "load_map",
        "map_file_text",
        "map_from_action",
        "map_invariants",
        "product_order",
        "semi_edge_counts",
        "semi_edge_type",
        "twin",
        "type_of",
    ),
    "families": (
        "CHI2_FULLY_REGULAR_INDICES",
        "CHI2_ORIENTABLE_INDICES",
        "Member",
        "chi2",
        "cyclic_by_dihedral_probe",
        "cyclic_fitting_params",
        "dh1",
        "dh2",
        "h3",
        "hp",
        "hpj",
        "members",
        "presentation_text",
    ),
    "census": (
        "ATLAS_EXPECTED_COUNTS",
        "ATLAS_ORDERS",
        "UnsupportedOrder",
        "admissible_types",
        "atlas",
        "catalog_json",
        "catalog_rows",
        "classify",
        "enumerate_maps",
        "verify_chi_minus_1_dihedral",
        "verify_p_divides_exclusions",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that exports ``name`` and cache the name here.
    A module name itself imports that module."""
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
