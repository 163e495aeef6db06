"""Dense reference implementations, shared by the test modules.

The library works on the four mark permutations of a map; these references
work on dense multiplication tables instead, so the tests can hold the
permutation code against an independent computation on the same inputs.
"""

from ebrmaps.groups import MarkedGroup, VerificationError, _extend_iso, subgroup_closure
from ebrmaps.maps import EdgeBiregularMap, all_map_quadruples, equivalence_key, type_of
from ebrmaps.presentations import Presentation, group_from_action, regular_action


def is_map_isomorphic(a: EdgeBiregularMap, b: EdgeBiregularMap) -> bool:
    """Group isomorphism carrying a's quadruple to b's, in order, found on
    the dense groups."""
    if a.order != b.order or type_of(a) != type_of(b):
        return False
    return _extend_iso(a.group, a.marks, b.group, b.marks) is not None


def group_from_presentation(pres: Presentation) -> MarkedGroup:
    """The dense group of the presentation's regular action, marked with
    the generator images in declaration order."""
    perms = regular_action(pres)
    group = group_from_action(perms, f"fp[{len(perms[0])}]")
    return MarkedGroup(group, tuple(perm[0] for perm in perms))


def index_of_even_subgroup(marked: MarkedGroup) -> int:
    """Index (1 or 2) of the subgroup generated by all pairwise products of
    the marked elements.  Requires every marked element to be an involution;
    index 2 is the orientable case."""
    g = marked.group
    for m in marked.marked:
        if g.element_orders[m] != 2:
            raise ValueError("marked element is not an involution")
    products = tuple(g.mul[u][v] for u in marked.marked for v in marked.marked)
    size = len(subgroup_closure(g, products))
    index, remainder = divmod(g.order, size)
    if remainder or index not in (1, 2):
        raise VerificationError(f"even subgroup has unexpected index {index}")
    return index


def enumerate_maps_by_key(group, want_chi=None) -> list[EdgeBiregularMap]:
    """One equivalence key per searched quadruple: the first quadruple of
    each key is kept, so the representatives and their order are those
    that ``census.enumerate_maps`` must give."""
    kept: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for m in all_map_quadruples(group, want_chi):
        kept.setdefault(equivalence_key(m), m)
    return list(kept.values())
