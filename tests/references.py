"""Dense reference implementations, shared by the test modules.

The library works on the four mark permutations of a map, and decides
isomorphism by comparing standardized tables; these references work on
dense multiplication tables instead, and decide isomorphism by extending a
map of generators to a homomorphism, so the tests can hold the library
against an independent computation on the same inputs.
"""

from itertools import product

from ebrmaps.families import _assert_probe_conformance
from ebrmaps.groups import (
    FiniteGroup,
    MarkedGroup,
    VerificationError,
    greedy_generators,
    group_from_action,
    subgroup_closure,
)
from ebrmaps.maps import (
    EdgeBiregularMap,
    _orbit,
    _unchecked,
    dual,
    equivalence_key,
    euler_characteristic_formula,
    twin,
    type_of,
)
from ebrmaps.presentations import Presentation, regular_action


def extend_generator_map(
    src: FiniteGroup,
    src_gens: tuple[int, ...],
    dst: FiniteGroup,
    dst_images: tuple[int, ...],
) -> tuple[int, ...] | None:
    """Extend src_gens -> dst_images to a homomorphism, or return None.

    Requires src_gens to generate src.  The extension is built by closing
    the assignment under right multiplication; any inconsistency means no
    homomorphism exists with these generator images.
    """
    if len(src_gens) != len(dst_images):
        raise ValueError("generator/image length mismatch")
    img: list[int | None] = [None] * src.order
    img[src.identity] = dst.identity
    frontier = [src.identity]
    smul, dmul = src.mul, dst.mul
    while frontier:
        nxt = []
        for a in frontier:
            ia = img[a]
            for z, w in zip(src_gens, dst_images):
                az = smul[a][z]
                bw = dmul[ia][w]
                known = img[az]
                if known is None:
                    img[az] = bw
                    nxt.append(az)
                elif known != bw:
                    return None
        frontier = nxt
    if any(v is None for v in img):
        raise ValueError("src_gens do not generate src")
    return tuple(img)  # type: ignore[arg-type]


def _extend_iso(
    sg: FiniteGroup, smarks: tuple[int, ...], dg: FiniteGroup, dmarks: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Isomorphism of sg onto dg carrying smarks[i] to dmarks[i], or None."""
    if sg.order != dg.order or len(smarks) != len(dmarks):
        return None
    for a, b in zip(smarks, dmarks):
        if sg.element_orders[a] != dg.element_orders[b]:
            return None
    img = extend_generator_map(sg, smarks, dg, dmarks)
    if img is None or len(set(img)) != sg.order:
        return None
    return img


def are_isomorphic_by_extension(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Some tuple of elements of b, of the same element orders as a's
    greedy generators, is their image under an isomorphism; every such
    tuple is tried with :func:`_extend_iso`, with no invariant or pruning."""
    if a.order != b.order:
        return False
    gens = greedy_generators(a)
    choices = [
        [y for y in range(b.order) if b.element_orders[y] == a.element_orders[g]]
        for g in gens
    ]
    return any(_extend_iso(a, gens, b, images) is not None for images in product(*choices))


def relabelled(g: FiniteGroup, rng) -> tuple[FiniteGroup, list[int]]:
    """The same group with its elements renumbered by a random permutation
    ``perm`` (element a becomes perm[a]), and the permutation."""
    n = g.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[g.mul[a][b]]
    return FiniteGroup(tuple(map(tuple, table)), name=g.name), perm


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


def even_subgroup_index_of_products(m: EdgeBiregularMap) -> int:
    """Index of the subgroup generated by all twelve ordered products u*v of
    two distinct marks: |H| over the base point's orbit under them."""
    products = [
        tuple(v[u[h]] for h in range(m.order))
        for i, u in enumerate(m.perms)
        for j, v in enumerate(m.perms)
        if i != j
    ]
    return m.order // len(_orbit(products, m.base))


def standard_table(perms, base: int = 0) -> tuple[int, ...]:
    """The whole standardized table of the action by the permutations
    ``perms`` on the orbit of ``base``, built at once: the orbit is numbered
    breadth first from ``base``, applying ``perms`` in order, and entry
    i * len(perms) + j is the number of point i's image under perms[j]."""
    number = {base: 0}
    queue = [base]
    for h in queue:
        for perm in perms:
            if perm[h] not in number:
                number[perm[h]] = len(queue)
                queue.append(perm[h])
    return tuple(number[perm[h]] for h in queue for perm in perms)


def is_fully_regular_by_tables(m: EdgeBiregularMap) -> bool:
    """m and its twin have equal standardized tables, each built in full."""
    return standard_table(m.perms, m.base) == standard_table(twin(m).perms, m.base)


def is_self_dual_by_tables(m: EdgeBiregularMap) -> bool:
    """m and its dual have equal standardized tables, each built in full."""
    return standard_table(m.perms, m.base) == standard_table(dual(m).perms, m.base)


def all_map_quadruples_by_scan(group, want_chi=None):
    """Every valid map on the group, in lexicographic mark order: each
    commuting pair of distinct involutions (x, y), then every s and every
    t tried, and chi tested on each before generation."""
    n, mul, orders = group.order, group.mul, group.element_orders
    invs = [g for g in range(n) if orders[g] == 2]
    for x in invs:
        for y in invs:
            if y == x or mul[x][y] != mul[y][x]:
                continue
            for s in invs:
                if s in (x, y):
                    continue
                l = 2 * orders[mul[s][x]]
                for t in invs:
                    if t in (x, y, s) or mul[s][t] != mul[t][s]:
                        continue
                    if want_chi is not None:
                        k = 2 * orders[mul[t][y]]
                        if euler_characteristic_formula(n, k, l) != want_chi:
                            continue
                    if len(subgroup_closure(group, (x, y, s, t))) == n:
                        yield _unchecked(group, (x, y, s, t))


def enumerate_maps_by_key(group, want_chi=None) -> list[EdgeBiregularMap]:
    """One equivalence key per quadruple of the scan: the first quadruple
    of each key is kept, so the representatives and their order are those
    that ``census.enumerate_maps`` must give."""
    kept: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for m in all_map_quadruples_by_scan(group, want_chi):
        kept.setdefault(equivalence_key(m), m)
    return list(kept.values())


def probe_by_scan(p: int, nu: int, groups) -> list[EdgeBiregularMap]:
    """``families.cyclic_by_dihedral_probe`` on the given groups by its
    former loop: every quadruple of each group is checked for conformance
    and keyed, and the first quadruple of each key is kept."""
    found: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for group in groups:
        for m in all_map_quadruples_by_scan(group):
            _assert_probe_conformance(p, nu, m)
            found.setdefault(equivalence_key(m), m)
    return list(found.values())


def check_action_exhaustive(a: FiniteGroup, b: FiniteGroup, action) -> None:
    """B acts on A through ``action``, checked on every pair of elements in
    O(|A|^2 |B|): each action[y] is a permutation of A preserving every
    product, and action[y1 y2] = action[y1] o action[y2].  Raises
    ValueError with the messages of ``groups._check_action``."""
    amul = a.mul
    for y, perm in enumerate(action):
        if sorted(perm) != list(range(a.order)):
            raise ValueError(f"action[{y}] is not a permutation of A")
        for x1 in range(a.order):
            for x2 in range(a.order):
                if perm[amul[x1][x2]] != amul[perm[x1]][perm[x2]]:
                    raise ValueError(f"action[{y}] is not an automorphism of A")
    for y1 in range(b.order):
        for y2 in range(b.order):
            composed = tuple(action[y1][action[y2][x]] for x in range(a.order))
            if tuple(action[b.mul[y1][y2]]) != composed:
                raise ValueError("action is not a homomorphism B -> Aut(A)")


def element_orders(g: FiniteGroup) -> tuple[int, ...]:
    """ord(a) for every element, by multiplying a into an accumulator until
    it reaches the identity."""
    orders = []
    for a in range(g.order):
        k, acc = 1, a
        while acc != g.identity:
            acc = g.mul[acc][a]
            k += 1
        orders.append(k)
    return tuple(orders)


def is_abelian(g: FiniteGroup) -> bool:
    """Every pair of elements commutes, checked entry by entry."""
    m = g.mul
    return all(m[a][b] == m[b][a] for a in range(g.order) for b in range(a + 1, g.order))


def fingerprint(g: FiniteGroup) -> tuple:
    """``FiniteGroup.fingerprint`` computed entry by entry: the center from
    every pair and the class of every element, central or not."""
    n, mul = g.order, g.mul
    center = sum(1 for x in range(n) if all(mul[x][y] == mul[y][x] for y in range(n)))
    seen = [False] * n
    sizes = []
    for x in range(n):
        if not seen[x]:
            cls = {mul[mul[y][x]][g.inv[y]] for y in range(n)}
            for c in cls:
                seen[c] = True
            sizes.append(len(cls))
    orders = tuple(sorted(element_orders(g)))
    return (n, orders, is_abelian(g), center, tuple(sorted(sizes)))


def rejection(check, *args) -> str | None:
    """The ValueError message of check(*args), or None if it accepts."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None
