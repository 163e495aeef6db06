"""Dense reference implementations, shared by the test modules.

The library works on the four mark permutations of a map, and decides
isomorphism by comparing standardized tables; these references work on
dense multiplication tables instead, and decide isomorphism by extending a
map of generators to a homomorphism, so the tests can hold the library
against an independent computation on the same inputs.
"""

from itertools import product

from ebrmaps.families import FamilyParams, _assert_probe_conformance, valency_eight_text
from ebrmaps.groups import (
    FiniteGroup,
    VerificationError,
    _generated_action,
    cyclic,
    direct_product,
    greedy_generators,
    group_from_action,
    semidirect,
    subgroup_closure,
)
from ebrmaps.maps import (
    EdgeBiregularMap,
    _orbit,
    _unchecked,
    dual,
    equivalence_key,
    euler_characteristic_formula,
    new_map,
    twin,
    type_of,
)
from ebrmaps.presentations import Presentation, parse_presentation, regular_action


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
    img[0] = 0
    frontier = [0]
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
    ``perm`` (element a becomes perm[a]), and the permutation.  The identity
    stays element 0; only elements 1..n-1 are shuffled."""
    n = g.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
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


def group_from_presentation(pres: Presentation) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The dense group of the presentation's regular action, and the
    generator images in declaration order as its marks."""
    perms = regular_action(pres)
    group = group_from_action(perms, f"fp[{len(perms[0])}]")
    return group, tuple(perm[0] for perm in perms)


def cyclic_fitting_reference(q: FamilyParams) -> EdgeBiregularMap:
    """The cyclic-Fitting member of parameters q on the dense semidirect
    product (C_lam x C_kappa) x| V_4, with V_4 = <s, t> acting on
    <u> x <w> by s: u -> u^-1, w -> w and t: u -> u^-j, w -> w^-1.  The
    marks are x = u^-1 s, y = u^a w^((kappa-1)/2) s t, s and t."""
    kappa, lam = q.kappa, q.lam
    a = direct_product(cyclic(lam), cyclic(kappa))  # u^i w^m is i*kappa + m
    v4 = direct_product(cyclic(2), cyclic(2))  # s^b1 t^b2 is 2*b1 + b2
    action = [
        tuple(
            (i * (-1) ** b1 * (-q.j) ** b2) % lam * kappa + (m * (-1) ** b2) % kappa
            for i in range(lam)
            for m in range(kappa)
        )
        for b1 in (0, 1)
        for b2 in (0, 1)
    ]
    group = semidirect(a, v4, action, name=f"cf({kappa},{lam},{q.j})")
    s, t, st = 2, 1, 3  # (f, v) is f*4 + v
    x = (lam - 1) * kappa * 4 + s
    y = (q.a * kappa + (kappa - 1) // 2) * 4 + st
    return new_map(group, (x, y, s, t))


def valency_eight_reference(m: int) -> EdgeBiregularMap:
    """The valency-eight member ve(m) on the dense semidirect product
    C_m' x| B, for m = 3^e m' with 3 not dividing m' and B = ve(3^e) the
    group of its presentation.  x, y and s invert C_m' = <u> and t
    centralizes it; the marks are x_B, y_B, u s_B and t_B."""
    power = 1  # 3^e, the largest power of 3 dividing m
    while m % (3 * power) == 0:
        power *= 3
    lam = m // power
    b, b_marks = group_from_presentation(parse_presentation(valency_eight_text(power)))
    keep, invert = tuple(range(lam)), tuple(-c % lam for c in range(lam))
    columns = [[row[g] for row in b.mul] for g in b_marks]
    action = _generated_action(columns, (invert, invert, invert, keep))
    group = semidirect(cyclic(lam), b, action, name=f"ve({m})")
    xb, yb, sb, tb = b_marks
    return new_map(group, (xb, yb, 1 % lam * b.order + sb, tb))


def index_of_even_subgroup(marked: tuple[FiniteGroup, tuple[int, ...]]) -> int:
    """Index (1 or 2) of the subgroup generated by all pairwise products of
    the marked elements of a pair (group, marks).  Requires every marked
    element to be an involution; index 2 is the orientable case."""
    g, marks = marked
    for m in marks:
        if g.element_orders[m] != 2:
            raise ValueError("marked element is not an involution")
    products = tuple(g.mul[u][v] for u in marks for v in marks)
    size = len(subgroup_closure(g, products))
    index, remainder = divmod(g.order, size)
    if remainder or index not in (1, 2):
        raise VerificationError(f"even subgroup has unexpected index {index}")
    return index


def semi_edge_type_dense(group: FiniteGroup, marks: tuple[int, int, int]) -> tuple[int, int]:
    """The type (k, l) of the semi-edge map with marks (x, y, r) on a dense
    group: twice the element orders of r*y and r*x, read from the table."""
    x, y, r = marks
    return 2 * group.element_orders[group.mul[r][y]], 2 * group.element_orders[group.mul[r][x]]


def even_subgroup_index_of_products(m: EdgeBiregularMap) -> int:
    """Index of the subgroup generated by all twelve ordered products u*v of
    two distinct marks: |H| over the orbit of 0 under them."""
    products = [
        tuple(v[u[h]] for h in range(m.order))
        for i, u in enumerate(m.perms)
        for j, v in enumerate(m.perms)
        if i != j
    ]
    return m.order // len(_orbit(products))


def standard_table(perms) -> tuple[int, ...]:
    """The whole standardized table of the action by the permutations
    ``perms`` on the orbit of 0, built at once: the orbit is numbered
    breadth first from 0, applying ``perms`` in order, and entry
    i * len(perms) + j is the number of point i's image under perms[j]."""
    number = {0: 0}
    queue = [0]
    for h in queue:
        for perm in perms:
            if perm[h] not in number:
                number[perm[h]] = len(queue)
                queue.append(perm[h])
    return tuple(number[perm[h]] for h in queue for perm in perms)


def is_fully_regular_by_tables(m: EdgeBiregularMap) -> bool:
    """m and its twin have equal standardized tables, each built in full."""
    return standard_table(m.perms) == standard_table(twin(m).perms)


def is_self_dual_by_tables(m: EdgeBiregularMap) -> bool:
    """m and its dual have equal standardized tables, each built in full."""
    return standard_table(m.perms) == standard_table(dual(m).perms)


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
        while acc != 0:
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
