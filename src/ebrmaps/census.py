"""Exhaustive census machinery: admissible types, group atlas, classification.

The classification workflow is: compute the finitely many (order, type)
combinations compatible with Euler characteristic -p; list all groups of
each admissible order from a hard-coded, self-verifying atlas; search each
group for the quadruples of marked involutions that can be the least of
their class; keep the first map of each equivalence key, which identifies
maps up to duality, twins and isomorphism; and cross-match the survivors
against the constructive family builders.

The atlas is a table of constructor recipes (cyclic, dihedral, dicyclic,
symmetric, direct and semidirect products), not a generator of groups by
order.  A split extension A x| B is given as A, B and the images of
generators of B on A's elements, which ``semidirect`` composes into the
action of all of B and checks.  Each atlas call builds its groups afresh
(a command asks for each order once) and verifies that they are pairwise
non-isomorphic and match the documented count for that order.

The lemma checks search exhaustively too: chi = -1 forces a dihedral group,
p divides no order of a map with chi = -p, and ``cyclic_by_dihedral_probe``
holds every map on C_p x| D_nu to the shape that Lemma 4.3 gives it.
"""

from __future__ import annotations

from .groups import (
    FiniteGroup,
    VerificationError,
    _require_odd_prime,
    alternating,
    are_isomorphic,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    is_prime,
    semidirect,
    symmetric,
)
from .maps import (
    MARK_NAMES,
    EdgeBiregularMap,
    all_map_quadruples,
    dual,
    equivalence_key,
    euler_characteristic,
    euler_characteristic_formula,
    map_invariants,
    type_of,
)

# Only annotations name Member, and importing typing for its TYPE_CHECKING
# would cost a process that has not loaded typing about 0.4 MB (CPython 3.11).
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .families import Member


class UnsupportedOrder(ValueError):
    """Raised when a computation needs groups of an order the atlas lacks."""


# ---------------------------------------------------------------------------
# admissible types


def admissible_types(p: int) -> list[tuple[int, int, int]]:
    """All (order, type) combinations compatible with chi = -p, for prime
    p: the triples (n, k, l) with n*(1/k - 1/2 + 1/l) = -p, k <= l both
    even, k >= 4, l >= 6 and k, l and 4 dividing n, sorted.  Each has
    nu = 2kl/(kl - 2(k+l)) = n/p at most 12, or VerificationError.  Both
    checks are integer equations: chi from ``euler_characteristic_formula``
    and n(kl - 2(k+l)) = 2klp, the same equation computed the other way.

    With V = n/k vertices and F = n/l faces the equation reads
    n = 2(V + F + p), so (k - 2)V = 2(F + p), and F | kV forces F | 2kp.
    V >= F (that is, k <= l) bounds F by 2p/(k - 4) when k > 4, so
    k <= 2p + 4; for k = 4, l >= 6 bounds F by 2p.  Each k tries the
    divisors of 2kp below its bound, O(p log p) steps in all.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    out = []
    for k in range(4, 2 * p + 5, 2):
        bound = 2 * p // (k - 4) if k > 4 else 2 * p
        faces = {d for d in range(1, min(2 * k, bound) + 1) if 2 * k % d == 0}
        faces |= {d * p for d in range(1, bound // p + 1) if 2 * k % d == 0}
        for f in faces:
            v, rem = divmod(2 * (f + p), k - 2)
            n = k * v
            if rem or n % f or n % 4 or (n // f) % 2:
                continue
            l = n // f
            den = k * l - 2 * (k + l)  # nu = 2kl/den, and den >= 4
            chi = euler_characteristic_formula(n, k, l)
            if chi != -p or n * den != 2 * k * l * p or n > 12 * p:
                raise VerificationError(f"type ({k},{l}) at order {n} has nu = {2 * k * l}/{den}")
            out.append((n, k, l))
    return sorted(out)


# ---------------------------------------------------------------------------
# the atlas of groups of small order


def _prod(*gs: FiniteGroup) -> FiniteGroup:
    acc = gs[0]
    for g in gs[1:]:
        acc = direct_product(acc, g)
    return acc


def _unit_semidirect(n: int, m: int, unit: int, name: str) -> FiniteGroup:
    """C_n x| C_m, the generator of C_m acting as multiplication by ``unit``."""
    return semidirect(cyclic(n), cyclic(m), {1: tuple(c * unit % n for c in range(n))}, name)


def _odd_by_d8(n: int) -> FiniteGroup:
    """C_n x| D8 with the rotation inverting and the reflection centralizing.

    The action kernel is a Klein four-group, which distinguishes this
    extension from C_n x| D8 with cyclic kernel (the latter is dihedral).
    """
    inversion = tuple(-c % n for c in range(n))
    # D8's rotation r is element 1 and its reflection f is element 4
    return semidirect(cyclic(n), dihedral(8), {1: inversion, 4: tuple(range(n))}, f"C{n}:D8")


def _sl23() -> FiniteGroup:
    """Q8 x| C3 with the generator cycling i -> j -> ij."""
    # i, j and ij are elements 2, 1 and 3 of Q8 in its i*2+j encoding
    return semidirect(dicyclic(2), cyclic(3), {1: (0, 3, 1, 2, 4, 7, 5, 6)}, "SL(2,3)")


def _c7_by_a4() -> FiniteGroup:
    """C7 x| A4 through A4's quotient of order 3: an element of order 3 acts
    as multiplication by 2, and an involution, in the kernel V4, trivially."""
    a4 = alternating(4)
    three, two = a4.element_orders.index(3), a4.element_orders.index(2)
    return semidirect(cyclic(7), a4, {three: (0, 2, 4, 6, 1, 3, 5), two: tuple(range(7))}, "C7:A4")


# (i, m) -> (-i, -m) on C3 x C3, whose element (i, m) is i*3 + m
_C3SQ_INV = (0, 2, 1, 6, 8, 7, 3, 5, 4)

ATLAS_EXPECTED_COUNTS = {
    4: 2, 8: 5, 12: 5, 16: 14, 20: 5, 24: 15, 28: 4, 36: 14,
    40: 14, 56: 13, 60: 13, 84: 15, 88: 12, 132: 10,
}

_RECIPES = {
    4: (
        lambda: cyclic(4),
        lambda: _prod(cyclic(2), cyclic(2)),
    ),
    8: (
        lambda: cyclic(8),
        lambda: _prod(cyclic(4), cyclic(2)),
        lambda: _prod(cyclic(2), cyclic(2), cyclic(2)),
        lambda: dihedral(8),
        lambda: dicyclic(2),
    ),
    12: (
        lambda: cyclic(12),
        lambda: _prod(cyclic(6), cyclic(2)),
        lambda: dihedral(12),
        lambda: alternating(4),
        lambda: dicyclic(3),
    ),
    16: (
        lambda: cyclic(16),
        lambda: _prod(cyclic(8), cyclic(2)),
        lambda: _prod(cyclic(4), cyclic(4)),
        lambda: _prod(cyclic(4), cyclic(2), cyclic(2)),
        lambda: _prod(cyclic(2), cyclic(2), cyclic(2), cyclic(2)),
        lambda: dihedral(16),
        lambda: dicyclic(4),
        lambda: _unit_semidirect(8, 2, 3, "SD16"),
        lambda: _unit_semidirect(8, 2, 5, "M16"),
        lambda: _prod(dihedral(8), cyclic(2)),
        lambda: _prod(dicyclic(2), cyclic(2)),
        lambda: _unit_semidirect(4, 4, 3, "C4:C4"),
        # V4 x| C4, the generator swapping the two coordinates of C2 x C2
        lambda: semidirect(_prod(cyclic(2), cyclic(2)), cyclic(4), {1: (0, 2, 1, 3)}, "V4:C4"),
        # D8 o C4 as the Pauli group (C4 x C2) x| C2, the generator mapping
        # (a, b) = a*2 + b to (a + 2b, b)
        lambda: semidirect(
            _prod(cyclic(4), cyclic(2)), cyclic(2), {1: (0, 5, 2, 7, 4, 1, 6, 3)}, "D8oC4"
        ),
    ),
    20: (
        lambda: cyclic(20),
        lambda: _prod(cyclic(10), cyclic(2)),
        lambda: dihedral(20),
        lambda: dicyclic(5),
        lambda: _unit_semidirect(5, 4, 2, "F20"),
    ),
    24: (
        lambda: cyclic(24),
        lambda: _prod(cyclic(12), cyclic(2)),
        lambda: _prod(cyclic(6), cyclic(2), cyclic(2)),
        lambda: symmetric(4),
        lambda: _sl23(),
        lambda: _prod(alternating(4), cyclic(2)),
        lambda: dihedral(24),
        lambda: dicyclic(6),
        lambda: _unit_semidirect(3, 8, 2, "C3:C8"),
        lambda: _prod(dihedral(8), cyclic(3)),
        lambda: _prod(dicyclic(2), cyclic(3)),
        lambda: _prod(dihedral(6), cyclic(4)),
        lambda: _prod(dicyclic(3), cyclic(2)),
        lambda: _prod(dihedral(12), cyclic(2)),
        lambda: _odd_by_d8(3),
    ),
    28: (
        lambda: cyclic(28),
        lambda: _prod(cyclic(14), cyclic(2)),
        lambda: dihedral(28),
        lambda: dicyclic(7),
    ),
    36: (
        lambda: cyclic(36),
        lambda: _prod(cyclic(18), cyclic(2)),
        lambda: _prod(cyclic(12), cyclic(3)),
        lambda: _prod(cyclic(6), cyclic(6)),
        lambda: dicyclic(9),
        lambda: dihedral(36),
        # V4 x| C9, the generator cycling the three involutions of C2 x C2
        lambda: semidirect(_prod(cyclic(2), cyclic(2)), cyclic(9), {1: (0, 2, 3, 1)}, "V4:C9"),
        lambda: _prod(dicyclic(3), cyclic(3)),
        # (C3 x C3) x| C4, the generator acting as (i, m) -> (m, -i), then by inversion
        lambda: semidirect(
            _prod(cyclic(3), cyclic(3)), cyclic(4), {1: (0, 3, 6, 2, 5, 8, 1, 4, 7)}, "C3^2:C4(rot)"
        ),
        lambda: semidirect(_prod(cyclic(3), cyclic(3)), cyclic(4), {1: _C3SQ_INV}, "C3^2:C4(inv)"),
        lambda: _prod(dihedral(6), dihedral(6)),
        lambda: _prod(cyclic(3), alternating(4)),
        lambda: _prod(cyclic(3), dihedral(12)),
        lambda: _prod(
            cyclic(2),
            semidirect(_prod(cyclic(3), cyclic(3)), cyclic(2), {1: _C3SQ_INV}, "Dih(C3^2)"),
        ),
    ),
    40: (
        lambda: cyclic(40),
        lambda: _prod(cyclic(20), cyclic(2)),
        lambda: _prod(cyclic(10), cyclic(2), cyclic(2)),
        lambda: _unit_semidirect(5, 8, 4, "C5:C8(inv)"),
        lambda: _unit_semidirect(5, 8, 2, "C5:C8"),
        lambda: _prod(dihedral(10), cyclic(4)),
        lambda: _prod(dicyclic(5), cyclic(2)),
        lambda: _prod(_unit_semidirect(5, 4, 2, "F20"), cyclic(2)),
        lambda: _prod(dihedral(10), cyclic(2), cyclic(2)),
        lambda: _prod(cyclic(5), dihedral(8)),
        lambda: dihedral(40),
        lambda: _odd_by_d8(5),
        lambda: _prod(cyclic(5), dicyclic(2)),
        lambda: dicyclic(10),
    ),
    56: (
        lambda: cyclic(56),
        lambda: _unit_semidirect(7, 8, 6, "C7:C8(inv)"),
        lambda: _prod(cyclic(28), cyclic(2)),
        lambda: _prod(dihedral(14), cyclic(4)),
        lambda: _prod(dicyclic(7), cyclic(2)),
        lambda: _prod(cyclic(14), cyclic(2), cyclic(2)),
        lambda: _prod(dihedral(14), cyclic(2), cyclic(2)),
        lambda: _prod(cyclic(7), dihedral(8)),
        lambda: dihedral(56),
        lambda: _odd_by_d8(7),
        lambda: _prod(cyclic(7), dicyclic(2)),
        lambda: dicyclic(14),
        # C2^3 x| C7, the generator mapping (b1, b2, b3) = b1*4 + b2*2 + b3 to (b3, b1 + b3, b2)
        lambda: semidirect(
            _prod(cyclic(2), cyclic(2), cyclic(2)),
            cyclic(7),
            {1: (0, 6, 1, 7, 2, 4, 3, 5)},
            "C2^3:C7",
        ),
    ),
    60: (
        lambda: cyclic(60),
        lambda: _prod(cyclic(30), cyclic(2)),
        lambda: alternating(5),
        lambda: _prod(cyclic(3), dicyclic(5)),
        lambda: _prod(cyclic(5), dicyclic(3)),
        lambda: dicyclic(15),
        lambda: _prod(cyclic(3), _unit_semidirect(5, 4, 2, "F20")),
        lambda: _unit_semidirect(15, 4, 2, "C15:C4"),
        lambda: _prod(dihedral(10), cyclic(6)),
        lambda: _prod(dihedral(6), cyclic(10)),
        lambda: dihedral(60),
        lambda: _prod(dihedral(6), dihedral(10)),
        lambda: _prod(cyclic(5), alternating(4)),
    ),
    84: (
        lambda: cyclic(84),
        lambda: _prod(dicyclic(7), cyclic(3)),
        lambda: _prod(_unit_semidirect(7, 3, 2, "C7:C3"), cyclic(4)),
        lambda: _unit_semidirect(7, 12, 3, "C7:C12"),
        lambda: _prod(cyclic(42), cyclic(2)),
        lambda: _prod(dihedral(14), cyclic(6)),
        lambda: _prod(_unit_semidirect(7, 3, 2, "C7:C3"), cyclic(2), cyclic(2)),
        lambda: _prod(_unit_semidirect(7, 6, 3, "F42"), cyclic(2)),
        lambda: _prod(cyclic(7), dihedral(12)),
        lambda: dihedral(84),
        lambda: _prod(dihedral(14), dihedral(6)),
        lambda: _prod(cyclic(7), alternating(4)),
        lambda: _c7_by_a4(),
        lambda: _prod(cyclic(7), dicyclic(3)),
        lambda: dicyclic(21),
    ),
    88: (
        lambda: cyclic(88),
        lambda: _unit_semidirect(11, 8, 10, "C11:C8(inv)"),
        lambda: _prod(cyclic(44), cyclic(2)),
        lambda: _prod(dihedral(22), cyclic(4)),
        lambda: _prod(dicyclic(11), cyclic(2)),
        lambda: _prod(cyclic(22), cyclic(2), cyclic(2)),
        lambda: _prod(dihedral(22), cyclic(2), cyclic(2)),
        lambda: _prod(cyclic(11), dihedral(8)),
        lambda: dihedral(88),
        lambda: _odd_by_d8(11),
        lambda: _prod(cyclic(11), dicyclic(2)),
        lambda: dicyclic(22),
    ),
    132: (
        lambda: cyclic(132),
        lambda: _prod(dicyclic(11), cyclic(3)),
        lambda: _prod(cyclic(66), cyclic(2)),
        lambda: _prod(dihedral(22), cyclic(6)),
        lambda: _prod(cyclic(11), dihedral(12)),
        lambda: dihedral(132),
        lambda: _prod(dihedral(22), dihedral(6)),
        lambda: _prod(cyclic(11), alternating(4)),
        lambda: _prod(cyclic(11), dicyclic(3)),
        lambda: dicyclic(33),
    ),
}

ATLAS_ORDERS = tuple(sorted(_RECIPES))


def atlas(order: int) -> tuple[FiniteGroup, ...]:
    """Every group of the given order, pairwise non-isomorphic (verified).

    Raises UnsupportedOrder for orders without a recipe table.
    """
    if order not in _RECIPES:
        raise UnsupportedOrder(f"no atlas recipes for order {order}")
    groups = tuple(build() for build in _RECIPES[order])
    if len(groups) != ATLAS_EXPECTED_COUNTS[order]:
        raise VerificationError(f"atlas({order}) has {len(groups)} recipes")
    for g in groups:
        if g.order != order:
            raise VerificationError(f"{g.name} has order {g.order}, not {order}")
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if are_isomorphic(groups[i], groups[j]):
                raise VerificationError(
                    f"atlas({order}) entries {i} ({groups[i].name}) and"
                    f" {j} ({groups[j].name}) are isomorphic"
                )
    return groups


# ---------------------------------------------------------------------------
# exhaustive enumeration, deduplicated


def enumerate_maps(
    group: FiniteGroup, want_chi: int | None = None
) -> dict[tuple[int, ...], EdgeBiregularMap]:
    """All maps on the group (optionally at fixed chi), up to equivalence,
    each under its equivalence key.

    Equivalence is isomorphism composed with any of {identity, dual, twin,
    dual of twin}, decided by ``equivalence_key``; the retained
    representative of each class is its lexicographically least quadruple,
    and the classes come in the order of their representatives.

    ``all_map_quadruples`` yields, in lexicographic order, only the
    quadruples that can be the least of their class, and every class's
    least quadruple is among them.  Each is keyed, and the first map of
    each key is kept, which is that least quadruple.
    """
    kept: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for m in all_map_quadruples(group, want_chi):
        kept.setdefault(equivalence_key(m), m)
    return kept


# ---------------------------------------------------------------------------
# classification


def _constructive_entries(p: int) -> dict[tuple[int, ...], tuple[EdgeBiregularMap, Member]]:
    """Every family member with chi = -p, deduplicated, each as the pair
    (its built map, the member) under the equivalence key of the map."""
    from . import families

    built = [(mb.build(), mb) for mb in families.members(p)]
    wrong = [mb.label for m, mb in built if euler_characteristic(m) != -p]
    if wrong:
        raise VerificationError(f"constructors {wrong} do not give chi = {-p}")
    deduped: dict[tuple[int, ...], tuple[EdgeBiregularMap, Member]] = {}
    for entry in built:
        deduped.setdefault(equivalence_key(entry[0]), entry)
    return deduped


def _order_and_type(m: EdgeBiregularMap) -> tuple[int, int, int]:
    """(|H|, k, l) with the type normalized to k <= l."""
    k, l = type_of(m)
    return (len(m[0]), min(k, l), max(k, l))


def _sort_entries(entries) -> list[tuple[EdgeBiregularMap, Member]]:
    return sorted(entries, key=lambda e: (*_order_and_type(e[0]), e[1].label))


def classify(p: int, profile: str = "exhaustive") -> list[tuple[EdgeBiregularMap, Member]]:
    """The catalog of all edge-biregular maps with chi = -p, up to
    equivalence: (map, member) pairs sorted by order, type and label.

    profile="constructive" runs the family constructors only (any prime p);
    each map is its member's built map.  profile="exhaustive" additionally
    enumerates every group of every admissible order and proves the
    constructive catalog complete by bijective matching of equivalence
    keys; each map is then the search's representative of its class.  It
    needs full atlas coverage, which holds for p in {2, 3, 5} and raises
    UnsupportedOrder otherwise.
    A failed matching raises VerificationError naming the unmatched classes.
    """
    if profile not in ("exhaustive", "constructive"):
        raise ValueError(f"unknown profile {profile!r}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if profile == "constructive":
        return _sort_entries(_constructive_entries(p).values())

    orders = sorted({n for n, _, _ in admissible_types(p)})
    missing = [n for n in orders if n not in _RECIPES]
    if missing:
        raise UnsupportedOrder(
            f"exhaustive classification at p={p} needs atlas orders {missing}"
        )
    built = _constructive_entries(p)
    found: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for n in orders:
        for group in atlas(n):
            for key, m in enumerate_maps(group, want_chi=-p).items():
                found.setdefault(key, m)

    if found.keys() != built.keys():
        only_found = sorted(_order_and_type(found[key]) for key in found.keys() - built.keys())
        only_built = sorted(_order_and_type(built[key][0]) for key in built.keys() - found.keys())
        raise VerificationError(
            f"exhaustive search and constructors disagree at p={p}:"
            f" (order, k, l) found only by search {only_found},"
            f" only by constructors {only_built}"
        )
    return _sort_entries((m, built[key][1]) for key, m in found.items())


def catalog_rows(entries: list[tuple[EdgeBiregularMap, Member]]) -> list[dict]:
    """JSON-ready rows: each map's invariants with the type normalized to
    k <= l (vertices and faces swapped with it), plus its member's label as
    the family and its text as the presentation."""
    rows = []
    for m, member in entries:
        inv = map_invariants(m)
        k, l = inv["type"]
        if k > l:
            inv.update(type=[l, k], vertices=inv["faces"], faces=inv["vertices"])
        rows.append(
            {
                "group_order": len(m[0]),
                **inv,
                "family": member.label,
                "presentation": member.text,
                "marks": list(MARK_NAMES),
            }
        )
    return rows


def catalog_json(entries: list[tuple[EdgeBiregularMap, Member]]) -> str:
    import json
    return json.dumps(catalog_rows(entries), indent=2) + "\n"


# ---------------------------------------------------------------------------
# verification reports


def verify_chi_minus_1_dihedral() -> dict:
    """Search all groups of orders 8 and 12 for maps with chi = -1.

    Any such map must live in a dihedral group; the report carries the
    per-group counts and passes when every find is dihedral.
    """
    rows = []
    for n in (8, 12):
        reference = dihedral(n)
        for group in atlas(n):
            found = enumerate_maps(group, want_chi=-1)
            is_dih = are_isomorphic(group, reference)
            rows.append(
                {
                    "order": n,
                    "group": group.name,
                    "dihedral": is_dih,
                    "maps_found": len(found),
                    "ok": not found or is_dih,
                }
            )
    passed = all(row["ok"] for row in rows)
    return {"check": "chi-minus-1-dihedral", "passed": passed, "groups": rows}


def verify_p_divides_exclusions(p: int) -> dict:
    """Exhaustively confirm there is no map of chi = -p on any group of an
    admissible order divisible by p, for p in {5, 7, 11}.

    Orders without atlas coverage are reported UNSUPPORTED rather than
    silently skipped, and fail the check: nothing was shown for them.
    """
    if p not in (5, 7, 11):
        raise ValueError("exclusion checks cover p in {5, 7, 11}")
    orders = sorted({n for n, _, _ in admissible_types(p) if n % p == 0})
    rows = []
    for n in orders:
        if n not in _RECIPES:
            rows.append({"order": n, "status": "UNSUPPORTED", "maps_found": None})
            continue
        total = sum(len(enumerate_maps(g, want_chi=-p)) for g in atlas(n))
        rows.append({"order": n, "status": "pass" if total == 0 else "fail", "maps_found": total})
    passed = all(row["status"] == "pass" for row in rows)
    return {"check": "prime-divisor-exclusions", "p": p, "passed": passed, "orders": rows}


def cyclic_by_dihedral_probe(p: int, lam: int) -> list[EdgeBiregularMap]:
    """Search every group C_p x| D_{2*lam} for edge-biregular maps.

    The generating reflections lam and lam + 1 of the dihedral group of
    order nu = 2*lam can act on C_p only as multiplication by 1 or -1.
    ``semidirect`` takes each pair of these images, rejects the pairs that
    are no homomorphism (product -1, lam odd), and all maps found are listed
    up to duality, twins and isomorphism, one per class of
    :func:`enumerate_maps`.

    Every found map of type (k, l) with l/2 >= 3 and p dividing neither k/2
    nor l/2 is checked against the structural restrictions: l = nu with
    nu = 4 (mod 8), k/2 in {2, l/2}, and chi = p(1 - l/4) for k = 4 or
    chi = p(2 - l/2) for k = l.  Violations raise VerificationError.  Type
    and chi are invariant under Aut(H) and the twin keeps (k, l), so checking
    each class's representative and its dual, of type (l, k), checks every
    map of the class.
    """
    _require_odd_prime(p)
    if lam < 3:
        raise ValueError("lam must be at least 3")
    if lam % p == 0:
        raise ValueError("p must not divide lam")
    nu = 2 * lam
    dih = dihedral(nu)
    cp = cyclic(p)
    signs = (tuple(range(p)), tuple(-c % p for c in range(p)))  # multiplication by 1 and by -1
    found: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for e1 in signs:
        for e2 in signs:
            try:
                grp = semidirect(cp, dih, {lam: e1, lam + 1: e2}, name=f"C{p}:D{nu}")
            except ValueError:  # (e1 e2)^lam = -1: not a homomorphism
                continue
            for key, m in enumerate_maps(grp).items():
                _assert_probe_conformance(p, nu, m)
                _assert_probe_conformance(p, nu, dual(m))
                found.setdefault(key, m)
    return list(found.values())


def _assert_probe_conformance(p: int, nu: int, m: EdgeBiregularMap) -> None:
    k, l = type_of(m)
    half_k, half_l = k // 2, l // 2
    if half_l < 3 or half_k % p == 0 or half_l % p == 0:
        return  # outside the hypotheses; nothing is claimed
    if l != nu:
        raise VerificationError(
            f"found type ({k},{l}) but the dihedral complement has order {nu}"
        )
    if nu % 8 != 4:
        raise VerificationError(f"map of type ({k},{l}) found although {nu} != 4 mod 8")
    if half_k not in (2, half_l):
        raise VerificationError(f"vertex parameter {half_k} not in {{2, {half_l}}}")
    chi = euler_characteristic(m)
    # the predictions p(1 - l/4) for k = 4 and p(2 - l/2) for k = l are
    # integers, as l = nu = 4 (mod 8) makes l/4 = half_l // 2
    expected = p * (1 - half_l // 2) if half_k == 2 else p * (2 - half_l)
    if chi != expected:
        raise VerificationError(f"chi {chi} differs from the predicted {expected}")
