"""Constructors for the classified families of edge-biregular maps.

Every map on a surface of Euler characteristic -p (p an odd prime) belongs,
up to duality and twins, to one of the families built here:

* ``dihedral_family_1(p)``  - single-vertex map of type (4(p+1), 4) on the
  dihedral group of order 4(p+1);
* ``dihedral_family_2(p)``  - two-vertex map of type (2(p+2), 4) on the
  dihedral group of order 4(p+2);
* ``cyclic_fitting_map(params)`` - maps of type (4*kappa, 2*lambda) of
  order 4*kappa*lambda whose group is C_{kappa*lambda} extended by V_4,
  the right-regular action of an explicit semidirect product;
* ``valency_eight_map(m)``  - maps of type (8, 6m) of order 24m (chi = -(9m-4));
* ``exceptional_order36_map()`` - the unique fully regular example, of
  type (4,6) on a group of order 36 isomorphic to D6 x D6;
* ``chi_minus_2_map(index)`` - catalog entry index of the twelve maps
  with chi = -2, which ``chi_minus_2_catalog()`` lists.

``cyclic_by_dihedral_probe`` exhaustively searches groups of the shape
C_p x| D_nu for maps and checks the structural restrictions that any such
map must satisfy.

Each constructor checks the order and type of what it built and raises
VerificationError on a mismatch.  All presentation texts are kept
verbatim, including redundant relators.

The dihedral, cyclic-Fitting and valency-eight groups are all an abelian
group A = C_lam x C_kappa extended by B = C_2, V_4 or ve(3^e).  The action
of B is composed from its generators' images by the helper in ``groups``
that every split extension uses, and ``_split_extension`` gives the
permutations of any of them acting on itself once ``_check_action`` has
checked that B acts on A by automorphisms.  Each member is then certified
against its presentation: the order of the presented group comes from the
cosets of a cyclic subgroup of index 2, 4 or 8
(``cyclic_order_certificate``), every written relator is checked on the
action, and the action is transitive, so it is the regular action of the
presented group.  This costs O(|H| log p), where enumerating the cosets of
the trivial subgroup costs O(|H| p).  The other members (h3 and the chi = -2
maps) use that enumeration: the columns of the coset table of the trivial
subgroup are the marks' permutations, with no map file in between.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from fractions import Fraction

from .groups import (
    VerificationError,
    _Record,
    _check_action,
    _generated_action,
    cyclic,
    dihedral,
    is_prime,
    semidirect,
)
from .maps import EdgeBiregularMap, dual, euler_characteristic, map_from_action, type_of
from .presentations import (
    DEFAULT_MAX_COSETS,
    CapacityExceeded,
    CosetTable,
    Perm,
    _table_fault,
    cyclic_order_certificate,
    parse_presentation,
    regular_action,
)


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


_COMMON_RELATORS = ("x^2", "y^2", "s^2", "t^2", "(x y)^2", "(s t)^2")


def presentation_text(extra_relators: tuple[str, ...] | list[str]) -> str:
    """Standard four-generator presentation text with the given extra relators."""
    lines = ["gens x y s t"]
    lines += [f"rel {r}" for r in _COMMON_RELATORS]
    lines += [f"rel {r}" for r in extra_relators]
    return "\n".join(lines) + "\n"


def _build(text: str, name: str, max_cosets: int) -> EdgeBiregularMap:
    """The group presented by text acting on itself, marked by its
    generators x, y, s, t in that order."""
    return map_from_action(regular_action(parse_presentation(text), max_cosets), name)


def _expect(m: EdgeBiregularMap, order: int, map_type: tuple[int, int]) -> EdgeBiregularMap:
    """m itself, after checking its order and type against the family's."""
    if m.order != order:
        raise VerificationError(f"{m.name}: expected order {order}, got {m.order}")
    if type_of(m) != map_type:
        raise VerificationError(f"{m.name}: expected type {map_type}, got {type_of(m)}")
    return m


def _certified(
    text: str,
    name: str,
    w: tuple[int, ...],
    action: Callable[[], tuple[Perm, ...]],
    order: int,
    max_cosets: int,
) -> EdgeBiregularMap:
    """The map of action(), proved to be the regular action of the group
    presented by text on its marks x, y, s, t.

    The presented group has order `order`, by the certificate through
    the cyclic subgroup <w>; every relator holds on the action;
    and the action is transitive on `order` points (the orbit check of
    map_from_action).  A group of at most that order acting transitively
    on that many points acts regularly.  Nothing is built when `order`
    exceeds max_cosets.
    """
    pres = parse_presentation(text)
    if order > max_cosets:
        raise CapacityExceeded(max_cosets)
    got = cyclic_order_certificate(pres, w, max_cosets)
    if got != order:
        raise VerificationError(f"{name}: expected order {order}, got {got}")
    perms = action()
    if len(perms[0]) != order or _table_fault(CosetTable(perms), pres, ()) is not None:
        raise VerificationError(f"{name}: presentation and direct constructions disagree")
    return map_from_action(perms, name)


# ---------------------------------------------------------------------------
# split extensions (C_lam x C_kappa) x| B


def _unit_action(lam: int, kappa: int, units: tuple[tuple[int, int], ...]) -> tuple[Perm, ...]:
    """For each (eu, ew) in units, the map u -> u^eu, w -> w^ew on
    A = C_lam x C_kappa = <u> x <w>, as a permutation of the elements
    u^i w^m = i*kappa + m."""
    perms = []
    for eu, ew in units:
        u_parts = [(i * eu) % lam * kappa for i in range(lam)]
        w_parts = [(m * ew) % kappa for m in range(kappa)]
        perms.append(tuple(a + b for a in u_parts for b in w_parts))
    return tuple(perms)


def _split_extension(
    lam: int, kappa: int, action: tuple[Perm, ...], marks: tuple[tuple[int, Perm], ...]
) -> tuple[Perm, ...]:
    """The right-regular action of (C_lam x C_kappa) x| B, one permutation
    per mark (f, b).

    B's elements are its len(action) points, 0 the identity, and b permutes
    them by right multiplication by the mark's B part; these generate B.
    action[v] is the automorphism of A = C_lam x C_kappa attached to v,
    numbered as by _unit_action; ValueError unless it is an action.  Element
    (f, v) is the point f*|B| + v, and (f1, v1)(f2, v2) = (f1 +
    action[v1](f2), v1 v2): right multiplication by the mark sends the points
    of each v1 to those of b[v1], adding action[v1](f2) in A.
    """
    nb, na = len(action), lam * kappa
    elements = list(range(na))
    gens = (kappa, 1) if kappa > 1 else (1 % lam,)  # u, and w unless kappa = 1
    _check_action(action, lambda g: _added(elements, g, kappa), gens, [b for _, b in marks])
    points = list(range(nb * na))  # entries share these int objects
    perms = []
    for f2, b in marks:
        perm = [0] * (nb * na)
        for v1 in range(nb):
            perm[v1::nb] = _added(points[b[v1] :: nb], action[v1][f2], kappa)
        perms.append(tuple(perm))
    return tuple(perms)


def _added(seq: list[int], g: int, kappa: int) -> list[int]:
    """seq indexed by the elements f of A = C_lam x C_kappa, re-indexed so
    that entry f is seq[f + g]: with f = i*kappa + m, a rotation by g mod
    kappa within each block of kappa entries and by g // kappa blocks."""
    gi, gm = divmod(g, kappa)
    if gm:
        blocks, seq = seq, []
        for i in range(0, len(blocks), kappa):
            seq += blocks[i + gm : i + kappa]
            seq += blocks[i : i + gm]
    shift = gi * kappa
    return seq[shift:] + seq[:shift]


# ---------------------------------------------------------------------------
# the two dihedral families


def dihedral_family_1_text(p: int) -> str:
    return presentation_text(("x y s", f"s (y t)^{p + 1}"))


def dihedral_family_1(p: int, max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
    """Single-vertex map of type (4(p+1), 4) on the dihedral group of order 4(p+1).

    The marks as r^c f^e, with r = y t of order 2(p+1) and f = y:
    x = s y = r^(p+1) f, y = f, s = r^(p+1) and t = y r = r^-1 f.
    """
    _require_odd_prime(p)
    n = 2 * (p + 1)
    m = _certified(
        dihedral_family_1_text(p),
        f"dh1({p})",
        (1, 3),  # y t, of index 2
        lambda: _split_extension(
            n, 1, _inversion(n), ((p + 1, _FLIP), (0, _FLIP), (p + 1, _KEEP), (n - 1, _FLIP))
        ),
        2 * n,
        max_cosets,
    )
    return _expect(m, 4 * (p + 1), (4 * (p + 1), 4))


def dihedral_family_2_text(p: int) -> str:
    return presentation_text(("x y s", f"s (x t)^{p + 2}"))


def dihedral_family_2(p: int, max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
    """Two-vertex map of type (2(p+2), 4) on the dihedral group of order 4(p+2).

    The marks as r^c f^e, with r = x t of order 2(p+2) and f = x:
    x = f, y = x s = r^(p+2) f, s = r^(p+2) and t = x r = r^-1 f.
    """
    _require_odd_prime(p)
    n = 2 * (p + 2)
    m = _certified(
        dihedral_family_2_text(p),
        f"dh2({p})",
        (0, 3),  # x t, of index 2
        lambda: _split_extension(
            n, 1, _inversion(n), ((0, _FLIP), (p + 2, _FLIP), (p + 2, _KEEP), (n - 1, _FLIP))
        ),
        2 * n,
        max_cosets,
    )
    return _expect(m, 4 * (p + 2), (2 * (p + 2), 4))


def _inversion(n: int) -> tuple[Perm, Perm]:
    """C_2 acting on C_n = <r> by r -> r^-1: the dihedral group of order 2n
    is C_n x| C_2, its element r^a f^b being (a, b), the point 2a + b."""
    return _unit_action(n, 1, ((1, 1), (-1, 1)))


# right multiplication of C_2 = {0, 1} by its identity and by its involution
_KEEP, _FLIP = (0, 1), (1, 0)


# ---------------------------------------------------------------------------
# the cyclic-Fitting family: F = C_{kappa*lambda} extended by V_4


class FamilyParams(_Record):
    """Parameters (kappa, lam, j) of the cyclic-Fitting family.

    kappa and lam are odd, coprime, with lam >= 3; j satisfies
    0 < j < lam and j^2 = 1 (mod lam).  Derived values:

    * p = 2*kappa*lam - 2*kappa - lam (minus the Euler characteristic);
    * a = (j-1)(lam+1)/2 reduced into [0, lam).
    """

    _fields = ("kappa", "lam", "j")

    def __init__(self, kappa: int, lam: int, j: int) -> None:
        if kappa < 1 or kappa % 2 == 0:
            raise ValueError("kappa must be a positive odd integer")
        if lam < 3 or lam % 2 == 0:
            raise ValueError("lam must be an odd integer >= 3")
        if math.gcd(kappa, lam) != 1:
            raise ValueError("kappa and lam must be coprime")
        if not 0 < j < lam:
            raise ValueError("j must satisfy 0 < j < lam")
        if (j * j) % lam != 1:
            raise ValueError("j^2 must be 1 modulo lam")
        self.kappa = kappa
        self.lam = lam
        self.j = j

    @property
    def a(self) -> int:
        return ((self.j - 1) * (self.lam + 1) // 2) % self.lam

    @property
    def p(self) -> int:
        return 2 * self.kappa * self.lam - 2 * self.kappa - self.lam

    @property
    def order(self) -> int:
        return 4 * self.kappa * self.lam

    @property
    def map_type(self) -> tuple[int, int]:
        return 4 * self.kappa, 2 * self.lam


def cyclic_fitting_params(p: int) -> list[FamilyParams]:
    """All family parameters attached to the odd prime p.

    Factors p + 1 = b*d with b = 1 (mod 4) and gcd(b+1, d+1) = 1, sets
    kappa = (b+1)/2 and lam = d+1, and attaches every j with j^2 = 1 mod lam.
    """
    _require_odd_prime(p)
    out: list[FamilyParams] = []
    for b in range(1, p + 2):
        if (p + 1) % b:
            continue
        d = (p + 1) // b
        if b % 4 != 1 or math.gcd(b + 1, d + 1) != 1:
            continue
        kappa, lam = (b + 1) // 2, d + 1
        for j in range(1, lam):
            if (j * j) % lam == 1:
                out.append(FamilyParams(kappa, lam, j))
    return out


def cyclic_fitting_text(params: FamilyParams) -> str:
    kappa, lam, j, a = params.kappa, params.lam, params.j, params.a
    closing = f"(t y)^{kappa} (s x)^{a} s" if a else f"(t y)^{kappa} s"
    return presentation_text(
        (
            f"(s x)^{lam}",
            f"(t y)^{2 * kappa}",
            "s (y t)^2 s (t y)^2",
            "x (y t)^2 x (t y)^2",
            f"t s x t (s x)^{j}",
            closing,
        )
    )


def _cyclic_fitting_direct(params: FamilyParams) -> tuple[Perm, ...]:
    """The four mark permutations of (C_lam x C_kappa) x| V_4, where
    V_4 = <s, t> acts on <u> x <w> by s: u -> u^-1, w -> w and
    t: u -> u^-j, w -> w^-1.

    Element b1*2 + b2 of V_4 is s^b1 t^b2, and V_4 multiplies by xor.  The
    marks are s, t, x = s*u = u^-1 s and y = u^a * w^((kappa-1)/2) * s*t.
    """
    kappa, lam, j = params.kappa, params.lam, params.j
    s, st, t = (tuple(v ^ b for v in range(4)) for b in (2, 3, 1))  # right multiplications
    action = _generated_action((s, t), _unit_action(lam, kappa, ((-1, 1), (-j, -1))))
    x_part, y_part = (lam - 1) * kappa, params.a * kappa + (kappa - 1) // 2
    return _split_extension(lam, kappa, action, ((x_part, s), (y_part, st), (0, s), (0, t)))


# the word (s x)(t y)^2, whose cyclic subgroup has index 4
_CYCLIC_FITTING_WORD = (2, 0, 3, 1, 3, 1)


def cyclic_fitting_map(
    params: FamilyParams, max_cosets: int = DEFAULT_MAX_COSETS
) -> EdgeBiregularMap:
    """Map of type (4*kappa, 2*lam) on the group of order 4*kappa*lam.

    The split extension is built explicitly and proved to be the presented
    group: the order certificate through <(s x)(t y)^2> gives the family
    order and every written relator holds on the action.  A failure raises
    VerificationError.
    """
    m = _certified(
        cyclic_fitting_text(params),
        f"cf({params.kappa},{params.lam},{params.j})",
        _CYCLIC_FITTING_WORD,
        lambda: _cyclic_fitting_direct(params),
        params.order,
        max_cosets,
    )
    return _expect(m, params.order, params.map_type)


# ---------------------------------------------------------------------------
# the valency-eight family: type (8, 6m), order 24m


def valency_eight_text(m: int) -> str:
    return presentation_text(
        (f"(s x)^{3 * m}", "(t y)^4", "(s x y)^2 t", "t x t y")
    )


def _valency_eight_direct(m: int, max_cosets: int) -> tuple[Perm, ...]:
    """The four mark permutations of C_m' x| B for m = 3^e m', 3 not dividing
    m', with B = ve(3^e) the regular action of its presentation.  x, y and s
    invert C_m' = <u> and t centralizes it.  The marks are x_B, y_B, u s_B
    and t_B, so s x = u (s x)_B has order lcm(m', 3^(e+1)) = 3m.
    """
    power = 1  # 3^e, the largest power of 3 dividing m
    while m % (3 * power) == 0:
        power *= 3
    lam = m // power
    marks_b = regular_action(parse_presentation(valency_eight_text(power)), max_cosets)
    keep, invert = _inversion(lam)
    action = _generated_action(marks_b, (invert, invert, invert, keep))
    return _split_extension(lam, 1, action, tuple(zip((0, 0, 1 % lam, 0), marks_b)))


def valency_eight_map(m: int, max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
    """Map of type (8, 6m) on a group of order 24m, chi = -(9m - 4).

    m must be a positive odd integer.  When 9m - 4 is composite the
    construction still stands but falls outside the prime-characteristic
    classification, so a warning is emitted.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer")
    if not is_prime(9 * m - 4):
        warnings.warn(
            f"9*m - 4 = {9 * m - 4} is composite; the map exists but its"
            " Euler characteristic is not minus a prime",
            stacklevel=2,
        )
    built = _certified(
        valency_eight_text(m),
        f"ve({m})",
        (2, 0),  # s x, of index 8
        lambda: _valency_eight_direct(m, max_cosets),
        24 * m,
        max_cosets,
    )
    return _expect(built, 24 * m, (8, 6 * m))


# ---------------------------------------------------------------------------
# the exceptional order-36 map


def exceptional_order36_text() -> str:
    return presentation_text(
        ("(t y)^2", "(s x)^3", "(x y t)^3", "(s t y)^3", "(x y s t)^2")
    )


def exceptional_order36_map(max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
    """The unique fully regular map in the odd-prime classification.

    Type (4,6), group of order 36 isomorphic to D6 x D6, chi = -3,
    non-orientable.
    """
    return _expect(_build(exceptional_order36_text(), "x36", max_cosets), 36, (4, 6))


# ---------------------------------------------------------------------------
# the twelve maps with chi = -2


CHI2_EXTRA_RELATORS: tuple[tuple[str, ...], ...] = (
    ("(t y)^4", "(s x)^4", "y s x s", "t x s x", "x t y t", "s y t y"),
    ("(t y)^2", "(s x)^6", "x y t", "t (s x)^3"),
    ("(t y)^3", "(s x)^3", "s t y x"),
    ("(t y)^2", "(s x)^4", "(y s)^4", "(t x)^2", "y s x s"),
    ("(t y)^2", "(s x)^4", "(y s)^2", "(t x)^2", "y (s x)^2"),
    ("(t y)^2", "(s x)^4", "(y s)^2", "(s t x)^2", "y (s x)^2"),
    ("(t y)^2", "(s x)^4", "(y s)^2", "(t x)^2", "t y (s x)^2"),
    ("(t y)^2", "(s x)^4", "(y s)^2", "(s t x)^2", "t y x s x"),
    ("(t y)^2", "(s x)^4", "(y s)^2", "(s t x)^2", "t y s"),
    ("(t y)^2", "(s x)^3", "t (s y)^2", "y (x t)^2"),
    ("(t y)^2", "(s x)^3", "(y s x)^2", "(t x)^2"),
    ("(t y)^2", "(s x)^3", "(y s)^2", "(t x)^2"),
)

CHI2_EXPECTED_ORDERS = (8, 12, 12, 16, 16, 16, 16, 16, 16, 24, 24, 24)
CHI2_EXPECTED_TYPES = (
    (8, 8), (4, 12), (6, 6),
    (4, 8), (4, 8), (4, 8), (4, 8), (4, 8), (4, 8),
    (4, 6), (4, 6), (4, 6),
)
CHI2_ORIENTABLE_INDICES = frozenset({1, 3, 4, 7, 11, 12})
CHI2_FULLY_REGULAR_INDICES = frozenset({1, 3, 7, 10, 12})


def chi_minus_2_text(index: int) -> str:
    """Presentation text of catalog entry ``index`` (1-based, 1..12)."""
    if not 1 <= index <= 12:
        raise ValueError("index must be between 1 and 12")
    return presentation_text(CHI2_EXTRA_RELATORS[index - 1])


def chi_minus_2_map(index: int, max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
    """Catalog entry ``index`` (1-based, 1..12) of the maps with chi = -2."""
    m = _build(chi_minus_2_text(index), f"chi2({index})", max_cosets)
    return _expect(m, CHI2_EXPECTED_ORDERS[index - 1], CHI2_EXPECTED_TYPES[index - 1])


def chi_minus_2_catalog(max_cosets: int = DEFAULT_MAX_COSETS) -> list[EdgeBiregularMap]:
    """The twelve maps supported by surfaces with chi = -2, in catalog order."""
    return [chi_minus_2_map(i, max_cosets) for i in range(1, 13)]


# ---------------------------------------------------------------------------
# probe: exhaustive map search in C_p x| D_nu


def cyclic_by_dihedral_probe(p: int, lam: int) -> list[EdgeBiregularMap]:
    """Search every group C_p x| D_{2*lam} for edge-biregular maps.

    The reflection marks of the dihedral group of order nu = 2*lam can act
    on C_p only as multiplication by 1 or -1.  Each pair of these images
    gives the action of D_nu by the helper in ``groups``, ``semidirect``
    rejects the pairs that are no homomorphism (product -1, lam odd), and
    all maps found are listed up to duality, twins and isomorphism, one per
    class of ``census.enumerate_maps``.

    Every found map of type (k, l) with l/2 >= 3 and p dividing neither k/2
    nor l/2 is checked against the structural restrictions: l = nu with
    nu = 4 (mod 8), k/2 in {2, l/2}, and chi = p(1 - l/4) for k = 4 or
    chi = p(2 - l/2) for k = l.  Violations raise VerificationError.  Type
    and chi are invariant under Aut(H) and the twin keeps (k, l), so checking
    each class's representative and its dual, of type (l, k), checks every
    map of the class.
    """
    from .census import enumerate_maps

    _require_odd_prime(p)
    if lam < 3:
        raise ValueError("lam must be at least 3")
    if lam % p == 0:
        raise ValueError("p must not divide lam")
    nu = 2 * lam
    dih = dihedral(nu)
    cp = cyclic(p)
    reflections = [[row[g] for row in dih.group.mul] for g in dih.marked]
    signs = _inversion(p)  # multiplication by 1 and by -1
    found: dict[tuple[int, ...], EdgeBiregularMap] = {}
    for e1 in signs:
        for e2 in signs:
            action = _generated_action(reflections, (e1, e2))
            try:
                grp = semidirect(cp, dih.group, action, name=f"C{p}:D{nu}")
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
    if half_k == 2:
        expected = Fraction(p * (2 - half_l), 2)
    else:
        expected = Fraction(p * (2 - half_l), 1)
    if chi != expected:
        raise VerificationError(f"chi {chi} differs from the predicted {expected}")
