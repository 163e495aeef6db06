"""Constructors for the classified families of edge-biregular maps.

Every map on a surface of Euler characteristic -p (p an odd prime) belongs,
up to duality and twins, to one of the families built here.  Each
constructor is named after its members' catalog label and returns a
:class:`Member`, whose ``build`` makes and checks the map:

* ``dh1(p)``, ``dh2(p)`` - one- and two-vertex maps of types (4(p+1), 4)
  and (2(p+2), 4) on the dihedral groups of orders 4(p+1) and 4(p+2);
* ``hpj(kappa, lam, j)`` - type (4*kappa, 2*lam), order 4*kappa*lam, on
  C_{kappa*lam} extended by V_4; it validates the triple, and
  ``cyclic_fitting_params(p)`` lists the triples attached to p;
* ``hp(m)`` - type (8, 6m), order 24m, chi = -(9m-4);
* ``h3()`` - the unique fully regular example, type (4,6), on D6 x D6;
* ``chi2(index)`` - entry index of the twelve maps with chi = -2.

``members(p)``, the one roster, lists the members with chi = -p in
catalog order.

``cyclic_by_dihedral_probe`` exhaustively searches groups of the shape
C_p x| D_nu for maps and checks the structural restrictions that any such
map must satisfy.

Each member is a presentation text and a word w: the presented group acts
on itself by right multiplication, marked by its generators x, y, s, t.
``regular_action_through`` builds that action from the cosets of the
cyclic subgroup <w>, of index 2 (dh1, dh2), 4 (hpj) or 8 (hp), by
Reidemeister-Schreier, in O(|H| log p) where enumerating the cosets of the
trivial subgroup costs O(|H| p).  For h3 and the chi = -2 maps w is empty
and the action is the coset table of the trivial subgroup.  ``build``
checks the order and type of what it built and raises VerificationError
on a mismatch.  All presentation texts are kept verbatim, including
redundant relators.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from .groups import (
    DEFAULT_MAX_COSETS,
    CapacityExceeded,
    VerificationError,
    _Record,
    cyclic,
    dihedral,
    is_prime,
    semidirect,
)
from .maps import EdgeBiregularMap, dual, euler_characteristic, map_from_action, type_of
from .presentations import (
    CosetTable,
    Perm,
    Presentation,
    Word,
    _check_table,
    coset_enumerate,
    parse_presentation,
    regular_action,
)


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


def _warn_unless_prime(minus_chi: int) -> None:
    """A member whose -chi is not prime exists, but falls outside the
    prime-characteristic classification: warn, at the caller's caller."""
    if not is_prime(minus_chi):
        warnings.warn(
            f"-chi = {minus_chi} is not prime; the map exists but its"
            " Euler characteristic is not minus a prime",
            stacklevel=3,
        )


_COMMON_RELATORS = ("x^2", "y^2", "s^2", "t^2", "(x y)^2", "(s t)^2")


def presentation_text(extra_relators: tuple[str, ...] | list[str]) -> str:
    """Standard four-generator presentation text with the given extra relators."""
    lines = ["gens x y s t"]
    lines += [f"rel {r}" for r in _COMMON_RELATORS]
    lines += [f"rel {r}" for r in extra_relators]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# one record for every member: the regular action lifted through <w>


class Member(_Record):
    """One family member: its catalog label and presentation text, the
    word w whose cyclic subgroup the action is lifted through, and the
    order and type its map must have.  Equal when label and text are."""

    _fields = ("label", "text")

    def __init__(
        self, label: str, text: str, w: Word, order: int, map_type: tuple[int, int]
    ) -> None:
        self.label = label
        self.text = text
        self.w = w
        self.order = order
        self.map_type = map_type

    def build(self, max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
        """The group presented by the text acting on itself, marked by its
        generators x, y, s, t in that order, built through <w>.

        The text is parsed first and the order held against max_cosets
        before anything is enumerated; VerificationError, naming the label,
        unless the map has the member's order and type.
        """
        pres = parse_presentation(self.text)
        if self.order > max_cosets:
            raise CapacityExceeded(max_cosets)
        m = map_from_action(regular_action_through(pres, self.w, max_cosets))
        if len(m[0]) != self.order:
            raise VerificationError(f"{self.label}: expected order {self.order}, got {len(m[0])}")
        if type_of(m) != self.map_type:
            raise VerificationError(
                f"{self.label}: expected type {self.map_type}, got {type_of(m)}"
            )
        return m


def members(p: int) -> list[Member]:
    """The family members with chi = -p, in catalog order: the twelve chi2
    maps for p = 2; otherwise dh1, dh2, one hpj member per entry of
    :func:`cyclic_fitting_params`, hp when 9 divides p + 4, and h3 when
    p = 3.  ValueError unless p is prime."""
    if p == 2:
        return [chi2(index) for index in range(1, 13)]
    out = [dh1(p), dh2(p)]
    out += [hpj(*q) for q in cyclic_fitting_params(p)]
    if (p + 4) % 9 == 0:
        out.append(hp((p + 4) // 9))
    if p == 3:
        out.append(h3())
    return out


def regular_action_through(
    pres: Presentation, w: Word, max_cosets: int = DEFAULT_MAX_COSETS
) -> tuple[Perm, ...]:
    """The presented group G acting on itself by right multiplication,
    lifted from the cosets of the cyclic subgroup K = <w>.

    Enumerates the cosets of K, then rewrites every relator, and g g for
    every generator, from every coset into abelianized Schreier generators
    over a breadth-first transversal t_c (Reidemeister-Schreier; Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, section 2.5).  A
    generator is an involution, so the edges (c, g) and (c g, g) share one
    variable with opposite signs; tree edges are trivial.  K is cyclic, so
    it equals its abelianization Z^m / L, L the span of the rows, and
    N = |K| is the lattice index.  :func:`_discrete_log` writes each
    variable as a power of w, so t_c g = w^a(c,g) t_(c g): point
    i [G:K] + c stands for w^i t_c, and g sends it to
    ((i + a(c, g)) mod N) [G:K] + c g.  Point 0 is the identity.  The cost
    is the enumeration, [G:K] passes over the expanded relators and O(|G|)
    per generator.

    An empty w gives :func:`regular_action`.  VerificationError when K is
    infinite; CapacityExceeded when |G| exceeds max_cosets, before the
    action is built.  Like a coset table, the action is checked by
    :func:`_check_table` before it is returned.
    """
    if not w:
        return regular_action(pres, max_cosets)
    columns = coset_enumerate(pres, (tuple(w),), max_cosets).columns
    n = len(columns[0])
    seen = [False] * n
    seen[0] = True
    tree = set()
    found = [0]
    for c in found:  # grows while it is walked
        for g, col in enumerate(columns):
            d = col[c]
            if not seen[d]:
                seen[d] = True
                found.append(d)
                tree.add((c, g))
    # coefficient[g][c]: the edge (c, g) is variable abs(v) - 1 to the power
    # sign(v), or trivial when v is 0
    coefficient = [[0] * n for _ in columns]
    m = 0
    for g, col in enumerate(columns):
        for c, d in enumerate(col):
            if c <= d and (c, g) not in tree and (d, g) not in tree:
                m += 1
                coefficient[g][c] = m
                coefficient[g][d] = m if c == d else -m

    def rewritten(word: Word, c: int) -> list[int]:
        row = [0] * m
        for g in word:
            v = coefficient[g][c]
            if v:
                row[abs(v) - 1] += 1 if v > 0 else -1
            c = columns[g][c]
        return row

    words = (*pres.relators, *((g, g) for g in range(len(columns))))
    basis = _echelon([rewritten(word, c) for word in words for c in range(n)], m)
    if basis is None:
        raise VerificationError("the subgroup <w> is infinite")
    order = math.prod(row[j] for j, row in enumerate(basis))
    if n * order > max_cosets:
        raise CapacityExceeded(max_cosets)
    a = _discrete_log(basis, rewritten(w, 0), order)
    points = list(range(n * order))  # entries share these int objects
    perms = []
    for g, col in enumerate(columns):
        perm = [0] * (n * order)
        for c, d in enumerate(col):
            v = coefficient[g][c]
            shift = (a[v - 1] if v > 0 else -a[-v - 1]) % order if v else 0
            block = points[d::n]
            perm[c::n] = block[shift:] + block[:shift]
        perms.append(tuple(perm))
    action = tuple(perms)
    _check_table(CosetTable(action), pres, ())
    return action


def _echelon(rows: list[list[int]], m: int) -> list[list[int]] | None:
    """An upper-triangular basis of the span of rows in Z^m, pivots
    positive, by gcd row reduction; None when the rows have rank below m."""
    basis = []
    for j in range(m):
        pivot = None
        rest = []
        for row in rows:
            if row[j] and pivot is None:
                pivot = row
                continue
            while row[j]:  # Euclid on column j
                q = pivot[j] // row[j]  # type: ignore[index]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]  # type: ignore[arg-type]
            rest.append(row)
        if pivot is None:
            return None
        basis.append(pivot if pivot[j] > 0 else [-a for a in pivot])
        rows = rest
    return basis


def _discrete_log(basis: list[list[int]], v: list[int], n: int) -> list[int]:
    """A functional a on Z^m, as its values mod n on the unit vectors, with
    a . b = 0 (mod n) for every row b of basis and a . v = 1 (mod n).

    basis is upper triangular with positive pivots whose product is n, so
    adj = n basis^-1 is integral, and the functionals that vanish on the
    rows mod n are adj lam for lam in Z^m.  With u = v adj, lam is built one
    coordinate at a time so that u . lam = gcd(n, u_0, ..., u_k) (mod n);
    VerificationError unless that gcd ends at 1, that is unless v generates
    Z^m / span(basis).
    """
    m = len(basis)
    u: list[int] = []  # u basis = n v, solved column by column
    for j in range(m):
        u.append((n * v[j] - sum(u[i] * basis[i][j] for i in range(j))) // basis[j][j])
    lam, g = [0] * m, n
    for k, uk in enumerate(u):
        d = math.gcd(g, uk)
        beta = pow(uk // d, -1, g // d)
        alpha = (d - beta * uk) // g  # alpha g + beta uk = d
        lam = [alpha * x % n for x in lam]
        lam[k] = beta
        g = d
    if g != 1:
        raise VerificationError("the rewritten w does not generate the subgroup <w>")
    a = [0] * m  # basis a = n lam, solved from the last row up
    for j in reversed(range(m)):
        a[j] = (n * lam[j] - sum(basis[j][i] * a[i] for i in range(j + 1, m))) // basis[j][j]
    return [x % n for x in a]


# ---------------------------------------------------------------------------
# the two dihedral families


def dh1(p: int) -> Member:
    """Single-vertex map of type (4(p+1), 4) on the dihedral group of order 4(p+1).

    The marks as r^c f^e, with r = y t of order 2(p+1) and f = y:
    x = s y = r^(p+1) f, y = f, s = r^(p+1) and t = y r = r^-1 f.
    """
    _require_odd_prime(p)
    order = 4 * (p + 1)
    text = presentation_text(("x y s", f"s (y t)^{p + 1}"))
    y_t = (1, 3)  # of index 2
    return Member("dh1", text, y_t, order, (order, 4))


def dh2(p: int) -> Member:
    """Two-vertex map of type (2(p+2), 4) on the dihedral group of order 4(p+2).

    The marks as r^c f^e, with r = x t of order 2(p+2) and f = x:
    x = f, y = x s = r^(p+2) f, s = r^(p+2) and t = x r = r^-1 f.
    """
    _require_odd_prime(p)
    text = presentation_text(("x y s", f"s (x t)^{p + 2}"))
    x_t = (0, 3)  # of index 2
    return Member("dh2", text, x_t, 4 * (p + 2), (2 * (p + 2), 4))


# ---------------------------------------------------------------------------
# the cyclic-Fitting family: F = C_{kappa*lambda} extended by V_4


def cyclic_fitting_params(p: int) -> list[tuple[int, int, int]]:
    """All triples (kappa, lam, j) of :func:`hpj` attached to the odd prime
    p, by b, then by j.

    Factors p + 1 = b*d with b = 1 (mod 4), sets kappa = (b+1)/2 and
    lam = d+1, and attaches every j with j^2 = 1 mod lam.  The pairs b, d
    are found up to sqrt(p+1), and the j by factoring lam.  The condition
    gcd(b+1, d+1) = 1 always holds: d+1 is odd, and an odd prime dividing
    b+1 and d+1 divides bd - 1 = p, while b+1 is even and below 2p.
    """
    _require_odd_prime(p)
    n = p + 1
    small = [b for b in range(1, math.isqrt(n) + 1) if n % b == 0]
    out = []
    for b in small + [n // b for b in reversed(small) if b * b != n]:
        if b % 4 == 1:
            kappa, lam = (b + 1) // 2, n // b + 1
            out += [(kappa, lam, j) for j in _roots_of_one(lam)]
    return out


def _roots_of_one(lam: int) -> list[int]:
    """The j in (0, lam) with j^2 = 1 (mod lam), for odd lam >= 3, ascending.

    Modulo an odd prime power the only roots are 1 and -1, so by the
    Chinese remainder theorem each root is the j = 1 (mod u) with j = -1
    (mod v) for one splitting lam = u*v into coprime products of lam's
    prime powers: j = 1 + u*(-2/u mod v).
    """
    splits, rest, q = [1], lam, 3
    while rest > 1:
        if q * q > rest:
            q = rest  # what is left is prime
        if rest % q == 0:
            power = 1
            while rest % q == 0:
                rest, power = rest // q, power * q
            splits += [u * power for u in splits]
        q += 2
    return sorted(1 + u * (-2 * pow(u, -1, lam // u) % (lam // u)) for u in splits)


def hpj(kappa: int, lam: int, j: int) -> Member:
    """Map of type (4*kappa, 2*lam) on the group of order 4*kappa*lam,
    C_(kappa*lam) extended by V_4, built through <(s x)(t y)^2>.

    kappa and lam must be odd and coprime, with lam >= 3, and j must
    satisfy 0 < j < lam and j^2 = 1 (mod lam), else ValueError; when
    p = 2*kappa*lam - 2*kappa - lam is not prime a warning is emitted.
    The closing relator uses a = (j-1)(lam+1)/2 reduced into [0, lam).
    """
    if kappa < 1 or kappa % 2 == 0:
        raise ValueError("kappa must be a positive odd integer")
    if lam < 3 or lam % 2 == 0:
        raise ValueError("lambda must be an odd integer >= 3")
    if math.gcd(kappa, lam) != 1:
        raise ValueError("kappa and lambda must be coprime")
    if not 0 < j < lam:
        raise ValueError("j must satisfy 0 < j < lambda")
    if (j * j) % lam != 1:
        raise ValueError("j^2 must be 1 modulo lambda")
    _warn_unless_prime(2 * kappa * lam - 2 * kappa - lam)
    a = (j - 1) * (lam + 1) // 2 % lam
    closing = f"(t y)^{kappa} (s x)^{a} s" if a else f"(t y)^{kappa} s"
    fitting = (f"(s x)^{lam}", f"(t y)^{2 * kappa}", "s (y t)^2 s (t y)^2", "x (y t)^2 x (t y)^2")
    text = presentation_text((*fitting, f"t s x t (s x)^{j}", closing))
    s_x_t_y_t_y = (2, 0, 3, 1, 3, 1)  # of index 4
    label = f"hpj({kappa},{lam},{j})"
    return Member(label, text, s_x_t_y_t_y, 4 * kappa * lam, (4 * kappa, 2 * lam))


# ---------------------------------------------------------------------------
# the valency-eight family: type (8, 6m), order 24m


def hp(m: int) -> Member:
    """Map of type (8, 6m) on a group of order 24m, chi = -(9m - 4).

    m must be a positive odd integer.  When 9m - 4 is composite the
    construction still stands but falls outside the prime-characteristic
    classification, so a warning is emitted.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer")
    _warn_unless_prime(9 * m - 4)
    text = presentation_text((f"(s x)^{3 * m}", "(t y)^4", "(s x y)^2 t", "t x t y"))
    s_x = (2, 0)  # of index 8
    return Member(f"hp({m})", text, s_x, 24 * m, (8, 6 * m))


# ---------------------------------------------------------------------------
# the exceptional order-36 map


def h3() -> Member:
    """The unique fully regular map in the odd-prime classification.

    Type (4,6), group of order 36 isomorphic to D6 x D6, chi = -3,
    non-orientable.
    """
    text = presentation_text(("(t y)^2", "(s x)^3", "(x y t)^3", "(s t y)^3", "(x y s t)^2"))
    return Member("h3", text, (), 36, (4, 6))


# ---------------------------------------------------------------------------
# the twelve maps with chi = -2


# each map's extra relators, order and type
_CHI2 = (
    (("(t y)^4", "(s x)^4", "y s x s", "t x s x", "x t y t", "s y t y"), 8, (8, 8)),
    (("(t y)^2", "(s x)^6", "x y t", "t (s x)^3"), 12, (4, 12)),
    (("(t y)^3", "(s x)^3", "s t y x"), 12, (6, 6)),
    (("(t y)^2", "(s x)^4", "(y s)^4", "(t x)^2", "y s x s"), 16, (4, 8)),
    (("(t y)^2", "(s x)^4", "(y s)^2", "(t x)^2", "y (s x)^2"), 16, (4, 8)),
    (("(t y)^2", "(s x)^4", "(y s)^2", "(s t x)^2", "y (s x)^2"), 16, (4, 8)),
    (("(t y)^2", "(s x)^4", "(y s)^2", "(t x)^2", "t y (s x)^2"), 16, (4, 8)),
    (("(t y)^2", "(s x)^4", "(y s)^2", "(s t x)^2", "t y x s x"), 16, (4, 8)),
    (("(t y)^2", "(s x)^4", "(y s)^2", "(s t x)^2", "t y s"), 16, (4, 8)),
    (("(t y)^2", "(s x)^3", "t (s y)^2", "y (x t)^2"), 24, (4, 6)),
    (("(t y)^2", "(s x)^3", "(y s x)^2", "(t x)^2"), 24, (4, 6)),
    (("(t y)^2", "(s x)^3", "(y s)^2", "(t x)^2"), 24, (4, 6)),
)
CHI2_ORIENTABLE_INDICES = frozenset({1, 3, 4, 7, 11, 12})
CHI2_FULLY_REGULAR_INDICES = frozenset({1, 3, 7, 10, 12})


def chi2(index: int) -> Member:
    """Catalog entry ``index`` (1-based, 1..12) of the maps with chi = -2."""
    if not 1 <= index <= 12:
        raise ValueError("index must be between 1 and 12")
    relators, order, map_type = _CHI2[index - 1]
    return Member(f"chi2({index})", presentation_text(relators), (), order, map_type)


# ---------------------------------------------------------------------------
# probe: exhaustive map search in C_p x| D_nu


def cyclic_by_dihedral_probe(p: int, lam: int) -> list[EdgeBiregularMap]:
    """Search every group C_p x| D_{2*lam} for edge-biregular maps.

    The generating reflections lam and lam + 1 of the dihedral group of
    order nu = 2*lam can act on C_p only as multiplication by 1 or -1.
    ``semidirect`` takes each pair of these images, rejects the pairs that
    are no homomorphism (product -1, lam odd), and all maps found are listed
    up to duality, twins and isomorphism, one per class of
    ``census.enumerate_maps``.

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
    if half_k == 2:
        expected = Fraction(p * (2 - half_l), 2)
    else:
        expected = Fraction(p * (2 - half_l), 1)
    if chi != expected:
        raise VerificationError(f"chi {chi} differs from the predicted {expected}")
