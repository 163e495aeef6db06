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

Each member is a presentation text and a word w: the presented group acts
on itself by right multiplication, marked by its generators x, y, s, t.
``presentations.regular_action`` builds that action through the cyclic
subgroup <w>, of index 2 (dh1, dh2), 4 (hpj) or 8 (hp); for h3 and the
chi = -2 maps w is empty.  ``build`` checks the order and type of what it
built and raises VerificationError on a mismatch.  All presentation texts
are kept verbatim, including redundant relators.
"""

from __future__ import annotations

import math
import warnings

from .groups import (
    DEFAULT_MAX_COSETS,
    CapacityExceeded,
    VerificationError,
    _require_odd_prime,
    is_prime,
)
from .maps import EdgeBiregularMap, map_from_action, type_of
from .presentations import Word, parse_presentation, regular_action


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
# one class for every member: the regular action lifted through <w>


class Member:
    """One family member: its catalog label and presentation text, the
    word w whose cyclic subgroup the action is lifted through, and the
    order and type its map must have."""

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
        m = map_from_action(regular_action(pres, self.w, max_cosets))
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
