"""Edge-biregular maps in canonical algebraic form.

A map here is a finite group H with an ordered quadruple of marked
involutions (x, y, s, t) such that (xy)^2 = (st)^2 = 1 and the four marks
generate H.  The pair <x, y> acts on the "bold" side and <s, t> on the
"dashed" side of each edge; the type is (k, l) with k = 2*ord(t*y) and
l = 2*ord(s*x), the vertex and face valencies.  Vertex, edge and face
counts are |H|/k, |H|/2 and |H|/l, so the supporting surface has

    chi = |H| * (1/k - 1/2 + 1/l).

Duality swaps the two sides' roles pairwise ((x,y,s,t) -> (y,x,t,s)), the
twin swaps sides wholesale ((x,y,s,t) -> (s,t,x,y)); a map is fully regular
when it is isomorphic to its twin and self-dual when isomorphic to its dual.
Both tests and the canonical key compare standardized tables, whose rows
come from the one walk that numbers H, ``groups._standard_rows``.

A map is stored as H acting on itself by right multiplication: four
permutations of |H| points, one per mark, so its size is linear in |H|; a
semi-edge map is stored the same way, with three.  Point 0 is the
identity, as element 0 is in every group table and coset 0 in every coset
table, so each mark is its permutation's image of 0.  Every invariant
below is computed from the permutations.  A dense multiplication table is
built only on request (``m.group``), for abstract isomorphism tests.

Orientability is computed two independent ways (index of the subgroup of
even words, and 2-colorability of the flag graph) which must agree.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .groups import (
    DEFAULT_MAX_COSETS,
    FiniteGroup,
    Perm,
    VerificationError,
    _Record,
    _same_standard_table,
    _standard_rows,
    group_from_action,
    subgroup_closure,
)


class MapStructureError(ValueError):
    """A quadruple of marked elements does not define an edge-biregular map."""


class NotInvolution(MapStructureError):
    pass


class NotDistinct(MapStructureError):
    pass


class PairNotCommuting(MapStructureError):
    pass


class NotGenerating(MapStructureError):
    pass


MARK_NAMES = ("x", "y", "s", "t")


class EdgeBiregularMap(_Record):
    """Value object: H acting on itself by right multiplication by the marks.

    ``perms[i][h]`` is the point h times the i-th mark of (x, y, s, t), and
    point 0 is the identity, so the mark itself is ``perms[i][0]``.  Maps
    built from a presentation number H by coset; maps built on a dense group
    use its element numbers.  Equality compares ``perms`` only.
    """

    _fields = ("perms",)

    def __init__(self, perms: tuple[Perm, Perm, Perm, Perm], name: str = "H") -> None:
        self.perms = perms
        self.name = name

    @property
    def order(self) -> int:
        return len(self.perms[0])

    @property
    def marks(self) -> tuple[int, int, int, int]:
        return tuple(perm[0] for perm in self.perms)  # type: ignore[return-value]

    @property
    def x(self) -> int:
        return self.perms[0][0]

    @property
    def y(self) -> int:
        return self.perms[1][0]

    @property
    def s(self) -> int:
        return self.perms[2][0]

    @property
    def t(self) -> int:
        return self.perms[3][0]

    @cached_property
    def group(self) -> FiniteGroup:
        """The dense group, built from the action on first use (|H|^2 entries).
        For a map found on a dense group it is that group's table again."""
        return group_from_action(self.perms, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, l = type_of(self)
        return f"EdgeBiregularMap({self.name}, order={self.order}, type=({k},{l}))"


def _check_involutions(perms: Sequence[Perm], names: Sequence[str]) -> None:
    """One permutation per name, all of one nonempty length, each an
    involution moving point 0 (its mark is not the identity).  Raises
    MapStructureError for the wrong shape or an entry outside range(|H|),
    else NotInvolution naming the first mark that fails."""
    if len(perms) != len(names):
        raise MapStructureError(f"expected {len(names)} marks ({', '.join(names)})")
    points = range(len(perms[0]))
    if any(len(perm) != len(points) for perm in perms):
        raise MapStructureError("mark permutations have different lengths")
    if not points:
        raise MapStructureError("mark permutations are empty")
    for name, perm in zip(names, perms):
        try:
            if perm[0] == 0 or any(perm[perm[h]] != h for h in points):
                raise NotInvolution(f"mark {name} is not an involution")
        except IndexError:
            raise MapStructureError(f"mark {name} has an entry outside range(|H|)") from None


def _check_marks(perms: tuple[Perm, ...]) -> None:
    """The marks are distinct commuting pairs of involutions generating H.

    Raises as :func:`_check_involutions` does, then NotDistinct /
    PairNotCommuting / NotGenerating, each naming the offending marks.
    O(|H|): point 0 is the identity, so in a regular action an element is
    the identity iff it fixes point 0, and the marks generate H iff the
    orbit of 0 under them, walked breadth first, is H in full.
    """
    _check_involutions(perms, MARK_NAMES)
    points = range(len(perms[0]))
    if len({perm[0] for perm in perms}) != 4:
        raise NotDistinct("marks x, y, s, t must be pairwise distinct")
    px, py, ps, pt = perms
    if any(py[px[h]] != px[py[h]] for h in points):
        raise PairNotCommuting("x and y do not commute")
    if any(pt[ps[h]] != ps[pt[h]] for h in points):
        raise PairNotCommuting("s and t do not commute")
    if len(_orbit(perms)) != len(points):
        raise NotGenerating("marks do not generate the group")


def _orbit(perms: tuple[Perm, ...] | list[Perm]) -> list[int]:
    """The points reached from 0 by the permutations, breadth first."""
    seen = {0}
    orbit = [0]
    for h in orbit:  # grows while it is walked
        for perm in perms:
            g = perm[h]
            if g not in seen:
                seen.add(g)
                orbit.append(g)
    return orbit


def map_from_action(perms: tuple[Perm, ...], name: str = "H") -> EdgeBiregularMap:
    """Validate the four mark permutations of a regular right action (point
    0 the identity), as :func:`_check_marks` does, and build the map."""
    _check_marks(perms)
    return EdgeBiregularMap(tuple(perms), name)  # type: ignore[arg-type]


def new_map(group: FiniteGroup, marks: tuple[int, int, int, int]) -> EdgeBiregularMap:
    """Validate a marked quadruple of a dense group and build the map from
    the table's columns for the marks, by :func:`map_from_action`.

    Raises MapStructureError for a mark outside the group, else as
    :func:`map_from_action` does.
    """
    for z in marks:
        if not 0 <= z < group.order:
            raise MapStructureError(f"mark {z} out of range")
    return map_from_action(_unchecked(group, marks).perms, group.name)


def _unchecked(group: FiniteGroup, marks: tuple[int, int, int, int]) -> EdgeBiregularMap:
    perms = tuple(tuple(row[z] for row in group.mul) for z in marks)
    return EdgeBiregularMap(perms, group.name)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# invariants


def product_order(m: EdgeBiregularMap | SemiEdgeMap, first: int, second: int) -> int:
    """Order of the product of marks number ``first`` and ``second`` (0..3
    for x, y, s, t of a map, 0..2 for x, y, r of a semi-edge map), by
    walking its cycle through the identity, point 0."""
    a, b = m.perms[first], m.perms[second]
    h, k = b[a[0]], 1
    while h != 0:
        h = b[a[h]]
        k += 1
    return k


def type_of(m: EdgeBiregularMap) -> tuple[int, int]:
    """(k, l): twice the orders of t*y and s*x.  Not normalized; the census
    layer sorts k <= l for reporting."""
    return 2 * product_order(m, 3, 1), 2 * product_order(m, 2, 0)


def counts(m: EdgeBiregularMap) -> tuple[int, int, int]:
    """(vertices, edges, faces)."""
    n = m.order
    k, l = type_of(m)
    if n % k or n % l or n % 2:
        raise VerificationError(f"type ({k},{l}) does not divide the order {n}")
    return n // k, n // 2, n // l


def euler_characteristic(m: EdgeBiregularMap) -> int:
    v, e, f = counts(m)
    return v - e + f


def euler_characteristic_formula(order: int, k: int, l: int) -> int | Fraction:
    """|H| * (1/k - 1/2 + 1/l) as an exact rational: an int when integral.

    Integer arithmetic on |H| * (2l - kl + 2k) / (2kl); a Fraction is made
    only for the rare non-integral value.
    """
    num = order * (2 * l - k * l + 2 * k)
    den = 2 * k * l
    if num % den:
        return Fraction(num, den)
    return num // den


# ---------------------------------------------------------------------------
# flags


class FlagStructure(_Record):
    """The 2|H| flags with the three adjacency involutions.

    Flag 2*h + 0 is the bold-side flag at group element h, flag 2*h + 1 the
    dashed-side flag.  rho0 multiplies by x on the bold side and s on the
    dashed side, rho2 by y and t, and rho1 swaps sides.
    """

    _fields = ("rho0", "rho1", "rho2")

    def __init__(
        self, rho0: tuple[int, ...], rho1: tuple[int, ...], rho2: tuple[int, ...]
    ) -> None:
        self.rho0 = rho0
        self.rho1 = rho1
        self.rho2 = rho2

    @property
    def num_flags(self) -> int:
        return len(self.rho0)

    def orbit_count(self, perms: tuple[tuple[int, ...], ...]) -> int:
        return len(self.orbits(perms))

    def orbits(self, perms: tuple[tuple[int, ...], ...]) -> list[list[int]]:
        n = self.num_flags
        seen = [False] * n
        out: list[list[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            for f in orbit:
                for p in perms:
                    g = p[f]
                    if not seen[g]:
                        seen[g] = True
                        orbit.append(g)
            out.append(orbit)
        return out


def flag_structure(m: EdgeBiregularMap) -> FlagStructure:
    px, py, ps, pt = m.perms
    rho0 = [0] * (2 * m.order)
    rho1 = [0] * (2 * m.order)
    rho2 = [0] * (2 * m.order)
    for h in range(m.order):
        rho0[2 * h] = 2 * px[h]
        rho0[2 * h + 1] = 2 * ps[h] + 1
        rho2[2 * h] = 2 * py[h]
        rho2[2 * h + 1] = 2 * pt[h] + 1
        rho1[2 * h] = 2 * h + 1
        rho1[2 * h + 1] = 2 * h
    return FlagStructure(tuple(rho0), tuple(rho1), tuple(rho2))


# ---------------------------------------------------------------------------
# orientability (two independent routes, checked to agree)


def _even_subgroup_index(m: EdgeBiregularMap) -> int:
    """Index (1 or 2) of the subgroup of even words in the marks: |H| over
    the size of the orbit of 0 under x*y, x*s and x*t.  These three
    generate every product a*b of two marks, since a*b = (x*a)^-1 (x*b)
    when x and a are involutions."""
    px, *others = m.perms
    products = [tuple(map(a.__getitem__, px)) for a in others]
    size = len(_orbit(products))
    index, remainder = divmod(m.order, size)
    if remainder or index not in (1, 2):
        raise VerificationError(f"even subgroup of order {size} in a group of order {m.order}")
    return index


def _flag_graph_bipartite(fs: FlagStructure) -> bool:
    n = fs.num_flags
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            f = stack.pop()
            c = 1 - color[f]
            for p in (fs.rho0, fs.rho1, fs.rho2):
                g = p[f]
                if color[g] == -1:
                    color[g] = c
                    stack.append(g)
                elif color[g] != c:
                    return False
    return True


def is_orientable(m: EdgeBiregularMap) -> bool:
    by_index = _even_subgroup_index(m) == 2
    by_flags = _flag_graph_bipartite(flag_structure(m))
    if by_index != by_flags:
        raise VerificationError("orientability algorithms disagree")
    return by_index


# ---------------------------------------------------------------------------
# duality, twins, isomorphism


def _reordered(m: EdgeBiregularMap, order: tuple[int, int, int, int]) -> EdgeBiregularMap:
    perms = tuple(m.perms[i] for i in order)
    return EdgeBiregularMap(perms, m.name)  # type: ignore[arg-type]


def dual(m: EdgeBiregularMap) -> EdgeBiregularMap:
    return _reordered(m, (1, 0, 3, 2))


def twin(m: EdgeBiregularMap) -> EdgeBiregularMap:
    return _reordered(m, (2, 3, 0, 1))


def is_fully_regular(m: EdgeBiregularMap) -> bool:
    """m is isomorphic to its twin."""
    return _same_standard_table(m.perms, twin(m).perms)


def is_self_dual(m: EdgeBiregularMap) -> bool:
    """m is isomorphic to its dual."""
    return _same_standard_table(m.perms, dual(m).perms)


def equivalence_key(m: EdgeBiregularMap) -> tuple[int, ...]:
    """Canonical key of m up to isomorphism, duality and twinning.

    The least standardized table (``groups._standard_rows``) over the
    orderings of m, dual(m), twin(m) and dual(twin(m)); two maps are
    equivalent iff their keys are equal.

    The four walks all number the orbit of 0, so their tables have
    the same length; they are drawn from one row (one element of H) at a
    time.  A variant is dropped at its first row that is larger than the
    least row, and the last one left is drained alone, so a variant that
    loses early costs only its first rows.
    """
    x, y, s, t = m.perms
    walks = [
        _standard_rows(perms)
        for perms in ((x, y, s, t), (y, x, t, s), (s, t, x, y), (t, s, y, x))
    ]
    key: list[int] = []
    while len(walks) > 1:
        rows = [next(walk, None) for walk in walks]
        if rows[0] is None:  # every walk has ended
            break
        least = min(rows)
        walks = [walk for walk, row in zip(walks, rows) if row == least]
        key += least
    for row in walks[0]:
        key += row
    return tuple(key)


# ---------------------------------------------------------------------------
# semi-edge maps (the s = t degeneracy)


class SemiEdgeMap(_Record):
    """Map with a semi-edge at every corner: marks (x, y, r) with s = t = r.

    Stored as an :class:`EdgeBiregularMap` is: ``perms`` are the permutations
    of H by right multiplication by x, y and r, point 0 the identity.
    """

    _fields = ("perms",)

    def __init__(self, perms: tuple[Perm, Perm, Perm]) -> None:
        self.perms = perms


def semi_edge_type(sm: SemiEdgeMap) -> tuple[int, int]:
    """(k, l): twice the orders of r*y and r*x."""
    return 2 * product_order(sm, 2, 1), 2 * product_order(sm, 2, 0)


def semi_edge_counts(sm: SemiEdgeMap) -> dict[str, int]:
    """Vertices, full edges, semi-edges, faces and flags of the semi-edge map.

    Semi-edges carry two flags each, full edges four; the supporting surface
    is unchanged by semi-edge insertion, so chi = V - E_full + F.
    """
    n = len(sm.perms[0])
    k, l = semi_edge_type(sm)
    v, f = n // k, n // l
    full, semi = n // 4, n // 2
    return {
        "vertices": v,
        "edges": full,
        "semi_edges": semi,
        "faces": f,
        "flags": 4 * full + 2 * semi,
        "chi": v - full + f,
    }


def insert_semi_edges(regular: Sequence[Perm]) -> SemiEdgeMap:
    """From a fully regular map triple (r0, r1, r2), permutations of a
    regular action with point 0 the identity, insert a semi-edge into every
    corner: the result is the semi-edge map with marks (r0, r2, r1).

    The marks must be three distinct involutions generating H with
    (r0*r2)^2 = 1, else this raises as :func:`map_from_action` does;
    distinctness excludes the degenerate semi-star configurations.  The
    type doubles: (ord(r1 r2), ord(r0 r1)) becomes (2k0, 2l0)."""
    _check_involutions(regular, ("r0", "r1", "r2"))
    r0, r1, r2 = regular
    if len({r0[0], r1[0], r2[0]}) != 3:
        raise NotDistinct("semi-star configuration: marks must be distinct")
    if any(r2[r0[h]] != r0[r2[h]] for h in range(len(r0))):
        raise PairNotCommuting("r0 and r2 do not commute")
    if len(_orbit(regular)) != len(r0):
        raise NotGenerating("marks do not generate the group")
    return SemiEdgeMap((r0, r2, r1))


def delete_semi_edges(sm: SemiEdgeMap) -> tuple[Perm, Perm, Perm]:
    """Inverse of insert_semi_edges: recover the triple (r0, r1, r2)."""
    x, y, r = sm.perms
    return x, r, y


# ---------------------------------------------------------------------------
# map files: a presentation block plus one `mark x y s t` line


def load_map(text: str, max_cosets: int = DEFAULT_MAX_COSETS) -> EdgeBiregularMap:
    """Build the map defined by a map file (presentation + mark line)."""
    from .presentations import parse_presentation, regular_action

    mark_lines = [
        (lineno, names)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (names := _mark_names(raw)) is not None
    ]
    if not mark_lines:
        raise MapStructureError("map file is missing a mark line")
    if len(mark_lines) > 1:
        raise MapStructureError(f"line {mark_lines[1][0]}: duplicate mark line")
    mark_names = mark_lines[0][1]
    if len(mark_names) != 4:
        raise MapStructureError("mark line must name exactly four generators")
    pres = parse_presentation(strip_mark_lines(text))  # line numbers kept for parse errors
    action = regular_action(pres, max_cosets)
    images = dict(zip(pres.generator_names, action))
    try:
        quad = tuple(images[nm] for nm in mark_names)
    except KeyError as exc:
        raise MapStructureError(f"mark line names unknown generator {exc}") from None
    return map_from_action(quad, f"fp[{len(action[0])}]")


def strip_mark_lines(text: str) -> str:
    """Presentation text with any mark lines blanked (for the order command)."""
    return "\n".join("" if _mark_names(raw) is not None else raw for raw in text.splitlines())


def _mark_names(raw: str) -> list[str] | None:
    """The names on a mark line (its first word is ``mark``), or None."""
    words = raw.split("#", 1)[0].split()
    return words[1:] if words[:1] == ["mark"] else None


def map_file_text(presentation_text: str) -> str:
    """The map file of a presentation on x, y, s, t: its text plus the
    line ``mark x y s t``."""
    body = presentation_text.rstrip("\n")
    return f"{body}\nmark {' '.join(MARK_NAMES)}\n"


# ---------------------------------------------------------------------------
# exhaustive search over one group


def _vertex_valency_for(group: FiniteGroup, want_chi: int) -> dict[int, int]:
    """The vertex valency k that gives chi = want_chi, keyed by face valency l.

    k and l range over the doubled element orders.  At a fixed order, chi =
    |H| (1/k - 1/2 + 1/l) strictly decreases in k, so each l has at most one
    such k; a second one raises VerificationError.
    """
    valencies = sorted({2 * o for o in group.element_orders})
    k_for_l: dict[int, int] = {}
    for l in valencies:
        for k in valencies:
            if euler_characteristic_formula(group.order, k, l) != want_chi:
                continue
            if l in k_for_l:
                raise VerificationError(
                    f"face valency {l} gives chi = {want_chi} with vertex valencies"
                    f" {k_for_l[l]} and {k} on a group of order {group.order}"
                )
            k_for_l[l] = k
    return k_for_l


def all_map_quadruples(group: FiniteGroup, want_chi: int | None = None):
    """Yield the valid maps on the group that can be the least quadruple of
    their class, in lexicographic mark order.

    A class is an orbit under Aut(H) and the reorderings (y,x,t,s),
    (s,t,x,y), (t,s,y,x).  With c(g) the least conjugate of g, its least
    quadruple has x = c(x), since conjugation is an automorphism; c(y),
    c(s), c(t) >= x, since a reordering followed by a conjugation puts that
    mark first; and y least among its conjugates by the centralizer of x,
    since those conjugations fix x.  Only quadruples that pass these three
    tests are yielded, so each class's least quadruple is the first of its
    class to come.  Conjugacy classes are computed for involutions only.

    x runs over the involutions with x = c(x), y over the involutions that
    commute with x and pass their tests, and s over the other involutions;
    the face valency l = 2 ord(sx) is then fixed.  With ``want_chi`` given,
    l fixes the one vertex valency k that gives that chi, so the s whose l
    admits no k are dropped from the s list, made once per x, and t runs
    only over the involutions with 2 ord(ty) = k (listed once per (y, k));
    a group where no l admits a k yields nothing at once.  Without it, t
    runs over the involutions that s runs over.  Each candidate that is
    distinct from x, y, s and commutes with s has its chi computed again
    before the generation check, the one test that builds a subgroup.
    """
    n, mul, orders = group.order, group.mul, group.element_orders
    invs = [g for g in range(n) if orders[g] == 2]
    if want_chi is not None:
        k_for_l = _vertex_valency_for(group, want_chi)
        if not k_for_l:
            return
        with_valency: dict[tuple[int, int], list[int]] = {}
    conj = {g: group.conjugates(g) for g in invs}
    low = {g: min(conj[g]) for g in invs}
    for x in invs:
        if low[x] != x:
            continue
        centralizer = [g for g, h in enumerate(conj[x]) if h == x]
        others = [g for g in invs if g != x and low[g] >= x]
        ys = [
            y for y in others
            if mul[x][y] == mul[y][x] and min(map(conj[y].__getitem__, centralizer)) == y
        ]
        if want_chi is None:
            s_list = [(s, None, None) for s in others]
        else:
            s_list = [
                (s, k_for_l[l], l) for s in others if (l := 2 * orders[mul[s][x]]) in k_for_l
            ]
        for y in ys:
            for s, k, l in s_list:
                if s == y:
                    continue
                if k is None:
                    ts = others
                else:
                    ts = with_valency.get((y, k))
                    if ts is None:
                        ts = with_valency[y, k] = [
                            t for t in invs if 2 * orders[mul[t][y]] == k
                        ]
                for t in ts:
                    if t in (x, y, s) or low[t] < x or mul[s][t] != mul[t][s]:
                        continue
                    if k is not None:
                        chi = euler_characteristic_formula(n, k, l)
                        if chi != want_chi:
                            raise VerificationError(
                                f"type ({k},{l}) was solved for chi = {want_chi} but gives {chi}"
                            )
                    if len(subgroup_closure(group, (x, y, s, t))) != n:
                        continue
                    yield _unchecked(group, (x, y, s, t))


def map_invariants(m: EdgeBiregularMap) -> dict:
    """The full invariant record of a map, in stable key order."""
    k, l = type_of(m)
    v, e, f = counts(m)
    return {
        "type": [k, l],
        "vertices": v,
        "edges": e,
        "faces": f,
        "chi": v - e + f,
        "orientable": is_orientable(m),
        "fully_regular": is_fully_regular(m),
        "self_dual": is_self_dual(m),
    }
